//! `rsse` — command-line front end for the ranked searchable encryption
//! library.
//!
//! ```text
//! rsse gen-corpus  --docs 200 --seed 7 --out ./corpus
//! rsse build-index --secret-file key.txt --corpus ./corpus --out index.rsse
//! rsse search      --secret-file key.txt --index index.rsse --keyword network --top-k 5
//! rsse inspect     --index index.rsse
//! ```
//!
//! The secret file holds the owner's master seed (any bytes); documents
//! are plain-text files; file ids are assigned by sorted file name.

use rsse::core::{Rsse, RsseIndex, RsseParams};
use rsse::ir::corpus::{CorpusParams, SyntheticCorpus};
use rsse::ir::{Document, FileId};
use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "\
usage:
  rsse gen-corpus  --docs <n> [--seed <u64>] --out <dir>
  rsse build-index --secret-file <file> --corpus <dir> --out <file> [--levels <M>] [--scoring eq2|bm25|tfidf]
  rsse search      --secret-file <file> --index <file> --keyword <w> [--top-k <k>]
  rsse inspect     --index <file>";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let flags = match parse_flags(rest) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match command.as_str() {
        "gen-corpus" => cmd_gen_corpus(&flags),
        "build-index" => cmd_build_index(&flags),
        "search" => cmd_search(&flags),
        "inspect" => cmd_inspect(&flags),
        other => Err(format!("unknown command {other:?}\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn parse_flags(args: &[String]) -> Result<HashMap<String, String>, String> {
    let mut flags = HashMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(name) = flag.strip_prefix("--") else {
            return Err(format!("expected --flag, found {flag:?}"));
        };
        let value = it
            .next()
            .ok_or_else(|| format!("--{name} requires a value"))?;
        flags.insert(name.to_string(), value.clone());
    }
    Ok(flags)
}

fn require<'a>(flags: &'a HashMap<String, String>, name: &str) -> Result<&'a str, String> {
    flags
        .get(name)
        .map(String::as_str)
        .ok_or_else(|| format!("missing required flag --{name}"))
}

fn cmd_gen_corpus(flags: &HashMap<String, String>) -> Result<(), String> {
    let docs: usize = require(flags, "docs")?
        .parse()
        .map_err(|e| format!("--docs: {e}"))?;
    let seed: u64 = flags
        .get("seed")
        .map(|s| s.parse().map_err(|e| format!("--seed: {e}")))
        .transpose()?
        .unwrap_or(42);
    let out = PathBuf::from(require(flags, "out")?);
    fs::create_dir_all(&out).map_err(|e| format!("creating {}: {e}", out.display()))?;

    let mut params = CorpusParams::small(seed);
    params.num_docs = docs;
    let corpus = SyntheticCorpus::generate(&params);
    for doc in corpus.documents() {
        let path = out.join(format!("doc{:06}.txt", doc.id().as_u64()));
        fs::write(&path, doc.text()).map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    println!(
        "wrote {} documents ({} bytes) to {}",
        docs,
        corpus.total_bytes(),
        out.display()
    );
    Ok(())
}

fn load_corpus(dir: &Path) -> Result<Vec<Document>, String> {
    let mut paths: Vec<PathBuf> = fs::read_dir(dir)
        .map_err(|e| format!("reading {}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.is_file())
        .collect();
    paths.sort();
    if paths.is_empty() {
        return Err(format!("no files in {}", dir.display()));
    }
    paths
        .iter()
        .enumerate()
        .map(|(i, path)| {
            let text =
                fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
            Ok(Document::new(FileId::new(i as u64 + 1), text))
        })
        .collect()
}

fn scheme_from_flags(flags: &HashMap<String, String>) -> Result<Rsse, String> {
    let secret_path = require(flags, "secret-file")?;
    let secret = fs::read(secret_path).map_err(|e| format!("reading secret {secret_path}: {e}"))?;
    if secret.is_empty() {
        return Err("secret file is empty".into());
    }
    let mut params = RsseParams::default();
    if let Some(levels) = flags.get("levels") {
        params.levels = levels.parse().map_err(|e| format!("--levels: {e}"))?;
    }
    if let Some(scoring) = flags.get("scoring") {
        params.scoring = match scoring.as_str() {
            "eq2" => rsse::ir::ScoringFunction::PaperEq2,
            "bm25" => rsse::ir::ScoringFunction::bm25(),
            "tfidf" => rsse::ir::ScoringFunction::SublinearTfIdf,
            other => {
                return Err(format!(
                    "--scoring: unknown function {other:?} (eq2|bm25|tfidf)"
                ))
            }
        };
    }
    Ok(Rsse::new(&secret, params))
}

fn cmd_build_index(flags: &HashMap<String, String>) -> Result<(), String> {
    let scheme = scheme_from_flags(flags)?;
    let corpus_dir = PathBuf::from(require(flags, "corpus")?);
    let out = require(flags, "out")?;
    let documents = load_corpus(&corpus_dir)?;
    let plaintext = rsse::ir::InvertedIndex::build(&documents);
    let (index, report) = scheme
        .build_index_with_report(&plaintext)
        .map_err(|e| format!("building index: {e}"))?;
    let file = fs::File::create(out).map_err(|e| format!("creating {out}: {e}"))?;
    index
        .save(std::io::BufWriter::new(file))
        .map_err(|e| format!("writing {out}: {e}"))?;
    println!(
        "indexed {} documents, {} keywords (ν = {}), {} OPM ops in {:.2?} -> {} ({} bytes)",
        report.num_docs,
        report.num_keywords,
        report.padded_len,
        report.opm_operations,
        report.build_time,
        out,
        report.index_bytes,
    );
    Ok(())
}

/// Loads the index file at `path`. `RsseIndex::load` refuses one whose
/// lists hold entries of another length than the scheme writes (an index
/// written in an older entry layout), which no search could rank.
fn load_index(path: &str) -> Result<RsseIndex, String> {
    let file = fs::File::open(path).map_err(|e| format!("opening {path}: {e}"))?;
    RsseIndex::load(std::io::BufReader::new(file)).map_err(|e| format!("loading {path}: {e}"))
}

fn cmd_search(flags: &HashMap<String, String>) -> Result<(), String> {
    let scheme = scheme_from_flags(flags)?;
    let index_path = require(flags, "index")?;
    let keyword = require(flags, "keyword")?;
    let top_k: Option<usize> = flags
        .get("top-k")
        .map(|s| s.parse().map_err(|e| format!("--top-k: {e}")))
        .transpose()?;
    let index = load_index(index_path)?;
    let trapdoor = scheme
        .trapdoor(keyword)
        .map_err(|e| format!("trapdoor: {e}"))?;
    let results = index.search(&trapdoor, top_k);
    if results.is_empty() {
        println!("no matches for {keyword:?}");
        return Ok(());
    }
    println!("rank  file        mapped-score");
    for (i, r) in results.iter().enumerate() {
        println!(
            "{:>4}  doc{:06}  {}",
            i + 1,
            r.file.as_u64(),
            r.encrypted_score
        );
    }
    Ok(())
}

fn cmd_inspect(flags: &HashMap<String, String>) -> Result<(), String> {
    let index_path = require(flags, "index")?;
    let index = load_index(index_path)?;
    println!("posting lists : {}", index.num_lists());
    println!("index bytes   : {}", index.size_bytes());
    if let Some(opse) = index.opse_params() {
        println!(
            "score domain  : {} levels, range 2^{}",
            opse.domain_size(),
            opse.range_bits()
        );
    }
    Ok(())
}
