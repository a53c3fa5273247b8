//! End-to-end test of the `rsse` command-line binary.

use std::fs;
use std::path::PathBuf;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_rsse"))
}

fn workdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rsse_cli_{name}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn full_cli_workflow() {
    let dir = workdir("workflow");
    let key = dir.join("key.txt");
    fs::write(&key, "cli test secret").unwrap();
    let corpus = dir.join("corpus");
    let index = dir.join("index.rsse");

    let out = bin()
        .args(["gen-corpus", "--docs", "30", "--seed", "5", "--out"])
        .arg(&corpus)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(fs::read_dir(&corpus).unwrap().count(), 30);

    let out = bin()
        .args(["build-index", "--secret-file"])
        .arg(&key)
        .args(["--corpus"])
        .arg(&corpus)
        .args(["--out"])
        .arg(&index)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(index.exists());

    let out = bin()
        .args(["search", "--secret-file"])
        .arg(&key)
        .args(["--index"])
        .arg(&index)
        .args(["--keyword", "network", "--top-k", "3"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("rank"), "no results table:\n{stdout}");
    assert!(stdout.lines().count() >= 2 && stdout.lines().count() <= 5);

    let out = bin()
        .args(["inspect", "--index"])
        .arg(&index)
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("posting lists"));
    assert!(stdout.contains("128 levels"));

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn wrong_secret_finds_nothing() {
    let dir = workdir("wrongkey");
    let key = dir.join("key.txt");
    let badkey = dir.join("bad.txt");
    fs::write(&key, "right secret").unwrap();
    fs::write(&badkey, "wrong secret").unwrap();
    let corpus = dir.join("corpus");
    let index = dir.join("index.rsse");

    assert!(bin()
        .args(["gen-corpus", "--docs", "10", "--out"])
        .arg(&corpus)
        .status()
        .unwrap()
        .success());
    assert!(bin()
        .args(["build-index", "--secret-file"])
        .arg(&key)
        .args(["--corpus"])
        .arg(&corpus)
        .args(["--out"])
        .arg(&index)
        .status()
        .unwrap()
        .success());

    let out = bin()
        .args(["search", "--secret-file"])
        .arg(&badkey)
        .args(["--index"])
        .arg(&index)
        .args(["--keyword", "network"])
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("no matches"));

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn an_index_of_another_entry_length_is_refused() {
    // An index file whose list holds 40-byte entries, the layout before
    // 32-byte entries: no search could rank it, so loading refuses it.
    let dir = workdir("old_layout");
    let key = dir.join("key.txt");
    fs::write(&key, "secret").unwrap();
    let index = dir.join("index.rsse");
    // Written byte by byte: the `RSSEIDX3` header (domain, range, one
    // list), the list's two entries, its directory record (label, offset
    // 32, byte length 80, count 2), then the directory's offset.
    let mut file = b"RSSEIDX3".to_vec();
    for field in [128u64, 1 << 46, 1] {
        file.extend_from_slice(&field.to_be_bytes());
    }
    file.extend_from_slice(&[1u8; 80]);
    file.extend_from_slice(&[1u8; 20]);
    for field in [32u64, 80, 2, 112] {
        file.extend_from_slice(&field.to_be_bytes());
    }
    fs::write(&index, file).unwrap();

    let search = bin()
        .args(["search", "--secret-file"])
        .arg(&key)
        .args(["--index"])
        .arg(&index)
        .args(["--keyword", "network"])
        .output()
        .unwrap();
    let inspect = bin()
        .args(["inspect", "--index"])
        .arg(&index)
        .output()
        .unwrap();
    for out in [search, inspect] {
        assert_eq!(out.status.code(), Some(1));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("is not a whole number of entries"),
            "{stderr}"
        );
    }

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn bad_invocations_fail_cleanly() {
    // No args: usage + exit code 2.
    let out = bin().output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));

    // Unknown command.
    let out = bin().arg("frobnicate").output().unwrap();
    assert!(!out.status.success());

    // Missing flag value.
    let out = bin().args(["search", "--index"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));

    // Nonexistent index file.
    let out = bin()
        .args(["inspect", "--index", "/nonexistent/nothing.rsse"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
}
