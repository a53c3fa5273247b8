//! Tokenization pipeline: case folding → splitting → stop-word removal →
//! Porter stemming.
//!
//! Mirrors the "standard IR techniques" the paper applies before keyword
//! extraction (§II, footnote 2).

use crate::stem::porter_stem;

/// The default English stop-word list (a compact version of the classic
/// SMART list — enough to keep function words out of the index).
pub const STOP_WORDS: &[&str] = &[
    "a", "about", "above", "after", "again", "all", "also", "am", "an", "and", "any", "are", "as",
    "at", "be", "because", "been", "before", "being", "below", "between", "both", "but", "by",
    "can", "could", "did", "do", "does", "doing", "down", "during", "each", "few", "for", "from",
    "further", "had", "has", "have", "having", "he", "her", "here", "hers", "him", "his", "how",
    "i", "if", "in", "into", "is", "it", "its", "just", "may", "me", "more", "most", "must", "my",
    "no", "nor", "not", "now", "of", "off", "on", "once", "only", "or", "other", "our", "out",
    "over", "own", "same", "shall", "she", "should", "so", "some", "such", "than", "that", "the",
    "their", "them", "then", "there", "these", "they", "this", "those", "through", "to", "too",
    "under", "until", "up", "upon", "very", "was", "we", "were", "what", "when", "where", "which",
    "while", "who", "whom", "why", "will", "with", "would", "you", "your",
];

/// Configuration for the tokenizer.
#[derive(Debug, Clone)]
pub struct TokenizerConfig {
    /// Drop tokens found in the stop list.
    pub remove_stop_words: bool,
    /// Apply the Porter stemmer.
    pub stem: bool,
    /// Drop tokens shorter than this many characters (after stemming).
    pub min_token_len: usize,
}

impl Default for TokenizerConfig {
    fn default() -> Self {
        TokenizerConfig {
            remove_stop_words: true,
            stem: true,
            min_token_len: 2,
        }
    }
}

/// The tokenization pipeline.
///
/// # Example
///
/// ```
/// use rsse_ir::text::Tokenizer;
///
/// let t = Tokenizer::new();
/// let tokens = t.tokenize("The networks are routing packets!");
/// assert_eq!(tokens, vec!["network", "rout", "packet"]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Tokenizer {
    config: TokenizerConfig,
}

impl Tokenizer {
    /// Creates a tokenizer with the default configuration (stop words
    /// removed, stemming on).
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a tokenizer with an explicit configuration.
    pub fn with_config(config: TokenizerConfig) -> Self {
        Tokenizer { config }
    }

    /// Whether `word` (already lowercase) is a stop word.
    pub fn is_stop_word(word: &str) -> bool {
        STOP_WORDS.binary_search(&word).is_ok()
    }

    /// Splits `text` into raw tokens: maximal runs of alphanumeric
    /// characters, as written.
    pub(crate) fn raw_tokens(text: &str) -> impl Iterator<Item = &str> {
        text.split(|c: char| !c.is_alphanumeric())
            .filter(|s| !s.is_empty())
    }

    /// The index term of one raw token (a run of alphanumeric characters,
    /// as [`Self::tokenize`] splits a text), or `None` when the token is
    /// dropped: case folding, stop-word removal, stemming and the minimum
    /// length, in that order.
    ///
    /// Index terms are stemmer *fixed points* (stemming is iterated until
    /// stable) and are stop-word-filtered both before and after stemming
    /// ("NOS" → "no" would otherwise smuggle a stop word into the index),
    /// so normalizing a term yields the term itself.
    ///
    /// # Example
    ///
    /// ```
    /// use rsse_ir::text::Tokenizer;
    ///
    /// let t = Tokenizer::new();
    /// assert_eq!(t.normalize("Networks").as_deref(), Some("network"));
    /// assert_eq!(t.normalize("NOS"), None);
    /// ```
    pub fn normalize(&self, raw: &str) -> Option<String> {
        let stop = |word: &str| self.config.remove_stop_words && Self::is_stop_word(word);
        let lower = raw.to_lowercase();
        if stop(&lower) {
            return None;
        }
        let mut word = lower;
        // Porter is not idempotent on rare inputs; iterate to a fixed
        // point (converges in a couple of steps).
        if self.config.stem {
            loop {
                let stemmed = porter_stem(&word);
                if stemmed == word {
                    break;
                }
                word = stemmed;
            }
        }
        (!stop(&word) && word.chars().count() >= self.config.min_token_len).then_some(word)
    }

    /// Splits `text` into index terms: [`Self::normalize`] over each of
    /// its raw tokens, so `tokenize` is idempotent: re-tokenizing its own
    /// output yields the same terms.
    pub fn tokenize(&self, text: &str) -> Vec<String> {
        Self::raw_tokens(text)
            .filter_map(|raw| self.normalize(raw))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stop_word_list_is_sorted_for_binary_search() {
        let mut sorted = STOP_WORDS.to_vec();
        sorted.sort_unstable();
        assert_eq!(sorted, STOP_WORDS, "STOP_WORDS must stay sorted");
    }

    #[test]
    fn basic_pipeline() {
        let t = Tokenizer::new();
        assert_eq!(
            t.tokenize("The quick brown foxes are jumping!"),
            vec!["quick", "brown", "fox", "jump"]
        );
    }

    #[test]
    fn case_folding() {
        let t = Tokenizer::new();
        assert_eq!(t.tokenize("NETWORK Network network"), vec!["network"; 3]);
    }

    #[test]
    fn punctuation_and_numbers() {
        let t = Tokenizer::new();
        assert_eq!(
            t.tokenize("TCP/IP, RFC-793; port=80"),
            vec!["tcp", "ip", "rfc", "793", "port", "80"]
        );
    }

    #[test]
    fn stop_words_removed() {
        let t = Tokenizer::new();
        assert!(t.tokenize("the of and to in").is_empty());
    }

    #[test]
    fn stemming_can_be_disabled() {
        let t = Tokenizer::with_config(TokenizerConfig {
            stem: false,
            ..TokenizerConfig::default()
        });
        assert_eq!(t.tokenize("networks routing"), vec!["networks", "routing"]);
    }

    #[test]
    fn stop_removal_can_be_disabled() {
        let t = Tokenizer::with_config(TokenizerConfig {
            remove_stop_words: false,
            stem: false,
            min_token_len: 1,
        });
        assert_eq!(t.tokenize("the cat"), vec!["the", "cat"]);
    }

    #[test]
    fn min_length_filter() {
        let t = Tokenizer::new();
        // Single letters survive splitting but are dropped by the filter
        // ("a" is also a stop word; "x" is not).
        assert!(t.tokenize("x y z").is_empty());
    }

    #[test]
    fn empty_and_whitespace_input() {
        let t = Tokenizer::new();
        assert!(t.tokenize("").is_empty());
        assert!(t.tokenize("   \t\n  ").is_empty());
    }

    #[test]
    fn unicode_survives() {
        let t = Tokenizer::new();
        let tokens = t.tokenize("café naïve");
        assert_eq!(tokens, vec!["café", "naïve"]);
    }
}
