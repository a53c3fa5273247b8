//! Error types for the basic SSE scheme.

use core::fmt;
use rsse_crypto::CryptoError;

/// Errors from building or querying the basic scheme.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SseError {
    /// A fixed padding target ν was smaller than some posting list.
    PaddingTooSmall {
        /// Configured ν.
        configured: usize,
        /// Longest posting list encountered.
        longest_list: usize,
    },
    /// The query produced no searchable keyword (e.g. only stop words).
    EmptyQuery,
    /// The posting list under this label is not a whole number of
    /// equal-length entries.
    MalformedList([u8; 20]),
    /// An underlying cryptographic failure.
    Crypto(CryptoError),
}

impl fmt::Display for SseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SseError::PaddingTooSmall {
                configured,
                longest_list,
            } => write!(
                f,
                "padding target {configured} smaller than longest posting list {longest_list}"
            ),
            SseError::EmptyQuery => write!(f, "query contains no searchable keyword"),
            SseError::MalformedList(label) => write!(
                f,
                "posting list {:02x?}.. is not a whole number of equal-length entries",
                &label[..4]
            ),
            SseError::Crypto(e) => write!(f, "crypto failure: {e}"),
        }
    }
}

impl std::error::Error for SseError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SseError::Crypto(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CryptoError> for SseError {
    fn from(e: CryptoError) -> Self {
        SseError::Crypto(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        use std::error::Error;
        let e = SseError::Crypto(CryptoError::IntegrityCheckFailed);
        assert!(e.to_string().contains("crypto failure"));
        assert!(e.source().is_some());
        assert!(SseError::EmptyQuery.source().is_none());
    }
}
