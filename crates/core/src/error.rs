//! Error types for the RSSE scheme.

use core::fmt;
use rsse_crypto::CryptoError;
use rsse_opse::OpseError;

/// Errors from building or querying the RSSE scheme.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum RsseError {
    /// The query produced no searchable keyword (e.g. only stop words).
    EmptyQuery,
    /// The collection yields no scorable postings (empty corpus or
    /// degenerate scores), so the quantizer cannot be fitted.
    UnscorableCollection,
    /// A fixed padding target ν was smaller than some posting list.
    PaddingTooSmall {
        /// Configured ν.
        configured: usize,
        /// Longest posting list encountered.
        longest_list: usize,
    },
    /// A document referenced by an update was not scorable.
    UnknownDocument,
    /// The posting list under this label is not a whole number of
    /// entries of the length it requires: bytes under an entry length of
    /// 0, a cut-off last entry, entries of mixed lengths, or entries of
    /// another length than the list they join (an update's entries, and
    /// those of every list a server boots or reopens, must be
    /// [`crate::entry::ENTRY_CT_LEN`] bytes).
    MalformedList([u8; 20]),
    /// A posting list could not be read off the generation file that
    /// holds it (the file was truncated, removed or failing under the
    /// open store): the read error, as text.
    StoreRead(String),
    /// An order-preserving-encryption failure.
    Opse(OpseError),
    /// An underlying cryptographic failure.
    Crypto(CryptoError),
}

impl fmt::Display for RsseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RsseError::EmptyQuery => write!(f, "query contains no searchable keyword"),
            RsseError::UnscorableCollection => {
                write!(
                    f,
                    "collection has no scorable postings to fit the quantizer"
                )
            }
            RsseError::PaddingTooSmall {
                configured,
                longest_list,
            } => write!(
                f,
                "padding target {configured} smaller than longest posting list {longest_list}"
            ),
            RsseError::UnknownDocument => write!(f, "update references an unknown document"),
            RsseError::MalformedList(label) => write!(
                f,
                "posting list {:02x?}.. is not a whole number of entries of the length it requires",
                &label[..4]
            ),
            RsseError::StoreRead(e) => write!(f, "posting list unreadable: {e}"),
            RsseError::Opse(e) => write!(f, "order-preserving encryption failure: {e}"),
            RsseError::Crypto(e) => write!(f, "crypto failure: {e}"),
        }
    }
}

impl std::error::Error for RsseError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RsseError::Opse(e) => Some(e),
            RsseError::Crypto(e) => Some(e),
            _ => None,
        }
    }
}

impl From<OpseError> for RsseError {
    fn from(e: OpseError) -> Self {
        RsseError::Opse(e)
    }
}

impl From<CryptoError> for RsseError {
    fn from(e: CryptoError) -> Self {
        RsseError::Crypto(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        use std::error::Error;
        let e = RsseError::Opse(OpseError::PlaintextOutOfDomain {
            plaintext: 0,
            domain: 128,
        });
        assert!(e.to_string().contains("order-preserving"));
        assert!(e.source().is_some());
        assert!(RsseError::EmptyQuery.source().is_none());
    }
}
