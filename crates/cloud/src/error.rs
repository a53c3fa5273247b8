//! Error type for the cloud deployment simulation.

use crate::codec::{CodecError, ErrorKind};
use core::fmt;
use rsse_core::{PersistError, RsseError};
use rsse_crypto::CryptoError;
use rsse_sse::SseError;
use std::time::Duration;

/// Errors from the simulated deployment.
#[derive(Debug)]
#[non_exhaustive]
pub enum CloudError {
    /// Wire decoding failed.
    Codec(CodecError),
    /// The peer sent a message the handler does not expect in this state.
    UnexpectedMessage {
        /// What the handler expected.
        expected: &'static str,
    },
    /// The server answered with a [`crate::codec::Message::Error`] frame.
    Server {
        /// Typed failure category from the wire.
        kind: ErrorKind,
        /// The frame's detail string.
        detail: String,
    },
    /// A client call exceeded its deadline before the server replied.
    Timeout {
        /// The deadline that expired.
        after: Duration,
    },
    /// The transport to the server is gone (pool shut down or worker died
    /// before replying).
    Transport {
        /// What the transport was doing when it failed.
        context: &'static str,
    },
    /// Every shard of a scatter-gather query failed — there is no partial
    /// result left to degrade to. Individual shard failures are *not*
    /// errors (the router merges the surviving replies and reports the
    /// dead legs as degraded coverage); this fires only on total loss.
    AllShardsFailed {
        /// Number of shards queried, all of which failed.
        shards: u32,
    },
    /// Index persistence failure (creating, opening, flushing, or
    /// compacting an on-disk store).
    Persist(PersistError),
    /// RSSE scheme failure.
    Rsse(RsseError),
    /// Basic scheme failure.
    Sse(SseError),
    /// Cryptographic failure.
    Crypto(CryptoError),
}

impl CloudError {
    /// The [`ErrorKind`] a server puts on the wire when a request fails
    /// with this error: decode failures are `BadFrame`, out-of-protocol
    /// messages and malformed posting lists `Rejected`, everything else
    /// `Internal`.
    pub fn wire_kind(&self) -> ErrorKind {
        match self {
            CloudError::Codec(_) => ErrorKind::BadFrame,
            CloudError::UnexpectedMessage { .. }
            | CloudError::Rsse(RsseError::MalformedList(_))
            | CloudError::Sse(SseError::MalformedList(_)) => ErrorKind::Rejected,
            CloudError::Server { kind, .. } => *kind,
            _ => ErrorKind::Internal,
        }
    }
}

impl fmt::Display for CloudError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CloudError::Codec(e) => write!(f, "wire decoding failed: {e}"),
            CloudError::UnexpectedMessage { expected } => {
                write!(f, "unexpected message; expected {expected}")
            }
            CloudError::Server { kind, detail } => {
                write!(f, "server error ({kind}): {detail}")
            }
            CloudError::Timeout { after } => {
                write!(f, "no response within {} ms", after.as_millis())
            }
            CloudError::Transport { context } => write!(f, "transport failed: {context}"),
            CloudError::AllShardsFailed { shards } => {
                write!(f, "all {shards} shards failed; no partial result")
            }
            CloudError::Persist(e) => write!(f, "index persistence failed: {e}"),
            CloudError::Rsse(e) => write!(f, "rsse failure: {e}"),
            CloudError::Sse(e) => write!(f, "sse failure: {e}"),
            CloudError::Crypto(e) => write!(f, "crypto failure: {e}"),
        }
    }
}

impl std::error::Error for CloudError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CloudError::Codec(e) => Some(e),
            CloudError::Persist(e) => Some(e),
            CloudError::Rsse(e) => Some(e),
            CloudError::Sse(e) => Some(e),
            CloudError::Crypto(e) => Some(e),
            CloudError::UnexpectedMessage { .. }
            | CloudError::Server { .. }
            | CloudError::Timeout { .. }
            | CloudError::Transport { .. }
            | CloudError::AllShardsFailed { .. } => None,
        }
    }
}

impl From<CodecError> for CloudError {
    fn from(e: CodecError) -> Self {
        CloudError::Codec(e)
    }
}

impl From<RsseError> for CloudError {
    fn from(e: RsseError) -> Self {
        CloudError::Rsse(e)
    }
}

/// A stored list that breaks a scheme invariant is the scheme's error
/// ([`CloudError::Rsse`]), whichever door it came by.
impl From<PersistError> for CloudError {
    fn from(e: PersistError) -> Self {
        match e {
            PersistError::Rsse(e) => CloudError::Rsse(e),
            e => CloudError::Persist(e),
        }
    }
}

impl From<SseError> for CloudError {
    fn from(e: SseError) -> Self {
        CloudError::Sse(e)
    }
}

impl From<CryptoError> for CloudError {
    fn from(e: CryptoError) -> Self {
        CloudError::Crypto(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        use std::error::Error;
        let e = CloudError::Codec(CodecError::UnexpectedEof);
        assert!(e.to_string().contains("wire decoding"));
        assert!(e.source().is_some());
        let u = CloudError::UnexpectedMessage { expected: "files" };
        assert!(u.source().is_none());
        let s = CloudError::Server {
            kind: ErrorKind::Overloaded,
            detail: "backlog full".into(),
        };
        assert!(s.to_string().contains("overloaded"));
        assert!(s.source().is_none());
        let t = CloudError::Timeout {
            after: Duration::from_millis(250),
        };
        assert!(t.to_string().contains("250"));
        let a = CloudError::AllShardsFailed { shards: 4 };
        assert!(a.to_string().contains("all 4 shards"));
        assert!(a.source().is_none());
        assert_eq!(a.wire_kind(), ErrorKind::Internal);
    }

    #[test]
    fn wire_kind_maps_failure_classes() {
        assert_eq!(
            CloudError::Codec(CodecError::UnexpectedEof).wire_kind(),
            ErrorKind::BadFrame
        );
        assert_eq!(
            CloudError::UnexpectedMessage { expected: "x" }.wire_kind(),
            ErrorKind::Rejected
        );
        assert_eq!(
            CloudError::Crypto(CryptoError::IntegrityCheckFailed).wire_kind(),
            ErrorKind::Internal
        );
        assert_eq!(
            CloudError::Server {
                kind: ErrorKind::Overloaded,
                detail: String::new()
            }
            .wire_kind(),
            ErrorKind::Overloaded
        );
    }
}
