//! Simulated cloud deployment of the RSSE system (the paper's Fig. 1).
//!
//! * [`entities`] — data owner, honest-but-curious cloud server, and
//!   authorized users, wired through an exact-byte metered channel;
//! * [`codec`] — the hand-rolled binary wire format (every bandwidth number
//!   is a real frame size);
//! * [`network`] — latency/bandwidth cost model for comparing the one-round
//!   RSSE protocol against the basic scheme's naive and two-round variants;
//! * [`files`] — encrypted file storage;
//! * [`adversary`] — the statistical keyword-fingerprinting attack the
//!   one-to-many mapping defends against (Fig. 4 vs Fig. 6);
//! * [`transport`] / [`tcp`] — the byte-stream serving seam: one
//!   `Transport` trait over the deterministic in-process channel harness
//!   and a real non-blocking TCP event loop with pipelining and
//!   backpressure.
//!
//! # Example
//!
//! ```
//! use rsse_cloud::entities::{CloudServer, Deployment, Storage};
//! use rsse_core::RsseParams;
//! use rsse_ir::corpus::{CorpusParams, SyntheticCorpus};
//!
//! # fn main() -> Result<(), rsse_cloud::CloudError> {
//! let corpus = SyntheticCorpus::generate(&CorpusParams::small(3));
//! let cloud = Deployment::bootstrap(
//!     b"seed",
//!     RsseParams::default(),
//!     corpus.documents(),
//!     &Storage::Mem,
//!     CloudServer::DEFAULT_CACHE_BUDGET,
//! )?;
//! let (docs, traffic) = cloud.rsse_search("network", Some(5))?;
//! assert_eq!(docs.len(), 5);
//! assert_eq!(traffic.round_trips, 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversary;
pub mod audit;
pub mod cache;
pub mod codec;
pub mod entities;
pub mod error;
pub mod files;
pub mod keydist;
pub mod network;
pub mod server_loop;
pub mod shard;
pub mod tcp;
pub mod transport;

pub use audit::{AuditCounters, RequestKind, ServingReport};
pub use cache::{CacheStats, ConjunctiveCache, RankingCache};
pub use codec::{
    frame_message, BatchResult, CodecError, ErrorKind, FrameAssembler, Message, SearchMode,
    FRAME_HEADER_LEN, MAX_FRAME_LEN,
};
pub use entities::{CloudServer, DataOwner, Deployment, Storage, User};
pub use error::CloudError;
pub use files::{EncryptedFile, FileCrypter, FileStore};
pub use network::{MeteredChannel, NetworkParams, TrafficReport};
pub use server_loop::{
    serve_frame, Fault, FaultHook, PendingReply, PoolOptions, ServerClient, ServerHandle,
};
pub use shard::{
    merge_conjunctive_replies, BatchScatterOutcome, ConjunctiveScatterOutcome, IndexPartitioner,
    RouterOptions, ScatterOutcome, ShardRouter, ShardedDeployment,
};
pub use tcp::{TcpConnection, TcpServer, TcpServerOptions, TcpServerStats, TcpTransport};
pub use transport::{ChannelTransport, Connection, FrameMeter, Transport};
