//! The Communix client: a local signature repository kept in sync with
//! the Communix server by a background daemon (§III-B).
//!
//! Two ways to reach the server share the [`Connector`] abstraction:
//! the blocking helpers in [`sync_once`]/[`sync_delta`] over any
//! request→reply channel, and (on unix) the [`PipelinedClient`] engine,
//! which keeps a window of requests in flight on one nonblocking
//! connection and coalesces consecutive signature uploads into batch
//! frames. [`PipelinedConnector`] adapts the engine back into a
//! blocking [`Connector`], so every existing caller — including
//! [`ClientDaemon`] — can run over a pipelined connection unchanged.
//!
//! For many connections, [`ReactorPool`] (unix) is the client-side
//! reactor: one thread drives M pipelined connections over one shared
//! readiness poller, and [`MultiClient`] adapts a pool back into a
//! [`Connector`] (calls rotate round-robin across the members).
//!
//! All three flavors share the [`Connect`] session-factory trait:
//! [`TcpConnect`], [`PipelinedConnect`], and [`MultiConnect`] each dial
//! a fresh session on demand, so a daemon spawned with
//! [`ClientDaemon::spawn`] redials after a server restart and
//! resumes syncing against the recovered durable store (the epoch-aware
//! [`sync_delta`] handles a compacted, renumbered server log).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod connect;
mod daemon;
#[cfg(unix)]
mod pipeline;
#[cfg(unix)]
mod reactor;
mod repo;
mod sync;

pub use connect::{Connect, TcpConnect};
#[cfg(unix)]
pub use connect::{MultiConnect, PipelinedConnect};
pub use daemon::{ClientDaemon, DaemonStats};
#[cfg(unix)]
pub use pipeline::{
    Completion, PipelineConfig, PipelineError, PipelinedClient, PipelinedConnector,
};
#[cfg(unix)]
pub use reactor::{MultiClient, ReactorPool};
pub use repo::LocalRepository;
pub use sync::{
    fetch_stats, obtain_id, sync_delta, sync_once, upload_batch, upload_signature, Connector,
    SyncError,
};
