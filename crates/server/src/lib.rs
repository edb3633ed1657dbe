//! The Communix server: collects deadlock signatures from Dimmunix
//! deployments and serves them back to clients (§III-B), with the
//! server-side validation of §III-C2 (encrypted sender ids, adjacency
//! rejection, 10-per-day rate limiting).
//!
//! Standing a server up goes through one front door, [`builder`] (see
//! [`ServerBuilder`]): rate limit, durability, transport choice and
//! transport tunables. The signature store is
//! durable when asked ([`ServerBuilder::durable`]): accepted signatures
//! are journaled to a write-ahead log, periodically snapshotted and
//! compacted, and recovered — snapshot first, then the WAL tail — on
//! the next boot (see the [`store`] module docs for the format and the
//! epoch rule).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod auth;
mod builder;
mod db;
mod server;
pub mod store;

pub use auth::IdAuthority;
pub use builder::ServerBuilder;
pub use db::{ShardStats, DEFAULT_SHARDS};
pub use server::{CommunixServer, RejectReason, ServerConfig, ServerStats};
pub use store::{DurabilityConfig, RecoveryReport, Store};

/// Starts a [`ServerBuilder`] with every knob at its default (event
/// transport, in-memory store, system clock, fresh telemetry registry).
pub fn builder() -> ServerBuilder {
    ServerBuilder::default()
}
