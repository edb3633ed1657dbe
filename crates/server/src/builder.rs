//! One front door for standing up a Communix server.
//!
//! [`ServerBuilder`] assembles the server (rate limit, optional
//! durability) and binds its TCP transport (event-driven by default,
//! thread-per-connection with [`ServerBuilder::threaded`], transport
//! tunables such as the reactor count through
//! [`ServerBuilder::tcp_config`]). The transport records into the
//! server's telemetry registry, so one `STATS` reply covers both.
//!
//! ```no_run
//! let (server, tcp) = communix_server::builder()
//!     .serve("127.0.0.1:0")
//!     .unwrap();
//! println!("listening on {} via {}", tcp.addr(), tcp.transport());
//! # let _ = server;
//! ```
//!
//! With durability:
//!
//! ```no_run
//! let (server, tcp) = communix_server::builder()
//!     .durable("/var/lib/communix")
//!     .serve("0.0.0.0:7077")
//!     .unwrap();
//! println!("recovered {:?}", server.store().recovery());
//! # let _ = tcp;
//! ```

use std::io;
use std::sync::Arc;

use communix_clock::SystemClock;
use communix_net::{Handler, TcpServer, TcpServerConfig};
use communix_telemetry::Registry;

use crate::server::{CommunixServer, ServerConfig};
use crate::store::DurabilityConfig;

/// Builder for a [`CommunixServer`] and (optionally) its TCP transport.
/// Start from [`builder`](crate::builder); finish with
/// [`build`](ServerBuilder::build) for an unbound server or
/// [`serve`](ServerBuilder::serve) to also bind the transport.
#[derive(Debug, Default)]
pub struct ServerBuilder {
    config: ServerConfig,
    durability: Option<DurabilityConfig>,
    threaded: bool,
    tcp: TcpServerConfig,
}

impl ServerBuilder {
    /// Maximum signatures processed per sender per day (paper: 10).
    #[must_use]
    pub fn daily_limit(mut self, limit: usize) -> Self {
        self.config.daily_limit = limit;
        self
    }

    /// Journals the signature store under `dir` with default durability
    /// knobs (see [`DurabilityConfig::new`]); recovery runs inside
    /// [`build`](ServerBuilder::build).
    #[must_use]
    pub fn durable(self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.durability(DurabilityConfig::new(dir))
    }

    /// Journals the signature store with explicit durability knobs.
    #[must_use]
    pub fn durability(mut self, config: DurabilityConfig) -> Self {
        self.durability = Some(config);
        self
    }

    /// Uses the thread-per-connection baseline transport instead of the
    /// event-driven readiness loop.
    #[must_use]
    pub fn threaded(mut self) -> Self {
        self.threaded = true;
        self
    }

    /// Transport tunables (reactor shards, idle timeout, poller
    /// backend). Its `registry` field defaults to the server's own at
    /// serve time.
    #[must_use]
    pub fn tcp_config(mut self, config: TcpServerConfig) -> Self {
        self.tcp = config;
        self
    }

    /// Builds the [`CommunixServer`] (recovering the durable store
    /// first, when configured) without binding a transport.
    ///
    /// # Errors
    ///
    /// Propagates durable-store recovery failures.
    pub fn build(self) -> io::Result<Arc<CommunixServer>> {
        let clock = Arc::new(SystemClock::new());
        let registry = Arc::new(Registry::new());
        Ok(Arc::new(match self.durability {
            Some(durability) => {
                CommunixServer::open_durable(self.config, durability, clock, registry)?
            }
            None => CommunixServer::with_registry(self.config, clock, registry),
        }))
    }

    /// Builds the server and binds it on `addr` (port 0 for ephemeral)
    /// over the configured transport.
    ///
    /// # Errors
    ///
    /// Propagates durable-store recovery and bind failures.
    pub fn serve(mut self, addr: &str) -> io::Result<(Arc<CommunixServer>, TcpServer)> {
        let (threaded, mut tcp) = (self.threaded, std::mem::take(&mut self.tcp));
        let server = self.build()?;
        if tcp.registry.is_none() {
            tcp.registry = Some(server.telemetry().clone());
        }
        let handler: Handler = {
            let server = server.clone();
            Arc::new(move |req| server.handle(req))
        };
        let tcp_server = if threaded {
            TcpServer::threaded_with(addr, handler, tcp)?
        } else {
            TcpServer::bind_with(addr, handler, tcp)?
        };
        Ok((server, tcp_server))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use communix_net::{Reply, Request, TcpClient};

    #[test]
    fn builder_defaults_match_server_defaults() {
        let server = crate::builder().build().unwrap();
        assert_eq!(server.store().shard_count(), crate::DEFAULT_SHARDS);
        assert!(!server.store().is_durable());
    }

    #[test]
    fn daily_limit_reaches_the_server() {
        let server = crate::builder().daily_limit(1).build().unwrap();
        let sender = server.authority().issue(1);
        let add = |sig_text: String| server.handle(Request::Add { sender, sig_text });
        assert!(matches!(
            add(test_sig()),
            Reply::AddAck { accepted: true, .. }
        ));
        let Reply::AddAck { accepted, reason } = add(other_sig()) else {
            panic!("expected AddAck")
        };
        assert!(!accepted);
        assert_eq!(reason, "daily signature budget exhausted");
    }

    #[test]
    fn builder_serves_both_transports() {
        let (server, tcp) = crate::builder().serve("127.0.0.1:0").unwrap();
        if cfg!(unix) {
            assert!(tcp.transport().starts_with("event-"));
        }
        assert!(
            Arc::ptr_eq(server.telemetry(), tcp.telemetry()),
            "transport defaults to the server's registry"
        );
        let mut c = TcpClient::connect(tcp.addr()).unwrap();
        assert!(matches!(
            c.call(&Request::Get { from: 0 }).unwrap(),
            Reply::Sigs { .. }
        ));

        let (_server, tcp) = crate::builder().threaded().serve("127.0.0.1:0").unwrap();
        assert_eq!(tcp.transport(), "threaded");
        let mut c = TcpClient::connect(tcp.addr()).unwrap();
        assert!(matches!(
            c.call(&Request::Get { from: 0 }).unwrap(),
            Reply::Sigs { .. }
        ));
    }

    /// Every numeric leaf of a `STATS` reply's JSON, looked up by path.
    fn stats_lookup(c: &mut TcpClient) -> impl Fn(&str) -> f64 {
        let Reply::Stats { json } = c.call(&Request::Stats).unwrap() else {
            panic!("expected Stats reply");
        };
        let nums = communix_telemetry::json::flatten_numbers(&json).expect("valid json");
        move |path: &str| {
            nums.iter()
                .find(|(p, _)| p == path)
                .map(|(_, v)| *v)
                .unwrap_or_else(|| panic!("missing {path} in {json}"))
        }
    }

    #[test]
    fn stats_over_tcp_covers_server_and_transport() {
        let (server, tcp) = crate::builder().serve("127.0.0.1:0").unwrap();
        assert!(
            Arc::ptr_eq(server.telemetry(), tcp.telemetry()),
            "transport must share the server's registry"
        );
        let mut c = TcpClient::connect(tcp.addr()).unwrap();
        c.call(&Request::Get { from: 0 }).unwrap();
        let find = stats_lookup(&mut c);
        // One snapshot sees the request path *and* the connection layer.
        assert_eq!(find("counters.server.gets"), 1.0);
        assert_eq!(find("counters.transport.accepted"), 1.0);
        assert_eq!(find("gauges.transport.connections.current"), 1.0);
        assert_eq!(find("histograms.server.latency.get.count"), 1.0);
    }

    #[cfg(unix)]
    #[test]
    fn stats_snapshot_spans_every_reactor_shard() {
        let (_server, tcp) = crate::builder()
            .tcp_config(TcpServerConfig {
                reactors: 4,
                ..TcpServerConfig::default()
            })
            .serve("127.0.0.1:0")
            .unwrap();
        assert_eq!(tcp.reactors(), 4);
        // Several live connections so the accept thread has something to
        // spread; each makes a call so every shard's loop actually ran.
        let mut clients: Vec<TcpClient> = (0..6)
            .map(|_| TcpClient::connect(tcp.addr()).unwrap())
            .collect();
        for c in &mut clients {
            c.call(&Request::Get { from: 0 }).unwrap();
        }
        let find = stats_lookup(&mut clients[0]);
        let per_shard: f64 = (0..4)
            .map(|i| find(&format!("gauges.transport.reactor.{i}.connections.current")))
            .sum();
        assert_eq!(per_shard, find("gauges.transport.connections.current"));
        assert_eq!(per_shard, 6.0);
        assert_eq!(
            find("counters.transport.accept_handoffs"),
            find("counters.transport.accepted")
        );
        let shard_frames: f64 = (0..4)
            .map(|i| find(&format!("counters.transport.reactor.{i}.frames")))
            .sum();
        // 6 GETs + 1 STATS, every one decoded on some shard.
        assert_eq!(shard_frames, 7.0);
    }

    #[test]
    fn durable_builder_recovers_across_restarts() {
        let dir =
            std::env::temp_dir().join(format!("communix-builder-durable-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let sig = test_sig();
        {
            let (server, tcp) = crate::builder()
                .durable(&dir)
                .threaded()
                .serve("127.0.0.1:0")
                .unwrap();
            assert!(server.store().is_durable());
            let id = server.authority().issue(1);
            let mut c = TcpClient::connect(tcp.addr()).unwrap();
            let Reply::AddAck { accepted, .. } = c
                .call(&Request::Add {
                    sender: id,
                    sig_text: sig.clone(),
                })
                .unwrap()
            else {
                panic!("expected AddAck")
            };
            assert!(accepted);
            server.store().sync().unwrap();
        }
        let server = crate::builder().durable(&dir).build().unwrap();
        assert_eq!(server.store().recovery().wal_records, 1);
        assert_eq!(server.store().get_from(0), vec![sig]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A minimal parseable signature (depth ≥ 1 on both stacks).
    fn test_sig() -> String {
        sig_in("app.C")
    }

    /// A signature sharing no frame with [`test_sig`], so not adjacent.
    fn other_sig() -> String {
        sig_in("app.D")
    }

    fn sig_in(class: &str) -> String {
        use communix_dimmunix::{CallStack, Frame, SigEntry, Signature};
        let deep =
            |base: u32| -> CallStack { (0..6).map(|i| Frame::new(class, "f", base + i)).collect() };
        Signature::local(vec![
            SigEntry::new(deep(100), deep(500)),
            SigEntry::new(deep(200), deep(600)),
        ])
        .to_string()
    }
}
