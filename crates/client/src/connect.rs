//! Session factories: how a client (re)establishes its server link.
//!
//! [`Connector`] is *an open request/reply channel*; [`Connect`] is *a
//! way to open one*. The split matters once servers restart: a durable
//! Communix server comes back with its signature store recovered, but
//! every TCP connection from before the crash is dead. A daemon holding
//! a bare [`Connector`] is stuck; one holding a [`Connect`] factory
//! simply dials again on the next round
//! ([`ClientDaemon::spawn`](crate::ClientDaemon::spawn)).
//!
//! One factory exists per client flavor:
//!
//! * [`TcpConnect`] — one blocking connection ([`TcpClient`]);
//! * [`PipelinedConnect`] (unix) — a windowed pipelined connection
//!   ([`PipelinedConnector`](crate::PipelinedConnector));
//! * [`MultiConnect`] (unix) — a client-side reactor pool fanning one
//!   logical session across many connections
//!   ([`MultiClient`](crate::MultiClient));
//! * any `Fn() -> Result<impl Connector, SyncError>` closure — tests,
//!   simulations, and bench drivers.

use std::net::SocketAddr;

use communix_net::{Reply, Request, TcpClient};

#[cfg(unix)]
use crate::pipeline::{PipelineConfig, PipelinedConnector};
#[cfg(unix)]
use crate::reactor::MultiClient;
use crate::sync::{Connector, SyncError};

/// A factory for [`Connector`] sessions — the address/config half of a
/// client, separated from the live-socket half so long-running callers
/// can redial after a connection (or the whole server) dies instead of
/// holding one fragile session forever.
pub trait Connect {
    /// The session type a successful dial yields.
    type Session: Connector;

    /// Opens a fresh session to the server.
    ///
    /// # Errors
    ///
    /// Returns [`SyncError::Transport`] when the dial fails.
    fn connect(&self) -> Result<Self::Session, SyncError>;
}

/// Closures are factories: `move || Ok(fake_connector())` for tests and
/// simulations, or a capture that dials whatever transport a bench
/// driver is sweeping.
impl<F, C> Connect for F
where
    F: Fn() -> Result<C, SyncError>,
    C: Connector,
{
    type Session = C;

    fn connect(&self) -> Result<C, SyncError> {
        self()
    }
}

/// A [`TcpClient`] is the canonical blocking session.
impl Connector for TcpClient {
    fn call(&mut self, request: Request) -> Result<Reply, String> {
        TcpClient::call(self, &request).map_err(|e| e.to_string())
    }
}

/// Dials one blocking [`TcpClient`] connection per session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcpConnect {
    addr: SocketAddr,
}

impl TcpConnect {
    /// A factory dialing `addr`.
    pub fn new(addr: SocketAddr) -> Self {
        TcpConnect { addr }
    }

    /// The address this factory dials.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Connect for TcpConnect {
    type Session = TcpClient;

    fn connect(&self) -> Result<TcpClient, SyncError> {
        TcpClient::connect(self.addr).map_err(|e| SyncError::Transport(e.to_string()))
    }
}

/// Dials a pipelined connection per session (the
/// [`PipelinedClient`](crate::PipelinedClient) engine behind the
/// blocking [`Connector`] adapter).
#[cfg(unix)]
#[derive(Clone)]
pub struct PipelinedConnect {
    addr: SocketAddr,
    config: PipelineConfig,
}

#[cfg(unix)]
impl PipelinedConnect {
    /// A factory dialing `addr` with default pipeline knobs.
    pub fn new(addr: SocketAddr) -> Self {
        Self::with_config(addr, PipelineConfig::default())
    }

    /// A factory dialing `addr` with explicit pipeline knobs (each
    /// session gets a clone of `config`, including its registry handle).
    pub fn with_config(addr: SocketAddr, config: PipelineConfig) -> Self {
        PipelinedConnect { addr, config }
    }

    /// The address this factory dials.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }
}

#[cfg(unix)]
impl Connect for PipelinedConnect {
    type Session = PipelinedConnector;

    fn connect(&self) -> Result<PipelinedConnector, SyncError> {
        PipelinedConnector::with_config(self.addr, self.config.clone())
            .map_err(|e| SyncError::Transport(e.to_string()))
    }
}

/// Dials a client-side reactor pool per session: `conns` pipelined
/// connections driven by one loop thread, rotated round-robin behind
/// one [`Connector`].
#[cfg(unix)]
#[derive(Clone)]
pub struct MultiConnect {
    addr: SocketAddr,
    conns: usize,
    config: PipelineConfig,
}

#[cfg(unix)]
impl MultiConnect {
    /// A factory dialing `conns` connections to `addr` with default
    /// pipeline knobs.
    pub fn new(addr: SocketAddr, conns: usize) -> Self {
        Self::with_config(addr, conns, PipelineConfig::default())
    }

    /// A factory with explicit pipeline knobs.
    pub fn with_config(addr: SocketAddr, conns: usize, config: PipelineConfig) -> Self {
        MultiConnect {
            addr,
            conns,
            config,
        }
    }

    /// The address this factory dials.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }
}

#[cfg(unix)]
impl Connect for MultiConnect {
    type Session = MultiClient;

    fn connect(&self) -> Result<MultiClient, SyncError> {
        MultiClient::connect(self.addr, self.conns, self.config.clone())
            .map_err(|e| SyncError::Transport(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use communix_net::{Handler, TcpServer, TcpServerConfig};

    use crate::repo::LocalRepository;
    use crate::sync::sync_delta;

    /// An echo-ish server serving a fixed three-signature log.
    fn serve_fixture() -> TcpServer {
        let sigs: Arc<Vec<String>> = Arc::new(vec!["s0".into(), "s1".into(), "s2".into()]);
        let handler: Handler = Arc::new(move |req| match req {
            Request::GetDelta { from, .. } => {
                let start = (from as usize).min(sigs.len());
                Reply::Delta {
                    from,
                    total: sigs.len() as u64,
                    sigs: sigs[start..].to_vec(),
                }
            }
            other => Reply::Error {
                message: format!("fixture only serves GET_DELTA, got {other:?}"),
            },
        });
        TcpServer::threaded_with("127.0.0.1:0", handler, TcpServerConfig::default()).unwrap()
    }

    #[test]
    fn tcp_connect_dials_fresh_sessions() {
        let server = serve_fixture();
        let connect = TcpConnect::new(server.addr());
        assert_eq!(connect.addr(), server.addr());
        // Two independent sessions from one factory.
        for _ in 0..2 {
            let mut session = connect.connect().unwrap();
            let mut repo = LocalRepository::in_memory();
            assert_eq!(sync_delta(&mut session, &mut repo, 0).unwrap(), 3);
        }
    }

    #[test]
    fn tcp_connect_reports_dead_servers_as_transport_errors() {
        let addr = {
            let server = serve_fixture();
            server.addr()
            // Dropped here: the address is now (very likely) refused.
        };
        let connect = TcpConnect::new(addr);
        match connect.connect() {
            Err(SyncError::Transport(_)) => {}
            Ok(_) => {
                // The OS may briefly accept on the closing socket;
                // tolerate it rather than flake.
            }
            Err(other) => panic!("expected Transport error, got {other}"),
        }
    }

    #[test]
    fn closures_are_connect_factories() {
        let connect = || {
            let replies = vec![Reply::Delta {
                from: 0,
                total: 0,
                sigs: vec![],
            }];
            let mut replies = replies.into_iter();
            Ok(move |_req: Request| -> Result<Reply, String> {
                replies.next().ok_or_else(|| "script exhausted".to_string())
            })
        };
        let mut session = Connect::connect(&connect).unwrap();
        let mut repo = LocalRepository::in_memory();
        assert_eq!(sync_delta(&mut session, &mut repo, 0).unwrap(), 0);
    }

    #[cfg(unix)]
    #[test]
    fn pipelined_and_multi_factories_sync_the_same_log() {
        let server = serve_fixture();

        let connect = PipelinedConnect::new(server.addr());
        let mut session = connect.connect().unwrap();
        let mut repo = LocalRepository::in_memory();
        assert_eq!(sync_delta(&mut session, &mut repo, 0).unwrap(), 3);

        let connect = MultiConnect::new(server.addr(), 2);
        let mut session = connect.connect().unwrap();
        let mut repo = LocalRepository::in_memory();
        assert_eq!(sync_delta(&mut session, &mut repo, 0).unwrap(), 3);
        assert_eq!(repo.sig(2), Some("s2"));
    }
}
