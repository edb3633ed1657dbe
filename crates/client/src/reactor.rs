//! A client-side connection reactor: one thread driving M pipelined
//! connections over one shared readiness poller.
//!
//! [`PipelinedClient`] already overlaps a window of requests on one
//! socket, but each client owns a private poller — a process driving
//! many connections still burns one OS thread per socket just to park
//! in `wait`. [`ReactorPool`] removes that cost: it registers every
//! member connection with a single [`ReadinessPool`], so **one thread**
//! fills windows, flushes, and dispatches replies across the whole pool
//! — [`ReactorPool::wait`] parks on one `epoll_wait` for all M sockets
//! instead of M threads parking on M pollers.
//!
//! Error containment is per connection: a member whose socket fails has
//! its outstanding requests completed with the error (exactly as a solo
//! [`PipelinedClient`] would), is dropped from the poller, and the rest
//! of the pool keeps running.
//!
//! [`MultiClient`] adapts a pool back into the blocking [`Connector`]
//! trait — calls rotate round-robin across the member connections — so
//! `sync_once`, `sync_delta`, and [`crate::ClientDaemon`] can run over
//! a reactor pool unchanged. For bulk traffic,
//! [`MultiClient::call_scattered`] fans a batch of requests across all
//! members and drives them concurrently from the calling thread.

use std::io;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use communix_net::{ReadinessPool, Reply, Request};
use communix_telemetry::Registry;
use parking_lot::Mutex;

use crate::pipeline::{Completion, PipelineConfig, PipelineError, PipelinedClient};
use crate::sync::Connector;

/// A pool of [`PipelinedClient`]s sharing one readiness poller: the
/// multi-connection client reactor. See the module docs for the model.
///
/// All member clients record into one telemetry [`Registry`] (the one
/// in the [`PipelineConfig`], or a fresh shared one), so `client.rtt` /
/// `client.inflight` aggregate across the pool.
pub struct ReactorPool {
    /// `None` marks a member whose connection failed and was dropped.
    clients: Vec<Option<PipelinedClient>>,
    pool: ReadinessPool,
    registry: Arc<Registry>,
}

impl std::fmt::Debug for ReactorPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReactorPool")
            .field("connections", &self.clients.len())
            .field("live", &self.live())
            .field("pending", &self.pending())
            .finish()
    }
}

impl ReactorPool {
    /// Opens `conns` pipelined connections to `addr` and registers them
    /// all with one shared poller. Every member gets `config`'s window
    /// and coalescing knobs and shares one registry.
    ///
    /// # Errors
    ///
    /// Propagates connection and poller-setup failures (no partial
    /// pool: the first failure abandons the already-opened members).
    pub fn connect(
        addr: SocketAddr,
        conns: usize,
        config: PipelineConfig,
    ) -> io::Result<ReactorPool> {
        let registry = config
            .registry
            .clone()
            .unwrap_or_else(|| Arc::new(Registry::new()));
        let mut pool = ReadinessPool::new()?;
        let mut clients = Vec::with_capacity(conns);
        for key in 0..conns {
            let client = PipelinedClient::connect(
                addr,
                PipelineConfig {
                    registry: Some(registry.clone()),
                    ..config.clone()
                },
            )?;
            pool.register(key, client.conn())?;
            clients.push(Some(client));
        }
        Ok(ReactorPool {
            clients,
            pool,
            registry,
        })
    }

    /// Member connections, live or failed.
    pub fn len(&self) -> usize {
        self.clients.len()
    }

    /// Whether the pool was created with zero connections.
    pub fn is_empty(&self) -> bool {
        self.clients.is_empty()
    }

    /// Members whose connection is still healthy.
    pub fn live(&self) -> usize {
        self.clients.iter().filter(|c| c.is_some()).count()
    }

    /// The shared metrics registry (pool-wide `client.*` telemetry).
    pub fn telemetry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Mutable access to member `i`'s engine (e.g. to submit requests
    /// on a specific connection). `None` if `i` is out of range or the
    /// member's connection failed.
    pub fn client_mut(&mut self, i: usize) -> Option<&mut PipelinedClient> {
        self.clients.get_mut(i).and_then(|c| c.as_mut())
    }

    /// Submits `request` on member `i`; on a failed or out-of-range
    /// member, `complete` fires immediately with
    /// [`PipelineError::Closed`].
    pub fn submit(&mut self, i: usize, request: Request, complete: Completion) {
        match self.client_mut(i) {
            Some(client) => client.submit(request, complete),
            None => complete(Err(PipelineError::Closed)),
        }
    }

    /// Requests queued or in flight across every live member.
    pub fn pending(&self) -> usize {
        self.clients.iter().flatten().map(|c| c.pending()).sum()
    }

    /// Whether no live member has anything queued or in flight.
    pub fn is_idle(&self) -> bool {
        self.clients.iter().flatten().all(|c| c.is_idle())
    }

    /// Pumps every live member: fills windows, flushes, dispatches
    /// replies (callbacks fire on this thread, inside this call). A
    /// member whose connection fails completes its outstanding requests
    /// with the error and leaves the pool; the rest keep running.
    ///
    /// # Errors
    ///
    /// Returns the first member failure encountered this call — after
    /// pumping the remaining members. The failed members' requests have
    /// already completed through their callbacks.
    pub fn pump(&mut self) -> Result<(), PipelineError> {
        let mut first_err = None;
        for i in 0..self.clients.len() {
            let Some(client) = self.clients[i].as_mut() else {
                continue;
            };
            if let Err(e) = client.pump() {
                first_err.get_or_insert(e);
                self.discard(i);
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Parks until any member socket can make progress or `timeout`
    /// elapses (`None` waits forever); syncs every live member's write
    /// interest first. Returns whether readiness arrived. Call
    /// [`ReactorPool::pump`] after.
    ///
    /// # Errors
    ///
    /// Propagates poller failures.
    pub fn wait(&mut self, timeout: Option<Duration>) -> io::Result<bool> {
        for (key, client) in self.clients.iter().enumerate() {
            if let Some(client) = client {
                self.pool.sync(key, client.conn())?;
            }
        }
        Ok(self.pool.wait(timeout)? > 0)
    }

    /// Blocks until every queued and in-flight request across the pool
    /// has completed, or `timeout` elapses (`None` waits forever).
    ///
    /// # Errors
    ///
    /// [`PipelineError::Timeout`] on deadline; otherwise the first
    /// member failure (whose requests completed with that error —
    /// draining continues for the surviving members before returning).
    pub fn drain(&mut self, timeout: Option<Duration>) -> Result<(), PipelineError> {
        let deadline = timeout.map(|t| Instant::now() + t);
        let mut first_err = None;
        loop {
            if let Err(e) = self.pump() {
                first_err.get_or_insert(e);
            }
            if self.is_idle() {
                return match first_err {
                    Some(e) => Err(e),
                    None => Ok(()),
                };
            }
            let mut slice = Duration::from_millis(50);
            if let Some(deadline) = deadline {
                let left = deadline.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    return Err(PipelineError::Timeout);
                }
                slice = slice.min(left);
            }
            if let Err(e) = self.wait(Some(slice)) {
                return Err(first_err.unwrap_or(PipelineError::Transport(e.to_string())));
            }
        }
    }

    /// Shuts the pool down. Requests still queued or in flight on any
    /// member complete immediately with [`PipelineError::Closed`] — a
    /// clean failure, not a hang — and every connection drops.
    pub fn shutdown(mut self) {
        for i in 0..self.clients.len() {
            if let Some(client) = self.clients[i].take() {
                let _ = self.pool.deregister(i, client.conn());
                client.shutdown();
            }
        }
    }

    /// Drops failed member `i` from the poller and the pool.
    fn discard(&mut self, i: usize) {
        if let Some(client) = self.clients[i].take() {
            debug_assert!(client.is_dead());
            let _ = self.pool.deregister(i, client.conn());
        }
    }
}

/// A blocking [`Connector`] over a [`ReactorPool`]: each call runs on
/// the next member connection round-robin, so sequential callers (e.g.
/// [`crate::ClientDaemon`]) spread their traffic across the pool, and
/// [`MultiClient::call_scattered`] drives all members concurrently from
/// one thread for bulk request batches.
#[derive(Debug)]
pub struct MultiClient {
    pool: ReactorPool,
    next: usize,
}

impl MultiClient {
    /// Opens a pool of `conns` connections (see
    /// [`ReactorPool::connect`]).
    ///
    /// # Errors
    ///
    /// Propagates connection and poller-setup failures.
    pub fn connect(
        addr: SocketAddr,
        conns: usize,
        config: PipelineConfig,
    ) -> io::Result<MultiClient> {
        Ok(MultiClient {
            pool: ReactorPool::connect(addr, conns, config)?,
            next: 0,
        })
    }

    /// The reactor pool underneath, e.g. for its telemetry.
    pub fn pool(&self) -> &ReactorPool {
        &self.pool
    }

    /// Unwraps back into the pool.
    pub fn into_pool(self) -> ReactorPool {
        self.pool
    }

    /// Fans `requests` across the pool's members round-robin and drives
    /// all of them concurrently from this thread, blocking until every
    /// request has resolved. Returns per-request results in input
    /// order: the server's reply, or the failure of the connection that
    /// carried it.
    pub fn call_scattered(&mut self, requests: Vec<Request>) -> Vec<Result<Reply, PipelineError>> {
        type Slots = Vec<Option<Result<Reply, PipelineError>>>;
        let n = requests.len();
        let results: Arc<Mutex<Slots>> = Arc::new(Mutex::new((0..n).map(|_| None).collect()));
        for (i, request) in requests.into_iter().enumerate() {
            let member = self.rotate();
            let fill = results.clone();
            self.pool.submit(
                member,
                request,
                Box::new(move |result| {
                    fill.lock()[i] = Some(result);
                }),
            );
        }
        // Every completion eventually fires: a reply arrives, or the
        // carrying connection dies and kills its requests — so this
        // loop terminates without a watchdog.
        while results.lock().iter().any(|r| r.is_none()) {
            let _ = self.pool.pump();
            if results.lock().iter().all(|r| r.is_some()) {
                break;
            }
            if self.pool.wait(Some(Duration::from_millis(50))).is_err() {
                break;
            }
        }
        let mut out = results.lock();
        out.drain(..)
            .map(|r| r.unwrap_or(Err(PipelineError::Closed)))
            .collect()
    }

    /// Next member index, round-robin over all slots (dead slots
    /// complete immediately with `Closed`, matching a dropped
    /// connection's behavior).
    fn rotate(&mut self) -> usize {
        let i = self.next % self.pool.len().max(1);
        self.next = self.next.wrapping_add(1);
        i
    }
}

impl Connector for MultiClient {
    fn call(&mut self, request: Request) -> Result<Reply, String> {
        let slot: Arc<Mutex<Option<Result<Reply, PipelineError>>>> = Arc::new(Mutex::new(None));
        let fill = slot.clone();
        let member = self.rotate();
        self.pool.submit(
            member,
            request,
            Box::new(move |result| *fill.lock() = Some(result)),
        );
        loop {
            // A connection failure completes the slot with the error
            // before pump returns it — check the slot first so the
            // request's own verdict wins.
            let pumped = self.pool.pump();
            if let Some(result) = slot.lock().take() {
                return result.map_err(|e| e.to_string());
            }
            pumped.map_err(|e| e.to_string())?;
            self.pool
                .wait(Some(Duration::from_millis(50)))
                .map_err(|e| e.to_string())?;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    use communix_net::{Handler, TcpServer, TcpServerConfig};

    fn echo_server(reactors: usize) -> TcpServer {
        let handler: Handler = Arc::new(|req| match req {
            Request::IssueId { user } => Reply::Id {
                id: [(user & 0xff) as u8; 16],
            },
            other => Reply::Error {
                message: format!("unexpected {other:?}"),
            },
        });
        TcpServer::bind_with(
            "127.0.0.1:0",
            handler,
            TcpServerConfig {
                reactors,
                ..TcpServerConfig::default()
            },
        )
        .expect("bind")
    }

    /// One thread, 8 pooled connections, a window of requests on each:
    /// every reply must reach its own connection's callback with FIFO
    /// matching intact.
    #[test]
    fn one_thread_drives_many_connections_fifo() {
        let server = echo_server(2);
        let conns = 8usize;
        let per_conn = 16u64;
        let mut pool =
            ReactorPool::connect(server.addr(), conns, PipelineConfig::default()).unwrap();
        let completed = Arc::new(AtomicU64::new(0));
        for i in 0..conns {
            for k in 0..per_conn {
                let user = (i as u64) * 1000 + k;
                let completed = completed.clone();
                pool.submit(
                    i,
                    Request::IssueId { user },
                    Box::new(move |result| {
                        assert_eq!(
                            result.expect("pooled reply"),
                            Reply::Id {
                                id: [(user & 0xff) as u8; 16]
                            }
                        );
                        completed.fetch_add(1, Ordering::Relaxed);
                    }),
                );
            }
        }
        pool.drain(Some(Duration::from_secs(30))).unwrap();
        assert_eq!(completed.load(Ordering::Relaxed), conns as u64 * per_conn);
        assert_eq!(pool.live(), conns);
        pool.shutdown();
    }

    /// A server shutdown mid-window fails outstanding requests through
    /// their callbacks instead of hanging, and the failed members leave
    /// the pool.
    #[test]
    fn member_failure_is_contained_and_reported() {
        let mut server = echo_server(1);
        let mut pool = ReactorPool::connect(server.addr(), 4, PipelineConfig::default()).unwrap();
        let failed = Arc::new(AtomicU64::new(0));
        server.shutdown();
        for i in 0..4 {
            let failed = failed.clone();
            pool.submit(
                i,
                Request::IssueId { user: i as u64 },
                Box::new(move |result| {
                    if result.is_err() {
                        failed.fetch_add(1, Ordering::Relaxed);
                    }
                }),
            );
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while pool.live() > 0 && Instant::now() < deadline {
            let _ = pool.pump();
            let _ = pool.wait(Some(Duration::from_millis(20)));
        }
        assert_eq!(pool.live(), 0, "dead members must leave the pool");
        assert_eq!(failed.load(Ordering::Relaxed), 4);
        pool.shutdown();
    }

    /// Shutdown with frames still in flight completes every callback
    /// with `Closed` — a clean failure, never a hang.
    #[test]
    fn shutdown_with_inflight_completes_everything() {
        let server = echo_server(2);
        let mut pool = ReactorPool::connect(server.addr(), 4, PipelineConfig::default()).unwrap();
        let resolved = Arc::new(AtomicU64::new(0));
        for i in 0..4 {
            for user in 0..8u64 {
                let resolved = resolved.clone();
                pool.submit(
                    i,
                    Request::IssueId { user },
                    Box::new(move |_| {
                        resolved.fetch_add(1, Ordering::Relaxed);
                    }),
                );
            }
        }
        pool.shutdown(); // no drain: most requests are still queued
        assert_eq!(resolved.load(Ordering::Relaxed), 32);
    }

    /// The blocking facade: calls rotate across members and the
    /// scattered path resolves every request in input order.
    #[test]
    fn multi_client_connector_and_scatter() {
        let server = echo_server(2);
        let mut multi = MultiClient::connect(server.addr(), 3, PipelineConfig::default()).unwrap();
        for user in 0..9u64 {
            let reply = multi.call(Request::IssueId { user }).unwrap();
            assert_eq!(
                reply,
                Reply::Id {
                    id: [(user & 0xff) as u8; 16]
                }
            );
        }
        let replies =
            multi.call_scattered((0..30u64).map(|user| Request::IssueId { user }).collect());
        assert_eq!(replies.len(), 30);
        for (user, reply) in replies.into_iter().enumerate() {
            assert_eq!(
                reply.expect("scattered reply"),
                Reply::Id {
                    id: [(user as u64 & 0xff) as u8; 16]
                }
            );
        }
        multi.into_pool().shutdown();
    }

    /// `ClientDaemon` runs over a `MultiClient` unchanged: the pool is
    /// just another `Connector`, dialed through `MultiConnect`.
    #[test]
    fn client_daemon_runs_over_a_reactor_pool() {
        let calls = Arc::new(AtomicU64::new(0));
        let calls2 = calls.clone();
        let handler: Handler = Arc::new(move |req| match req {
            Request::GetDelta { from, .. } => {
                calls2.fetch_add(1, Ordering::SeqCst);
                Reply::Delta {
                    from,
                    total: from + 1,
                    sigs: vec![format!("s{from}")],
                }
            }
            other => Reply::Error {
                message: format!("unexpected {other:?}"),
            },
        });
        let mut server = TcpServer::bind("127.0.0.1:0", handler).unwrap();
        let connect = crate::MultiConnect::new(server.addr(), 2);
        let repo = Arc::new(Mutex::new(crate::LocalRepository::in_memory()));
        let mut daemon = crate::ClientDaemon::spawn(connect, repo, Duration::from_millis(10), 0);
        let deadline = Instant::now() + Duration::from_secs(10);
        while calls.load(Ordering::SeqCst) < 3 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        daemon.shutdown();
        let stats = daemon.stats();
        assert!(stats.rounds >= 3, "daemon over a pool must sync: {stats:?}");
        server.shutdown();
    }
}
