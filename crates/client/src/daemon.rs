//! The Communix client daemon.
//!
//! "The Communix client runs as a background process, decoupled from the
//! agent. Without this decoupling, the Communix agent would have to
//! connect to the server and retrieve new deadlock signatures every time
//! a Java application starts." (§III-B)
//!
//! "The local repository is updated once a day; a high frequency (e.g.,
//! once a minute) would overload the Communix server." (§III-B)

use std::sync::mpsc::{self, RecvTimeoutError, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::Mutex;

use crate::connect::Connect;
use crate::repo::LocalRepository;
use crate::sync::{sync_delta, SyncError};

/// Statistics of a running daemon. A round is counted when it ends.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DaemonStats {
    /// Sync rounds attempted.
    pub rounds: u64,
    /// Signatures downloaded in total.
    pub downloaded: u64,
    /// Rounds that failed (server unreachable etc.); the daemon retries
    /// on the next period.
    pub failures: u64,
    /// Sessions dialed — `1` for the initial dial, more after transport
    /// failures forced a redial.
    pub reconnects: u64,
}

/// A background thread that periodically syncs a repository.
#[derive(Debug)]
pub struct ClientDaemon {
    stop: SyncSender<()>,
    handle: Option<JoinHandle<()>>,
    stats: Arc<Mutex<DaemonStats>>,
}

impl ClientDaemon {
    /// The paper's refresh period.
    pub const DEFAULT_PERIOD: Duration = Duration::from_secs(24 * 60 * 60);

    /// Spawns a daemon that syncs `repo` every `period` through the
    /// batched `GET_DELTA` protocol, `window` signatures per reply (0
    /// defers to the server's window). The first sync runs immediately.
    ///
    /// The daemon dials through the session factory `connect` on first
    /// use and redials on the next round whenever a sync fails with a
    /// transport error — which is exactly what a durable-server restart
    /// looks like from here (dead connection, recovered store). Failed
    /// rounds count in [`DaemonStats::failures`]; successful dials in
    /// [`DaemonStats::reconnects`].
    pub fn spawn<K>(
        connect: K,
        repo: Arc<Mutex<LocalRepository>>,
        period: Duration,
        window: u32,
    ) -> ClientDaemon
    where
        K: Connect + Send + 'static,
    {
        let (stop, stop_rx) = mpsc::sync_channel::<()>(1);
        let stats = Arc::new(Mutex::new(DaemonStats::default()));
        let handle = {
            let stats = stats.clone();
            std::thread::spawn(move || {
                let mut session: Option<K::Session> = None;
                loop {
                    let (mut dialed, mut failed, mut downloaded) = (false, false, 0);
                    if session.is_none() {
                        match connect.connect() {
                            Ok(s) => {
                                session = Some(s);
                                dialed = true;
                            }
                            Err(_) => failed = true,
                        }
                    }
                    if let Some(s) = session.as_mut() {
                        match sync_delta(s, &mut repo.lock(), window) {
                            Ok(n) => downloaded = n as u64,
                            Err(e) => {
                                failed = true;
                                if matches!(e, SyncError::Transport(_)) {
                                    // Dead socket: drop it and redial on
                                    // the next round.
                                    session = None;
                                }
                            }
                        }
                    }
                    // Only the round's outcome takes the stats lock, so
                    // `stats()` never waits on the server.
                    {
                        let mut stats = stats.lock();
                        stats.rounds += 1;
                        stats.reconnects += u64::from(dialed);
                        stats.failures += u64::from(failed);
                        stats.downloaded += downloaded;
                    }
                    // Sleep until the next period or until stopped.
                    match stop_rx.recv_timeout(period) {
                        Err(RecvTimeoutError::Timeout) => {}
                        Ok(()) | Err(RecvTimeoutError::Disconnected) => return,
                    }
                }
            })
        };
        ClientDaemon {
            stop,
            handle: Some(handle),
            stats,
        }
    }

    /// Snapshot of the daemon's counters.
    pub fn stats(&self) -> DaemonStats {
        *self.stats.lock()
    }

    /// Stops the daemon and joins its thread. Idempotent.
    pub fn shutdown(&mut self) {
        let _ = self.stop.try_send(());
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ClientDaemon {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use communix_net::{Reply, Request};
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn daemon_syncs_immediately_and_periodically() {
        let calls = Arc::new(AtomicU64::new(0));
        let calls2 = calls.clone();
        let conn = move |req: Request| -> Result<Reply, String> {
            let n = calls2.fetch_add(1, Ordering::SeqCst);
            match req {
                Request::GetDelta { from, .. } => Ok(Reply::Delta {
                    from,
                    total: from + 2,
                    // Two new signatures per round, in one window.
                    sigs: vec![format!("a{n}"), format!("b{n}")],
                }),
                other => Err(format!("daemon must use GET_DELTA, sent {other:?}")),
            }
        };
        let repo = Arc::new(Mutex::new(LocalRepository::in_memory()));
        let mut daemon = ClientDaemon::spawn(
            move || Ok(conn.clone()),
            repo.clone(),
            Duration::from_millis(10),
            0,
        );
        // Wait for at least 3 rounds.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while calls.load(Ordering::SeqCst) < 3 && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        daemon.shutdown();
        let stats = daemon.stats();
        assert!(stats.rounds >= 3, "rounds={}", stats.rounds);
        assert_eq!(stats.failures, 0);
        assert_eq!(stats.reconnects, 1, "a healthy session is dialed once");
        assert_eq!(stats.downloaded, 2 * stats.rounds);
        assert_eq!(repo.lock().len() as u64, stats.downloaded);
    }

    #[test]
    fn daemon_counts_failures_and_keeps_running() {
        let calls = Arc::new(AtomicU64::new(0));
        let calls2 = calls.clone();
        let conn = move |req: Request| -> Result<Reply, String> {
            let n = calls2.fetch_add(1, Ordering::SeqCst);
            if n.is_multiple_of(2) {
                Err("server down".into())
            } else {
                match req {
                    Request::GetDelta { from, .. } => Ok(Reply::Delta {
                        from,
                        total: from,
                        sigs: vec![],
                    }),
                    _ => Err("unexpected".into()),
                }
            }
        };
        let repo = Arc::new(Mutex::new(LocalRepository::in_memory()));
        let mut daemon =
            ClientDaemon::spawn(move || Ok(conn.clone()), repo, Duration::from_millis(10), 0);
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while calls.load(Ordering::SeqCst) < 4 && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        daemon.shutdown();
        let stats = daemon.stats();
        assert!(stats.failures >= 1);
        assert!(stats.rounds >= stats.failures);
    }

    #[test]
    fn connect_daemon_redials_after_transport_failures() {
        // Session k fails its (k+1)-th call with a transport error; the
        // daemon must dial a fresh session and keep downloading.
        let dials = Arc::new(AtomicU64::new(0));
        let dials2 = dials.clone();
        let connect = move || {
            let dial = dials2.fetch_add(1, Ordering::SeqCst);
            let mut calls_left = dial + 1;
            Ok(move |req: Request| -> Result<Reply, String> {
                if calls_left == 0 {
                    return Err("connection reset".into());
                }
                calls_left -= 1;
                match req {
                    Request::GetDelta { from, .. } => Ok(Reply::Delta {
                        from,
                        total: from + 1,
                        sigs: vec![format!("sig-{from}")],
                    }),
                    other => Err(format!("unexpected {other:?}")),
                }
            })
        };
        let repo = Arc::new(Mutex::new(LocalRepository::in_memory()));
        let mut daemon = ClientDaemon::spawn(connect, repo.clone(), Duration::from_millis(5), 0);
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while dials.load(Ordering::SeqCst) < 3 && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        daemon.shutdown();
        let stats = daemon.stats();
        assert!(stats.reconnects >= 3, "reconnects={}", stats.reconnects);
        assert!(stats.failures >= 2, "failures={}", stats.failures);
        assert!(stats.downloaded >= 2, "downloaded={}", stats.downloaded);
        assert_eq!(repo.lock().len() as u64, stats.downloaded);
    }

    /// The session type a dial would yield, were it ever to succeed.
    type NeverSession = fn(Request) -> Result<Reply, String>;

    #[test]
    fn connect_daemon_survives_failed_dials() {
        let attempts = Arc::new(AtomicU64::new(0));
        let attempts2 = attempts.clone();
        let connect = move || -> Result<NeverSession, SyncError> {
            attempts2.fetch_add(1, Ordering::SeqCst);
            Err(SyncError::Transport("connection refused".into()))
        };
        let repo = Arc::new(Mutex::new(LocalRepository::in_memory()));
        let mut daemon = ClientDaemon::spawn(connect, repo, Duration::from_millis(5), 0);
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while attempts.load(Ordering::SeqCst) < 3 && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        daemon.shutdown();
        let stats = daemon.stats();
        assert_eq!(stats.reconnects, 0);
        assert!(stats.failures >= 3);
        assert_eq!(stats.downloaded, 0);
    }

    #[test]
    fn stats_answer_while_a_sync_is_in_flight() {
        // The session blocks inside `call` until the test releases it.
        let (entered_tx, entered_rx) = mpsc::channel::<()>();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let release_rx = Arc::new(std::sync::Mutex::new(release_rx));
        let connect = move || {
            let (entered, release) = (entered_tx.clone(), release_rx.clone());
            Ok(move |req: Request| -> Result<Reply, String> {
                let _ = entered.send(());
                let _ = release.lock().expect("unpoisoned").recv();
                match req {
                    Request::GetDelta { from, .. } => Ok(Reply::Delta {
                        from,
                        total: from,
                        sigs: vec![],
                    }),
                    other => Err(format!("unexpected {other:?}")),
                }
            })
        };
        let repo = Arc::new(Mutex::new(LocalRepository::in_memory()));
        let mut daemon = ClientDaemon::spawn(connect, repo, Duration::from_secs(3600), 0);
        entered_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("the first sync reaches the session");
        let in_flight = std::thread::scope(|scope| {
            let (got_tx, got_rx) = mpsc::channel();
            let daemon = &daemon;
            scope.spawn(move || {
                let _ = got_tx.send(daemon.stats());
            });
            let got = got_rx.recv_timeout(Duration::from_secs(2));
            // Unblock the sync either way, so the reader can finish.
            release_tx.send(()).unwrap();
            got
        });
        assert_eq!(
            in_flight.expect("stats() must not wait for the in-flight sync"),
            DaemonStats::default(),
            "the round is recorded when it ends"
        );
        daemon.shutdown();
        assert_eq!(daemon.stats().rounds, 1);
        assert_eq!(daemon.stats().failures, 0);
    }

    #[test]
    fn shutdown_is_idempotent_and_drop_safe() {
        let conn = |_req: Request| -> Result<Reply, String> {
            Ok(Reply::Delta {
                from: 0,
                total: 0,
                sigs: vec![],
            })
        };
        let repo = Arc::new(Mutex::new(LocalRepository::in_memory()));
        let mut daemon = ClientDaemon::spawn(move || Ok(conn), repo, Duration::from_secs(3600), 0);
        daemon.shutdown();
        daemon.shutdown();
        drop(daemon);
    }
}
