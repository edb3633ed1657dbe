//! Integration over real sockets: the full immunization cycle through
//! `TcpServer`/`TcpClient`, plus wire-level failure injection.

use std::io::Write;
use std::sync::Arc;

use communix::client::Connector;
use communix::net::{Handler, Reply, Request, TcpClient, TcpServer, TcpServerConfig};
use communix::server::CommunixServer;
use communix::workloads::DeadlockApp;
use communix::{CommunixNode, NodeConfig};

struct TcpConnector {
    addr: std::net::SocketAddr,
}

impl Connector for TcpConnector {
    fn call(&mut self, request: Request) -> Result<Reply, String> {
        let mut c = TcpClient::connect(self.addr).map_err(|e| e.to_string())?;
        c.call(&request).map_err(|e| e.to_string())
    }
}

fn spawn_server() -> (TcpServer, Arc<CommunixServer>) {
    let (server, tcp) = communix::server::builder().serve("127.0.0.1:0").unwrap();
    (tcp, server)
}

#[test]
fn full_cycle_over_sockets() {
    let (mut tcp, server) = spawn_server();
    let addr = tcp.addr();
    let app = DeadlockApp::new(4);

    let mut a = CommunixNode::new(app.program().clone(), NodeConfig::for_user(1));
    let mut conn = TcpConnector { addr };
    a.obtain_id(&mut conn).unwrap();
    a.startup();
    assert_eq!(a.run(&app.deadlock_specs()).deadlocks.len(), 1);
    assert_eq!(a.upload_pending(&mut conn).unwrap(), 1);
    assert_eq!(server.store().len(), 1);

    let mut b = CommunixNode::new(app.program().clone(), NodeConfig::for_user(2));
    let mut conn = TcpConnector { addr };
    assert_eq!(b.sync(&mut conn).unwrap(), 1);
    b.startup();
    b.shutdown();
    b.startup();
    let outcome = b.run(&app.deadlock_specs());
    assert!(outcome.deadlocks.is_empty());
    assert!(outcome.all_finished());

    tcp.shutdown();
}

#[test]
fn concurrent_uploads_from_many_nodes() {
    let (mut tcp, server) = spawn_server();
    let addr = tcp.addr();

    std::thread::scope(|scope| {
        for user in 0..8u64 {
            let server = server.clone();
            scope.spawn(move || {
                let mut gen = communix::workloads::SigGen::new(user);
                let mut conn = TcpConnector { addr };
                let id = communix::client::obtain_id(&mut conn, user).unwrap();
                for _ in 0..5 {
                    let text = gen.random_signature().to_string();
                    let (ok, reason) =
                        communix::client::upload_signature(&mut conn, id, text).unwrap();
                    assert!(ok, "{reason}");
                }
                let _ = server; // keep alive until done
            });
        }
    });
    assert_eq!(server.store().len(), 40);
    tcp.shutdown();
}

#[test]
fn garbage_bytes_do_not_crash_the_server() {
    let (mut tcp, server) = spawn_server();
    let addr = tcp.addr();

    // A client that speaks nonsense: the server drops the connection.
    {
        let mut raw = std::net::TcpStream::connect(addr).unwrap();
        raw.write_all(b"definitely not a length-prefixed frame")
            .unwrap();
        // Force the malformed length prefix to be enormous.
        raw.write_all(&[0xFF; 64]).unwrap();
    }

    // A client that frames a huge length: rejected without allocation.
    {
        let mut raw = std::net::TcpStream::connect(addr).unwrap();
        raw.write_all(&(u32::MAX).to_be_bytes()).unwrap();
        raw.write_all(&[0u8; 16]).unwrap();
    }

    // A well-formed request on a fresh connection still gets served.
    {
        let mut c = TcpClient::connect(addr).unwrap();
        let reply = c.call(&Request::Get { from: 0 }).unwrap();
        assert!(matches!(reply, Reply::Sigs { .. }));
    }

    // The server is still alive and accepting writes.
    {
        let mut c = TcpClient::connect(addr).unwrap();
        let id = server.authority().issue(3);
        let reply = c
            .call(&Request::Add {
                sender: id,
                sig_text: communix::workloads::SigGen::new(9)
                    .random_signature()
                    .to_string(),
            })
            .unwrap();
        assert!(matches!(reply, Reply::AddAck { accepted: true, .. }));
    }
    tcp.shutdown();
}

#[test]
fn unreachable_server_yields_transport_errors() {
    // Bind-then-close to get a (very likely) dead port.
    let dead_addr = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap()
    };
    let mut conn = TcpConnector { addr: dead_addr };
    let mut repo = communix::client::LocalRepository::in_memory();
    let err = communix::client::sync_once(&mut conn, &mut repo);
    assert!(matches!(
        err,
        Err(communix::client::SyncError::Transport(_))
    ));
    assert_eq!(repo.len(), 0, "repository untouched on failure");
}

#[test]
fn node_survives_flaky_server_and_recovers() {
    let app = DeadlockApp::new(4);
    let (mut tcp, server) = spawn_server();
    let addr = tcp.addr();

    // Victim uploads, then the server "goes down".
    let mut victim = CommunixNode::new(app.program().clone(), NodeConfig::for_user(1));
    let mut conn = TcpConnector { addr };
    victim.obtain_id(&mut conn).unwrap();
    victim.startup();
    victim.run(&app.deadlock_specs());
    victim.upload_pending(&mut conn).unwrap();
    tcp.shutdown();

    // Node B can't reach it; sync fails cleanly, the node still works
    // (Dimmunix local behaviour is unaffected by connectivity).
    let mut b = CommunixNode::new(app.program().clone(), NodeConfig::for_user(2));
    let mut dead = TcpConnector { addr };
    assert!(b.sync(&mut dead).is_err());
    b.startup();
    let o = b.run(&app.deadlock_specs());
    assert_eq!(o.deadlocks.len(), 1, "unprotected, but functional");

    // The server comes back (new socket, same database).
    let handler: Handler = {
        let server = server.clone();
        Arc::new(move |req| server.handle(req))
    };
    let config = TcpServerConfig {
        registry: Some(server.telemetry().clone()),
        ..TcpServerConfig::default()
    };
    let tcp2 = TcpServer::bind_with("127.0.0.1:0", handler, config).unwrap();
    let mut conn2 = TcpConnector { addr: tcp2.addr() };
    assert_eq!(b.sync(&mut conn2).unwrap(), 1);
    b.startup();
    b.shutdown();
    b.startup();
    // B now holds both its own signature and the downloaded one — they
    // describe the same bug, so the history stays at one entry.
    assert_eq!(b.history().len(), 1);
}
