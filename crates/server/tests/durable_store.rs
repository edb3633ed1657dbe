//! End-to-end facade tests for the durable store: a real server built
//! through [`communix_server::builder`], served over real TCP, driven
//! with the real client facade (`obtain_id` / `upload_batch` /
//! `sync_delta`). The unit suites in `store.rs` prove the WAL and
//! snapshot machinery; this suite proves the promises the *API*
//! makes — restart recovery and the epoch resync rule — hold across
//! the wire.

use std::collections::HashSet;
use std::path::PathBuf;

use communix_client::{obtain_id, sync_delta, upload_batch, Connect, LocalRepository, TcpConnect};
use communix_server::DurabilityConfig;

/// A parseable, accepted signature; distinct `tag`s give signatures
/// with disjoint frames (no accidental adjacency-limit rejections).
fn sig(tag: u32) -> String {
    use communix_dimmunix::{CallStack, Frame, SigEntry, Signature};
    let deep = |base: u32| -> CallStack {
        (0..6)
            .map(|i| Frame::new(format!("app.C{tag}"), "f", base + i))
            .collect()
    };
    Signature::local(vec![
        SigEntry::new(deep(100), deep(500)),
        SigEntry::new(deep(200), deep(600)),
    ])
    .to_string()
}

fn scratch_dir(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("communix-facade-{label}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn upload(connect: &TcpConnect, user: u64, texts: &[String]) {
    let mut session = connect.connect().expect("dial server");
    let sender = obtain_id(&mut session, user).expect("issue id");
    let adds: Vec<_> = texts.iter().map(|t| (sender, t.clone())).collect();
    let results = upload_batch(&mut session, adds).expect("upload batch");
    for (r, t) in results.iter().zip(texts) {
        assert!(r.accepted, "server rejected {t:?}: {}", r.reason);
    }
}

#[test]
fn durable_server_recovers_over_tcp() {
    let dir = scratch_dir("recover");
    let texts: Vec<String> = (0..5).map(sig).collect();

    // First life: accept five signatures over TCP, sync a client.
    {
        let (server, mut tcp) = communix_server::builder()
            .daily_limit(1 << 20)
            .durable(&dir)
            .serve("127.0.0.1:0")
            .expect("serve durable");
        let connect = TcpConnect::new(tcp.addr());
        upload(&connect, 1, &texts);
        let mut repo = LocalRepository::in_memory();
        let mut session = connect.connect().expect("dial");
        assert_eq!(sync_delta(&mut session, &mut repo, 0).unwrap(), 5);
        server.store().sync().expect("durable before shutdown");
        tcp.shutdown();
    }

    // Second life, same directory: the log survives the restart and the
    // same client facade reads it back over a fresh connection.
    let (server, mut tcp) = communix_server::builder()
        .daily_limit(1 << 20)
        .durable(&dir)
        .serve("127.0.0.1:0")
        .expect("restart durable");
    assert_eq!(server.store().recovery().wal_records, 5);
    let connect = TcpConnect::new(tcp.addr());
    let mut session = connect.connect().expect("dial restarted");
    let mut repo = LocalRepository::in_memory();
    assert_eq!(sync_delta(&mut session, &mut repo, 0).unwrap(), 5);
    let have: HashSet<&str> = (0..repo.len()).filter_map(|i| repo.sig(i)).collect();
    for t in &texts {
        assert!(have.contains(t.as_str()), "lost {t:?} across restart");
    }
    tcp.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn epoch_compaction_resyncs_clients_end_to_end() {
    let dir = scratch_dir("epoch");
    // Single-digit tags serialize to identical lengths, so the byte
    // math below is exact: a 7.5-signature cap lets seven signatures
    // in, and the eighth ADD trips the GC (which keeps the newest five
    // — ¾ of the cap).
    let len = sig(0).len() as u64;
    let mut config = DurabilityConfig::new(&dir);
    config.max_bytes = Some(len * 15 / 2);

    let (server, mut tcp) = communix_server::builder()
        .daily_limit(1 << 20)
        .durability(config)
        .serve("127.0.0.1:0")
        .expect("serve durable");
    let connect = TcpConnect::new(tcp.addr());

    // A fully synced client: cursor at the epoch-0 total. (Only full
    // syncs make the shrink signal reliable — the GC always evicts at
    // least one signature, so the post-GC total lands strictly below
    // every fully-synced cursor.)
    upload(&connect, 1, &(0..7).map(sig).collect::<Vec<_>>());
    let mut repo = LocalRepository::in_memory();
    let mut session = connect.connect().expect("dial");
    assert_eq!(sync_delta(&mut session, &mut repo, 0).unwrap(), 7);
    assert_eq!(repo.sync_cursor(), 7);

    // Overflow the byte cap: the store garbage-collects, bumps the
    // epoch, and renumbers the surviving log from zero.
    upload(&connect, 1, &[sig(7)]);
    assert_eq!(server.store().epoch(), 1, "eighth ADD should trip the GC");
    let served = server.store().get_from(0);
    assert_eq!(served.len(), 5, "GC keeps the newest ¾-cap of signatures");

    // The stale-cursor client resyncs through the epoch signal: one
    // restart from zero, merged without disturbing what it holds.
    let n = sync_delta(&mut session, &mut repo, 0).expect("epoch resync");
    assert_eq!(n, 1, "exactly the eighth signature is new to the client");
    assert_eq!(repo.sync_cursor(), served.len());
    let have: HashSet<&str> = (0..repo.len()).filter_map(|i| repo.sig(i)).collect();
    for t in &served {
        assert!(have.contains(t.as_str()), "missing {t:?} after resync");
    }
    // Evicted signatures the client saw before the GC stay local.
    assert!(repo.len() > served.len());

    // Steady state again: the next sync is an ordinary empty delta.
    assert_eq!(sync_delta(&mut session, &mut repo, 0).unwrap(), 0);
    assert_eq!(repo.sync_cursor(), served.len());
    tcp.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
