//! Figure 3 — the performance of the signature distribution.
//!
//! "On one machine we ran the Communix server, and on another machine we
//! ran 10-200 client threads that send 10 ADD(sig),GET(0) sequences of
//! requests each. [...] the signature distribution scales well up to 30
//! client threads [...] a client thread receives 20-110 replies per
//! second [...] the network communication between the server and the
//! client threads becomes a bottleneck. [...] If N = 200, the server has
//! to send in the 10th round approximately 630 MB of data to the 200
//! clients."
//!
//! Reproduction: the primary sweep runs on the deterministic simulated
//! network (`SimNet`) with a 1 Gbit/s server NIC and the real wire codec
//! — every GET(0) reply actually carries the whole database, so the
//! `(k+½)·N²·1.7 KB` traffic collapse emerges from first principles. An
//! optional `--tcp` sweep replays the experiment over real sockets on
//! localhost.
//!
//! Run: `cargo run -p communix-bench --release --bin fig3 [--tcp]`

use std::sync::Arc;
use std::time::Instant;

use communix_bench::{arg_flag, banner, fmt_rate, row};
use communix_clock::{Duration as SimDuration, SystemClock};
use communix_net::{NicConfig, NodeId, Reply, Request, SimNet, TcpClient};
use communix_server::{CommunixServer, ServerConfig};
use communix_workloads::SigGen;

const SERVER: NodeId = NodeId(0);
const ROUNDS: usize = 10;

/// Server-side request latency `(p50, p99)` in µs from the server's
/// own telemetry — the `server.latency.*` histograms merged across
/// opcodes. Unlike the client-observed rate, this excludes the wire,
/// so it shows the request path staying cheap even as the NIC (or
/// socket fan-out) becomes the bottleneck.
fn server_latency_us(server: &CommunixServer) -> (f64, f64) {
    let merged = server
        .telemetry_snapshot()
        .merged_histogram("server.latency.");
    (merged.p50() / 1e3, merged.p99() / 1e3)
}

/// One simulated sweep point: `clients` nodes each run `ROUNDS`
/// ADD+GET(0) sequences. Returns the mean per-client reply rate
/// (replies/second), the total bytes the server NIC pushed, and the
/// server-side `(p50, p99)` request latency in µs.
fn simnet_point(clients: usize) -> (f64, u64, (f64, f64)) {
    let mut net = SimNet::new(SimDuration::from_micros(500));
    net.set_nic(
        SERVER,
        NicConfig {
            bandwidth_bps: 125_000_000.0, // 1 Gbit/s, the paper-era NIC
        },
    );

    let server = CommunixServer::new(ServerConfig::default(), Arc::new(SystemClock::new()));

    // Per-client signature queues and ids, prepared before time zero.
    let mut queues: Vec<Vec<String>> = Vec::with_capacity(clients);
    let mut ids = Vec::with_capacity(clients);
    for c in 0..clients {
        let mut gen = SigGen::new(0xF163 ^ c as u64);
        queues.push(
            (0..ROUNDS)
                .map(|_| gen.random_signature().to_string())
                .collect(),
        );
        ids.push(server.authority().issue(c as u64));
    }

    #[derive(Clone, Copy)]
    struct ClientState {
        rounds_done: usize,
        finished_at: SimDuration,
    }
    let mut state = vec![
        ClientState {
            rounds_done: 0,
            finished_at: SimDuration::ZERO,
        };
        clients
    ];

    let send_add = |net: &mut SimNet, queues: &mut [Vec<String>], c: usize, id| {
        let sig_text = queues[c].pop().expect("queue non-empty");
        let req = Request::Add {
            sender: id,
            sig_text,
        };
        net.send(NodeId(c as u64 + 1), SERVER, req.encode().to_vec());
    };

    // Every client fires its first ADD at t = 0.
    for (c, &id) in ids.iter().enumerate() {
        send_add(&mut net, &mut queues, c, id);
    }

    while let Some(d) = net.next_delivery() {
        if d.to == SERVER {
            let req = Request::decode(d.payload.into()).expect("well-formed request");
            let reply = server.handle(req);
            net.send(SERVER, d.from, reply.encode().to_vec());
        } else {
            let c = (d.to.0 - 1) as usize;
            let reply = Reply::decode(d.payload.into()).expect("well-formed reply");
            match reply {
                Reply::AddAck { accepted, .. } => {
                    assert!(accepted, "client {c}'s ADD must be accepted");
                    let req = Request::Get { from: 0 };
                    net.send(d.to, SERVER, req.encode().to_vec());
                }
                Reply::Sigs { .. } => {
                    state[c].rounds_done += 1;
                    if state[c].rounds_done == ROUNDS {
                        state[c].finished_at = net.now();
                    } else {
                        send_add(&mut net, &mut queues, c, ids[c]);
                    }
                }
                other => panic!("unexpected reply {other:?}"),
            }
        }
    }

    let mean_rate = state
        .iter()
        .map(|s| {
            assert_eq!(s.rounds_done, ROUNDS);
            (2 * ROUNDS) as f64 / s.finished_at.as_secs_f64()
        })
        .sum::<f64>()
        / clients as f64;
    (
        mean_rate,
        net.sent_bytes(SERVER),
        server_latency_us(&server),
    )
}

/// One real-socket sweep point on localhost. Returns the mean
/// per-client reply rate and the server-side `(p50, p99)` latency.
fn tcp_point(clients: usize) -> (f64, (f64, f64)) {
    let (server, tcp) = communix_server::builder()
        .serve("127.0.0.1:0")
        .expect("bind localhost");
    let addr = tcp.addr();

    let rates: Vec<f64> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for c in 0..clients {
            let server = server.clone();
            handles.push(scope.spawn(move || {
                let mut gen = SigGen::new(0x7C9 ^ c as u64);
                let id = server.authority().issue(c as u64);
                let mut client = TcpClient::connect(addr).expect("connect");
                let start = Instant::now();
                for _ in 0..ROUNDS {
                    let add = Request::Add {
                        sender: id,
                        sig_text: gen.random_signature().to_string(),
                    };
                    match client.call(&add).expect("add") {
                        Reply::AddAck { accepted: true, .. } => {}
                        other => panic!("unexpected {other:?}"),
                    }
                    match client.call(&Request::Get { from: 0 }).expect("get") {
                        Reply::Sigs { .. } => {}
                        other => panic!("unexpected {other:?}"),
                    }
                }
                (2 * ROUNDS) as f64 / start.elapsed().as_secs_f64()
            }));
        }
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    (
        rates.iter().sum::<f64>() / rates.len() as f64,
        server_latency_us(&server),
    )
}

fn main() {
    banner(
        "Figure 3 — end-to-end signature distribution (per-client reply rate)",
        "110 → 20 replies/s per client as clients grow 10 → 200; server NIC bottleneck",
    );

    let points = [10usize, 20, 30, 40, 50, 75, 100, 200];

    println!("\nsimulated network (1 Gbit/s server NIC, 0.5 ms latency):");
    row(&[
        "client threads",
        "replies/s/client",
        "aggregate",
        "server tx",
        "srv p50 µs",
        "srv p99 µs",
    ]);
    let mut first = None;
    let mut last = None;
    for &n in &points {
        let (rate, tx, (p50, p99)) = simnet_point(n);
        row(&[
            &format!("{n}"),
            &fmt_rate(rate),
            &fmt_rate(rate * n as f64),
            &format!("{:.1} MB", tx as f64 / 1e6),
            &format!("{p50:.1}"),
            &format!("{p99:.1}"),
        ]);
        first.get_or_insert(rate);
        last = Some(rate);
    }
    let (first, last) = (first.unwrap(), last.unwrap());
    println!(
        "\nper-client rate falls {:.0}× from 10 to 200 clients (paper: ≈5.5×, 110 → 20);\n\
         the collapse is steeper here because the model has *only* the stated\n\
         bottleneck (the server NIC) — no per-request socket overhead pads the\n\
         small-N end as in the paper's JVM harness.",
        first / last
    );
    // The paper's sanity figure: "If N = 200, the server has to send in
    // the 10th round approximately 630 MB of data to the 200 clients."
    let round10 = 200.0 * (9.0 * 200.0 + 10.0) * 1.7e3 / 1e6;
    println!(
        "10th-round traffic at N=200: each GET(0) returns the ~{:.0} signatures\n\
         accumulated by rounds 1-9 (+ own ADDs) → ≈ {:.0} MB (paper: ≈630 MB).",
        9.0 * 200.0 + 10.0,
        round10
    );

    if arg_flag("--tcp") {
        println!("\nreal TCP on localhost (loopback bandwidth ≫ 1 Gbit/s):");
        row(&[
            "client threads",
            "replies/s/client",
            "srv p50 µs",
            "srv p99 µs",
        ]);
        for &n in &points {
            let (rate, (p50, p99)) = tcp_point(n);
            row(&[
                &format!("{n}"),
                &fmt_rate(rate),
                &format!("{p50:.1}"),
                &format!("{p99:.1}"),
            ]);
        }
    } else {
        println!("\n(pass --tcp to also run the real-socket sweep on localhost)");
    }
}
