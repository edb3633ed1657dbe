//! Spans recorded from outside the program during the traced run: the
//! server side times each `CommunixServer::handle` call from the
//! transport's handler closure; the client side times each
//! `Connector::call`, each `sync_delta` and each ADD from submit to ack.
//! Spans stay in memory and are written to a file when the run ends.

use std::cell::Cell;
use std::collections::HashMap;
use std::fs;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::Mutex;

use communix_net::{Reply, Request};
use communix_server::CommunixServer;

use crate::stats::now_ns;

/// Replies captured for the codec replay stop at this many payload bytes.
const CAPTURE_BYTES: usize = 16 << 20;
/// At most this many requests of each kind are captured.
const CAPTURE_REQUESTS: usize = 32;
/// Span lines written (half client, half server, earliest first); the
/// header line gives the full count.
const SPAN_FILE_LINES: usize = 100_000;

/// One `CommunixServer::handle` call.
#[derive(Debug, Clone, Copy)]
pub struct ServerSpan {
    pub tid: u32,
    pub op: &'static str,
    pub start: u64,
    pub end: u64,
    /// Signatures in the request (ADD_BATCH) or reply (DELTA).
    pub items: u32,
    /// The user an ISSUE_ID asked for (0 otherwise).
    pub user: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ClientKind {
    /// One `Connector::call` (one request frame, submit to reply).
    Call,
    /// One `sync_delta`.
    Sync,
    /// One ADD, submit to ack (it may share a wire frame with others).
    Add,
}

#[derive(Debug, Clone, Copy)]
pub struct ClientSpan {
    pub conn: usize,
    pub kind: ClientKind,
    pub op: &'static str,
    pub start: u64,
    pub end: u64,
}

#[derive(Debug, Default)]
pub struct Captured {
    pub bytes: usize,
    pub replies: Vec<Reply>,
    pub batches: Vec<Request>,
}

/// Server-side span sink shared by the reactor threads.
#[derive(Debug, Default)]
pub struct Recorder {
    pub spans: Mutex<Vec<ServerSpan>>,
    pub captured: Mutex<Captured>,
}

thread_local! {
    static TID: Cell<u32> = const { Cell::new(0) };
}

/// The calling thread's kernel thread id (cached per thread).
fn tid() -> u32 {
    TID.with(|t| {
        if t.get() == 0 {
            let id = fs::read_link("/proc/thread-self")
                .ok()
                .and_then(|p| p.file_name()?.to_str()?.parse().ok())
                .unwrap_or(u32::MAX);
            t.set(id);
        }
        t.get()
    })
}

impl Recorder {
    /// Times `server.handle(request)` — what the builder's own handler
    /// closure does, plus the span.
    pub fn handle(&self, server: &CommunixServer, request: Request) -> Reply {
        let op = request.opcode();
        let (items, user) = match &request {
            Request::AddBatch { adds } => (adds.len() as u32, 0),
            Request::IssueId { user } => (1, *user),
            _ => (1, 0),
        };
        if op == "add_batch" {
            let mut cap = self.captured.lock().expect("capture lock poisoned");
            if cap.batches.len() < CAPTURE_REQUESTS {
                cap.batches.push(request.clone());
            }
        }
        let start = now_ns();
        let reply = server.handle(request);
        let end = now_ns();
        let items = match &reply {
            Reply::Delta { sigs, .. } => {
                let bytes: usize = sigs.iter().map(String::len).sum();
                let mut cap = self.captured.lock().expect("capture lock poisoned");
                if !sigs.is_empty()
                    && cap.bytes < CAPTURE_BYTES
                    && cap.replies.len() < CAPTURE_REQUESTS
                {
                    cap.bytes += bytes;
                    cap.replies.push(reply.clone());
                }
                sigs.len() as u32
            }
            _ => items,
        };
        self.spans
            .lock()
            .expect("span lock poisoned")
            .push(ServerSpan {
                tid: tid(),
                op,
                start,
                end,
                items,
                user,
            });
        reply
    }

    pub fn take_spans(&self) -> Vec<ServerSpan> {
        std::mem::take(&mut *self.spans.lock().expect("span lock poisoned"))
    }
}

/// Spans of one traced trial.
#[derive(Debug, Default)]
pub struct TrialSpans {
    pub server: Vec<ServerSpan>,
    pub client: Vec<ClientSpan>,
    /// Connection each server thread served, learned from ISSUE_ID users.
    pub thread_conn: Vec<(u32, usize)>,
}

/// A client span matched to the server span of the same request.
#[derive(Debug, Clone, Copy)]
pub struct Matched {
    pub client: ClientSpan,
    pub server: ServerSpan,
    /// Request id shared by both spans: connection, opcode, FIFO position.
    pub seq: usize,
}

impl TrialSpans {
    /// Pairs client and server spans of each connection, FIFO per
    /// opcode. Replies on one connection come back in request order, and
    /// each connection is served by one reactor thread, so the n-th
    /// GET_DELTA a connection sent is the n-th its thread handled. ADDs
    /// coalesce: an ADD_BATCH span of `items` ADDs matches the next
    /// `items` ADD spans of that connection. Threads that served both
    /// connections are ambiguous and left unmatched.
    pub fn matched(&self) -> Vec<Matched> {
        let mut out = Vec::new();
        for conn in 0..2 {
            let threads: Vec<u32> = self
                .thread_conn
                .iter()
                .filter(|(_, c)| *c == conn)
                .map(|(t, _)| *t)
                .collect();
            if threads.len() != 1
                || self
                    .thread_conn
                    .iter()
                    .filter(|(t, _)| *t == threads[0])
                    .count()
                    != 1
            {
                continue;
            }
            let mut server: Vec<&ServerSpan> =
                self.server.iter().filter(|s| s.tid == threads[0]).collect();
            server.sort_by_key(|s| s.start);
            let client = |kind: ClientKind, op: &str| -> Vec<&ClientSpan> {
                let mut v: Vec<&ClientSpan> = self
                    .client
                    .iter()
                    .filter(|c| c.conn == conn && c.kind == kind && c.op == op)
                    .collect();
                v.sort_by_key(|c| c.start);
                v
            };
            for op in ["get_delta", "issue_id"] {
                let srv = server.iter().filter(|s| s.op == op);
                for (seq, (c, s)) in client(ClientKind::Call, op)
                    .into_iter()
                    .zip(srv)
                    .enumerate()
                {
                    out.push(Matched {
                        client: *c,
                        server: **s,
                        seq,
                    });
                }
            }
            let adds = client(ClientKind::Add, "add");
            let mut next = 0;
            for (seq, s) in server
                .iter()
                .filter(|s| s.op == "add" || s.op == "add_batch")
                .enumerate()
            {
                for c in adds.iter().skip(next).take(s.items as usize) {
                    out.push(Matched {
                        client: **c,
                        server: **s,
                        seq,
                    });
                }
                next += s.items as usize;
            }
        }
        out
    }

    /// Each `sync_delta` span with the `Connector::call` spans inside it,
    /// per connection, in start order.
    pub fn syncs_with_calls(&self) -> Vec<(&ClientSpan, Vec<&ClientSpan>)> {
        let mut out = Vec::new();
        for conn in 0..2 {
            let of = |kind: ClientKind| -> Vec<&ClientSpan> {
                let mut v: Vec<&ClientSpan> = self
                    .client
                    .iter()
                    .filter(|c| c.conn == conn && c.kind == kind)
                    .collect();
                v.sort_by_key(|c| c.start);
                v
            };
            let calls = of(ClientKind::Call);
            let mut j = 0;
            for s in of(ClientKind::Sync) {
                while j < calls.len() && calls[j].start < s.start {
                    j += 1;
                }
                let mut kids = Vec::new();
                while j < calls.len() && calls[j].end <= s.end {
                    kids.push(calls[j]);
                    j += 1;
                }
                out.push((s, kids));
            }
        }
        out
    }

    /// Writes the trial's spans as JSON lines: a header with the totals,
    /// then the earliest [`SPAN_FILE_LINES`] spans. Matched client and
    /// server spans carry the request id they share; a call inside a
    /// sync names that sync as its parent.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        let mut w = BufWriter::new(fs::File::create(path)?);
        let mut ids: HashMap<(usize, ClientKind, u64), String> = HashMap::new();
        let mut server_ids = HashMap::new();
        for m in self.matched() {
            let id = format!("c{}.{}.{}", m.client.conn, m.server.op, m.seq);
            ids.insert((m.client.conn, m.client.kind, m.client.start), id.clone());
            server_ids.insert((m.server.tid, m.server.start), id);
        }
        let mut parents = HashMap::new();
        for (k, (sync, calls)) in self.syncs_with_calls().into_iter().enumerate() {
            let id = format!("sync.{k}");
            for c in calls {
                parents.insert((c.conn, c.start), id.clone());
            }
            ids.insert((sync.conn, ClientKind::Sync, sync.start), id);
        }
        let quoted = |id: Option<&String>| id.map_or("null".to_string(), |i| format!("\"{i}\""));
        let mut client: Vec<&ClientSpan> = self.client.iter().collect();
        client.sort_by_key(|c| c.start);
        let mut server: Vec<&ServerSpan> = self.server.iter().collect();
        server.sort_by_key(|s| s.start);
        writeln!(
            w,
            r#"{{"client_spans":{},"server_spans":{},"written_each":{}}}"#,
            client.len(),
            server.len(),
            SPAN_FILE_LINES / 2
        )?;
        for c in client.into_iter().take(SPAN_FILE_LINES / 2) {
            let parent = (c.kind == ClientKind::Call)
                .then(|| parents.get(&(c.conn, c.start)))
                .flatten();
            writeln!(
                w,
                r#"{{"side":"client","kind":"{:?}","conn":{},"op":"{}","start_ns":{},"end_ns":{},"id":{},"parent":{}}}"#,
                c.kind,
                c.conn,
                c.op,
                c.start,
                c.end,
                quoted(ids.get(&(c.conn, c.kind, c.start))),
                quoted(parent),
            )?;
        }
        for s in server.into_iter().take(SPAN_FILE_LINES / 2) {
            writeln!(
                w,
                r#"{{"side":"server","tid":{},"op":"{}","start_ns":{},"end_ns":{},"items":{},"id":{}}}"#,
                s.tid,
                s.op,
                s.start,
                s.end,
                s.items,
                quoted(server_ids.get(&(s.tid, s.start))),
            )?;
        }
        w.flush()
    }
}

/// Records the connection of each server thread from the ISSUE_ID spans
/// (each connection asks for its own block of users).
pub fn thread_conns(
    spans: &[ServerSpan],
    conn_of_user: impl Fn(u64) -> usize,
) -> Vec<(u32, usize)> {
    let mut pairs: Vec<(u32, usize)> = spans
        .iter()
        .filter(|s| s.op == "issue_id")
        .map(|s| (s.tid, conn_of_user(s.user)))
        .collect();
    pairs.sort_unstable();
    pairs.dedup();
    pairs
}
