//! The serving loop: accept, admit, deadline, dispatch, drain.
//!
//! The server owns the *mechanism* invariants promised in the crate docs —
//! every frame gets a framed reply, admission is a bounded FIFO queue with
//! typed shedding, deadlines cancel through the same [`fcn_exec::Watchdog`]
//! machinery the inline CLI uses, and per-request telemetry merges into the
//! server's registry in request-arrival order. What a request kind actually
//! *does* is delegated to the [`Handler`], so the CLI can plug its
//! subcommand bodies in and inherit byte-identical output for free.
//!
//! ## Which counters live where
//!
//! The request-ordered [`MetricsRegistry`] (what a `metrics` request
//! renders) is a pure function of the *executed* request sequence: only
//! handler work and its per-request outcome counters flush into it, in
//! arrival order. Connection, chaos, shed, and replay counters are
//! transport-level noise that retries are allowed to perturb, so they live
//! in the `health` render (plus the process-global registry) instead —
//! that separation is what makes a retried run's `metrics` output
//! byte-identical to the clean single-attempt run.

use std::io;
use std::net::{TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use fcn_exec::lockdep::{lock_ranked, ranks, RankedGuard};
use fcn_exec::Watchdog;
use fcn_telemetry::names;
use fcn_telemetry::{take_shard, with_shard, LocalShard, MetricsRegistry};

use crate::admission::{Admission, Admit};
use crate::io::{ChaosPlan, ChaosSpec, ChaosStats, FramedConn};
use crate::proto::{ErrorKind, Request, Response};

/// Tunables for one [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:0` for an ephemeral port.
    pub addr: String,
    /// Admission bound: at most this many heavy requests execute
    /// concurrently.
    pub max_inflight: usize,
    /// Queue bound: at most this many heavy requests wait behind the
    /// in-flight limit; the excess is shed with a framed
    /// `Overloaded{retry_after_ms}`. `0` restores the PR 8 binary gate.
    pub max_queued: usize,
    /// How long a queued request may wait for a slot, milliseconds. A
    /// request with a tighter deadline waits at most its deadline.
    pub queue_wait_ms: u64,
    /// Default per-request deadline in milliseconds when the request does
    /// not override it; `0` means no deadline.
    pub default_deadline_ms: u64,
    /// How often idle reads and the accept loop wake to check the
    /// shutdown flag.
    pub poll_interval_ms: u64,
    /// Seeded wire-chaos plan wrapped around every connection's reply
    /// path; `None` disables injection entirely.
    pub chaos: Option<ChaosSpec>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            max_inflight: 8,
            max_queued: 16,
            queue_wait_ms: 250,
            default_deadline_ms: 0,
            poll_interval_ms: 20,
            chaos: None,
        }
    }
}

/// What a [`Handler`] did with one admitted request.
#[derive(Debug)]
pub enum HandlerOutcome {
    /// The request ran to completion (possibly with a nonzero exit code —
    /// e.g. an audit that found violations; that is still a served reply).
    Done {
        /// Exit code the inline subcommand would have returned.
        exit_code: i32,
        /// Captured stdout bytes, byte-identical to the inline run.
        output: Vec<u8>,
    },
    /// The deadline cancelled the request mid-flight.
    Cancelled {
        /// Partial accounting of the work completed before the abort.
        partial: String,
    },
    /// The request failed in a typed, non-cancellation way.
    Failed {
        /// Failure category to frame.
        kind: ErrorKind,
        /// Human-readable detail.
        message: String,
    },
}

/// Executes one admitted request kind. Implementations must be callable
/// from many connection threads at once.
pub trait Handler: Sync {
    /// Run `kind` with `args`; poll `cancel` and abort with partial
    /// accounting when it rises.
    fn handle(&self, kind: &str, args: &[String], cancel: &AtomicBool) -> HandlerOutcome;
}

/// Arrival-order telemetry merge: each request takes a sequence number the
/// moment its frame is parsed, and completed shards are flushed into the
/// server registry strictly in that sequence — whichever worker finishes
/// first. This makes the registry's contents a deterministic function of
/// the request arrival order, not the thread schedule.
#[derive(Debug, Default)]
struct MergeQueue {
    state: Mutex<MergeState>,
}

#[derive(Debug, Default)]
struct MergeState {
    next_seq: u64,
    next_flush: u64,
    done: std::collections::BTreeMap<u64, LocalShard>,
}

impl MergeQueue {
    fn admit(&self) -> u64 {
        let mut st = self.lock();
        let seq = st.next_seq;
        st.next_seq += 1;
        seq
    }

    fn complete(&self, seq: u64, shard: LocalShard, reg: &MetricsRegistry) {
        let mut st = self.lock();
        st.done.insert(seq, shard);
        loop {
            let key = st.next_flush;
            match st.done.remove(&key) {
                Some(shard) => {
                    shard.flush_into(reg);
                    st.next_flush += 1;
                }
                None => break,
            }
        }
    }

    fn lock(&self) -> RankedGuard<'_, MergeState> {
        lock_ranked(&self.state, ranks::SERVE_MERGE)
    }
}

/// A claimed merge slot that *always* completes: [`MergeTicket::finish`]
/// merges the request's real shard, and if the request path unwinds or
/// returns early instead (a panic outside the handler's `catch_unwind`, a
/// disconnect racing the reply), the `Drop` impl completes the slot with
/// whatever the thread shard holds. Without this, one dead slot would stall
/// the in-order flush for every later request (the orphaned-shard bug).
struct MergeTicket<'a> {
    merge: &'a MergeQueue,
    reg: &'a MetricsRegistry,
    seq: u64,
    done: bool,
}

impl<'a> MergeTicket<'a> {
    fn claim(merge: &'a MergeQueue, reg: &'a MetricsRegistry) -> MergeTicket<'a> {
        MergeTicket {
            merge,
            reg,
            seq: merge.admit(),
            done: false,
        }
    }

    fn finish(mut self, shard: LocalShard) {
        self.done = true;
        self.merge.complete(self.seq, shard, self.reg);
    }
}

impl Drop for MergeTicket<'_> {
    fn drop(&mut self) {
        if !self.done {
            // Fill the slot with the thread's (possibly partial) shard so
            // the arrival-order flush never stalls on this sequence number.
            self.merge.complete(self.seq, take_shard(), self.reg);
        }
    }
}

/// Bounded FIFO cache of completed replies, keyed by idempotency key, so a
/// retried request whose first attempt completed (the reply was lost on the
/// wire) is answered without executing twice. Only *deterministic* outcomes
/// are cached (`ok` responses and `BadRequest`); transient failures
/// (`Overloaded`, `Cancelled`, `Internal`, `Shutdown`) are not — a retry of
/// those is supposed to try again for real.
///
/// Keys are client-chosen and can collide across *distinct* logical
/// requests (two `fcnemu request` processes with the same default retry
/// seed both derive key 0's stream), so every entry carries the request's
/// [`fingerprint`] and a hit replays only when the fingerprint matches —
/// a mismatch is a different request that happens to share the key, and it
/// executes for real (overwriting the entry: latest wins).
#[derive(Debug, Default)]
struct ReplyCache {
    state: Mutex<ReplyCacheState>,
}

#[derive(Debug, Default)]
struct ReplyCacheState {
    order: std::collections::VecDeque<u64>,
    replies: std::collections::BTreeMap<u64, (String, Response)>,
}

/// Entries retained by the reply cache; a retry storm older than this is a
/// client bug, not something the server should buffer unboundedly for.
const REPLY_CACHE_CAP: usize = 128;

/// What makes two frames "the same logical request" for replay purposes:
/// everything except the per-attempt id.
fn fingerprint(req: &Request) -> String {
    let mut fp = req.kind.clone();
    for a in &req.args {
        fp.push('\x1f'); // unit separator: args can contain spaces
        fp.push_str(a);
    }
    fp.push('\x1f');
    fp.push_str(&req.deadline_ms.map_or_else(String::new, |d| d.to_string()));
    fp
}

impl ReplyCache {
    fn get(&self, key: u64, fp: &str) -> Option<Response> {
        let st = self.lock();
        let (cached_fp, resp) = st.replies.get(&key)?;
        (cached_fp == fp).then(|| resp.clone())
    }

    fn insert(&self, key: u64, fp: &str, resp: &Response) {
        let mut st = self.lock();
        if st
            .replies
            .insert(key, (fp.to_string(), resp.clone()))
            .is_none()
        {
            st.order.push_back(key);
            while st.order.len() > REPLY_CACHE_CAP {
                if let Some(evict) = st.order.pop_front() {
                    st.replies.remove(&evict);
                }
            }
        }
    }

    fn lock(&self) -> RankedGuard<'_, ReplyCacheState> {
        lock_ranked(&self.state, ranks::SERVE_REPLIES)
    }
}

/// Is this outcome deterministic enough to replay from the cache?
fn cacheable(resp: &Response) -> bool {
    resp.ok
        || matches!(
            resp.error.as_ref().map(|e| e.kind),
            Some(ErrorKind::BadRequest)
        )
}

/// A bound `fcn-serve/1` server. Construct with [`Server::bind`], then
/// [`Server::run`] until the shutdown flag rises.
pub struct Server<H: Handler> {
    config: ServerConfig,
    handler: H,
    listener: TcpListener,
    admission: Arc<Admission>,
    metrics: MetricsRegistry,
    merge: MergeQueue,
    replies: ReplyCache,
    chaos: Option<ChaosPlan>,
    /// Deterministic per-connection chaos-stream index (accept order).
    conn_seq: AtomicU64,
    /// Connections accepted; a transport-level counter, kept out of the
    /// request-ordered registry (see module docs).
    connections: AtomicU64,
    /// Requests answered from the reply cache instead of re-executing.
    replayed: AtomicU64,
}

impl<H: Handler> Server<H> {
    /// Bind the listening socket; no connection is accepted until
    /// [`Server::run`].
    pub fn bind(config: ServerConfig, handler: H) -> io::Result<Server<H>> {
        let listener = TcpListener::bind(&config.addr)?;
        let admission = Admission::new(
            config.max_inflight,
            config.max_queued,
            config.queue_wait_ms.max(1),
        );
        let chaos = config.chaos.clone().map(ChaosPlan::new);
        Ok(Server {
            config,
            handler,
            listener,
            admission,
            metrics: MetricsRegistry::new(),
            merge: MergeQueue::default(),
            replies: ReplyCache::default(),
            chaos,
            conn_seq: AtomicU64::new(0),
            connections: AtomicU64::new(0),
            replayed: AtomicU64::new(0),
        })
    }

    /// The bound address (resolves `:0` to the actual ephemeral port).
    pub fn local_addr(&self) -> io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// The server's own metrics registry (what a `metrics` request renders).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// The chaos plan's injection counters, when a plan is configured.
    pub fn chaos_stats(&self) -> Option<&Arc<ChaosStats>> {
        self.chaos.as_ref().map(|p| p.stats())
    }

    /// Serve until `shutdown` rises, then drain: stop accepting, let every
    /// in-flight request finish and reply, answer any frame that arrives
    /// during the drain with a framed `Shutdown` error, and return once all
    /// connection threads have exited.
    #[allow(clippy::disallowed_methods)] // the accept poll below is annotated
    pub fn run(&self, shutdown: &AtomicBool) -> io::Result<()> {
        self.listener.set_nonblocking(true)?;
        let poll = Duration::from_millis(self.config.poll_interval_ms.max(1));
        std::thread::scope(|scope| -> io::Result<()> {
            // ordering: the shutdown flag is a monotone drain hint (signal
            // handler or test harness); Relaxed polling is sufficient. The
            // connection counters are plain statistics with no ordering
            // dependents.
            while !shutdown.load(Ordering::Relaxed) {
                match self.listener.accept() {
                    Ok((stream, _)) => {
                        self.connections.fetch_add(1, Ordering::Relaxed);
                        let g = fcn_telemetry::global();
                        if g.enabled() {
                            g.counter(names::SERVE_CONNECTIONS_TOTAL).inc();
                        }
                        scope.spawn(move || self.serve_conn(stream, shutdown));
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        // fcn-allow: DET-TIME accept-loop shutdown poll; no simulated quantity depends on it
                        std::thread::sleep(poll);
                    }
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(e),
                }
            }
            self.metrics
                .gauge(names::SERVE_DRAIN_INFLIGHT)
                .set(self.admission.inflight() as u64);
            Ok(())
            // Scope exit joins every connection thread: that *is* the drain.
        })
    }

    /// One connection: frames in, framed replies out, until clean EOF, a
    /// transport error, an injected chaos fault, or the drain finds the
    /// connection idle.
    fn serve_conn(&self, stream: TcpStream, shutdown: &AtomicBool) {
        let poll = Duration::from_millis(self.config.poll_interval_ms.max(1));
        let Ok(mut conn) = FramedConn::new(stream) else {
            return;
        };
        if conn.set_poll_interval(Some(poll)).is_err() {
            return;
        }
        if let Some(plan) = &self.chaos {
            // ordering: accept-order connection index; Relaxed suffices for
            // a monotone id (the chaos stream only needs distinctness, and
            // accept itself is sequential in run()).
            let id = self.conn_seq.fetch_add(1, Ordering::Relaxed);
            conn.set_chaos(plan.stream(id));
        }
        loop {
            match conn.read_frame(Some(shutdown)) {
                Ok(Some(payload)) => {
                    let resp = self.handle_frame(&payload, shutdown);
                    if conn.write_frame(resp.encode().as_bytes()).is_err() {
                        return; // peer gone (or chaos cut the wire)
                    }
                }
                // Clean EOF, or the drain caught the connection idle.
                Ok(None) => return,
                Err(_) => return,
            }
        }
    }

    /// Decode and execute one frame, always producing a framed response.
    /// The thread's telemetry shard is captured afterwards and merged in
    /// arrival order, so this must only run on a dedicated request thread.
    fn handle_frame(&self, payload: &[u8], shutdown: &AtomicBool) -> Response {
        let req = match std::str::from_utf8(payload)
            .map_err(|e| e.to_string())
            .and_then(Request::decode)
        {
            Ok(req) => req,
            Err(msg) => {
                // Malformed frames get a reply too — id 0, since the
                // request's own id was unparseable.
                return Response::failure(0, ErrorKind::BadRequest, msg);
            }
        };
        let fp = req.idem_key.map(|_| fingerprint(&req));
        if let (Some(key), Some(fp)) = (req.idem_key, fp.as_deref()) {
            if let Some(mut resp) = self.replies.get(key, fp) {
                // A retry of a request that already completed: replay the
                // cached reply under the retry's id. No merge slot, no
                // handler, no ordered-registry delta — the executed request
                // sequence is unchanged, which is the byte-identity pin.
                resp.id = req.id;
                // ordering: plain statistic; see run().
                self.replayed.fetch_add(1, Ordering::Relaxed);
                let g = fcn_telemetry::global();
                if g.enabled() {
                    g.counter(names::SERVE_REPLAYED_TOTAL).inc();
                }
                return resp;
            }
        }
        let ticket = MergeTicket::claim(&self.merge, &self.metrics);
        let resp = self.execute(&req, shutdown);
        ticket.finish(take_shard());
        if let (Some(key), Some(fp)) = (req.idem_key, fp.as_deref()) {
            if cacheable(&resp) {
                self.replies.insert(key, fp, &resp);
            }
        }
        resp
    }

    fn execute(&self, req: &Request, shutdown: &AtomicBool) -> Response {
        if req.deadline_ms == Some(0) {
            // An explicit zero deadline is already expired: arming a
            // watchdog for it would be a guaranteed cancellation, and
            // treating it as "no deadline" would invert the client's
            // intent. Reject it before any accounting.
            with_shard(|s| {
                s.inc(names::SERVE_REQUESTS_TOTAL);
                s.inc(names::SERVE_ERRORS_TOTAL);
            });
            return Response::failure(
                req.id,
                ErrorKind::BadRequest,
                "deadline_ms of 0 is already expired; use null for the server default",
            );
        }
        // ordering: monotone drain hint; see run().
        if shutdown.load(Ordering::Relaxed) {
            with_shard(|s| {
                s.inc(names::SERVE_REQUESTS_TOTAL);
                s.inc(names::SERVE_ERRORS_TOTAL);
            });
            return Response::failure(
                req.id,
                ErrorKind::Shutdown,
                "server is draining and no longer accepts requests",
            );
        }
        match req.kind.as_str() {
            // Interactive kinds never touch the admission queue: a probe
            // must answer in microseconds even while heavy grids saturate
            // every slot (the priority-class half of graceful degradation).
            "ping" => {
                with_shard(|s| s.inc(names::SERVE_REQUESTS_TOTAL));
                Response::success(req.id, 0, "pong\n".to_string())
            }
            // A metrics probe must not perturb what it measures: it renders
            // the registry as-is and records nothing itself (its own shard
            // delta is empty), so back-to-back probes render identically.
            "metrics" => self.render_metrics(req),
            // Likewise read-only: transport/occupancy counters for load
            // generators, deliberately *outside* the ordered registry.
            "health" => self.render_health(req),
            _ => self.execute_admitted(req),
        }
    }

    fn render_metrics(&self, req: &Request) -> Response {
        let format = req
            .args
            .iter()
            .position(|a| a == "--format")
            .and_then(|i| req.args.get(i + 1))
            .map_or("jsonl", |s| s.as_str());
        let snap = self.metrics.snapshot();
        match format {
            "jsonl" => Response::success(req.id, 0, snap.to_jsonl()),
            "prom" => Response::success(req.id, 0, snap.to_prometheus()),
            other => Response::failure(
                req.id,
                ErrorKind::BadRequest,
                format!("unknown metrics format {other:?} (expected jsonl or prom)"),
            ),
        }
    }

    fn render_health(&self, req: &Request) -> Response {
        let snap = self.admission.snapshot();
        let (resets, stalls, truncs, corrupts) = self
            .chaos
            .as_ref()
            .map(|p| {
                let s = p.stats();
                (s.resets(), s.stalls(), s.truncations(), s.corruptions())
            })
            .unwrap_or((0, 0, 0, 0));
        // ordering: plain statistics reads; see run().
        let connections = self.connections.load(Ordering::Relaxed);
        let replayed = self.replayed.load(Ordering::Relaxed);
        let out = format!(
            "inflight                : {}\n\
             queued                  : {}\n\
             queued_total            : {}\n\
             shed_queue_full_total   : {}\n\
             shed_wait_expired_total : {}\n\
             connections_total       : {}\n\
             replayed_total          : {}\n\
             chaos_resets_total      : {}\n\
             chaos_stalls_total      : {}\n\
             chaos_truncations_total : {}\n\
             chaos_corruptions_total : {}\n",
            snap.inflight,
            snap.queued,
            snap.queued_total,
            snap.shed_queue_full_total,
            snap.shed_wait_expired_total,
            connections,
            replayed,
            resets,
            stalls,
            truncs,
            corrupts,
        );
        Response::success(req.id, 0, out)
    }

    fn execute_admitted(&self, req: &Request) -> Response {
        let deadline_ms = req.deadline_ms.unwrap_or(self.config.default_deadline_ms);
        // Deadline-aware shedding: a request that cannot start before its
        // deadline must be rejected at the deadline, not executed doomed.
        let wait_budget = if deadline_ms > 0 {
            self.config.queue_wait_ms.min(deadline_ms)
        } else {
            self.config.queue_wait_ms
        };
        let permit = match self.admission.admit(wait_budget) {
            Admit::Granted(permit) => permit,
            Admit::Shed(shed) => {
                with_shard(|s| s.inc(names::SERVE_OVERLOADED_TOTAL));
                return Response::overloaded(
                    req.id,
                    format!(
                        "admission queue full ({} requests in flight, {} queued); retry later",
                        shed.inflight, shed.queued
                    ),
                    shed.retry_after_ms,
                );
            }
        };
        let _permit = permit;
        with_shard(|s| s.inc(names::SERVE_REQUESTS_TOTAL));
        // The watchdog must outlive the handler call; its token is the
        // cancel flag the routing engines poll. deadline 0 = no deadline.
        let watchdog = (deadline_ms > 0).then(|| Watchdog::arm(Duration::from_millis(deadline_ms)));
        let idle = AtomicBool::new(false);
        let cancel: &AtomicBool = watchdog.as_ref().map_or(&idle, |w| w.token().flag());
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            self.handler.handle(&req.kind, &req.args, cancel)
        }));
        match outcome {
            Ok(HandlerOutcome::Done { exit_code, output }) => Response::success(
                req.id,
                exit_code,
                String::from_utf8_lossy(&output).into_owned(),
            ),
            Ok(HandlerOutcome::Cancelled { partial }) => {
                with_shard(|s| s.inc(names::SERVE_DEADLINE_CANCELLED_TOTAL));
                Response::failure(
                    req.id,
                    ErrorKind::Cancelled,
                    format!("deadline of {deadline_ms} ms expired: {partial}"),
                )
            }
            Ok(HandlerOutcome::Failed { kind, message }) => {
                with_shard(|s| s.inc(names::SERVE_ERRORS_TOTAL));
                Response::failure(req.id, kind, message)
            }
            Err(panic) => {
                with_shard(|s| s.inc(names::SERVE_ERRORS_TOTAL));
                Response::failure(req.id, ErrorKind::Internal, panic_text(panic.as_ref()))
            }
        }
    }
}

/// Best-effort text of a panic payload (mirrors `fcn-exec`'s private
/// helper; panics carry `&str` or `String` in practice).
fn panic_text(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use std::sync::atomic::AtomicUsize;

    /// A scripted handler: `sleepy` spins until cancelled (or a release
    /// flag rises), `boom` panics, `echo` returns its args, anything else
    /// fails typed.
    struct StubHandler {
        release: AtomicBool,
        running: AtomicUsize,
    }

    impl StubHandler {
        fn new() -> StubHandler {
            StubHandler {
                release: AtomicBool::new(false),
                running: AtomicUsize::new(0),
            }
        }
    }

    impl Handler for StubHandler {
        fn handle(&self, kind: &str, args: &[String], cancel: &AtomicBool) -> HandlerOutcome {
            match kind {
                "echo" => HandlerOutcome::Done {
                    exit_code: 0,
                    output: format!("echo:{}\n", args.join(",")).into_bytes(),
                },
                "sleepy" => {
                    self.running.fetch_add(1, Ordering::SeqCst);
                    let mut spins = 0u64;
                    loop {
                        if cancel.load(Ordering::Relaxed) {
                            self.running.fetch_sub(1, Ordering::SeqCst);
                            return HandlerOutcome::Cancelled {
                                partial: format!("{spins} spins completed"),
                            };
                        }
                        if self.release.load(Ordering::SeqCst) {
                            self.running.fetch_sub(1, Ordering::SeqCst);
                            return HandlerOutcome::Done {
                                exit_code: 0,
                                output: b"released\n".to_vec(),
                            };
                        }
                        spins += 1;
                        std::hint::spin_loop();
                    }
                }
                "boom" => panic!("stub handler exploded"),
                other => HandlerOutcome::Failed {
                    kind: ErrorKind::BadRequest,
                    message: format!("unknown kind {other:?}"),
                },
            }
        }
    }

    #[allow(clippy::type_complexity)] // test helper: the tuple is the fixture
    fn start_with(
        config: ServerConfig,
    ) -> (
        Arc<Server<StubHandler>>,
        Arc<AtomicBool>,
        std::thread::JoinHandle<io::Result<()>>,
        String,
    ) {
        let server = Arc::new(Server::bind(config, StubHandler::new()).unwrap());
        let addr = server.local_addr().unwrap().to_string();
        let shutdown = Arc::new(AtomicBool::new(false));
        let runner = {
            let server = Arc::clone(&server);
            let shutdown = Arc::clone(&shutdown);
            std::thread::spawn(move || server.run(&shutdown))
        };
        (server, shutdown, runner, addr)
    }

    #[allow(clippy::type_complexity)] // test helper: the tuple is the fixture
    fn start(
        max_inflight: usize,
    ) -> (
        Arc<Server<StubHandler>>,
        Arc<AtomicBool>,
        std::thread::JoinHandle<io::Result<()>>,
        String,
    ) {
        start_with(ServerConfig {
            max_inflight,
            ..ServerConfig::default()
        })
    }

    fn stop(shutdown: &AtomicBool, runner: std::thread::JoinHandle<io::Result<()>>) {
        shutdown.store(true, Ordering::SeqCst);
        runner.join().unwrap().unwrap();
    }

    #[test]
    fn ping_echo_and_unknown_kind_roundtrip() {
        let (_server, shutdown, runner, addr) = start(2);
        let mut client = Client::connect(&addr).unwrap();
        let pong = client.call("ping", &[]).unwrap();
        assert!(pong.ok);
        assert_eq!(pong.output, "pong\n");
        let echo = client.call("echo", &["a", "b"]).unwrap();
        assert_eq!(echo.output, "echo:a,b\n");
        assert_eq!(echo.id, 2, "ids must be echoed per-request");
        let bad = client.call("nonsense", &[]).unwrap();
        assert!(!bad.ok);
        assert_eq!(bad.error.unwrap().kind, ErrorKind::BadRequest);
        stop(&shutdown, runner);
    }

    #[test]
    fn malformed_frames_get_a_framed_bad_request() {
        let (_server, shutdown, runner, addr) = start(2);
        let mut conn = FramedConn::connect(&addr).unwrap();
        conn.write_frame(b"not json at all").unwrap();
        let body = String::from_utf8(conn.read_frame(None).unwrap().unwrap()).unwrap();
        let resp = Response::decode(&body).unwrap();
        assert_eq!(resp.id, 0);
        assert_eq!(resp.error.unwrap().kind, ErrorKind::BadRequest);
        // The connection survives a malformed frame.
        let mut client = Client::from_conn(conn);
        assert!(client.call("ping", &[]).unwrap().ok);
        stop(&shutdown, runner);
    }

    #[test]
    fn depth_bomb_frame_gets_a_bad_request_and_the_daemon_keeps_serving() {
        // 1 MiB of `[` used to overflow the request decoder's stack and
        // abort the whole daemon.
        let (_server, shutdown, runner, addr) = start(2);
        let mut conn = FramedConn::connect(&addr).unwrap();
        conn.write_frame("[".repeat(1 << 20).as_bytes()).unwrap();
        let body = String::from_utf8(conn.read_frame(None).unwrap().unwrap()).unwrap();
        let err = Response::decode(&body).unwrap().error.unwrap();
        assert_eq!(err.kind, ErrorKind::BadRequest);
        assert!(
            err.message.contains("recursion limit exceeded"),
            "{}",
            err.message
        );
        let mut client = Client::from_conn(conn);
        assert_eq!(client.call("ping", &[]).unwrap().output, "pong\n");
        let mut fresh = Client::connect(&addr).unwrap();
        assert_eq!(fresh.call("ping", &[]).unwrap().output, "pong\n");
        stop(&shutdown, runner);
    }

    #[test]
    fn overload_is_rejected_typed_and_promptly() {
        // max_queued 0 restores the PR 8 binary gate: no queue, shed now.
        let (server, shutdown, runner, addr) = start_with(ServerConfig {
            max_inflight: 1,
            max_queued: 0,
            ..ServerConfig::default()
        });
        // Occupy the single slot with a spinning request on its own thread.
        let blocker = {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(&addr).unwrap();
                client.call("sleepy", &[]).unwrap()
            })
        };
        while server.handler.running.load(Ordering::SeqCst) == 0 {
            std::hint::spin_loop();
        }
        let mut client = Client::connect(&addr).unwrap();
        let rejected = client.call("echo", &["x"]).unwrap();
        assert!(!rejected.ok);
        let err = rejected.error.unwrap();
        assert_eq!(err.kind, ErrorKind::Overloaded);
        assert!(
            err.message.contains("1 requests in flight"),
            "{}",
            err.message
        );
        assert!(err.retry_after_ms.unwrap_or(0) >= 1, "hint must be framed");
        // Interactive kinds bypass the saturated gate entirely.
        assert!(client.call("ping", &[]).unwrap().ok);
        assert!(client.call("health", &[]).unwrap().ok);
        // Release the blocker; its reply must still arrive intact.
        server.handler.release.store(true, Ordering::SeqCst);
        let released = blocker.join().unwrap();
        assert_eq!(released.output, "released\n");
        // The freed slot admits again.
        assert!(client.call("echo", &["y"]).unwrap().ok);
        stop(&shutdown, runner);
    }

    #[test]
    fn queued_request_runs_when_the_slot_frees() {
        let (server, shutdown, runner, addr) = start_with(ServerConfig {
            max_inflight: 1,
            max_queued: 4,
            queue_wait_ms: 60_000,
            ..ServerConfig::default()
        });
        let blocker = {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(&addr).unwrap();
                client.call("sleepy", &[]).unwrap()
            })
        };
        while server.handler.running.load(Ordering::SeqCst) == 0 {
            std::hint::spin_loop();
        }
        // This echo queues behind the blocker instead of shedding...
        let queued = {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(&addr).unwrap();
                client.call("echo", &["queued"]).unwrap()
            })
        };
        while server.admission.snapshot().queued == 0 {
            std::hint::spin_loop();
        }
        // ...and completes once the slot frees.
        server.handler.release.store(true, Ordering::SeqCst);
        assert_eq!(blocker.join().unwrap().output, "released\n");
        let resp = queued.join().unwrap();
        assert!(resp.ok);
        assert_eq!(resp.output, "echo:queued\n");
        assert_eq!(server.admission.snapshot().queued_total, 1);
        stop(&shutdown, runner);
    }

    #[test]
    fn tight_deadline_bounds_the_queue_wait() {
        let (server, shutdown, runner, addr) = start_with(ServerConfig {
            max_inflight: 1,
            max_queued: 4,
            queue_wait_ms: 60_000,
            ..ServerConfig::default()
        });
        let blocker = {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(&addr).unwrap();
                client.call("sleepy", &[]).unwrap()
            })
        };
        while server.handler.running.load(Ordering::SeqCst) == 0 {
            std::hint::spin_loop();
        }
        // A 10 ms deadline caps the wait far below queue_wait_ms: the
        // request sheds at its deadline instead of waiting a minute.
        let mut client = Client::connect(&addr).unwrap();
        let mut req = Request::new(0, "echo", &["doomed"]);
        req.deadline_ms = Some(10);
        let resp = client.request(req).unwrap();
        assert!(!resp.ok);
        let err = resp.error.unwrap();
        assert_eq!(err.kind, ErrorKind::Overloaded);
        assert!(err.retry_after_ms.is_some());
        assert_eq!(server.admission.snapshot().shed_wait_expired_total, 1);
        server.handler.release.store(true, Ordering::SeqCst);
        assert!(blocker.join().unwrap().ok);
        stop(&shutdown, runner);
    }

    #[test]
    fn zero_deadline_is_a_bad_request() {
        let (_server, shutdown, runner, addr) = start(2);
        let mut client = Client::connect(&addr).unwrap();
        let mut req = Request::new(0, "echo", &["x"]);
        req.deadline_ms = Some(0);
        let resp = client.request(req).unwrap();
        assert!(!resp.ok);
        let err = resp.error.unwrap();
        assert_eq!(err.kind, ErrorKind::BadRequest);
        assert!(err.message.contains("already expired"), "{}", err.message);
        stop(&shutdown, runner);
    }

    #[test]
    fn deadline_cancels_with_partial_accounting() {
        let (_server, shutdown, runner, addr) = start(2);
        let mut client = Client::connect(&addr).unwrap();
        let mut req = Request::new(0, "sleepy", &[]);
        req.deadline_ms = Some(25);
        let resp = client.request(req).unwrap();
        assert!(!resp.ok);
        let err = resp.error.unwrap();
        assert_eq!(err.kind, ErrorKind::Cancelled);
        assert!(
            err.message.contains("deadline of 25 ms expired")
                && err.message.contains("spins completed"),
            "{}",
            err.message
        );
        stop(&shutdown, runner);
    }

    #[test]
    fn handler_panic_becomes_a_framed_internal_error() {
        let (server, shutdown, runner, addr) = start(1);
        let mut client = Client::connect(&addr).unwrap();
        let resp = client.call("boom", &[]).unwrap();
        assert!(!resp.ok);
        let err = resp.error.unwrap();
        assert_eq!(err.kind, ErrorKind::Internal);
        assert!(
            err.message.contains("stub handler exploded"),
            "{}",
            err.message
        );
        // The permit was released despite the unwind: the next request runs.
        assert!(client.call("echo", &["after"]).unwrap().ok);
        assert_eq!(server.admission.inflight(), 0);
        stop(&shutdown, runner);
    }

    #[test]
    fn drain_finishes_inflight_and_rejects_late_frames() {
        let (server, shutdown, runner, addr) = start(4);
        // An in-flight request straddling the shutdown.
        let straddler = {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(&addr).unwrap();
                client.call("sleepy", &[]).unwrap()
            })
        };
        while server.handler.running.load(Ordering::SeqCst) == 0 {
            std::hint::spin_loop();
        }
        // A second, idle connection opened before the drain begins.
        let mut late = Client::connect(&addr).unwrap();
        assert!(late.call("ping", &[]).unwrap().ok);
        shutdown.store(true, Ordering::SeqCst);
        // A frame racing the drain on the idle connection either gets a
        // framed Shutdown reply or finds the connection already closed —
        // never a hang, never an unframed drop mid-exchange.
        match late.call("echo", &["too-late"]) {
            Ok(resp) => {
                assert!(!resp.ok);
                assert_eq!(resp.error.unwrap().kind, ErrorKind::Shutdown);
            }
            Err(_closed_by_drain) => {}
        }
        // The straddler must complete and receive its full reply.
        server.handler.release.store(true, Ordering::SeqCst);
        let resp = straddler.join().unwrap();
        assert!(resp.ok);
        assert_eq!(resp.output, "released\n");
        runner.join().unwrap().unwrap();
    }

    #[test]
    fn telemetry_merges_in_arrival_order_and_metrics_is_read_only() {
        let (_server, shutdown, runner, addr) = start(4);
        let mut client = Client::connect(&addr).unwrap();
        for _ in 0..3 {
            assert!(client.call("ping", &[]).unwrap().ok);
        }
        let _ = client.call("nonsense", &[]).unwrap();
        let jsonl = client.call("metrics", &[]).unwrap();
        assert!(jsonl.ok);
        let snap = fcn_telemetry::MetricsSnapshot::from_jsonl(&jsonl.output).unwrap();
        assert_eq!(
            snap.counters.get(names::SERVE_REQUESTS_TOTAL).copied(),
            Some(4),
            "3 pings + 1 failed kind; metrics probes do not count themselves"
        );
        assert_eq!(
            snap.counters.get(names::SERVE_ERRORS_TOTAL).copied(),
            Some(1)
        );
        // Back-to-back probes render byte-identically (read-only probe),
        // and prom output is the same snapshot rendered differently.
        let again = client.call("metrics", &[]).unwrap();
        assert_eq!(jsonl.output, again.output);
        let prom = client.call("metrics", &["--format", "prom"]).unwrap();
        assert_eq!(prom.output, snap.to_prometheus());
        let bad = client.call("metrics", &["--format", "xml"]).unwrap();
        assert_eq!(bad.error.unwrap().kind, ErrorKind::BadRequest);
        stop(&shutdown, runner);
    }

    #[test]
    fn idempotent_replay_answers_from_the_cache_without_reexecuting() {
        let (server, shutdown, runner, addr) = start(4);
        let mut client = Client::connect(&addr).unwrap();
        let mut req = Request::new(0, "echo", &["once"]);
        req.idem_key = Some(0xabad_cafe);
        let first = client.request(req.clone()).unwrap();
        assert!(first.ok);
        // The "retry": same idempotency key, fresh id. It must replay the
        // cached reply (same payload, new id) without executing again.
        let second = client.request(req.clone()).unwrap();
        assert!(second.ok);
        assert_eq!(second.output, first.output);
        assert_ne!(second.id, first.id, "replay answers under the retry's id");
        // ordering: plain statistic; test-side read.
        assert_eq!(server.replayed.load(Ordering::Relaxed), 1);
        // The ordered registry saw exactly one executed echo.
        let metrics = client.call("metrics", &[]).unwrap();
        let snap = fcn_telemetry::MetricsSnapshot::from_jsonl(&metrics.output).unwrap();
        assert_eq!(
            snap.counters.get(names::SERVE_REQUESTS_TOTAL).copied(),
            Some(1),
            "the replayed attempt must not count as an executed request"
        );
        // A transient failure is not cached: a cancelled request retries
        // for real (distinct executions, distinct partials allowed).
        let mut doomed = Request::new(0, "sleepy", &[]);
        doomed.deadline_ms = Some(5);
        doomed.idem_key = Some(0xdead_0001);
        let c1 = client.request(doomed.clone()).unwrap();
        assert_eq!(c1.error.unwrap().kind, ErrorKind::Cancelled);
        let c2 = client.request(doomed).unwrap();
        assert_eq!(c2.error.unwrap().kind, ErrorKind::Cancelled);
        assert_eq!(server.replayed.load(Ordering::Relaxed), 1, "no replay");
        stop(&shutdown, runner);
    }

    #[test]
    fn colliding_idempotency_keys_never_replay_a_different_request() {
        // Client-chosen keys collide in practice: two one-shot `fcnemu
        // request` processes with the default retry seed both stamp the
        // same key. The cache must replay only when the request fingerprint
        // (kind + args + deadline) matches — never hand request B request
        // A's reply.
        let (server, shutdown, runner, addr) = start(4);
        let mut client = Client::connect(&addr).unwrap();
        let mut first = Request::new(0, "echo", &["alpha"]);
        first.idem_key = Some(7);
        let a = client.request(first.clone()).unwrap();
        assert_eq!(a.output, "echo:alpha\n");
        // Same key, different args: must execute for real.
        let mut second = Request::new(0, "echo", &["omega"]);
        second.idem_key = Some(7);
        let b = client.request(second.clone()).unwrap();
        assert_eq!(b.output, "echo:omega\n", "a collision must not replay");
        // Same key, same kind/args, different deadline: also distinct.
        let mut third = second.clone();
        third.deadline_ms = Some(60_000);
        let c = client.request(third.clone()).unwrap();
        assert_eq!(c.output, "echo:omega\n");
        // ordering: plain statistic; test-side read.
        assert_eq!(server.replayed.load(Ordering::Relaxed), 0);
        // A true retry — the latest occupant of the key, same fingerprint —
        // does replay.
        let d = client.request(third).unwrap();
        assert_eq!(d.output, "echo:omega\n");
        assert_eq!(server.replayed.load(Ordering::Relaxed), 1);
        stop(&shutdown, runner);
    }

    #[test]
    fn health_reports_occupancy_and_transport_counters() {
        let (server, shutdown, runner, addr) = start(2);
        let mut client = Client::connect(&addr).unwrap();
        assert!(client.call("echo", &["x"]).unwrap().ok);
        let health = client.call("health", &[]).unwrap();
        assert!(health.ok);
        for needle in [
            "inflight                : 0",
            "queued                  : 0",
            "connections_total       : 1",
            "replayed_total          : 0",
            "chaos_resets_total      : 0",
            "shed_queue_full_total   : 0",
        ] {
            assert!(
                health.output.contains(needle),
                "missing {needle:?} in:\n{}",
                health.output
            );
        }
        // Health probes leave the ordered registry untouched.
        let metrics = client.call("metrics", &[]).unwrap();
        let snap = fcn_telemetry::MetricsSnapshot::from_jsonl(&metrics.output).unwrap();
        assert_eq!(
            snap.counters.get(names::SERVE_REQUESTS_TOTAL).copied(),
            Some(1),
            "health must not count as an executed request"
        );
        assert_eq!(server.connections.load(Ordering::Relaxed), 1);
        stop(&shutdown, runner);
    }

    #[test]
    fn mid_request_disconnect_does_not_stall_the_merge() {
        let (server, shutdown, runner, addr) = start(4);
        // A client that sends a request and vanishes before the reply.
        {
            let mut conn = FramedConn::connect(&addr).unwrap();
            let req = Request::new(1, "sleepy", &[]);
            conn.write_frame(req.encode().as_bytes()).unwrap();
            while server.handler.running.load(Ordering::SeqCst) == 0 {
                std::hint::spin_loop();
            }
            // Dropping the connection here orphans the in-flight request:
            // its reply write will fail after the handler finishes.
        }
        server.handler.release.store(true, Ordering::SeqCst);
        while server.handler.running.load(Ordering::SeqCst) != 0 {
            std::hint::spin_loop();
        }
        // Later requests' telemetry still merges: the dead slot completed
        // (via MergeTicket) instead of stalling the in-order flush.
        let mut client = Client::connect(&addr).unwrap();
        assert!(client.call("ping", &[]).unwrap().ok);
        let metrics = client.call("metrics", &[]).unwrap();
        let snap = fcn_telemetry::MetricsSnapshot::from_jsonl(&metrics.output).unwrap();
        assert_eq!(
            snap.counters.get(names::SERVE_REQUESTS_TOTAL).copied(),
            Some(2),
            "the orphaned request's shard and the ping must both have merged"
        );
        stop(&shutdown, runner);
    }

    #[test]
    fn merge_ticket_drop_fills_its_slot() {
        let merge = MergeQueue::default();
        let reg = MetricsRegistry::new();
        let _ = take_shard(); // start this thread's shard clean
        let first = MergeTicket::claim(&merge, &reg);
        let second = MergeTicket::claim(&merge, &reg);
        // Complete the *later* slot first, with a real delta...
        with_shard(|s| s.add("mergetickettest_done_total", 1));
        second.finish(take_shard());
        // ...which cannot flush until seq 0 completes. Dropping the first
        // ticket unfinished (the unwind/disconnect path) must fill slot 0
        // and release the flush, not stall it forever.
        assert_eq!(
            reg.snapshot().counters.get("mergetickettest_done_total"),
            None
        );
        drop(first);
        assert_eq!(
            reg.snapshot()
                .counters
                .get("mergetickettest_done_total")
                .copied(),
            Some(1)
        );
    }

    #[test]
    fn reply_cache_is_bounded_fifo() {
        let cache = ReplyCache::default();
        for k in 0..(REPLY_CACHE_CAP as u64 + 10) {
            cache.insert(k, "fp", &Response::success(k, 0, format!("r{k}")));
        }
        assert!(
            cache.get(0, "fp").is_none(),
            "oldest entries must be evicted"
        );
        assert!(cache.get(9, "fp").is_none());
        assert_eq!(
            cache.get(10, "fp").map(|r| r.output),
            Some("r10".to_string()),
            "entries within the cap survive"
        );
        let newest = REPLY_CACHE_CAP as u64 + 9;
        assert_eq!(
            cache.get(newest, "fp").map(|r| r.output),
            Some(format!("r{newest}"))
        );
        // A colliding key from a *different* logical request never replays.
        assert!(cache.get(newest, "other-request").is_none());
        // Transient outcomes are never cacheable.
        assert!(!cacheable(&Response::overloaded(1, "full", 5)));
        assert!(!cacheable(&Response::failure(
            1,
            ErrorKind::Cancelled,
            "late"
        )));
        assert!(!cacheable(&Response::failure(
            1,
            ErrorKind::Internal,
            "boom"
        )));
        assert!(cacheable(&Response::failure(
            1,
            ErrorKind::BadRequest,
            "bad"
        )));
        assert!(cacheable(&Response::success(1, 0, String::new())));
    }
}
