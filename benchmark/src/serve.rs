//! The in-process daemon: `fcn_serve::Server` wrapping the production
//! `CliHandler` on loopback TCP, plus the `serve_mix` workload.
//!
//! `serve_mix` drives the daemon with two closed-loop clients (each sends
//! its next request only after the previous reply lands). About half the
//! requests are interactive (`ping`, `health`), half are small `beta`
//! reports on mesh2(16) with one trial and seeds drawn from four values,
//! so after warm-up the registry and its plan cache serve almost every
//! heavy request: the opposite cache regime from `beta_mesh2_4096`.

use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use fcn_cli::service::CliHandler;
use fcn_exec::job_seed;
use fcn_routing::{CompiledNet, PlanCache};
use fcn_serve::{Client, Handler, HandlerOutcome, Request, Response, Server, ServerConfig};
use fcn_telemetry::names;
use rand::{RngExt, SeedableRng};

use crate::replay::{self, ReportSpec};
use crate::util::{self, argv, median, ms, percentile, run_cli, timed, Outcome};

const HEAVY: ReportSpec = ReportSpec {
    family: "mesh2",
    size: 256,
    trials: 1,
    jobs: 1,
};
/// Distinct heavy seeds; each run draws them from its own seed.
const HEAVY_SEEDS: u64 = 4;
/// The window is cut into this many segments. Each one re-runs the inline
/// references and binds and warms fresh daemons before its share of the
/// window, so `beta_s` and `setup_s` sample the whole run, not its first
/// moments: this host's speed drifts within a run.
const SEGMENTS: u32 = 5;
/// Inline passes over the heavy requests per segment; `beta_s` is the
/// median over segments of each segment's median.
const INLINE_PER_SEGMENT: usize = 4;
/// Daemon set-ups per segment; the last one serves the segment.
const SETUP_PER_SEGMENT: usize = 3;
const CLIENTS: u64 = 2;
/// Domain separator for the clients' request-mix streams.
const MIX_STREAM: u64 = 0x5e_4e_ed;
/// Replays of each distinct heavy request in the traced run.
const REPLAY_PASSES: usize = 3;
/// Encode/decode repetitions per body when timing the codec.
const CODEC_REPS: usize = 2000;

/// Handler execution times in milliseconds, in completion order.
pub type ExecLog = Arc<Mutex<Vec<f64>>>;

/// The production handler, with a timer around each call when traced, so
/// the traced run can split a client's round trip into handler execution
/// and server overhead. Untraced, it only delegates.
pub struct TimedHandler {
    inner: CliHandler,
    log: Option<ExecLog>,
}

impl TimedHandler {
    pub fn new(log: Option<ExecLog>) -> TimedHandler {
        TimedHandler {
            inner: CliHandler::new(),
            log,
        }
    }
}

impl Handler for TimedHandler {
    fn handle(&self, kind: &str, args: &[String], cancel: &AtomicBool) -> HandlerOutcome {
        let Some(log) = &self.log else {
            return self.inner.handle(kind, args, cancel);
        };
        let (out, d) = timed(|| self.inner.handle(kind, args, cancel));
        lock_log(log).push(ms(d));
        out
    }
}

/// The log is a plain list that every push leaves valid, so a poisoned
/// lock (a panicked handler thread) still holds usable timings.
pub fn lock_log(log: &ExecLog) -> std::sync::MutexGuard<'_, Vec<f64>> {
    log.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn logged(log: &ExecLog) -> Vec<f64> {
    lock_log(log).clone()
}

/// A bound server with its serving thread; [`Daemon::stop`] drains it.
pub struct Daemon {
    server: Arc<Server<TimedHandler>>,
    pub addr: String,
    shutdown: Arc<AtomicBool>,
    thread: JoinHandle<io::Result<()>>,
}

impl Daemon {
    /// Bind with the `fcnemu serve` defaults and start serving. Telemetry
    /// is enabled, as `fcnemu serve` does, so registry counters record.
    pub fn start(handler: TimedHandler) -> Result<Daemon, String> {
        fcn_telemetry::global().set_enabled(true);
        let server = Arc::new(
            Server::bind(ServerConfig::default(), handler).map_err(|e| format!("bind: {e}"))?,
        );
        let addr = server
            .local_addr()
            .map_err(|e| format!("local_addr: {e}"))?
            .to_string();
        let shutdown = Arc::new(AtomicBool::new(false));
        let thread = {
            let (server, shutdown) = (Arc::clone(&server), Arc::clone(&shutdown));
            std::thread::spawn(move || server.run(&shutdown))
        };
        Ok(Daemon {
            server,
            addr,
            shutdown,
            thread,
        })
    }

    pub fn client(&self) -> Result<Client, String> {
        Client::connect(&self.addr).map_err(|e| format!("connect {}: {e}", self.addr))
    }

    /// A counter from the server's request-ordered registry.
    pub fn counter(&self, name: &str) -> u64 {
        self.server.metrics().counter(name).get()
    }

    /// Raise the shutdown flag and wait for the drain to finish.
    pub fn stop(self) -> Result<(), String> {
        // ordering: monotone drain hint, polled Relaxed by the server.
        self.shutdown.store(true, Ordering::Relaxed);
        match self.thread.join() {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(format!("serve loop failed: {e}")),
            Err(_) => Err("serve thread panicked".into()),
        }
    }
}

/// Per-request protocol cost of one request body and its reply body.
#[derive(Default, Clone, Copy)]
pub struct Codec {
    pub decode_us: f64,
    pub encode_us: f64,
    pub bytes: f64,
}

/// Time `Request`/`Response` encode and decode on real bodies. Errors when
/// a body does not survive a round trip unchanged.
pub fn codec_cost(req: &Request, resp: &Response) -> Result<Codec, String> {
    let (req_body, resp_body) = (req.encode(), resp.encode());
    let req_back = Request::decode(&req_body)?;
    let resp_back = Response::decode(&resp_body)?;
    if req_back.encode() != req_body || resp_back.encode() != resp_body {
        return Err(format!("codec round trip changed a {:?} body", req.kind));
    }
    let (_, decode) = timed(|| {
        for _ in 0..CODEC_REPS {
            std::hint::black_box(Request::decode(std::hint::black_box(&req_body)).ok());
            std::hint::black_box(Response::decode(std::hint::black_box(&resp_body)).ok());
        }
    });
    let (_, encode) = timed(|| {
        for _ in 0..CODEC_REPS {
            std::hint::black_box(std::hint::black_box(&req_back).encode());
            std::hint::black_box(std::hint::black_box(&resp_back).encode());
        }
    });
    Ok(Codec {
        decode_us: decode.as_secs_f64() * 1e6 / CODEC_REPS as f64,
        encode_us: encode.as_secs_f64() * 1e6 / CODEC_REPS as f64,
        bytes: (req_body.len() + resp_body.len()) as f64,
    })
}

/// A `health` field, e.g. `queued_total` → its count.
pub fn health_field(reply: &str, key: &str) -> Option<u64> {
    reply.lines().find_map(|l| {
        let (k, v) = l.split_once(':')?;
        (k.trim() == key).then(|| v.trim().parse().ok())?
    })
}

/// The keys every `health` reply carries, in order.
const HEALTH_KEYS: [&str; 11] = [
    "inflight",
    "queued",
    "queued_total",
    "shed_queue_full_total",
    "shed_wait_expired_total",
    "connections_total",
    "replayed_total",
    "chaos_resets_total",
    "chaos_stalls_total",
    "chaos_truncations_total",
    "chaos_corruptions_total",
];

/// `health` renders live counters, so its reply is checked for shape: the
/// eleven fields in order, each a count, and no chaos on this daemon.
pub fn health_ok(resp: &Response) -> bool {
    let lines: Vec<&str> = resp.output.lines().collect();
    resp.ok
        && resp.exit_code == 0
        && lines.len() == HEALTH_KEYS.len()
        && HEALTH_KEYS.iter().zip(&lines).all(|(key, line)| {
            line.split_once(':')
                .is_some_and(|(k, v)| k.trim() == *key && v.trim().parse::<u64>().is_ok())
        })
        && HEALTH_KEYS[7..]
            .iter()
            .all(|k| health_field(&resp.output, k) == Some(0))
}

pub fn reply_is(resp: &Response, output: &str) -> bool {
    resp.ok && resp.error.is_none() && resp.exit_code == 0 && resp.output == output
}

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Beta(usize),
    Ping,
    Health,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Beta(_) => "beta",
            Kind::Ping => "ping",
            Kind::Health => "health",
        }
    }
}

/// One request and its checked reply.
pub struct Done {
    kind: Kind,
    pub latency_ms: f64,
    pub ok: bool,
    pub detail: String,
}

/// Send one request of `kind` and check the reply: a `beta` reply must
/// equal its inline reference byte for byte, `ping` must answer `pong`,
/// and `health` must have its shape. The flag is false when the transport
/// failed, after which the connection is not used again.
fn exchange(
    client: &mut Client,
    kind: Kind,
    heavy_args: &[Vec<String>],
    inline: &[String],
) -> (Done, bool) {
    let req = match kind {
        Kind::Beta(i) => {
            let args: Vec<&str> = heavy_args[i].iter().map(String::as_str).collect();
            Request::new(0, "beta", &args)
        }
        Kind::Ping => Request::new(0, "ping", &[]),
        Kind::Health => Request::new(0, "health", &[]),
    };
    let (resp, d) = timed(|| client.request(req));
    let (ok, detail) = match &resp {
        Ok(r) => {
            let ok = match kind {
                Kind::Beta(i) => reply_is(r, &inline[i]),
                Kind::Ping => reply_is(r, "pong\n"),
                Kind::Health => health_ok(r),
            };
            let detail = if ok {
                String::new()
            } else {
                format!("{} reply {r:?}", kind.name())
            };
            (ok, detail)
        }
        Err(e) => (false, format!("{} transport error: {e}", kind.name())),
    };
    let done = Done {
        kind,
        latency_ms: ms(d),
        ok,
        detail,
    };
    (done, resp.is_ok())
}

/// One closed-loop client: draw, send, wait, check, repeat until `until`.
fn client_loop(
    addr: &str,
    stream_seed: u64,
    heavy_args: &[Vec<String>],
    inline: &[String],
    until: Instant,
) -> Vec<Done> {
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            return vec![Done {
                kind: Kind::Ping,
                latency_ms: 0.0,
                ok: false,
                detail: format!("connect: {e}"),
            }]
        }
    };
    let mut done = Vec::new();
    let mut rng = rand::rngs::StdRng::seed_from_u64(stream_seed);
    while util::now() < until {
        let kind = match rng.random_range(0..4u32) {
            0 | 1 => Kind::Beta(rng.random_range(0..heavy_args.len())),
            2 => Kind::Ping,
            _ => Kind::Health,
        };
        let (d, transport_ok) = exchange(&mut client, kind, heavy_args, inline);
        done.push(d);
        if !transport_ok {
            break;
        }
    }
    done
}

/// The interactive class of the beta workloads: `count` requests on one
/// connection, `health` and `ping` in turn, each checked.
pub fn interactive_burst(client: &mut Client, count: usize) -> Vec<Done> {
    let mut done = Vec::new();
    for i in 0..count {
        let kind = if i % 2 == 0 { Kind::Health } else { Kind::Ping };
        let (d, transport_ok) = exchange(client, kind, &[], &[]);
        done.push(d);
        if !transport_ok {
            break;
        }
    }
    done
}

/// `fcnemu beta` inline for each heavy request: the reference every served
/// reply must match byte for byte. Appends one timing per request.
fn inline_pass(
    heavy_args: &[Vec<String>],
    inline: &mut Vec<String>,
    inline_ms: &mut Vec<f64>,
    o: &mut Outcome,
) {
    for (i, args) in heavy_args.iter().enumerate() {
        let mut words = argv(&["beta"]);
        words.extend(args.iter().cloned());
        let ((code, out), d) = timed(|| run_cli(&words));
        inline_ms.push(ms(d));
        if inline.len() <= i {
            inline.push(out.clone());
        }
        o.check(
            code == 0 && out == inline[i] && util::beta_within_flux(&out),
            || format!("inline {words:?} exited {code} with {out:?}"),
        );
    }
}

/// Bind a daemon and warm its registry with each heavy request, `reps`
/// times; the last daemon is returned still serving.
fn warm_daemon(
    reps: usize,
    log: Option<&ExecLog>,
    heavy_args: &[Vec<String>],
    inline: &[String],
    setup_s: &mut Vec<f64>,
    o: &mut Outcome,
) -> Result<Daemon, String> {
    for rep in 1..=reps {
        let t0 = util::now();
        let daemon = Daemon::start(TimedHandler::new(log.cloned()))?;
        let mut client = daemon.client()?;
        for (args, expected) in heavy_args.iter().zip(inline) {
            let words: Vec<&str> = args.iter().map(String::as_str).collect();
            let resp = client.call("beta", &words);
            o.check(resp.as_ref().is_ok_and(|r| reply_is(r, expected)), || {
                format!("warm-up beta {args:?}: {resp:?}")
            });
        }
        drop(client);
        setup_s.push(t0.elapsed().as_secs_f64());
        if rep == reps {
            return Ok(daemon);
        }
        daemon.stop()?;
    }
    Err("no set-up repetitions".into())
}

/// The window figures of one segment.
struct SegmentStats {
    beta_s: f64,
    throughput_rps: f64,
    heavy_p50_ms: f64,
    heavy_tail_ms: f64,
    interactive_p50_ms: f64,
}

impl SegmentStats {
    fn of(inline_ms: &[f64], served: &[Done], window: Duration) -> Result<SegmentStats, String> {
        let (heavy, interactive): (Vec<&Done>, Vec<&Done>) =
            served.iter().partition(|d| matches!(d.kind, Kind::Beta(_)));
        let ms_of = |ds: &[&Done]| ds.iter().map(|d| d.latency_ms).collect::<Vec<f64>>();
        let (heavy, interactive) = (ms_of(&heavy), ms_of(&interactive));
        if heavy.is_empty() || interactive.is_empty() {
            return Err(format!(
                "a segment of {:.3} s completed {} heavy and {} interactive requests; need both",
                window.as_secs_f64(),
                heavy.len(),
                interactive.len()
            ));
        }
        Ok(SegmentStats {
            beta_s: median(inline_ms) / 1e3,
            throughput_rps: served.len() as f64 / window.as_secs_f64(),
            heavy_p50_ms: median(&heavy),
            heavy_tail_ms: percentile(&heavy, 90.0),
            interactive_p50_ms: median(&interactive),
        })
    }
}

pub fn serve_mix(seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let mut o = Outcome::default();
    let heavy_seeds: Vec<u64> = (0..HEAVY_SEEDS).map(|i| job_seed(seed, i)).collect();
    let heavy_args: Vec<Vec<String>> = heavy_seeds.iter().map(|&s| HEAVY.args(s)).collect();
    let log: ExecLog = Arc::default();
    let (mut inline, mut inline_ms, mut setup_s) = (Vec::new(), Vec::new(), Vec::new());
    let (mut done, mut exec_ms, mut window) = (Vec::new(), Vec::new(), Duration::ZERO);
    let mut segment_stats = Vec::new();
    let (mut registry, mut queued, mut shed) = ((0, 0), 0, 0);
    let mut health = None;
    for segment in 0..SEGMENTS {
        let inline_from = inline_ms.len();
        for _ in 0..INLINE_PER_SEGMENT {
            inline_pass(&heavy_args, &mut inline, &mut inline_ms, &mut o);
        }
        let daemon = warm_daemon(
            SETUP_PER_SEGMENT,
            trace.then_some(&log),
            &heavy_args,
            &inline,
            &mut setup_s,
            &mut o,
        )?;
        let warmed = logged(&log).len();
        let start = util::now();
        let until = start + Duration::from_secs_f64(seconds / f64::from(SEGMENTS));
        let served: Result<Vec<Vec<Done>>, _> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|c| {
                    let (addr, heavy_args, inline) = (&daemon.addr, &heavy_args, &inline);
                    let stream = job_seed(seed ^ MIX_STREAM, u64::from(segment) * CLIENTS + c);
                    scope.spawn(move || client_loop(addr, stream, heavy_args, inline, until))
                })
                .collect();
            handles.into_iter().map(|h| h.join()).collect()
        });
        let segment_window = start.elapsed();
        window += segment_window;
        let served: Vec<Done> = served
            .map_err(|_| "client thread panicked".to_string())?
            .into_iter()
            .flatten()
            .collect();
        segment_stats.push(SegmentStats::of(
            &inline_ms[inline_from..],
            &served,
            segment_window,
        )?);
        done.extend(served);
        exec_ms.extend_from_slice(&logged(&log)[warmed..]);
        let h = daemon.client()?.call("health", &[]);
        let h = h.map_err(|e| format!("post-window health: {e}"))?;
        o.check(health_ok(&h), || format!("post-window health {h:?}"));
        let (q, s) = admission_counts(&h);
        queued += q;
        shed += s;
        registry.0 += daemon.counter(names::SERVE_REGISTRY_HITS_TOTAL);
        registry.1 += daemon.counter(names::SERVE_REGISTRY_MISSES_TOTAL);
        health = Some(h);
        daemon.stop()?;
    }
    let health = health.ok_or("no segments ran")?;
    let elapsed = window.as_secs_f64();
    for d in &done {
        o.check(d.ok, || d.detail.clone());
    }
    let heavy: Vec<f64> = done
        .iter()
        .filter(|d| matches!(d.kind, Kind::Beta(_)))
        .map(|d| d.latency_ms)
        .collect();
    let interactive: Vec<f64> = done
        .iter()
        .filter(|d| !matches!(d.kind, Kind::Beta(_)))
        .map(|d| d.latency_ms)
        .collect();

    o.note(format!(
        "serve_mix: {} requests in {elapsed:.3} s from {CLIENTS} closed-loop clients: \
         {} heavy (beta mesh2 256, 1 trial, {HEAVY_SEEDS} seeds), {} interactive (ping, health) \
         in {SEGMENTS} segments; beta_s over {} inline runs, {} per segment",
        done.len(),
        heavy.len(),
        interactive.len(),
        inline_ms.len(),
        inline_ms.len() / SEGMENTS as usize
    ));
    o.note(util::setup_note("daemons", &setup_s));
    for (class, xs) in [("heavy", &heavy), ("interactive", &interactive)] {
        o.note(util::tail(class, xs));
    }
    if !trace {
        o.push("setup_s", median(&setup_s), "s");

        o.push("peak_rss_mib", util::peak_rss_mib()?, "MiB");
        o.push(
            "success_rate",
            1.0 - o.failed as f64 / o.attempted as f64,
            "share",
        );
        // Each is the median over segments of that segment's figure, so a
        // host stall that spans one or two segments does not move it.
        let over_segments =
            |f: fn(&SegmentStats) -> f64| median(&segment_stats.iter().map(f).collect::<Vec<_>>());
        o.push("beta_s", over_segments(|s| s.beta_s), "s");
        o.push("throughput_rps", over_segments(|s| s.throughput_rps), "1/s");
        o.push("heavy_p50_ms", over_segments(|s| s.heavy_p50_ms), "ms");
        o.push("heavy_tail_ms", over_segments(|s| s.heavy_tail_ms), "ms");
        o.push(
            "interactive_p50_ms",
            over_segments(|s| s.interactive_p50_ms),
            "ms",
        );
        return Ok(o);
    }

    // Traced: per-kind server overhead, codec cost on the real bodies, and
    // a layer split of the heavy requests on a warm plan cache.
    let rtt = |k: &str| -> Vec<f64> {
        done.iter()
            .filter(|d| d.kind.name() == k)
            .map(|d| d.latency_ms)
            .collect()
    };
    let beta_overhead_ms = median(&rtt("beta")) - median(&exec_ms);
    let mut codec = Codec::default();
    let weighted = [
        (
            Request::new(
                1,
                "beta",
                &heavy_args[0].iter().map(String::as_str).collect::<Vec<_>>(),
            ),
            Response::success(1, 0, inline[0].clone()),
            rtt("beta").len(),
        ),
        (
            Request::new(1, "ping", &[]),
            Response::success(1, 0, "pong\n".into()),
            rtt("ping").len(),
        ),
        (
            Request::new(1, "health", &[]),
            health.clone(),
            rtt("health").len(),
        ),
    ];
    let total: usize = weighted.iter().map(|w| w.2).sum();
    for (req, resp, count) in &weighted {
        let c = codec_cost(req, resp)?;
        let w = *count as f64 / total as f64;
        codec.decode_us += w * c.decode_us;
        codec.encode_us += w * c.encode_us;
        codec.bytes += w * c.bytes;
    }

    let machine = HEAVY.family()?.build_near(HEAVY.size, seed);
    let (net, net_time) = timed(|| CompiledNet::shared(&machine));
    let cache = PlanCache::default();
    for &s in &heavy_seeds {
        replay::replay_layers(&HEAVY, s, Some(&net), &cache)?;
    }
    let mut splits = Vec::new();
    for _ in 0..REPLAY_PASSES {
        for (i, &s) in heavy_seeds.iter().enumerate() {
            let split = replay::replay_layers(&HEAVY, s, Some(&net), &cache)?;
            let reference = replay::estimate(&HEAVY, s, &machine, &net);
            let lines = replay::report_lines(&split.samples, &split.flux_bound);
            let first = splits.get(i).unwrap_or(&split);
            o.check(
                split.samples == reference.samples
                    && lines.iter().all(|l| inline[i].lines().any(|r| r == l))
                    && reference.rate <= split.flux_bound.rate_bound
                    && (split.trees, split.hits, split.hops, split.ticks)
                        == (first.trees, first.hits, first.hops, first.ticks),
                || format!("replay of seed {s} differs from the estimator or the report"),
            );
            splits.push(split);
        }
    }
    let layers = replay::LayerMetrics {
        splits: &splits,
        counted: &splits[..heavy_seeds.len()],
        net_ms: vec![ms(net_time)],
        jobs: 1,
        grid_cells: splits.iter().flat_map(|s| s.cells.clone()).collect(),
        grid_walls: splits.iter().map(|s| s.grid).collect(),
        wall_ratio: median(&splits.iter().map(|s| ms(s.wall)).collect::<Vec<_>>())
            / median(&exec_ms),
    };
    layers.push(&mut o);
    o.push("proto.decode_us", codec.decode_us, "us");
    o.push("proto.encode_us", codec.encode_us, "us");
    o.push("proto.bytes", codec.bytes, "B");
    o.push("handler.exec_ms.beta", median(&exec_ms), "ms");
    o.push("server.overhead_us.beta", beta_overhead_ms * 1e3, "us");
    o.push("server.overhead_us.ping", median(&rtt("ping")) * 1e3, "us");
    o.push(
        "server.overhead_us.health",
        median(&rtt("health")) * 1e3,
        "us",
    );
    o.push("registry.hits", registry.0 as f64, "count");
    o.push("registry.misses", registry.1 as f64, "count");
    o.push("admission.queued", queued as f64, "count");
    o.push("admission.shed", shed as f64, "count");
    o.note(format!(
        "traced: {} layer replays ({} seeds x {REPLAY_PASSES} passes on a warm plan cache); \
         handler exec over {} beta requests",
        splits.len(),
        heavy_seeds.len(),
        exec_ms.len()
    ));
    Ok(o)
}

/// Requests queued and requests shed so far, from a `health` reply.
fn admission_counts(health: &Response) -> (u64, u64) {
    let field = |k: &str| health_field(&health.output, k).unwrap_or(0);
    (
        field("queued_total"),
        field("shed_queue_full_total") + field("shed_wait_expired_total"),
    )
}

/// `admission.queued` and `admission.shed` from a `health` reply.
pub fn push_admission(o: &mut Outcome, health: &Response) {
    let (queued, shed) = admission_counts(health);
    o.push("admission.queued", queued as f64, "count");
    o.push("admission.shed", shed as f64, "count");
}
