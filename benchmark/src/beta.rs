//! The β-report workloads: full `fcnemu beta` reports at `--jobs 2`, run
//! inline and asked of a warm in-process daemon in turn.
//!
//! `beta_mesh2_4096` is planner-bound: randomized-BFS planning is most of a
//! report and the plan cache thrashes (it fills at 4096 trees and turns
//! the rest away). `beta_debruijn_16384` routes by bit correction, so no
//! BFS tree is built and the cache is never consulted; the tick router and
//! the flux bound do the work. A planner or cache change should move the
//! first and leave the second unchanged; a router or flux change is seen
//! mainly on the second.

use std::sync::Arc;
use std::time::Duration;

use fcn_routing::{CompiledNet, PlanCache};
use fcn_serve::Request;
use fcn_telemetry::names;

use crate::replay::{self, LayerMetrics, ReportSpec};
use crate::serve::{self, Daemon, ExecLog, TimedHandler};
use crate::util::{self, median, ms, run_cli, timed, Outcome};

pub struct BetaWorkload {
    pub spec: ReportSpec,
    /// `fcnemu beta <family> <size> --jobs 2` at the default seed.
    pub pinned: &'static str,
}

pub const MESH2_4096: BetaWorkload = BetaWorkload {
    spec: ReportSpec {
        family: "mesh2",
        size: 4096,
        trials: 3,
        jobs: 2,
    },
    pinned: include_str!("../expected/beta_mesh2_4096.txt"),
};

pub const DEBRUIJN_16384: BetaWorkload = BetaWorkload {
    spec: ReportSpec {
        family: "de_bruijn",
        size: 16384,
        trials: 3,
        jobs: 2,
    },
    pinned: include_str!("../expected/beta_debruijn_16384.txt"),
};

/// Machine build plus net compile repetitions after each report; their
/// median is `setup_s`.
const SETUP_PER_REPORT: usize = 4;
/// Interactive requests (`health` and `ping` in turn) sent to the warm
/// daemon after each served report.
const INTERACTIVE_PER_REPORT: usize = 1000;
/// Interactive requests sent to the daemon in each traced iteration.
const TRACE_PINGS: usize = 20;

impl BetaWorkload {
    fn argv(&self, seed: u64) -> Vec<String> {
        let mut a = vec!["beta".to_string()];
        a.extend(self.spec.args(seed));
        a
    }

    /// The report every run must reproduce: the pinned one at the default
    /// seed, otherwise the first one the run produced.
    fn expected(&self, seed: u64) -> Option<String> {
        (seed == crate::DEFAULT_SEED).then(|| self.pinned.to_string())
    }

    /// Build the machine and compile its net once, and return the seconds
    /// that took. This is the set-up every `fcnemu beta` process pays.
    pub fn setup(&self, seed: u64) -> Result<f64, String> {
        let family = self.spec.family()?;
        let (_net, d) = timed(|| CompiledNet::shared(&family.build_near(self.spec.size, seed)));
        Ok(d.as_secs_f64())
    }

    /// [`BetaWorkload::setup`] in a cold child process, as every
    /// `fcnemu beta` invocation pays it.
    fn setup_in_child(&self, seed: u64) -> Result<f64, String> {
        let out = util::run_child(&util::argv(&[
            "--child-setup",
            self.spec.family,
            &seed.to_string(),
        ]))?;
        out.trim()
            .parse()
            .map_err(|_| format!("set-up child printed {out:?}"))
    }

    pub fn run(&self, seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
        let mut o = Outcome::default();
        if trace {
            self.traced(seed, seconds, &mut o)?;
        } else {
            self.untraced(seed, seconds, &mut o)?;
        }
        Ok(o)
    }

    /// Each cycle runs the report inline, as `fcnemu beta` does, then asks
    /// a warm in-process daemon for the same report, then sends that daemon
    /// a burst of `health` and `ping`, then takes the set-up samples. Every
    /// report must equal the expected one.
    fn untraced(&self, seed: u64, seconds: f64, o: &mut Outcome) -> Result<(), String> {
        let report_argv = self.argv(seed);
        let args = self.spec.args(seed);
        let req = Request::new(
            0,
            "beta",
            &args.iter().map(String::as_str).collect::<Vec<_>>(),
        );
        let mut expected = self.expected(seed);
        let daemon = Daemon::start(TimedHandler::new(None))?;
        let mut client = daemon.client()?;
        // One served report before the window warms the daemon's registry,
        // so every sampled one finds the net compiled and the cache filled.
        let resp = client
            .request(req.clone())
            .map_err(|e| format!("warm-up report: {e}"))?;
        let want = expected.get_or_insert_with(|| resp.output.clone());
        o.check(serve::reply_is(&resp, want), || {
            format!("warm-up report {args:?}: {resp:?}\nexpected:\n{want}")
        });
        let (mut inline, mut served, mut setup) = (Vec::new(), Vec::new(), Vec::new());
        let (mut interactive, mut interactive_p50) = (Vec::new(), Vec::new());
        let mut setup_wall = Duration::ZERO;
        let start = util::now();
        while served.is_empty() || start.elapsed().as_secs_f64() < seconds {
            let ((code, out), d) = timed(|| run_cli(&report_argv));
            inline.push(ms(d));
            let want = expected.get_or_insert_with(|| out.clone());
            o.check(
                code == 0 && out == *want && util::beta_within_flux(&out),
                || format!("report {report_argv:?} exited {code}:\n{out}\nexpected:\n{want}"),
            );

            // `fcnemu serve` runs with telemetry on; `run_cli` turned it off.
            fcn_telemetry::global().set_enabled(true);
            let (resp, d) = timed(|| client.request(req.clone()));
            served.push(ms(d));
            o.check(
                resp.as_ref().is_ok_and(|r| serve::reply_is(r, want)),
                || format!("served report {args:?}: {resp:?}\nexpected:\n{want}"),
            );
            let burst = serve::interactive_burst(&mut client, INTERACTIVE_PER_REPORT);
            for b in &burst {
                o.check(b.ok, || b.detail.clone());
            }
            let latencies: Vec<f64> = burst.iter().map(|b| b.latency_ms).collect();
            interactive_p50.push(median(&latencies));
            interactive.extend(latencies);

            // Spread over the window, set-up samples see the same host
            // conditions as the reports instead of only the first moments.
            let t0 = util::now();
            for _ in 0..SETUP_PER_REPORT {
                setup.push(self.setup_in_child(seed)?);
            }
            setup_wall += t0.elapsed();
        }
        drop(client);
        daemon.stop()?;
        fcn_telemetry::global().set_enabled(false);
        let elapsed = (start.elapsed() - setup_wall).as_secs_f64();
        o.note(format!(
            "{}: {} inline and {} served reports in {elapsed:.3} s; \
             {INTERACTIVE_PER_REPORT} health and ping requests after each served one",
            report_argv.join(" "),
            inline.len(),
            served.len(),
        ));
        o.note(util::tail("inline report", &inline));
        o.note(util::tail("served report", &served));
        o.note(util::tail("interactive", &interactive));
        o.note(format!(
            "interactive p50 per burst, ms: {interactive_p50:.4?}"
        ));
        o.note(util::setup_note("builds", &setup));
        o.push("setup_s", median(&setup), "s");
        o.push("beta_s", median(&inline) / 1e3, "s");
        o.push("peak_rss_mib", util::peak_rss_mib()?, "MiB");
        o.push(
            "success_rate",
            1.0 - o.failed as f64 / o.attempted as f64,
            "share",
        );
        o.push(
            "throughput_rps",
            (inline.len() + served.len()) as f64 / elapsed,
            "1/s",
        );
        o.push("heavy_p50_ms", median(&served), "ms");
        o.push("heavy_tail_ms", util::max(&served), "ms");
        o.push("interactive_p50_ms", median(&interactive_p50), "ms");
        Ok(())
    }

    /// Each iteration serves the report once through a fresh daemon (the
    /// untraced reference and the serve-layer split), runs the estimator
    /// itself, a cell-timed grid replay at the report's worker count, and
    /// a sequential layer-timed replay; the three sample sets must agree.
    fn traced(&self, seed: u64, seconds: f64, o: &mut Outcome) -> Result<(), String> {
        let family = self.spec.family()?;
        let mut expected = self.expected(seed);
        let (mut exec, mut overhead_beta) = (Vec::new(), Vec::new());
        let (mut ping_us, mut health_us) = (Vec::new(), Vec::new());
        let mut codecs = Vec::new();
        let mut splits = Vec::new();
        let (mut grid_cells, mut grid_walls, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
        let (mut registry, mut health) = ((0, 0), None);
        let start = util::now();
        while splits.is_empty() || start.elapsed().as_secs_f64() < seconds {
            // Served once on a cold daemon, which runs exactly the inline
            // report (fresh compiled net and plan cache).
            let log: ExecLog = Arc::default();
            let daemon = Daemon::start(TimedHandler::new(Some(Arc::clone(&log))))?;
            let mut client = daemon.client()?;
            let args = self.spec.args(seed);
            let req = Request::new(
                0,
                "beta",
                &args.iter().map(String::as_str).collect::<Vec<_>>(),
            );
            let (resp, rtt) = timed(|| client.request(req.clone()));
            let resp = resp.map_err(|e| format!("served report: {e}"))?;
            let want = expected.get_or_insert_with(|| resp.output.clone());
            o.check(serve::reply_is(&resp, want), || {
                format!("served report {args:?}: {resp:?}\nexpected:\n{want}")
            });
            let exec_ms = median(&serve::lock_log(&log));
            exec.push(exec_ms);
            overhead_beta.push((ms(rtt) - exec_ms) * 1e3);
            for _ in 0..TRACE_PINGS {
                let (r, d) = timed(|| client.call("ping", &[]));
                o.check(r.is_ok_and(|r| serve::reply_is(&r, "pong\n")), || {
                    "ping reply".into()
                });
                ping_us.push(ms(d) * 1e3);
                let (r, d) = timed(|| client.call("health", &[]));
                health_us.push(ms(d) * 1e3);
                let r = r.map_err(|e| format!("health: {e}"))?;
                o.check(serve::health_ok(&r), || format!("health reply {r:?}"));
                health = Some(r);
            }
            drop(client);
            registry = (
                daemon.counter(names::SERVE_REGISTRY_HITS_TOTAL),
                daemon.counter(names::SERVE_REGISTRY_MISSES_TOTAL),
            );
            daemon.stop()?;
            fcn_telemetry::global().set_enabled(false);
            codecs.push(serve::codec_cost(&req, &resp)?);

            let machine = family.build_near(self.spec.size, seed);
            let net = CompiledNet::shared(&machine);
            let reference = replay::estimate(&self.spec, seed, &machine, &net);
            drop((machine, net));
            let grid = replay::replay_grid(&self.spec, seed)?;
            let split = replay::replay_layers(&self.spec, seed, None, &PlanCache::default())?;
            let lines = replay::report_lines(&split.samples, &split.flux_bound);
            let first = splits.first().unwrap_or(&split);
            o.check(
                grid.samples == reference.samples
                    && split.samples == reference.samples
                    && reference.rate <= split.flux_bound.rate_bound
                    && lines.iter().all(|l| want.lines().any(|r| r == l))
                    && (split.trees, split.hits, split.hops, split.ticks)
                        == (first.trees, first.hits, first.hops, first.ticks),
                || format!("replays of seed {seed} differ from the estimator or the report"),
            );
            ratios.push(ms(grid.wall) / exec_ms);
            grid_cells.extend(grid.cells);
            grid_walls.push(grid.grid);
            splits.push(split);
        }
        let net_ms: Vec<f64> = splits
            .iter()
            .map(|s| ms(s.net.unwrap_or(Duration::ZERO)))
            .collect();
        LayerMetrics {
            splits: &splits,
            counted: &splits[..1],
            net_ms,
            jobs: self.spec.jobs,
            grid_cells,
            grid_walls,
            wall_ratio: median(&ratios),
        }
        .push(o);
        let codec = |f: fn(&serve::Codec) -> f64| median(&codecs.iter().map(f).collect::<Vec<_>>());
        o.push("proto.decode_us", codec(|c| c.decode_us), "us");
        o.push("proto.encode_us", codec(|c| c.encode_us), "us");
        o.push("proto.bytes", codec(|c| c.bytes), "B");
        o.push("handler.exec_ms.beta", median(&exec), "ms");
        o.push("server.overhead_us.beta", median(&overhead_beta), "us");
        o.push("server.overhead_us.ping", median(&ping_us), "us");
        o.push("server.overhead_us.health", median(&health_us), "us");
        o.push("registry.hits", registry.0 as f64, "count");
        o.push("registry.misses", registry.1 as f64, "count");
        serve::push_admission(o, &health.ok_or("no health reply")?);
        o.note(format!(
            "traced: {} iterations of served report + estimator + grid replay (jobs {}) + \
             sequential layer replay",
            splits.len(),
            self.spec.jobs
        ));
        Ok(())
    }
}
