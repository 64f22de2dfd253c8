//! Traced replays of one β report through the layers' public functions.
//!
//! A β report is the estimator grid (`trials × multipliers` cells, each
//! sampling demands, planning routes, compiling the batch and routing it)
//! followed by the flux bound. The replays below call each layer directly
//! with a timer around the call, so the split is measured from outside the
//! program; nothing inside it is instrumented. Their samples are checked
//! bit-for-bit against [`BandwidthEstimator`], so a replay that drifted
//! from the real estimator is reported as a failure, not as a timing.

use std::sync::Arc;
use std::time::Duration;

use fcn_bandwidth::{flux_upper_bound, BandwidthEstimate, BandwidthEstimator, FluxBound};
use fcn_exec::{job_seed, Pool};
use fcn_routing::{
    measure_rate_ctx, plan_routes_cached, plateau_rate, route_compiled_pooled, CompiledNet,
    PacketBatch, PlanCache, RateSample, RouteCtx, RouterConfig, Strategy,
};
use fcn_topology::{Family, Machine};
use rand::SeedableRng;

use crate::util::{self, timed};

/// The estimator's plan-seed domain separator. It is private to
/// `fcn-bandwidth`; if the two ever differ, the bit-identity check against
/// [`BandwidthEstimator`] fails.
const PLAN_STREAM: u64 = 0x9_1a7e_5eed;

/// The flux-bound search effort `fcnemu beta` uses (random seeds, sweeps).
const FLUX_SEEDS: usize = 4;
const FLUX_SWEEPS: usize = 2;

/// One `fcnemu beta <family> <size> --trials T --jobs J --seed S`.
#[derive(Clone, Copy)]
pub struct ReportSpec {
    pub family: &'static str,
    pub size: usize,
    pub trials: usize,
    pub jobs: usize,
}

impl ReportSpec {
    pub fn family(&self) -> Result<Family, String> {
        Family::all_with_dims(&[1, 2, 3])
            .into_iter()
            .find(|f| f.id() == self.family)
            .ok_or_else(|| format!("unknown family {:?}", self.family))
    }

    /// The request arguments after the `beta` kind.
    pub fn args(&self, seed: u64) -> Vec<String> {
        let mut a = vec![self.family.to_string(), self.size.to_string()];
        if self.trials != BandwidthEstimator::default().trials {
            a.extend(["--trials".to_string(), self.trials.to_string()]);
        }
        if self.jobs != 1 {
            a.extend(["--jobs".to_string(), self.jobs.to_string()]);
        }
        a.extend(["--seed".to_string(), seed.to_string()]);
        a
    }

    /// The same estimator `fcnemu beta` configures for these flags.
    pub fn estimator(&self, seed: u64) -> BandwidthEstimator {
        BandwidthEstimator {
            trials: self.trials,
            seed,
            jobs: self.jobs,
            ..Default::default()
        }
    }

    fn cells(&self) -> usize {
        self.trials * BandwidthEstimator::default().multipliers.len()
    }

    /// Batch size and (demand, plan) seeds of grid cell `cell`, exactly as
    /// the estimator derives them.
    fn cell(&self, machine_n: usize, seed: u64, cell: usize) -> (usize, u64, u64) {
        let mults = BandwidthEstimator::default().multipliers;
        let trial = cell / mults.len();
        let messages = (mults[cell % mults.len()] * machine_n).max(1);
        (
            messages,
            job_seed(seed, cell as u64),
            job_seed(seed ^ PLAN_STREAM, trial as u64),
        )
    }
}

/// β̂ and its mean from grid samples, as the estimator combines them.
pub fn beta_hat(samples: &[RateSample]) -> (f64, f64) {
    let m_len = BandwidthEstimator::default().multipliers.len();
    let plateaus: Vec<f64> = samples.chunks(m_len).filter_map(plateau_rate).collect();
    let rate = plateaus.iter().copied().fold(0.0, f64::max);
    let mean = plateaus.iter().sum::<f64>() / plateaus.len().max(1) as f64;
    (rate, mean)
}

/// The two report lines a replay must reproduce byte for byte.
pub fn report_lines(samples: &[RateSample], flux: &FluxBound) -> [String; 2] {
    let (rate, mean) = beta_hat(samples);
    [
        format!("measured β̂    : {rate:.3} (mean {mean:.3})"),
        format!("flux bound    : {:.3} [{}]", flux.rate_bound, flux.witness),
    ]
}

/// The reference: [`BandwidthEstimator`] itself on a fresh plan cache.
pub fn estimate(
    spec: &ReportSpec,
    seed: u64,
    machine: &Machine,
    net: &Arc<CompiledNet>,
) -> BandwidthEstimate {
    spec.estimator(seed).estimate_compiled(
        machine,
        net,
        &machine.symmetric_traffic(),
        &PlanCache::default(),
    )
}

/// A sequential replay with a timer around every layer call. Counts are
/// deterministic: one thread, cells in index order.
pub struct LayerSplit {
    pub build: Duration,
    /// `None` when the caller supplied an already compiled net.
    pub net: Option<Duration>,
    pub sample: Duration,
    pub plan: Duration,
    pub batch: Duration,
    pub route: Duration,
    pub flux: Duration,
    pub wall: Duration,
    /// Wall time of each grid cell.
    pub cells: Vec<Duration>,
    /// Wall time of the cell loop.
    pub grid: Duration,
    /// Plan-cache misses (BFS trees computed) and hits during this replay.
    pub trees: u64,
    pub hits: u64,
    pub entries: u64,
    pub hops: u64,
    pub ticks: u64,
    pub samples: Vec<RateSample>,
    pub flux_bound: FluxBound,
}

impl LayerSplit {
    /// Wall time the layer timers cover.
    pub fn covered(&self) -> Duration {
        self.build
            + self.net.unwrap_or_default()
            + self.sample
            + self.plan
            + self.batch
            + self.route
            + self.flux
    }
}

pub fn replay_layers(
    spec: &ReportSpec,
    seed: u64,
    compiled: Option<&Arc<CompiledNet>>,
    cache: &PlanCache,
) -> Result<LayerSplit, String> {
    let family = spec.family()?;
    let start = util::now();
    let (machine, build) = timed(|| family.build_near(spec.size, seed));
    let (net, net_time) = match compiled {
        Some(net) => (Arc::clone(net), None),
        None => {
            let (net, d) = timed(|| CompiledNet::shared(&machine));
            (net, Some(d))
        }
    };
    let traffic = machine.symmetric_traffic();
    let cfg = RouterConfig::default();
    let (hits0, misses0) = (cache.hits(), cache.misses());
    let mut split = LayerSplit {
        build,
        net: net_time,
        sample: Duration::ZERO,
        plan: Duration::ZERO,
        batch: Duration::ZERO,
        route: Duration::ZERO,
        flux: Duration::ZERO,
        wall: Duration::ZERO,
        cells: Vec::with_capacity(spec.cells()),
        grid: Duration::ZERO,
        trees: 0,
        hits: 0,
        entries: 0,
        hops: 0,
        ticks: 0,
        samples: Vec::with_capacity(spec.cells()),
        flux_bound: FluxBound {
            rate_bound: 0.0,
            cut_stats: None,
            witness: String::new(),
        },
    };
    let grid_start = util::now();
    for cell in 0..spec.cells() {
        let cell_start = util::now();
        let (messages, demand_seed, plan_seed) = spec.cell(traffic.n(), seed, cell);
        let (demands, d) = timed(|| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(demand_seed);
            (0..messages)
                .map(|_| traffic.sample(&mut rng))
                .collect::<Vec<_>>()
        });
        split.sample += d;
        let (routes, d) = timed(|| {
            plan_routes_cached(
                &machine,
                &demands,
                Strategy::ShortestPath,
                plan_seed,
                Some(cache),
            )
        });
        split.plan += d;
        let (batch, d) = timed(|| PacketBatch::compile(&net, &routes));
        split.batch += d;
        let batch = batch.map_err(|e| format!("planner produced an unroutable path: {e}"))?;
        split.hops += batch.total_hops();
        let (outcome, d) = timed(|| route_compiled_pooled(&net, &batch, cfg));
        split.route += d;
        split.ticks += outcome.ticks;
        split.samples.push(RateSample {
            messages,
            ticks: outcome.ticks,
            rate: outcome.rate(),
            completed: outcome.completed,
        });
        split.cells.push(cell_start.elapsed());
    }
    split.grid = grid_start.elapsed();
    let (flux_bound, d) =
        timed(|| flux_upper_bound(&machine, &traffic, seed, FLUX_SEEDS, FLUX_SWEEPS));
    split.flux = d;
    split.flux_bound = flux_bound;
    split.wall = start.elapsed();
    split.trees = cache.misses() - misses0;
    split.hits = cache.hits() - hits0;
    split.entries = cache.entries() as u64;
    Ok(split)
}

/// A replay of the whole report at the spec's worker count, with a timer
/// around each grid cell: the same shape as the untraced report, so its
/// wall time against the report's gives the tracing overhead.
pub struct GridRun {
    pub cells: Vec<Duration>,
    pub grid: Duration,
    pub wall: Duration,
    pub samples: Vec<RateSample>,
}

pub fn replay_grid(spec: &ReportSpec, seed: u64) -> Result<GridRun, String> {
    let family = spec.family()?;
    let start = util::now();
    let machine = family.build_near(spec.size, seed);
    let net = CompiledNet::shared(&machine);
    let traffic = machine.symmetric_traffic();
    let cache = PlanCache::default();
    let ctx = RouteCtx::from_net(&machine, net).with_cache(&cache);
    let cfg = RouterConfig::default();
    let grid_start = util::now();
    let timed_cells = Pool::new(spec.jobs).run(spec.cells(), |cell| {
        let (messages, demand_seed, plan_seed) = spec.cell(traffic.n(), seed, cell);
        timed(|| {
            measure_rate_ctx(
                &ctx,
                &traffic,
                messages,
                Strategy::ShortestPath,
                cfg,
                demand_seed,
                plan_seed,
            )
        })
    });
    let grid = grid_start.elapsed();
    std::hint::black_box(flux_upper_bound(
        &machine,
        &traffic,
        seed,
        FLUX_SEEDS,
        FLUX_SWEEPS,
    ));
    let (samples, cells) = timed_cells.into_iter().unzip();
    Ok(GridRun {
        cells,
        grid,
        wall: start.elapsed(),
        samples,
    })
}

/// The estimator-layer metrics of a traced run, all per β report.
pub struct LayerMetrics<'a> {
    /// Every timed replay; times are medians over these.
    pub splits: &'a [LayerSplit],
    /// One deterministic pass; counts are its per-report means.
    pub counted: &'a [LayerSplit],
    pub net_ms: Vec<f64>,
    /// Worker count of the grid the cell timers ran under.
    pub jobs: usize,
    pub grid_cells: Vec<Duration>,
    /// Wall time of each timed grid.
    pub grid_walls: Vec<Duration>,
    /// Traced report wall time over the untraced one.
    pub wall_ratio: f64,
}

impl LayerMetrics<'_> {
    pub fn push(&self, o: &mut crate::util::Outcome) {
        use crate::util::{max, median, ms};
        let per = |f: &dyn Fn(&LayerSplit) -> f64| -> f64 {
            median(&self.splits.iter().map(f).collect::<Vec<_>>())
        };
        let share = |f: &dyn Fn(&LayerSplit) -> Duration| -> f64 {
            per(&|s| f(s).as_secs_f64() / s.wall.as_secs_f64())
        };
        let n = self.counted.len() as f64;
        let count = |f: &dyn Fn(&LayerSplit) -> u64| -> f64 {
            self.counted.iter().map(f).sum::<u64>() as f64 / n
        };
        let (trees, hits) = (count(&|s| s.trees), count(&|s| s.hits));
        let cells: Vec<f64> = self.grid_cells.iter().map(|d| ms(*d)).collect();
        let busy: f64 = self
            .grid_cells
            .iter()
            .map(Duration::as_secs_f64)
            .sum::<f64>()
            / (self.jobs as f64
                * self
                    .grid_walls
                    .iter()
                    .map(Duration::as_secs_f64)
                    .sum::<f64>());

        o.push("topology.build_ms", per(&|s| ms(s.build)), "ms");
        o.push("compiled.net_ms", median(&self.net_ms), "ms");
        o.push("traffic.sample_ms", per(&|s| ms(s.sample)), "ms");
        o.push("plan.ms", per(&|s| ms(s.plan)), "ms");
        o.push("plan.trees", trees, "count");
        o.push("plan.cache_hits", hits, "count");
        o.push("plan.cache_lookups", trees + hits, "count");
        o.push(
            "plan.cache_hit_rate",
            if trees + hits > 0.0 {
                hits / (trees + hits)
            } else {
                0.0
            },
            "share",
        );
        o.push("plan.cache_entries", count(&|s| s.entries), "count");
        o.push("plan.share", share(&|s| s.plan), "share");
        o.push("compiled.batch_ms", per(&|s| ms(s.batch)), "ms");
        o.push("compiled.hops", count(&|s| s.hops), "count");
        o.push("route.ms", per(&|s| ms(s.route)), "ms");
        o.push("route.ticks", count(&|s| s.ticks), "count");
        o.push(
            "route.hops_per_s",
            per(&|s| s.hops as f64 / s.route.as_secs_f64()),
            "1/s",
        );
        o.push("route.share", share(&|s| s.route), "share");
        o.push("flux.ms", per(&|s| ms(s.flux)), "ms");
        o.push("flux.share", share(&|s| s.flux), "share");
        o.push("grid.jobs", self.jobs as f64, "count");
        o.push(
            "grid.cells",
            cells.len() as f64 / self.grid_walls.len() as f64,
            "count",
        );
        o.push("grid.cell_ms_p50", median(&cells), "ms");
        o.push("grid.cell_ms_max", max(&cells), "ms");
        o.push("grid.busy_share", busy, "share");
        o.push("trace.replay_ms", per(&|s| ms(s.wall)), "ms");
        o.push("trace.reports", self.splits.len() as f64, "count");
        o.push("trace.wall_ratio", self.wall_ratio, "ratio");
        o.push(
            "trace.uncovered_share",
            per(&|s| 1.0 - s.covered().as_secs_f64() / s.wall.as_secs_f64()),
            "share",
        );
    }
}
