#![forbid(unsafe_code)]
#![deny(missing_docs)]
//! # fcn-routing
//!
//! A synchronous, unit-capacity, store-and-forward packet-routing simulator
//! — the operational realization of the Kruskal–Snir bandwidth definition
//! the paper builds on: route `m` messages drawn from a traffic
//! distribution, measure the completion time `r(m)`, and report the
//! delivery rate `m / r(m)`.
//!
//! * [`oracle`] — converts source/destination demands into explicit routes
//!   (randomized shortest paths or Valiant two-phase), with per-source
//!   seeding that makes every route a pure function of
//!   `(graph, node limit, source, seed)`;
//! * [`cache`] — memoized BFS trees ([`PlanCache`]) serving repeated
//!   batches on the same machine and seed;
//! * [`compiled`] — the compile-once artifacts: [`CompiledNet`] (the
//!   machine's directed-wire CSR, shared across every batch of a sweep) and
//!   [`PacketBatch`] (flat SoA paths with hops pre-resolved to wire ids);
//! * [`engine`] — the tick simulator and its one entry point, [`route`]:
//!   one packet per wire per tick, per-node send budgets for the "weak"
//!   machines, pluggable queue disciplines, pooled per-thread arenas, and a
//!   [`RunOpts`] value selecting the [`Backend`], an injection schedule and
//!   a cancellation flag;
//! * [`events`] — the event-driven backend: the same tick loop armed with a
//!   calendar-wheel skip hook that jumps over quiescent spans (sparse
//!   injection schedules, fault outage windows, drain tails), bit-identical
//!   to the tick backend;
//! * [`harness`] — traffic-batch rate measurement built around the
//!   compile-once [`RouteCtx`].

pub mod cache;
pub mod compiled;
pub mod engine;
pub mod events;
pub mod harness;
pub mod native;
pub mod oracle;
pub mod packet;
pub mod steady;

pub use cache::PlanCache;
pub use compiled::{CompiledNet, InjectionSchedule, PacketBatch, RouteError};
pub use engine::{
    route, route_compiled_pooled, AbortCause, Backend, RouterConfig, RoutingOutcome, RunOpts,
};
pub use events::{EventKind, EventWheel};
pub use harness::{measure_rate_ctx, plateau_rate, route_traffic_ctx, RateSample, RouteCtx};
pub use native::{
    de_bruijn_path, plan_batch, plan_routes, plan_routes_cached, plan_routes_degraded,
    plan_routes_faulted, shuffle_exchange_path, DegradedPlan,
};
pub use oracle::PathOracle;
pub use packet::{PacketPath, QueueDiscipline, Strategy};
pub use steady::{saturation_throughput, steady_state_rate_ctx, SteadyConfig, SteadyOutcome};
