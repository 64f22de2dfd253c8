//! Ablation E-X1: router design choices.
//!
//! How much do the queue discipline (FIFO / farthest-first / random-rank)
//! and the routing strategy (shortest-path vs Valiant) change the measured
//! bandwidth? The paper's Theorem 6 invokes the universal O(c + Λ) router,
//! whose scheduling idea `RandomRank` mirrors; this ablation shows the
//! measured β is robust to the choice (constants move, exponents don't).

use fcn_bench::{banner, fmt, write_records, Scale};
use fcn_routing::{measure_rate_ctx, QueueDiscipline, RouteCtx, RouterConfig, Strategy};
use fcn_topology::Machine;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    machine: String,
    n: usize,
    discipline: String,
    strategy: String,
    rate: f64,
}

fn main() {
    let opts = fcn_bench::RunOpts::from_args();
    let _tele = fcn_bench::telemetry(&opts);
    let scale = opts.scale;
    let machines: Vec<Machine> = match scale {
        Scale::Quick => vec![Machine::mesh(2, 8), Machine::de_bruijn(6)],
        _ => vec![
            Machine::mesh(2, 16),
            Machine::de_bruijn(8),
            Machine::butterfly(5),
            Machine::xtree(6),
            Machine::shuffle_exchange(8),
        ],
    };
    let disciplines = [
        QueueDiscipline::Fifo,
        QueueDiscipline::FarthestFirst,
        QueueDiscipline::RandomRank,
    ];
    let strategies = [Strategy::ShortestPath, Strategy::Valiant];

    banner("Ablation: queue discipline x routing strategy -> measured rate");
    let mut rows = Vec::new();
    for m in &machines {
        let t = m.symmetric_traffic();
        let ctx = RouteCtx::new(m);
        println!("\n{} (n = {}):", m.name(), m.processors());
        for d in disciplines {
            for s in strategies {
                let cfg = RouterConfig {
                    discipline: d,
                    ..Default::default()
                };
                let sample =
                    measure_rate_ctx(&ctx, &t, 8 * t.n(), s, cfg, 0xab1 ^ 0x7ea55a17, 0xab1);
                assert!(sample.completed, "routing incomplete");
                println!("  {d:?} + {s:?}: rate {}", fmt(sample.rate));
                rows.push(Row {
                    machine: m.name().to_string(),
                    n: m.processors(),
                    discipline: format!("{d:?}"),
                    strategy: format!("{s:?}"),
                    rate: sample.rate,
                });
            }
        }
    }

    // Spread summary: max/min rate ratio per machine.
    banner("spread per machine (max/min over the 6 configurations)");
    for m in &machines {
        let rates: Vec<f64> = rows
            .iter()
            .filter(|r| r.machine == m.name())
            .map(|r| r.rate)
            .collect();
        let (lo, hi) = (
            rates.iter().cloned().fold(f64::MAX, f64::min),
            rates.iter().cloned().fold(0.0f64, f64::max),
        );
        println!("{:<24} spread x{}", m.name(), fmt(hi / lo));
    }

    let path = write_records("ablation_routing", &rows).expect("write records");
    println!("\nrecords: {}", path.display());
}
