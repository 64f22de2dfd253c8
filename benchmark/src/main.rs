//! The repository benchmark. One workload per process:
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload <beta_mesh2_4096|beta_debruijn_16384|serve_mix> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. `--trace 0` measures the end-to-end
//! metrics; `--trace 1` is a separate run that times each layer from the
//! outside. Every run checks its outputs, prints one line per metric, and
//! ends with one JSON line: `correct`, `attempted`, `failed`, `metrics`.
//! The exit code is nonzero when any check failed. See README.md.

mod beta;
mod replay;
mod serve;
mod util;

use std::process::ExitCode;

/// The default workload seed: also `fcnemu beta`'s default, so the default
/// run's reports are exactly what `fcnemu beta <family> <size>` prints.
pub const DEFAULT_SEED: u64 = 0xbead;

const USAGE: &str =
    "usage: fcn-benchmark --workload <beta_mesh2_4096|beta_debruijn_16384|serve_mix> \
                     [--seed N] [--seconds S] [--trace 0|1]";

struct Opts {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 30.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => opts.workload = value.clone(),
            "--seed" => opts.seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(opts.seconds > 0.0 && opts.seconds.is_finite()) {
                    return Err(bad("a positive number of seconds"));
                }
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(opts)
}

/// The child side of a beta workload's set-up sample: one machine build
/// plus net compile in this fresh process; prints the seconds it took.
fn child_setup(rest: &[String]) -> Result<String, String> {
    let [family, seed] = rest else {
        return Err(format!("expected <family> <seed>, got {rest:?}"));
    };
    let workload = [&beta::MESH2_4096, &beta::DEBRUIJN_16384]
        .into_iter()
        .find(|w| w.spec.family == family)
        .ok_or_else(|| format!("no beta workload on {family:?}"))?;
    let seed = seed.parse().map_err(|_| format!("bad seed {seed:?}"))?;
    Ok(format!("{}\n", workload.setup(seed)?))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_some_and(|a| a == "--child-setup") {
        return match child_setup(&args[1..]) {
            Ok(out) => {
                print!("{out}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(2)
            }
        };
    }
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let ticks = util::cpu_ticks();
    let outcome = match opts.workload.as_str() {
        "beta_mesh2_4096" => beta::MESH2_4096.run(opts.seed, opts.seconds, opts.trace),
        "beta_debruijn_16384" => beta::DEBRUIJN_16384.run(opts.seed, opts.seconds, opts.trace),
        "serve_mix" => serve::serve_mix(opts.seed, opts.seconds, opts.trace),
        other => Err(format!("unknown workload {other:?}\n{USAGE}")),
    };
    let mut outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(1);
        }
    };
    if let Some(m) = outcome.metrics.iter().find(|m| !m.value.is_finite()) {
        eprintln!("error: metric {} is {}", m.name, m.value);
        return ExitCode::from(1);
    }
    outcome.note(util::steal_note(ticks));
    println!("{}", util::host_facts());
    println!(
        "workload={} seed={} seconds={} trace={}",
        opts.workload, opts.seed, opts.seconds, opts.trace as u8
    );
    for line in &outcome.notes {
        println!("{line}");
    }
    for m in &outcome.metrics {
        println!("{:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let correct = outcome.failed == 0;
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
