//! Engine hot-path benchmark and regression gate.
//!
//! Measurement mode (default) times the simulator's per-event cost across a
//! queue-only churn scenario and a full hypervisor stress run, then writes
//! `results/BENCH_engine.json`:
//!
//! ```text
//! cargo run --release --bin engine_hot_path
//! cargo run --release --bin engine_hot_path -- --quick --out /tmp/fresh.json
//! ```
//!
//! Gate mode re-measures with a committed baseline's workload and exits
//! nonzero if any scenario's row regresses beyond the tolerance
//! (wired into CI by `scripts/bench_gate.sh`):
//!
//! ```text
//! cargo run --release --bin engine_hot_path -- --quick \
//!     --gate results/BENCH_engine.json --tolerance 15
//! ```

use std::process::ExitCode;

use nimblock_bench::engine_hot_path::{
    engine_gate_compare, measure, EngineConfig, EngineReport, SEED_BASELINE_EPS,
};

struct Options {
    config: EngineConfig,
    out: String,
    gate: Option<String>,
    tolerance: f64,
}

fn parse_options() -> Result<Options, String> {
    let mut config = EngineConfig::default();
    let mut out = "results/BENCH_engine.json".to_owned();
    let mut gate = None;
    let mut tolerance = 0.15;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        args.get(*i).cloned().ok_or_else(|| format!("{flag} needs a value"))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => {
                config.churn_events = 200_000;
                config.stress_events = 20;
                config.repeats = 1;
            }
            "--churn-events" => {
                config.churn_events =
                    value(&mut i, "--churn-events")?.parse().map_err(|e| format!("--churn-events: {e}"))?;
            }
            "--stress-events" => {
                config.stress_events =
                    value(&mut i, "--stress-events")?.parse().map_err(|e| format!("--stress-events: {e}"))?;
            }
            "--repeats" => {
                config.repeats = value(&mut i, "--repeats")?.parse().map_err(|e| format!("--repeats: {e}"))?;
            }
            "--seed" => {
                config.seed = value(&mut i, "--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--out" => out = value(&mut i, "--out")?,
            "--gate" => gate = Some(value(&mut i, "--gate")?),
            "--tolerance" => {
                let pct: f64 =
                    value(&mut i, "--tolerance")?.parse().map_err(|e| format!("--tolerance: {e}"))?;
                tolerance = pct / 100.0;
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
        i += 1;
    }
    Ok(Options { config, out, gate, tolerance })
}

fn load_baseline(path: &str) -> Result<EngineReport, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read baseline {path}: {e}"))?;
    nimblock_ser::from_str(&text).map_err(|e| format!("malformed baseline {path}: {e}"))
}

fn main() -> ExitCode {
    let mut options = match parse_options() {
        Ok(options) => options,
        Err(message) => {
            eprintln!("engine_hot_path: {message}");
            eprintln!(
                "usage: engine_hot_path [--quick] [--churn-events N] [--stress-events N] \
                 [--repeats N] [--seed N] [--out FILE] [--gate BASELINE --tolerance PCT]"
            );
            return ExitCode::FAILURE;
        }
    };

    // Gate runs must reproduce the baseline's workload exactly; only
    // `--repeats` stays caller-chosen.
    let baseline = match &options.gate {
        Some(path) => match load_baseline(path) {
            Ok(baseline) => {
                options.config.seed = baseline.seed;
                Some(baseline)
            }
            Err(message) => {
                eprintln!("engine_hot_path: {message}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };

    println!(
        "engine_hot_path: churn_events={} stress_events={} repeats={} seed={}",
        options.config.churn_events,
        options.config.stress_events,
        options.config.repeats,
        options.config.seed,
    );
    let fresh = measure(&options.config);
    for m in &fresh.measurements {
        println!(
            "  {:<18} {:>10} events  wall={:>8.3}s  {:>12.1} events/s",
            m.scenario, m.events, m.wall_secs, m.events_per_sec
        );
    }
    if let Some(eps) = fresh.events_per_sec("hypervisor-stress") {
        println!(
            "  hypervisor-stress: {:.0}x the pre-overhaul {} events/s pipeline",
            eps / SEED_BASELINE_EPS,
            SEED_BASELINE_EPS
        );
    }

    if let Some(baseline) = baseline {
        let (table, pass) = engine_gate_compare(&baseline, &fresh, options.tolerance);
        print!("{table}");
        if !pass {
            eprintln!("engine_hot_path: regression beyond tolerance against {:?}", options.gate);
            return ExitCode::FAILURE;
        }
        return ExitCode::SUCCESS;
    }

    if let Some(parent) = std::path::Path::new(&options.out).parent() {
        if !parent.as_os_str().is_empty() {
            if let Err(e) = std::fs::create_dir_all(parent) {
                eprintln!("engine_hot_path: create {}: {e}", parent.display());
                return ExitCode::FAILURE;
            }
        }
    }
    let text = nimblock_ser::to_string_pretty(&fresh);
    if let Err(e) = std::fs::write(&options.out, text) {
        eprintln!("engine_hot_path: write {}: {e}", options.out);
        return ExitCode::FAILURE;
    }
    println!("wrote {}", options.out);
    ExitCode::SUCCESS
}
