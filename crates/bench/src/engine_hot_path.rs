//! Engine hot-path benchmark: simulator events/sec on the event queue,
//! plus its regression gate.
//!
//! Two scenarios bracket the hot path (DESIGN.md §14):
//!
//! * **queue-churn** — a synthetic handler that keeps a fixed population
//!   of event chains in flight (8 192 by default), each reschedule drawing
//!   a pseudo-random delay of up to four 524 288 µs spans. This isolates
//!   the queue itself, at a population far above anything the hypervisor
//!   keeps pending.
//! * **hypervisor-stress** — a full single-board Nimblock run over a
//!   congested stimulus, built exactly like the production testbed. This
//!   measures the end-to-end per-event cost: queue, arena-indexed
//!   hypervisor tables, and scheduler decisions together.
//!
//! The report (`results/BENCH_engine.json`) is seed-stamped and records
//! events/sec per scenario beside [`SEED_BASELINE_EPS`], the pre-overhaul
//! whole-pipeline figure.
//! [`engine_gate_compare`] holds future runs to the recorded numbers the
//! same way the cluster gate does (`scripts/bench_gate.sh`).

use std::time::Instant;

use nimblock_core::{Hypervisor, HvEvent, NimblockScheduler};
use nimblock_fpga::{Device, DeviceConfig};
use nimblock_prng::Prng;
use nimblock_ser::impl_json_struct;
use nimblock_sim::{EventQueue, Handler, SimDuration, SimTime, Simulation};
use nimblock_workload::{generate, Scenario};

/// Events/sec of the simulation pipeline before the event-queue and arena
/// overhaul, measured on the same container class that runs CI. The
/// acceptance bar for the overhaul is ≥10× this figure on the
/// hypervisor-stress scenario.
pub const SEED_BASELINE_EPS: f64 = 2_000.0;

/// Base of the queue-churn delays, in microseconds: most reschedules land
/// within one span, every 16th one to four spans out.
const CHURN_SPAN_MICROS: u64 = 524_288;

/// One scenario's sample.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineMeasurement {
    /// `"queue-churn"` or `"hypervisor-stress"`.
    pub scenario: String,
    /// Simulator events processed per pass.
    pub events: u64,
    /// Best-of-repeats wall-clock, seconds.
    pub wall_secs: f64,
    /// Events processed per second of wall-clock.
    pub events_per_sec: f64,
}
impl_json_struct!(EngineMeasurement {
    scenario,
    events,
    wall_secs,
    events_per_sec
});

/// The seed-stamped benchmark report (`results/BENCH_engine.json`).
#[derive(Debug, Clone, PartialEq)]
pub struct EngineReport {
    /// Always `"engine_hot_path"`.
    pub experiment: String,
    /// RNG seed for the churn delays and the stress stimulus.
    pub seed: u64,
    /// Logical CPUs the host reported when this was measured.
    pub host_cpus: usize,
    /// The pre-overhaul whole-pipeline figure the speedup claim is against.
    pub baseline_events_per_sec: f64,
    /// One row per scenario.
    pub measurements: Vec<EngineMeasurement>,
}
impl_json_struct!(EngineReport {
    experiment,
    seed,
    host_cpus,
    baseline_events_per_sec,
    measurements
});

impl EngineReport {
    /// Events/sec of a scenario's row, if present.
    pub fn events_per_sec(&self, scenario: &str) -> Option<f64> {
        self.measurements
            .iter()
            .find(|m| m.scenario == scenario)
            .map(|m| m.events_per_sec)
    }
}

/// Parameters for one benchmark run.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Events processed per queue-churn pass.
    pub churn_events: u64,
    /// Concurrent event chains kept in flight by the churn handler.
    pub churn_population: usize,
    /// Arrival events in the hypervisor-stress stimulus.
    pub stress_events: usize,
    /// Passes per row; the minimum wall-clock is kept.
    pub repeats: usize,
    /// Base RNG seed.
    pub seed: u64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            churn_events: 2_000_000,
            churn_population: 8_192,
            stress_events: 60,
            repeats: 3,
            seed: crate::BASE_SEED,
        }
    }
}

/// The queue-churn handler: every event reschedules itself after a
/// pseudo-random delay until the budget runs out.
struct Churn {
    remaining: u64,
    rng: Prng,
}

impl Handler<u64> for Churn {
    fn handle(&mut self, now: SimTime, chain: u64, queue: &mut EventQueue<u64>) {
        if self.remaining == 0 {
            return;
        }
        self.remaining -= 1;
        // Mostly-near delays model a busy board (items, ticks, retires all
        // land within the scheduling horizon); every 16th event jumps far
        // ahead, so the queue also holds a long tail of distant events.
        let span = CHURN_SPAN_MICROS;
        let delay = if self.rng.gen_bool(1.0 / 16.0) {
            self.rng.gen_range(span..=4 * span)
        } else {
            self.rng.gen_range(1..=span)
        };
        queue.push(now + SimDuration::from_micros(delay), chain);
    }
}

/// Runs one queue-churn pass; returns (events processed, wall seconds).
fn run_churn(config: &EngineConfig) -> (u64, f64) {
    let handler = Churn {
        remaining: config.churn_events,
        rng: Prng::seed_from_u64(config.seed),
    };
    let mut sim = Simulation::new(handler);
    for chain in 0..config.churn_population as u64 {
        sim.queue_mut().push(SimTime::from_micros(1 + chain), chain);
    }
    let start = Instant::now();
    sim.run_until(SimTime::MAX);
    let wall = start.elapsed().as_secs_f64();
    (sim.steps(), wall)
}

/// Runs one hypervisor-stress pass; returns (events processed, wall
/// seconds). Mirrors the production testbed wiring.
fn run_stress(config: &EngineConfig) -> (u64, f64) {
    let events = generate(config.seed, config.stress_events, Scenario::Stress);
    let tick = SimDuration::from_millis(nimblock_fpga::zcu106::SCHEDULING_INTERVAL_MILLIS);
    let hypervisor = Hypervisor::new(
        Device::new(DeviceConfig::zcu106()),
        NimblockScheduler::new(),
        events.events().to_vec(),
    )
    .with_tick_interval(tick);
    let mut sim = Simulation::new(hypervisor);
    for (index, event) in events.iter().enumerate() {
        sim.queue_mut().push(event.arrival(), HvEvent::Arrival(index));
    }
    sim.queue_mut().push(SimTime::ZERO + tick, HvEvent::Tick);
    let start = Instant::now();
    sim.run_until(SimTime::from_secs(10_000_000));
    let wall = start.elapsed().as_secs_f64();
    assert!(sim.handler().finished(), "stress run failed to retire");
    (sim.steps(), wall)
}

fn best_of(repeats: usize, mut pass: impl FnMut() -> (u64, f64)) -> (u64, f64) {
    let mut best: Option<(u64, f64)> = None;
    for _ in 0..repeats.max(1) {
        let (events, wall) = pass();
        if best.map_or(true, |(_, b)| wall < b) {
            best = Some((events, wall));
        }
    }
    best.expect("at least one pass")
}

/// Runs the full measurement: both scenarios.
pub fn measure(config: &EngineConfig) -> EngineReport {
    let measurements = [
        ("queue-churn", best_of(config.repeats, || run_churn(config))),
        ("hypervisor-stress", best_of(config.repeats, || run_stress(config))),
    ]
    .into_iter()
    .map(|(scenario, (events, wall_secs))| EngineMeasurement {
        scenario: scenario.to_owned(),
        events,
        wall_secs,
        events_per_sec: events as f64 / wall_secs,
    })
    .collect();
    EngineReport {
        experiment: "engine_hot_path".to_owned(),
        seed: config.seed,
        host_cpus: std::thread::available_parallelism().map_or(1, usize::from),
        baseline_events_per_sec: SEED_BASELINE_EPS,
        measurements,
    }
}

/// Compares a fresh engine measurement against the committed baseline,
/// with the same pass rule as the cluster gate: a scenario's row passes when `fresh_eps >= (1 - tolerance) * baseline_eps`; a vanished
/// row fails; improvements always pass. Returns the rendered delta table
/// and the overall verdict.
pub fn engine_gate_compare(
    baseline: &EngineReport,
    fresh: &EngineReport,
    tolerance: f64,
) -> (String, bool) {
    let mut out = format!(
        "{:>18} {:>14} {:>14} {:>9}  verdict (tolerance {:.0}%)\n",
        "scenario",
        "base ev/s",
        "fresh ev/s",
        "delta",
        tolerance * 100.0
    );
    let mut pass = true;
    for base in &baseline.measurements {
        let matched = fresh.events_per_sec(&base.scenario);
        let (fresh_text, delta_pct, ok) = match matched {
            Some(eps) => (
                format!("{eps:.1}"),
                (eps / base.events_per_sec - 1.0) * 100.0,
                eps >= (1.0 - tolerance) * base.events_per_sec,
            ),
            None => ("missing".to_owned(), -100.0, false),
        };
        pass &= ok;
        out.push_str(&format!(
            "{:>18} {:>14.1} {:>14} {:>+8.1}%  {}\n",
            base.scenario,
            base.events_per_sec,
            fresh_text,
            delta_pct,
            if ok { "ok" } else { "REGRESSION" }
        ));
    }
    (out, pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(rows: &[(&str, f64)]) -> EngineReport {
        EngineReport {
            experiment: "engine_hot_path".to_owned(),
            seed: 1,
            host_cpus: 1,
            baseline_events_per_sec: SEED_BASELINE_EPS,
            measurements: rows
                .iter()
                .map(|&(scenario, eps)| EngineMeasurement {
                    scenario: scenario.to_owned(),
                    events: 1000,
                    wall_secs: 1.0,
                    events_per_sec: eps,
                })
                .collect(),
        }
    }

    #[test]
    fn engine_report_roundtrips_through_json() {
        let original = report(&[("queue-churn", 1e6), ("hypervisor-stress", 2e5)]);
        let text = nimblock_ser::to_string_pretty(&original);
        let parsed: EngineReport = nimblock_ser::from_str(&text).unwrap();
        assert_eq!(parsed, original);
        assert_eq!(parsed.events_per_sec("hypervisor-stress"), Some(2e5));
    }

    #[test]
    fn engine_gate_tolerance_boundary_is_inclusive() {
        // The pass rule is `fresh >= (1 - tolerance) * baseline`: exactly
        // 15% down passes at 15% tolerance, an epsilon below it fails.
        let baseline = report(&[("queue-churn", 1000.0)]);
        let at_edge = report(&[("queue-churn", 850.0)]);
        let below = report(&[("queue-churn", 849.9)]);
        assert!(engine_gate_compare(&baseline, &at_edge, 0.15).1);
        assert!(!engine_gate_compare(&baseline, &below, 0.15).1);
    }

    #[test]
    fn engine_gate_fails_on_missing_rows_and_passes_on_improvement() {
        let baseline = report(&[("queue-churn", 1000.0), ("hypervisor-stress", 1000.0)]);
        let improved = report(&[("queue-churn", 5000.0), ("hypervisor-stress", 1001.0)]);
        assert!(engine_gate_compare(&baseline, &improved, 0.15).1);
        let missing = report(&[("queue-churn", 1000.0)]);
        let (table, pass) = engine_gate_compare(&baseline, &missing, 0.15);
        assert!(!pass);
        assert!(table.contains("missing"), "{table}");
    }

    #[test]
    fn a_small_measurement_covers_both_rows() {
        let config = EngineConfig {
            churn_events: 20_000,
            churn_population: 16,
            stress_events: 6,
            repeats: 1,
            seed: crate::BASE_SEED,
        };
        let report = measure(&config);
        assert_eq!(report.measurements.len(), 2);
        for scenario in ["queue-churn", "hypervisor-stress"] {
            let eps = report.events_per_sec(scenario);
            assert!(eps.is_some_and(|e| e > 0.0), "{scenario}: {eps:?}");
        }
    }
}
