//! # nimblock-plan — trace-driven capacity planning
//!
//! Answers "what do I buy for Black Friday" from one recorded day of
//! traffic (ROADMAP item 5, DESIGN.md §18). The input is a compact
//! serving trace recorded by the front door
//! (`nimblock_obs::record`, written by `faas --record-out`); the output
//! is a what-if sweep over counterfactual fleets — ±boards, ±slots,
//! different CAP (reconfiguration) latency, different routing policy —
//! with per-class predicted SLO attainment, shed, and board-seconds cost
//! per scenario.
//!
//! Two engines, the same split as the berkeley-emulation-engine layout
//! (slow exact simulator vs fast planning estimator), one level up from
//! the `nimblock-ilp` exact/heuristic split:
//!
//! - **Exact replay** — the recorded offered sequence re-served through
//!   the real front door ([`nimblock_faas::FrontDoor::replay`]). On the
//!   unmodified configuration this reproduces the recorded run's report
//!   *byte-for-byte* (checked against the report embedded in the trace
//!   footer); on a counterfactual configuration it is ground truth, but
//!   pays the full dispatcher + digest cost.
//! - **Analytical estimator** ([`estimator`]) — a single-pass fluid
//!   approximation: the fleet collapses to one earliest-free-slot pool,
//!   bitstream warmth becomes a calibrated per-function probability
//!   (error-diffused, so runs are deterministic), and the real admission
//!   and shed guards run unchanged against the approximated queue wait.
//!   Calibration (warm rate, queue-wait scale) comes from the recorded
//!   attribution components, so the estimator is anchored to the
//!   recorded day, not to a priori service-time models.
//!
//! Every [`PlanReport`] carries its own measured error bound: a sampled
//! subset of scenarios is replayed exactly and the worst estimator
//! attainment error (percentage points) across those samples is
//! reported next to every prediction.
//!
//! # Example
//!
//! ```
//! use nimblock_faas::{FrontDoor, FrontDoorConfig, FunctionRegistry};
//! use nimblock_plan::{plan, PlanOptions};
//!
//! let mut config = FrontDoorConfig::new(7);
//! config.invocations = 2_000;
//! let door = FrontDoor::new(FunctionRegistry::benchmark_suite(), config);
//! let (_report, trace) = door.run_recorded(1.0);
//! let mut options = PlanOptions::default();
//! options.sweeps = vec!["boards=2..6".to_owned()];
//! let report = plan(&trace, &options).unwrap();
//! assert_eq!(report.scenarios.len(), 5);
//! assert_eq!(report.replay_check, "byte-identical");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod estimator;
pub mod report;
pub mod sweep;

use nimblock_faas::{verify_trace_functions, FrontDoor, FrontDoorConfig, FunctionRegistry};
use nimblock_obs::record::TraceReader;

pub use estimator::{Calibration, Estimator};
pub use report::{render_plan, Outcome, PlanFormat, PlanReport, ScenarioRow};
pub use sweep::{expand_scenarios, Scenario, SweepAxis};

use estimator::exact_outcome;

/// Planner knobs, all optional.
#[derive(Debug, Clone)]
pub struct PlanOptions {
    /// Sweep axis specs (`boards=1..32`, `slots=2..4`,
    /// `reconfig-ms=40,80,160`, `policy=cache-aware,round-robin`),
    /// combined as a cross product. Empty = `boards=1..8`.
    pub sweeps: Vec<String>,
    /// Offered-attainment target the recommendation must meet.
    pub slo_target: f64,
    /// Maximum scenarios validated by exact replay (the baseline
    /// byte-identity check runs regardless).
    pub replays: usize,
}

impl Default for PlanOptions {
    fn default() -> Self {
        PlanOptions { sweeps: Vec::new(), slo_target: 0.95, replays: 5 }
    }
}

/// Evenly spread `count` sample indices over `0..n`, endpoints first.
fn replay_indices(n: usize, count: usize) -> Vec<usize> {
    if n == 0 || count == 0 {
        return Vec::new();
    }
    if n <= count {
        return (0..n).collect();
    }
    let mut picks = Vec::with_capacity(count);
    for i in 0..count {
        // i/(count-1) of the way through the sweep, rounded to a slot.
        let index = if count == 1 { 0 } else { i * (n - 1) / (count - 1) };
        if !picks.contains(&index) {
            picks.push(index);
        }
    }
    picks
}

/// Runs the capacity planner over the raw bytes of a recorded serving
/// trace: calibrates the estimator, sweeps the requested scenarios,
/// validates a sampled subset by exact replay, and checks that replaying
/// the *unmodified* configuration reproduces the recorded report
/// byte-for-byte.
pub fn plan(trace: &[u8], options: &PlanOptions) -> Result<PlanReport, String> {
    let reader = TraceReader::parse(trace)?;
    let header = reader.header();
    if !(options.slo_target.is_finite() && (0.0..=1.0).contains(&options.slo_target)) {
        return Err(format!("--slo must be a fraction in 0..=1, got {}", options.slo_target));
    }
    let registry = FunctionRegistry::benchmark_suite();
    verify_trace_functions(&registry, header)?;
    let baseline_config = FrontDoorConfig::from_trace_header(header)?;
    let baseline = Scenario::baseline(header);
    let sweeps = if options.sweeps.is_empty() {
        vec!["boards=1..8".to_owned()]
    } else {
        options.sweeps.clone()
    };
    let axes = sweeps
        .iter()
        .map(|spec| SweepAxis::parse(spec))
        .collect::<Result<Vec<_>, _>>()?;
    let scenarios = expand_scenarios(&baseline, &axes)?;

    // Decode once; the estimator and every replay iterate this slice.
    let records = reader
        .records()
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("trace records: {e}"))?;
    for record in &records {
        if record.function as usize >= header.functions.len() {
            return Err(format!(
                "record references function {} outside the {}-entry table",
                record.function,
                header.functions.len()
            ));
        }
    }

    // Byte-identity check: the unmodified configuration replayed against
    // the report embedded at record time.
    let replay_check = match reader.report_json() {
        None => "report-missing".to_owned(),
        Some(embedded) => {
            let door = FrontDoor::new(registry.clone(), baseline_config);
            let replayed = door.replay(
                header.load_factor,
                records.iter().map(estimator::offered_from_record),
            );
            if nimblock_ser::to_string_pretty(&replayed) == embedded {
                "byte-identical".to_owned()
            } else {
                "MISMATCH".to_owned()
            }
        }
    };

    let calibration = Calibration::from_trace(header, &records, &registry)?;
    let estimator = Estimator::new(header, &registry, &calibration);

    let mut rows: Vec<ScenarioRow> = scenarios
        .iter()
        .map(|scenario| ScenarioRow {
            boards: scenario.boards,
            slots: scenario.slots,
            policy: scenario.policy.name().to_owned(),
            reconfig_ms: scenario.reconfig.as_micros() as f64 / 1_000.0,
            predicted: estimator.predict(scenario, &records),
            exact: None,
            error_pp: None,
        })
        .collect();

    // Sampled exact replays: ground truth plus the measured error bound.
    let picks = replay_indices(rows.len(), options.replays);
    let mut error_bound_pp = 0.0f64;
    for &index in &picks {
        let scenario = &scenarios[index];
        let exact = exact_outcome(header, &registry, &records, scenario)?;
        let row = &mut rows[index];
        let mut worst = (row.predicted.offered_attainment - exact.offered_attainment).abs();
        for (predicted, exact_class) in row
            .predicted
            .class_attainment
            .iter()
            .zip(&exact.class_attainment)
        {
            worst = worst.max((predicted - exact_class).abs());
        }
        // Round *up* to two decimals: the published bound must never
        // understate the raw error it was measured from.
        let error_pp = (worst * 100.0 * 100.0).ceil() / 100.0;
        error_bound_pp = error_bound_pp.max(error_pp);
        row.exact = Some(exact);
        row.error_pp = Some(error_pp);
    }

    // Cheapest scenario whose *prediction* meets the target.
    let recommendation = rows
        .iter()
        .filter(|row| row.predicted.offered_attainment >= options.slo_target)
        .min_by(|a, b| {
            (a.predicted.board_seconds, a.boards, a.slots)
                .partial_cmp(&(b.predicted.board_seconds, b.boards, b.slots))
                .expect("board-seconds are finite")
        })
        .map(|row| {
            format!(
                "{} board(s) x {} slot(s), {} routing, {:.1} ms reconfig ({:.1} board-s)",
                row.boards,
                row.slots,
                row.policy,
                row.reconfig_ms,
                row.predicted.board_seconds,
            )
        });

    Ok(PlanReport {
        seed: header.seed,
        records: reader.summary().records,
        process: header.process.clone(),
        load_factor: header.load_factor,
        functions: header.functions.len() as u64,
        tenants: header.tenants,
        baseline_boards: baseline.boards,
        baseline_slots: baseline.slots,
        baseline_policy: baseline.policy.name().to_owned(),
        baseline_reconfig_ms: baseline.reconfig.as_micros() as f64 / 1_000.0,
        slo_target: options.slo_target,
        warm_rate: calibration.warm_rate,
        queue_scale: calibration.queue_scale,
        replay_check,
        sampled_replays: picks.len() as u64,
        error_bound_pp,
        recommendation,
        scenarios: rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use nimblock_faas::{FrontDoor, FrontDoorConfig, FunctionRegistry, TenantPolicy};
    use nimblock_sim::SimDuration;
    use nimblock_workload::ArrivalProcess;

    fn recorded_trace(seed: u64, invocations: u64) -> Vec<u8> {
        let mut config = FrontDoorConfig::new(seed);
        config.invocations = invocations;
        config.process = ArrivalProcess::parse("bursty:2000").expect("parses");
        config.shed_horizon = SimDuration::from_millis(200);
        config.tenant_policy = TenantPolicy { rate_per_sec: 300.0, burst: 32, quota: 64 };
        let door = FrontDoor::new(FunctionRegistry::benchmark_suite(), config);
        door.run_recorded(1.0).1
    }

    #[test]
    fn plan_sweeps_and_validates_the_baseline() {
        let trace = recorded_trace(11, 3_000);
        let mut options = PlanOptions::default();
        options.sweeps = vec!["boards=2..6".to_owned()];
        let report = plan(&trace, &options).expect("plans");
        assert_eq!(report.scenarios.len(), 5);
        assert_eq!(report.replay_check, "byte-identical");
        assert_eq!(report.sampled_replays, 5, "5 scenarios, 5 replay slots: all sampled");
        for row in &report.scenarios {
            let exact = row.exact.as_ref().expect("all sampled");
            assert_eq!(exact.offered, row.predicted.offered, "same traffic");
            let error = row.error_pp.expect("sampled rows carry an error");
            assert!(
                error <= report.error_bound_pp + 1e-9,
                "row error {error} exceeds the bound {}",
                report.error_bound_pp
            );
        }
        // The acceptance property: every estimator prediction sits within
        // the report's own measured error bound of its exact replay.
        let bound = report.error_bound_pp / 100.0 + 1e-12;
        for row in &report.scenarios {
            if let Some(exact) = &row.exact {
                assert!(
                    (row.predicted.offered_attainment - exact.offered_attainment).abs() <= bound
                );
            }
        }
    }

    #[test]
    fn more_boards_predict_no_worse_attainment() {
        let trace = recorded_trace(13, 3_000);
        let mut options = PlanOptions::default();
        options.sweeps = vec!["boards=1..12".to_owned()];
        options.replays = 3;
        let report = plan(&trace, &options).expect("plans");
        assert_eq!(report.scenarios.len(), 12);
        assert_eq!(report.sampled_replays, 3);
        let first = &report.scenarios[0].predicted;
        let last = &report.scenarios[11].predicted;
        assert!(
            last.offered_attainment >= first.offered_attainment,
            "12 boards ({}) must not predict worse than 1 ({})",
            last.offered_attainment,
            first.offered_attainment
        );
        assert!(last.board_seconds > first.board_seconds, "capacity costs board-seconds");
    }

    #[test]
    fn traces_of_another_kind_are_rejected() {
        let mut header = nimblock_obs::record::TraceHeader::serving(1);
        header.kind = 2;
        let bytes = nimblock_obs::TraceWriter::new(&header).finish(None);
        let error = plan(&bytes, &PlanOptions::default()).expect_err("only serving traces plan");
        assert_eq!(error, "unknown trace kind 2");
    }

    #[test]
    fn garbage_bytes_are_rejected() {
        assert!(plan(b"not a trace", &PlanOptions::default()).is_err());
    }

    #[test]
    fn replay_indices_cover_endpoints() {
        assert_eq!(replay_indices(32, 5), vec![0, 7, 15, 23, 31]);
        assert_eq!(replay_indices(3, 5), vec![0, 1, 2]);
        assert_eq!(replay_indices(10, 1), vec![0]);
        assert!(replay_indices(0, 5).is_empty());
        assert_eq!(replay_indices(2, 2), vec![0, 1]);
    }

    #[test]
    fn reports_round_trip_json() {
        let trace = recorded_trace(17, 1_000);
        let mut options = PlanOptions::default();
        options.sweeps = vec!["boards=3..5".to_owned(), "reconfig-ms=40,80".to_owned()];
        let report = plan(&trace, &options).expect("plans");
        assert_eq!(report.scenarios.len(), 6);
        let json = nimblock_ser::to_string_pretty(&report);
        let back: PlanReport = nimblock_ser::from_str(&json).expect("round-trips");
        assert_eq!(back, report);
    }
}
