//! Golden-file tests for the capacity planner (DESIGN.md §18): the
//! text, markdown, and JSON renders of `analyze plan` over a fixed
//! recorded serving day, pinned byte-for-byte and required to be
//! identical whatever `--cluster-threads` value recorded the trace.
//!
//! The recorded run deliberately overloads the cluster (a bursty stream
//! far beyond the benchmark mix's ~0.1/s capacity, with rate limits and
//! a tight shed horizon engaged) so the plan exercises calibration on
//! sheds and rejections, not just clean admits. The planner then sweeps
//! `boards=1..8`, validates three scenarios by exact replay, and must
//! find the recorded baseline byte-identical on replay. Regenerate
//! after an *intentional* format change:
//!
//! ```text
//! NIMBLOCK_REGEN_GOLDENS=1 cargo test -q --test golden_plan
//! ```
//!
//! Everything is keyed by virtual time only — reruns on any machine
//! must reproduce the goldens byte-for-byte.

use nimblock::faas::{FrontDoor, FrontDoorConfig, FunctionRegistry, TenantPolicy};
use nimblock::plan::{plan, render_plan, PlanFormat, PlanOptions, PlanReport};
use nimblock::sim::SimDuration;
use nimblock::workload::ArrivalProcess;

mod support;
use support::golden;

/// The deterministic overloaded serving run behind the goldens — the
/// same admission-control shape as `golden_faas.rs` at a size that
/// keeps eight swept replay scenarios fast.
fn recorded_trace(threads: usize) -> Vec<u8> {
    let mut config = FrontDoorConfig::new(11);
    config.invocations = 600;
    config.process = ArrivalProcess::parse("bursty:2000").expect("golden process parses");
    config.shed_horizon = SimDuration::from_millis(200);
    config.tenant_policy = TenantPolicy { rate_per_sec: 300.0, burst: 32, quota: 64 };
    config.threads = threads;
    let (_report, trace) = FrontDoor::new(FunctionRegistry::benchmark_suite(), config)
        .run_recorded(1.0);
    trace
}

fn golden_options() -> PlanOptions {
    PlanOptions { sweeps: vec!["boards=1..8".to_owned()], slo_target: 0.95, replays: 3 }
}

fn golden_report(threads: usize) -> PlanReport {
    plan(&recorded_trace(threads), &golden_options()).expect("golden trace plans")
}

#[test]
fn plan_renders_match_goldens_for_every_thread_count() {
    let report = golden_report(1);
    for (format, name) in [
        (PlanFormat::Text, "plan_report.txt"),
        (PlanFormat::Markdown, "plan_report.md"),
        (PlanFormat::Json, "plan_report.json"),
    ] {
        let fresh = render_plan(&report, format);
        let pinned = golden(name, &fresh);
        assert_eq!(
            fresh, pinned,
            "plan render drifted from tests/goldens/{name} \
             (regenerate with NIMBLOCK_REGEN_GOLDENS=1 if the change is intentional)"
        );
    }
    // The recorded trace — and therefore the whole plan — is invariant
    // under the worker-thread count that served the recorded day.
    let oracle = recorded_trace(1);
    for threads in [2, 8] {
        let trace = recorded_trace(threads);
        // Traces differ only in the recorded thread count (one header
        // field), so the planner's output must not: replaying is defined
        // to be thread-count-invariant.
        assert_ne!(trace, oracle, "thread count is recorded in the header");
        let report = golden_report(threads);
        for format in [PlanFormat::Text, PlanFormat::Markdown, PlanFormat::Json] {
            let fresh = render_plan(&report, format);
            let pinned = golden(
                match format {
                    PlanFormat::Text => "plan_report.txt",
                    PlanFormat::Markdown => "plan_report.md",
                    PlanFormat::Json => "plan_report.json",
                },
                &fresh,
            );
            assert_eq!(fresh, pinned, "plan over a {threads}-thread trace diverged");
        }
    }
}

#[test]
fn golden_plan_upholds_its_claims() {
    let report = golden_report(1);
    assert_eq!(
        report.replay_check, "byte-identical",
        "replaying the unmodified configuration must reproduce the embedded report"
    );
    assert_eq!(report.records, 600);
    assert_eq!(report.scenarios.len(), 8, "boards=1..8 sweeps eight scenarios");
    assert_eq!(report.sampled_replays, 3);
    // Every sampled exact replay sits within the published error bound.
    for row in report.scenarios.iter().filter(|row| row.exact.is_some()) {
        let exact = row.exact.as_ref().unwrap();
        let error = (row.predicted.offered_attainment - exact.offered_attainment).abs() * 100.0;
        assert!(
            error <= report.error_bound_pp + 1e-9,
            "boards={} error {error:.3}pp exceeds the bound {:.3}pp",
            row.boards,
            report.error_bound_pp
        );
    }
    // More boards never predict lower attainment for this stream.
    for pair in report.scenarios.windows(2) {
        assert!(
            pair[1].predicted.offered_attainment >= pair[0].predicted.offered_attainment - 1e-9,
            "attainment regressed from {} to {} boards",
            pair[0].boards,
            pair[1].boards
        );
    }
}
