//! Golden-file test for the serving front door (DESIGN.md §17): a fixed
//! overloaded stream's full serving report — counters, per-class
//! attainment with response quantiles, shed explanations, and per-tenant
//! admission outcomes — pinned byte-for-byte, and required to be
//! identical for `--cluster-threads` 1, 2, and 8.
//!
//! The stimulus deliberately overloads the cluster (a bursty stream far
//! beyond the benchmark mix's ~0.1/s capacity, with rate limits and a
//! tight shed horizon engaged), so the golden pins every admission-control
//! path at once: admits, backlog sheds, deadline sheds, and both
//! rejection kinds. Regenerate after an *intentional* format change:
//!
//! ```text
//! NIMBLOCK_REGEN_GOLDENS=1 cargo test -q --test golden_faas
//! ```
//!
//! Everything is keyed by virtual time only — reruns on any machine must
//! reproduce the golden byte-for-byte.

use nimblock::faas::{FrontDoor, FrontDoorConfig, FrontDoorReport, FunctionRegistry, TenantPolicy};
use nimblock::sim::SimDuration;
use nimblock::workload::ArrivalProcess;

mod support;
use support::golden;

/// The deterministic overloaded run behind the golden.
fn golden_config(threads: usize) -> FrontDoorConfig {
    let mut config = FrontDoorConfig::new(11);
    config.invocations = 5_000;
    config.process = ArrivalProcess::parse("bursty:2000").expect("golden process parses");
    config.shed_horizon = SimDuration::from_millis(200);
    config.tenant_policy = TenantPolicy { rate_per_sec: 300.0, burst: 32, quota: 64 };
    config.threads = threads;
    config
}

fn serving_report(threads: usize) -> FrontDoorReport {
    FrontDoor::new(FunctionRegistry::benchmark_suite(), golden_config(threads)).run()
}

#[test]
fn serving_report_matches_golden_for_every_thread_count() {
    let oracle = nimblock_ser::to_string_pretty(&serving_report(1));
    let pinned = golden("faas_slo.json", &oracle);
    assert_eq!(
        oracle, pinned,
        "sequential serving report drifted from tests/goldens/faas_slo.json \
         (regenerate with NIMBLOCK_REGEN_GOLDENS=1 if the change is intentional)"
    );
    for threads in [2, 8] {
        let parallel = nimblock_ser::to_string_pretty(&serving_report(threads));
        assert_eq!(
            parallel, pinned,
            "front door with {threads} threads diverged from the pinned golden"
        );
    }
}

#[test]
fn golden_report_round_trips_and_upholds_its_claims() {
    let text = golden(
        "faas_slo.json",
        &nimblock_ser::to_string_pretty(&serving_report(1)),
    );
    let report: FrontDoorReport = nimblock_ser::from_str(&text).expect("golden parses");
    assert!(report.conserves(), "pinned report must conserve invocations");
    assert!(report.shed_alert(), "the overloaded golden must shed and explain it");
    assert_eq!(report.counters.offered, 5_000);
    assert!(report.counters.rejected_rate > 0, "rate limits must engage");
    // Re-serializing the parsed report reproduces the file exactly.
    assert_eq!(nimblock_ser::to_string_pretty(&report), text);
}
