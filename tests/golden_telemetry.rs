//! Golden-file tests for the telemetry exports: the Prometheus exposition
//! text of an instrumented run and its Chrome trace-event JSON, plus
//! property tests over the histogram bucketing.
//!
//! The goldens share the stimulus of `golden_roundtrip.rs` (seed 7,
//! 3 events, batch 2, 100 ms spacing) so one deterministic run anchors
//! every wire format. Regenerate after an *intentional* format change:
//!
//! ```text
//! NIMBLOCK_REGEN_GOLDENS=1 cargo test -q --test golden_telemetry
//! ```
//!
//! One series is excluded from the Prometheus golden:
//! `hv_decision_latency_nanos` measures *wall-clock* scheduler decision
//! time and therefore differs between runs by design. The exclusion is
//! sample-lines-only; its HELP/TYPE header stays under golden control.

use nimblock::core::{NimblockScheduler, Testbed, Trace};
use nimblock::metrics::Report;
use nimblock::obs::Registry;
use nimblock::sim::SimDuration;
use nimblock::workload::fixed_batch_sequence;
use nimblock_check::{check, prop_assert, prop_assert_eq};

mod support;
use support::golden;

/// The deterministic instrumented run behind both goldens.
fn run() -> (Registry, Report, Trace) {
    let events = fixed_batch_sequence(7, 3, 2, SimDuration::from_millis(100));
    let registry = Registry::new();
    let (report, trace) = Testbed::new(NimblockScheduler::default())
        .with_metrics(registry.clone())
        .run_traced(&events);
    (registry, report, trace)
}

/// Drops the sample lines of the wall-clock decision-latency series (they
/// legitimately differ between runs); everything else is deterministic.
fn deterministic_lines(text: &str) -> String {
    let mut out: String = text
        .lines()
        .filter(|line| line.starts_with('#') || !line.contains("hv_decision_latency_nanos"))
        .collect::<Vec<_>>()
        .join("\n");
    out.push('\n');
    out
}

#[test]
fn prometheus_exposition_matches_golden() {
    let (registry, report, _) = run();
    let full = registry.render_prometheus();
    // The full text (wall-clock series included) must always validate.
    nimblock::obs::validate_prometheus(&full).expect("exposition text validates");

    let fresh = deterministic_lines(&full);
    let golden = golden("metrics.prom", &fresh);
    assert_eq!(
        fresh, golden,
        "Prometheus exposition drifted from tests/goldens/metrics.prom"
    );
    // The text agrees with the report's own counters.
    assert!(
        golden.contains(&format!("hv_arrivals_total {}", report.counters().arrivals)),
        "{golden}"
    );
}

#[test]
fn chrome_trace_matches_golden() {
    let (_, _, trace) = run();
    let fresh = trace.to_chrome();
    let golden = golden("trace.chrome.json", &fresh);
    assert_eq!(
        fresh, golden,
        "Chrome trace export drifted from tests/goldens/trace.chrome.json"
    );
    // The golden must stay loadable: envelope + per-event required fields.
    nimblock::obs::validate_chrome_trace(&golden).expect("golden chrome trace validates");
    // And parse as plain JSON with the trace-event envelope.
    let value = nimblock_ser::parse(&golden).expect("golden parses as JSON");
    assert!(value.get("traceEvents").is_some());
}

#[test]
fn histogram_bucket_counts_sum_to_total_observations() {
    check("histogram_bucket_counts_sum_to_total_observations", |g| {
        let h = nimblock::obs::Histogram::detached();
        // Bounded so the checked `sum` below cannot overflow u64.
        let values = g.vec(0..=200, |g| g.u64(0..=1 << 40));
        let mut sum = 0u64;
        for &v in &values {
            h.observe(v);
            sum += v;
        }
        prop_assert_eq!(h.count(), values.len() as u64);
        prop_assert_eq!(h.sum(), sum);
        // Non-cumulative buckets partition the observations.
        prop_assert_eq!(h.bucket_counts().iter().sum::<u64>(), values.len() as u64);
        // The cumulative view is monotone and ends at the total count.
        let cumulative = h.cumulative();
        for pair in cumulative.windows(2) {
            prop_assert!(pair[0].1 <= pair[1].1);
        }
        prop_assert_eq!(cumulative.last().unwrap().1, values.len() as u64);
        prop_assert!(cumulative.last().unwrap().0.is_none(), "last bucket is +Inf");
        Ok(())
    });
}

#[test]
fn every_observation_lands_at_or_below_its_bucket_bound() {
    check("every_observation_lands_at_or_below_its_bucket_bound", |g| {
        let v = g.u64(0..=1 << 50);
        let h = nimblock::obs::Histogram::detached();
        h.observe(v);
        // The first bucket whose cumulative count reaches 1 must have an
        // upper bound >= v (or be the +Inf overflow bucket).
        let (bound, _) = *h
            .cumulative()
            .iter()
            .find(|&&(_, c)| c == 1)
            .expect("one observation recorded");
        match bound {
            Some(bound) => {
                prop_assert!(v <= bound, "v={v} bound={bound}");
                // And it is the *tightest* power-of-two bound.
                prop_assert!(bound == 1 || v > bound / 2, "v={v} bound={bound}");
            }
            None => prop_assert!(v > 1 << 47, "only huge values overflow, v={v}"),
        }
        Ok(())
    });
}
