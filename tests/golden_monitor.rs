//! Golden-file tests for the continuous monitor: the windowed time-series
//! document of a deterministic monitored run, and a committed post-mortem
//! bundle derived from an adversarial invariant fixture.
//!
//! The series golden shares the stimulus of `golden_roundtrip.rs` /
//! `golden_telemetry.rs` (seed 7, 3 events, batch 2, 100 ms spacing) so
//! one deterministic run anchors every wire format. The post-mortem
//! golden reuses the `double_booked_slot` adversarial trace: the bundle
//! a production run would dump when that schedule trips the
//! slot-exclusivity invariant. Regenerate after an *intentional* format
//! change:
//!
//! ```text
//! NIMBLOCK_REGEN_GOLDENS=1 cargo test -q --test golden_monitor
//! ```
//!
//! Everything here is keyed by virtual time only — reruns on any machine
//! must reproduce the goldens byte-for-byte.

use std::path::PathBuf;

use nimblock::analyze::ExplainFormat;
use nimblock::core::{post_mortem, NimblockScheduler, Testbed, Trace};
use nimblock::obs::{parse_rules, MonitorConfig, MonitorDoc, MonitorHandle};
use nimblock::sim::SimDuration;
use nimblock::workload::fixed_batch_sequence;

mod support;
use support::golden;

fn repo_path(parts: &[&str]) -> PathBuf {
    let mut path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests");
    for part in parts {
        path.push(part);
    }
    path
}

/// The deterministic monitored run behind the series golden: the shared
/// golden stimulus under 5 s windows (the run spans ~90 s of virtual
/// time, so ~19 windows keep the golden reviewable while still
/// exercising the multi-window series) with one rule from each SLO
/// family attached.
fn monitored_doc() -> MonitorDoc {
    let events = fixed_batch_sequence(7, 3, 2, SimDuration::from_millis(100));
    let config = MonitorConfig::with_window_micros(5_000_000).rules(
        parse_rules(&[
            "util>=20%".into(),
            "queue<=4".into(),
            "resp:med:p95<=50ms".into(),
            "burn:med:p50<=100ms@3/5".into(),
        ])
        .expect("golden SLO rules parse"),
    );
    let monitor = MonitorHandle::new(config, 0);
    Testbed::new(NimblockScheduler::default())
        .with_monitor(monitor.clone())
        .run(&events);
    monitor.to_doc()
}

#[test]
fn windowed_series_matches_golden() {
    let doc = monitored_doc();
    let fresh = nimblock_ser::to_string_pretty(&doc);
    let golden = golden("timeseries.json", &fresh);
    assert_eq!(
        fresh, golden,
        "monitor series drifted from tests/goldens/timeseries.json"
    );
    // The golden stays loadable as a document, and the document is
    // self-consistent: full window coverage, alerts only for attached
    // rules, nothing silently dropped.
    let parsed: MonitorDoc = nimblock_ser::from_str(&golden).unwrap();
    assert_eq!(parsed, doc);
    assert_eq!(parsed.dropped, 0, "windows must fit the capacity bound");
    assert!(!parsed.windows.is_empty());
    assert_eq!(parsed.rules.len(), 4);
    for alert in &parsed.alerts {
        assert!(parsed.rules.contains(&alert.rule), "alert for unknown rule");
    }
}

#[test]
fn rerunning_the_monitored_run_is_byte_identical() {
    // The virtual-time-only guarantee, directly: two fresh processes'
    // worth of state produce the same bytes.
    assert_eq!(
        nimblock_ser::to_string_pretty(&monitored_doc()),
        nimblock_ser::to_string_pretty(&monitored_doc()),
    );
}

/// Builds the post-mortem bundle a run would dump when the
/// `double_booked_slot` adversarial schedule trips the verifier.
fn fixture_post_mortem() -> MonitorDoc {
    let path = repo_path(&["fixtures", "double_booked_slot.json"]);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let trace: Trace = nimblock_ser::from_str(&text).expect("fixture parses as a trace");

    let config = nimblock::analyze::InvariantConfig::default();
    let report = nimblock::analyze::verify_trace(&trace, &config);
    let violation = report.violations.first().expect("fixture violates an invariant");
    // Mirror the CLI: the trigger quotes the first violation, the span
    // tree implicates the first violation that names an application.
    post_mortem(
        &trace,
        MonitorConfig::default(),
        &format!("invariant: {} — {}", violation.rule, violation.message),
        report.violations.iter().find_map(|v| v.app),
    )
}

#[test]
fn post_mortem_bundle_matches_golden_and_round_trips() {
    let doc = fixture_post_mortem();
    let fresh = nimblock_ser::to_string_pretty(&doc);
    let golden = golden("postmortem.json", &fresh);
    assert_eq!(
        fresh, golden,
        "post-mortem bundle drifted from tests/goldens/postmortem.json"
    );

    // The acceptance criterion: the committed bundle round-trips through
    // `analyze monitor` — it parses back as a document and renders in
    // every format with the trigger and the implicated span tree intact.
    let parsed: MonitorDoc = nimblock_ser::from_str(&golden).unwrap();
    assert_eq!(parsed, doc);
    let trigger = parsed.trigger.as_deref().expect("bundle records its trigger");
    assert!(trigger.starts_with("invariant:"), "{trigger}");
    let tree = parsed.span_tree.as_deref().expect("failing app has a span tree");
    assert!(tree.contains("app#0"), "{tree}");

    for format in [ExplainFormat::Text, ExplainFormat::Markdown, ExplainFormat::Json] {
        let rendered = nimblock::analyze::render_monitor(&parsed, format);
        assert!(rendered.contains("slot-overlap"), "{format:?}:\n{rendered}");
    }
    let text = nimblock::analyze::render_monitor(&parsed, ExplainFormat::Text);
    assert!(text.contains("post-mortem trigger:"), "{text}");
    assert!(text.contains("implicated span tree"), "{text}");
    assert!(text.contains("flight recorder"), "{text}");
}
