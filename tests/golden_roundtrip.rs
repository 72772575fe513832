//! Golden-file round-trip tests for the JSON layer.
//!
//! Each golden under `tests/goldens/` is the pretty-printed encoding of a
//! deterministic testbed run. The tests assert, for reports and traces:
//!
//! 1. **encode**: the freshly produced value encodes byte-identically to
//!    the golden (catches wire-format drift: field order, number
//!    formatting, enum tagging);
//! 2. **decode**: the golden decodes to the same in-memory value;
//! 3. **re-encode**: decode(golden) re-encodes byte-identically (the
//!    encode→decode→encode fixed point).
//!
//! To regenerate after an *intentional* format or generator change:
//!
//! ```text
//! NIMBLOCK_REGEN_GOLDENS=1 cargo test -q --test golden_roundtrip
//! ```

use nimblock::core::{NimblockScheduler, Testbed, Trace};
use nimblock::metrics::Report;
use nimblock::sim::SimDuration;
use nimblock::workload::fixed_batch_sequence;

mod support;
use support::golden;

/// The deterministic stimulus behind every golden: seed 7, 3 events,
/// batch 2, 100 ms spacing.
fn run() -> (Report, Trace) {
    let events = fixed_batch_sequence(7, 3, 2, SimDuration::from_millis(100));
    Testbed::new(NimblockScheduler::default()).run_traced(&events)
}

#[test]
fn report_matches_golden_and_roundtrips() {
    let (report, _) = run();
    let fresh = nimblock_ser::to_string_pretty(&report);
    let golden = golden("report.json", &fresh);
    assert_eq!(fresh, golden, "report encoding drifted from tests/goldens/report.json");

    let decoded: Report = nimblock_ser::from_str(&golden).expect("golden report parses");
    assert_eq!(decoded, report, "golden decodes to a different report");
    assert_eq!(
        nimblock_ser::to_string_pretty(&decoded),
        golden,
        "re-encoding the decoded report is not byte-stable"
    );
}

#[test]
fn trace_matches_golden_and_roundtrips() {
    let (_, trace) = run();
    let fresh = nimblock_ser::to_string_pretty(&trace);
    let golden = golden("trace.json", &fresh);
    assert_eq!(fresh, golden, "trace encoding drifted from tests/goldens/trace.json");

    let decoded: Trace = nimblock_ser::from_str(&golden).expect("golden trace parses");
    assert_eq!(decoded, trace, "golden decodes to a different trace");
    assert_eq!(
        nimblock_ser::to_string_pretty(&decoded),
        golden,
        "re-encoding the decoded trace is not byte-stable"
    );
}

#[test]
fn stimulus_matches_golden_and_roundtrips() {
    let events = fixed_batch_sequence(7, 3, 2, SimDuration::from_millis(100));
    let fresh = nimblock_ser::to_string_pretty(&events);
    let golden = golden("stimulus.json", &fresh);
    assert_eq!(fresh, golden, "stimulus encoding drifted from tests/goldens/stimulus.json");

    let decoded: nimblock::workload::EventSequence =
        nimblock_ser::from_str(&golden).expect("golden stimulus parses");
    assert_eq!(decoded, events);
    assert_eq!(nimblock_ser::to_string_pretty(&decoded), golden);
}

#[test]
fn compact_and_pretty_encodings_agree() {
    // The two writers must describe the same value: parsing either form
    // yields the same `Json`.
    let (report, trace) = run();
    let compact = nimblock_ser::parse(&nimblock_ser::to_string(&report)).unwrap();
    let pretty = nimblock_ser::parse(&nimblock_ser::to_string_pretty(&report)).unwrap();
    assert_eq!(compact, pretty);
    let compact = nimblock_ser::parse(&nimblock_ser::to_string(&trace)).unwrap();
    let pretty = nimblock_ser::parse(&nimblock_ser::to_string_pretty(&trace)).unwrap();
    assert_eq!(compact, pretty);
}

#[test]
fn csv_export_is_stable_for_the_golden_report() {
    // The CSV exporter has no parser, so its guard is shape-based: one
    // data line per record, a fixed header, and the same app names as the
    // JSON golden.
    let (report, _) = run();
    let csv = nimblock::metrics::report_to_csv(&report);
    let mut lines = csv.lines();
    let header = lines.next().expect("csv has a header");
    assert_eq!(
        header,
        "event,app,batch,priority,arrival_s,response_s,wait_s,execution_s,run_s,reconfig_s,preemptions",
        "csv header drifted"
    );
    let data: Vec<&str> = lines.collect();
    assert_eq!(data.len(), report.records().len());
    for (line, record) in data.iter().zip(report.records()) {
        assert!(line.contains(&record.app_name), "{line}");
    }
}
