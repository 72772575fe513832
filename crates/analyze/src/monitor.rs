//! The `monitor` pass: render a continuous-monitoring document.
//!
//! This is the read-side of `nimblock-obs::timeseries`: given a
//! [`MonitorDoc`] (as written by `nimblock-cli run --timeseries-out` or
//! by a post-mortem dump), render the windowed series, the per-class
//! response/slowdown quantiles, the fired SLO alerts with per-rule burn
//! summaries, and the flight-recorder tail — as text tables, markdown,
//! or machine-readable JSON.
//!
//! # Example
//!
//! ```
//! use nimblock_analyze::{render_monitor, ExplainFormat};
//! use nimblock_core::{derive_monitor, NimblockScheduler, Testbed};
//! use nimblock_obs::MonitorConfig;
//! use nimblock_workload::{generate, Scenario};
//!
//! let events = generate(7, 4, Scenario::Standard);
//! let (_report, trace) = Testbed::new(NimblockScheduler::new()).run_traced(&events);
//! let doc = derive_monitor(&trace, MonitorConfig::with_window_micros(1_000_000)).to_doc();
//! let text = render_monitor(&doc, ExplainFormat::Text);
//! assert!(text.contains("continuous monitor"));
//! ```

use nimblock_metrics::TextTable;
use nimblock_obs::{format_micros, MonitorDoc, SparseSketch, Window};
use nimblock_ser::{Json, ToJson};

use crate::ExplainFormat;

/// How many trailing windows the text/markdown series tables show; older
/// windows are summarized by the header counts (JSON always carries all).
const SERIES_TAIL: usize = 64;

/// Renders `doc` in `format`.
pub fn render_monitor(doc: &MonitorDoc, format: ExplainFormat) -> String {
    match format {
        ExplainFormat::Text => render_text(doc),
        ExplainFormat::Markdown => render_md(doc),
        ExplainFormat::Json => render_json(doc),
    }
}

/// Merged per-class quantile sketches over the whole run: (label,
/// response, slowdown), one entry per priority class that saw retires.
fn class_sketches(doc: &MonitorDoc) -> Vec<(&'static str, SparseSketch, SparseSketch)> {
    let mut classes: Vec<(&'static str, SparseSketch, SparseSketch)> = vec![
        ("high", SparseSketch::default(), SparseSketch::default()),
        ("med", SparseSketch::default(), SparseSketch::default()),
        ("low", SparseSketch::default(), SparseSketch::default()),
    ];
    for window in &doc.windows {
        classes[0].1.merge_from(&window.resp_high);
        classes[0].2.merge_from(&window.slow_high);
        classes[1].1.merge_from(&window.resp_med);
        classes[1].2.merge_from(&window.slow_med);
        classes[2].1.merge_from(&window.resp_low);
        classes[2].2.merge_from(&window.slow_low);
    }
    classes.retain(|(_, resp, _)| !resp.is_empty());
    classes
}

/// Per-rule burn summary: how many of the evaluated windows fired.
fn burn_counts(doc: &MonitorDoc) -> Vec<(String, usize)> {
    doc.rules
        .iter()
        .map(|rule| {
            let fired = doc.alerts.iter().filter(|a| &a.rule == rule).count();
            (rule.clone(), fired)
        })
        .collect()
}

fn cache_rate(window: &Window) -> String {
    let total = window.cache_hits + window.cache_misses;
    if total == 0 {
        "-".to_owned()
    } else {
        format!("{}%", window.cache_hits * 100 / total)
    }
}

fn series_rows(doc: &MonitorDoc) -> Vec<Vec<String>> {
    let skip = doc.windows.len().saturating_sub(SERIES_TAIL);
    doc.windows
        .iter()
        .enumerate()
        .skip(skip)
        .map(|(index, w)| {
            vec![
                index.to_string(),
                format_micros(index as u64 * doc.window_micros),
                format!("{}%", w.utilization_permille(doc.slots, doc.window_micros) / 10),
                w.queue_depth_peak.to_string(),
                w.running_peak.to_string(),
                w.waiting_peak.to_string(),
                w.arrivals.to_string(),
                w.retires.to_string(),
                w.preemptions.to_string(),
                w.reconfigurations.to_string(),
                cache_rate(w),
            ]
        })
        .collect()
}

const SERIES_HEADER: [&str; 11] = [
    "#", "start", "util", "queue", "run", "wait", "arr", "ret", "preempt", "reconfig", "cache",
];

fn render_text(doc: &MonitorDoc) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "continuous monitor: {} window(s) x {}, {} slot(s)\n",
        doc.windows.len(),
        format_micros(doc.window_micros),
        doc.slots,
    ));
    out.push_str(&format!(
        "dropped: {} window observation(s), {} alert(s), {} recorder entr(ies)\n",
        doc.dropped, doc.dropped_alerts, doc.recorder_dropped,
    ));
    if let Some(trigger) = &doc.trigger {
        out.push_str(&format!("post-mortem trigger: {trigger}\n"));
    }
    let skip = doc.windows.len().saturating_sub(SERIES_TAIL);
    if skip > 0 {
        out.push_str(&format!("\nwindowed series (last {SERIES_TAIL} of {})\n", doc.windows.len()));
    } else {
        out.push_str("\nwindowed series\n");
    }
    let mut table = TextTable::new(SERIES_HEADER.iter().map(|s| (*s).to_owned()).collect());
    for row in series_rows(doc) {
        table.row(row);
    }
    out.push_str(&table.to_string());

    let classes = class_sketches(doc);
    if !classes.is_empty() {
        out.push_str("\nper-class quantiles (whole run)\n");
        let mut table = TextTable::new(vec![
            "class", "retires", "resp p50", "resp p95", "resp p99", "slowdown p50 (x)",
        ]);
        for (label, resp, slow) in &classes {
            table.row(vec![
                (*label).to_owned(),
                resp.count().to_string(),
                format_micros(resp.quantile_permille(500)),
                format_micros(resp.quantile_permille(950)),
                format_micros(resp.quantile_permille(990)),
                format!("{:.1}", slow.quantile_permille(500) as f64 / 1000.0),
            ]);
        }
        out.push_str(&table.to_string());
    }

    if !doc.rules.is_empty() {
        out.push_str(&format!("\nSLO rules: {} alert(s) fired\n", doc.alerts.len()));
        let mut table = TextTable::new(vec!["rule", "windows fired"]);
        for (rule, fired) in burn_counts(doc) {
            table.row(vec![rule, fired.to_string()]);
        }
        out.push_str(&table.to_string());
        if !doc.alerts.is_empty() {
            out.push_str("\nalerts\n");
            let mut table = TextTable::new(vec!["window", "at", "rule", "observed", "limit"]);
            for alert in &doc.alerts {
                table.row(vec![
                    alert.window.to_string(),
                    format_micros(alert.at_us),
                    alert.rule.clone(),
                    alert.value.to_string(),
                    alert.limit.to_string(),
                ]);
            }
            out.push_str(&table.to_string());
        }
    }

    if !doc.recorder.is_empty() {
        out.push_str(&format!("\nflight recorder ({} entr(ies))\n", doc.recorder.len()));
        let mut table = TextTable::new(vec!["at", "board", "kind", "detail"]);
        for entry in &doc.recorder {
            table.row(vec![
                format_micros(entry.at_us),
                entry.board.to_string(),
                entry.kind.clone(),
                entry.detail.clone(),
            ]);
        }
        out.push_str(&table.to_string());
    }

    if let Some(tree) = &doc.span_tree {
        out.push_str("\nimplicated span tree — `*` marks the critical path:\n");
        out.push_str(tree);
    }
    out
}

fn render_md(doc: &MonitorDoc) -> String {
    let mut out = String::new();
    out.push_str("# Continuous monitor\n\n");
    out.push_str(&format!(
        "{} window(s) × {}, {} slot(s); dropped: {} window observation(s), \
         {} alert(s), {} recorder entr(ies)\n\n",
        doc.windows.len(),
        format_micros(doc.window_micros),
        doc.slots,
        doc.dropped,
        doc.dropped_alerts,
        doc.recorder_dropped,
    ));
    if let Some(trigger) = &doc.trigger {
        out.push_str(&format!("**Post-mortem trigger:** {trigger}\n\n"));
    }
    out.push_str("## Windowed series\n\n");
    let skip = doc.windows.len().saturating_sub(SERIES_TAIL);
    if skip > 0 {
        out.push_str(&format!("_Last {SERIES_TAIL} of {} windows._\n\n", doc.windows.len()));
    }
    out.push_str(&format!("| {} |\n", SERIES_HEADER.join(" | ")));
    out.push_str(&format!("|{}\n", "---:|".repeat(SERIES_HEADER.len())));
    for row in series_rows(doc) {
        out.push_str(&format!("| {} |\n", row.join(" | ")));
    }

    let classes = class_sketches(doc);
    if !classes.is_empty() {
        out.push_str("\n## Per-class quantiles\n\n");
        out.push_str(
            "| class | retires | resp p50 | resp p95 | resp p99 | slowdown p50 |\n\
             |---|---:|---:|---:|---:|---:|\n",
        );
        for (label, resp, slow) in &classes {
            out.push_str(&format!(
                "| {label} | {} | {} | {} | {} | {:.1}× |\n",
                resp.count(),
                format_micros(resp.quantile_permille(500)),
                format_micros(resp.quantile_permille(950)),
                format_micros(resp.quantile_permille(990)),
                slow.quantile_permille(500) as f64 / 1000.0,
            ));
        }
    }

    if !doc.rules.is_empty() {
        out.push_str(&format!("\n## SLO alerts ({} fired)\n\n", doc.alerts.len()));
        out.push_str("| rule | windows fired |\n|---|---:|\n");
        for (rule, fired) in burn_counts(doc) {
            out.push_str(&format!("| `{rule}` | {fired} |\n"));
        }
        if !doc.alerts.is_empty() {
            out.push_str("\n| window | at | rule | observed | limit |\n|---:|---:|---|---:|---:|\n");
            for alert in &doc.alerts {
                out.push_str(&format!(
                    "| {} | {} | `{}` | {} | {} |\n",
                    alert.window,
                    format_micros(alert.at_us),
                    alert.rule,
                    alert.value,
                    alert.limit,
                ));
            }
        }
    }

    if !doc.recorder.is_empty() {
        out.push_str(&format!("\n## Flight recorder ({} entries)\n\n", doc.recorder.len()));
        out.push_str("| at | board | kind | detail |\n|---:|---:|---|---|\n");
        for entry in &doc.recorder {
            out.push_str(&format!(
                "| {} | {} | {} | {} |\n",
                format_micros(entry.at_us),
                entry.board,
                entry.kind,
                entry.detail,
            ));
        }
    }

    if let Some(tree) = &doc.span_tree {
        out.push_str(&format!("\n## Implicated span tree\n\n```text\n{tree}```\n"));
    }
    out
}

/// JSON report: the full [`MonitorDoc`] plus top-level `alerts_fired` and
/// `clean` fields CI can assert on.
fn render_json(doc: &MonitorDoc) -> String {
    let json = Json::Object(vec![
        ("clean".to_owned(), Json::Bool(doc.alerts.is_empty())),
        (
            "alerts_fired".to_owned(),
            Json::U64(doc.alerts.len() as u64),
        ),
        ("doc".to_owned(), doc.to_json()),
    ]);
    nimblock_ser::to_string_pretty(&json)
}

#[cfg(test)]
mod tests {
    use nimblock_core::{derive_monitor, post_mortem, NimblockScheduler, Testbed};
    use nimblock_obs::{parse_rules, MonitorConfig, MonitorDoc};
    use nimblock_workload::{generate, Scenario};

    use super::*;

    fn sample_doc() -> MonitorDoc {
        let events = generate(3, 5, Scenario::Stress);
        let (_report, trace) = Testbed::new(NimblockScheduler::new()).run_traced(&events);
        let config = MonitorConfig::with_window_micros(1_000_000)
            .rules(parse_rules(&["util>=100%".into()]).unwrap());
        derive_monitor(&trace, config).to_doc()
    }

    #[test]
    fn text_report_names_every_section() {
        let text = render_monitor(&sample_doc(), ExplainFormat::Text);
        assert!(text.contains("continuous monitor"), "{text}");
        assert!(text.contains("recorder entr(ies)"), "saturation-loss line names drops: {text}");
        assert!(text.contains("windowed series"), "{text}");
        assert!(text.contains("per-class quantiles"), "{text}");
        assert!(text.contains("alert(s) fired"), "{text}");
        assert!(text.contains("flight recorder"), "{text}");
    }

    #[test]
    fn markdown_report_has_tables() {
        let md = render_monitor(&sample_doc(), ExplainFormat::Markdown);
        assert!(md.starts_with("# Continuous monitor"), "{md}");
        assert!(md.contains("## Windowed series"), "{md}");
        assert!(md.contains("## SLO alerts"), "{md}");
        assert!(md.contains("`util>=100%`"), "{md}");
    }

    #[test]
    fn json_report_round_trips_the_doc() {
        let doc = sample_doc();
        let json = render_monitor(&doc, ExplainFormat::Json);
        let value = nimblock_ser::parse(&json).unwrap();
        assert_eq!(value.get("clean"), Some(&Json::Bool(doc.alerts.is_empty())));
        let parsed: MonitorDoc =
            nimblock_ser::FromJson::from_json(value.get("doc").unwrap()).unwrap();
        assert_eq!(parsed, doc);
    }

    #[test]
    fn post_mortem_renders_trigger_and_tree() {
        let events = generate(3, 5, Scenario::Stress);
        let (_report, trace) = Testbed::new(NimblockScheduler::new()).run_traced(&events);
        let doc = post_mortem(
            &trace,
            MonitorConfig::with_window_micros(1_000_000),
            "invariant: cap-serialization",
            Some(nimblock_core::AppId::new(0)),
        );
        let text = render_monitor(&doc, ExplainFormat::Text);
        assert!(text.contains("post-mortem trigger: invariant: cap-serialization"), "{text}");
        assert!(text.contains("implicated span tree"), "{text}");
        let md = render_monitor(&doc, ExplainFormat::Markdown);
        assert!(md.contains("**Post-mortem trigger:**"), "{md}");
    }

    #[test]
    fn reports_are_deterministic() {
        let a = render_monitor(&sample_doc(), ExplainFormat::Markdown);
        let b = render_monitor(&sample_doc(), ExplainFormat::Markdown);
        assert_eq!(a, b);
    }
}
