//! Golden-file tests byte-pinning the analyzer's machine-readable wire
//! formats: `analyze lint --format json` and `analyze deep --format json`
//! over this workspace.
//!
//! Both reports are clean by construction (the lint and deep CI stages
//! enforce that), so the goldens pin the *shape* of the JSON — field
//! names, ordering, and the summary counters tooling scrapes — plus the
//! workspace-size counters, which change whenever files, functions, or
//! suppressions are added. That coupling is deliberate: a PR that grows
//! the tree re-records the counters in review. Regenerate after an
//! intentional change:
//!
//! ```text
//! NIMBLOCK_REGEN_GOLDENS=1 cargo test -q --test golden_analyze
//! ```

use std::path::PathBuf;

use nimblock::analyze::{deep_tree, lint_tree};

mod support;
use support::golden;

fn repo_path(parts: &[&str]) -> PathBuf {
    let mut path = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    for part in parts {
        path.push(part);
    }
    path
}

#[test]
fn lint_json_report_matches_golden() {
    let report = lint_tree(&repo_path(&[])).expect("workspace lints");
    let fresh = format!("{}\n", nimblock_ser::to_string_pretty(&report));
    assert_eq!(
        golden("analyze_lint.json", &fresh),
        fresh,
        "lint JSON drifted; regenerate with NIMBLOCK_REGEN_GOLDENS=1 if intentional"
    );
}

#[test]
fn deep_json_report_matches_golden() {
    let analysis = deep_tree(&repo_path(&[])).expect("workspace analyzes");
    let fresh = format!("{}\n", nimblock_ser::to_string_pretty(&analysis.report));
    assert_eq!(
        golden("analyze_deep.json", &fresh),
        fresh,
        "deep JSON drifted; regenerate with NIMBLOCK_REGEN_GOLDENS=1 if intentional"
    );
}
