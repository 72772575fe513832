//! Static and dynamic analysis for the Nimblock workspace.
//!
//! Three layers, one crate (see `DESIGN.md` §11 and §16):
//!
//! * **Static lint** ([`lint`], [`rules`], [`lex`]) — a small in-repo Rust
//!   tokenizer and rule framework enforcing workspace policies the compiler
//!   cannot express: the offline dependency policy (`registry-deps`), no
//!   panics in hot paths (`no-unwrap-hot-path`), simulation determinism
//!   (`no-wallclock-sim`), no narrowing time/token casts (`no-lossy-cast`),
//!   and library output hygiene (`no-println`). Findings may be silenced
//!   line-by-line with `// nimblock: allow(<rule>)`.
//! * **Deep static analysis** ([`parse`], [`callgraph`], [`passes`]) — an
//!   item-level parser, a cross-crate symbol table and call graph, and
//!   reachability passes proving the engine hot path alloc-free
//!   (`hot-path-no-alloc`), the report/monitor merge and render paths
//!   deterministic (`determinism-taint`), and the cluster worker pool
//!   lock-clean (`lock-discipline`). `nimblock-cli analyze deep` runs them
//!   on top of the lint and audits every suppression for staleness.
//! * **Dynamic schedule-invariant verification** ([`invariants`], re-exported
//!   from `nimblock-core`) — replays any recorded [`Trace`] against the
//!   paper's hardware and policy invariants: configuration-port exclusivity
//!   and serialization latency (§2.1), slot exclusivity (§2.2), task-graph
//!   order under cross-batch pipelining (§3.1), batch-boundary preemption
//!   legality (§3.2, Algorithm 2), per-application work conservation, and
//!   goal-number ceilings (§4.2).
//!
//! This crate is a library; `nimblock-cli analyze` is its command-line front
//! end: `analyze lint` and `analyze deep` audit a source tree,
//! `analyze trace <file>` audits a serialized schedule trace, and
//! `analyze rules` prints the catalogs. `nimblock-cli run --check-invariants`
//! runs the dynamic pass inline after every simulation.
//!
//! # Example
//!
//! ```
//! use nimblock_analyze::lint_source;
//!
//! let report = lint_source("crates/sim/src/engine.rs", "fn f() { x.unwrap(); }");
//! assert_eq!(report.diags.len(), 1);
//! assert_eq!(report.diags[0].rule, "no-unwrap-hot-path");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod callgraph;
pub mod explain;
pub mod lex;
pub mod lint;
pub mod monitor;
pub mod parse;
pub mod passes;
pub mod rules;

/// The dynamic pass: schedule-trace invariant verification.
///
/// Re-exported from `nimblock-core` so trace producers and trace auditors
/// share one implementation (the hypervisor's own `Trace::verify` calls the
/// same engine `nimblock-cli analyze trace` does).
pub use nimblock_core::invariants;

pub use callgraph::Model;
pub use explain::{explain_trace, Explain, ExplainFormat};
pub use lint::{lint_source, lint_tree, LintReport};
pub use monitor::render_monitor;
pub use passes::{
    all_passes, deep_tree, DeepAnalysis, DeepReport, Finding, Pass, Suppressions,
    UnusedSuppression, SUPPRESSION_FILE,
};
pub use nimblock_core::invariants::{
    verify_trace, InvariantConfig, InvariantReport, InvariantRule, Violation,
};
pub use rules::{all_rules, LintDiag, Rule};
