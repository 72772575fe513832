//! The lint rule catalog.
//!
//! Each rule guards one invariant of the workspace that the compiler cannot
//! express (see `DESIGN.md` §11 for the full catalog and rationale):
//!
//! | id | guards |
//! |----|--------|
//! | `registry-deps` | offline build: every dependency is a workspace path dep |
//! | `no-unwrap-hot-path` | hypervisor/scheduler/sim/cli code returns errors instead of panicking |
//! | `no-wallclock-sim` | simulation determinism: no `std::time` inside `sim`/`core` |
//! | `no-lossy-cast` | no precision-losing `as` casts on `SimTime`/token arithmetic |
//! | `no-println` | library crates never write to stdout/stderr directly |
//! | `no-unbounded-span-buffer` | per-event recording buffers are capacity-bounded |
//!
//! A finding may be suppressed with an inline `// nimblock: allow(<rule>)`
//! comment on the same line or on the line above (see [`crate::lex::Lexed`]).
//! Suppression is deliberately line-scoped: there is no file- or crate-level
//! escape hatch, so every exception is visible at the offending line.

use crate::lex::{Lexed, TokenKind};
use nimblock_ser::impl_json_struct;

/// One lint finding: rule, location, and a human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintDiag {
    /// The rule id (kebab-case, e.g. `no-unwrap-hot-path`).
    pub rule: String,
    /// Path of the offending file, relative to the workspace root.
    pub path: String,
    /// 1-based line number of the finding.
    pub line: u32,
    /// What was found and why it matters.
    pub message: String,
}
impl_json_struct!(LintDiag { rule, path, line, message });

impl std::fmt::Display for LintDiag {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.path, self.line, self.rule, self.message)
    }
}

/// What a rule gets to look at: one file, pre-lexed when it is Rust source.
pub struct FileCtx<'a> {
    /// Path relative to the workspace root, `/`-separated.
    pub rel_path: &'a str,
    /// Raw file contents.
    pub source: &'a str,
    /// Token stream — `Some` for `.rs` files, `None` for manifests.
    pub lexed: Option<&'a Lexed>,
}

/// A lint rule: a scoping predicate plus a checker.
pub trait Rule {
    /// Stable kebab-case id, used in diagnostics and `allow(...)` comments.
    fn id(&self) -> &'static str;
    /// One-line description for the rule catalog.
    fn description(&self) -> &'static str;
    /// Whether this rule runs on the given workspace-relative path.
    fn applies_to(&self, rel_path: &str) -> bool;
    /// Produce findings for one file. Suppressions are applied by the caller.
    fn check(&self, ctx: &FileCtx<'_>) -> Vec<LintDiag>;
}

/// The full rule set, in catalog order.
pub fn all_rules() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(RegistryDeps),
        Box::new(NoUnwrapHotPath),
        Box::new(NoWallclockSim),
        Box::new(NoLossyCast),
        Box::new(NoPrintln),
        Box::new(NoUnboundedSpanBuffer),
    ]
}

fn diag(rule: &dyn Rule, ctx: &FileCtx<'_>, line: u32, message: String) -> LintDiag {
    LintDiag { rule: rule.id().to_owned(), path: ctx.rel_path.to_owned(), line, message }
}

/// Walk the unmasked (non-test) tokens of a Rust file.
fn live_tokens(lexed: &Lexed) -> impl Iterator<Item = (usize, &crate::lex::Token)> {
    lexed
        .tokens
        .iter()
        .enumerate()
        .filter(|&(i, _)| !lexed.in_test.get(i).copied().unwrap_or(false))
}

// ---------------------------------------------------------------------------
// registry-deps
// ---------------------------------------------------------------------------

/// Every `Cargo.toml` dependency must stay inside the workspace.
///
/// The build container has no registry access; a reintroduced external
/// dependency would fail much later and far less legibly. This rule ports the
/// shell/awk guard that `scripts/verify.sh` used to carry: in any
/// `[*dependencies]` section, an entry must either use `path = …` or inherit
/// with `workspace = true`. `Cargo.lock`, when present, must not record any
/// `source = …` (registry or git) package.
pub struct RegistryDeps;

impl Rule for RegistryDeps {
    fn id(&self) -> &'static str {
        "registry-deps"
    }
    fn description(&self) -> &'static str {
        "all Cargo.toml dependencies are workspace path deps; Cargo.lock has no registry sources"
    }
    fn applies_to(&self, rel_path: &str) -> bool {
        rel_path.ends_with("Cargo.toml") || rel_path.ends_with("Cargo.lock")
    }
    fn check(&self, ctx: &FileCtx<'_>) -> Vec<LintDiag> {
        let mut out = Vec::new();
        if ctx.rel_path.ends_with("Cargo.lock") {
            for (idx, line) in ctx.source.lines().enumerate() {
                if line.starts_with("source = ") {
                    out.push(diag(
                        self,
                        ctx,
                        idx as u32 + 1,
                        format!("lockfile records a non-workspace package source: `{line}`"),
                    ));
                }
            }
            return out;
        }
        let mut in_deps = false;
        for (idx, raw) in ctx.source.lines().enumerate() {
            let line = raw.trim();
            if line.starts_with('[') {
                in_deps = line.ends_with("dependencies]");
                continue;
            }
            if !in_deps || line.is_empty() || line.starts_with('#') {
                continue;
            }
            let ok = line.contains("path") && line.contains('=') && line.contains("path =")
                || line.contains("workspace = true");
            if !ok {
                out.push(diag(
                    self,
                    ctx,
                    idx as u32 + 1,
                    format!(
                        "non-path dependency `{line}` — the workspace builds offline, \
                         use a path dep or `workspace = true`"
                    ),
                ));
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// no-unwrap-hot-path
// ---------------------------------------------------------------------------

/// No bare `unwrap()`/`panic!`/`todo!`/`unimplemented!` in hot paths.
///
/// Scope: the hypervisor event loop, every scheduling policy, the simulation
/// engine, and the CLI front-end. A panic in any of these aborts a whole
/// experiment run. `.expect("…")` with a message stays legal — the workspace
/// uses it for documented contract checks (each carries a `# Panics` doc
/// section) — as do `assert!`/`unreachable!`.
pub struct NoUnwrapHotPath;

impl Rule for NoUnwrapHotPath {
    fn id(&self) -> &'static str {
        "no-unwrap-hot-path"
    }
    fn description(&self) -> &'static str {
        "no bare unwrap()/panic!/todo!/unimplemented! in hypervisor, scheduler, sim, or cli code"
    }
    fn applies_to(&self, rel_path: &str) -> bool {
        rel_path == "crates/core/src/hypervisor.rs"
            || rel_path.starts_with("crates/core/src/scheduler")
            || rel_path.starts_with("crates/sim/src/")
            || rel_path.starts_with("crates/cli/src/")
    }
    fn check(&self, ctx: &FileCtx<'_>) -> Vec<LintDiag> {
        let Some(lexed) = ctx.lexed else { return Vec::new() };
        let toks = &lexed.tokens;
        let mut out = Vec::new();
        for (i, tok) in live_tokens(lexed) {
            if tok.kind != TokenKind::Ident {
                continue;
            }
            match tok.text.as_str() {
                "unwrap" => {
                    let dotted = i > 0 && toks[i - 1].text == ".";
                    let called = toks.get(i + 1).map(|t| t.text.as_str()) == Some("(");
                    if dotted && called {
                        out.push(diag(
                            self,
                            ctx,
                            tok.line,
                            "bare `.unwrap()` in a hot path — return an error or use \
                             `.expect(\"why this cannot fail\")`"
                                .into(),
                        ));
                    }
                }
                "panic" | "todo" | "unimplemented" => {
                    let is_macro = toks.get(i + 1).map(|t| t.text.as_str()) == Some("!");
                    // `core::panic::Location`-style paths are not macro calls.
                    let pathy = i > 0 && toks[i - 1].text == ":";
                    if is_macro && !pathy {
                        out.push(diag(
                            self,
                            ctx,
                            tok.line,
                            format!(
                                "`{}!` in a hot path — propagate an error instead of aborting \
                                 the run",
                                tok.text
                            ),
                        ));
                    }
                }
                _ => {}
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// no-wallclock-sim
// ---------------------------------------------------------------------------

/// No wall-clock time sources inside the simulation or hypervisor crates.
///
/// The whole point of `nimblock-sim` is determinism: a given stimulus and
/// seed must reproduce the paper's schedules bit-for-bit. `std::time::Instant`
/// or `SystemTime` anywhere in `crates/sim` or `crates/core` would leak host
/// timing into simulated behaviour. The single sanctioned exception (the
/// optional decision-latency instrument in the hypervisor, active only when a
/// metrics registry is attached) carries an inline allow.
pub struct NoWallclockSim;

impl Rule for NoWallclockSim {
    fn id(&self) -> &'static str {
        "no-wallclock-sim"
    }
    fn description(&self) -> &'static str {
        "no std::time / Instant / SystemTime inside crates/sim or crates/core (sim determinism)"
    }
    fn applies_to(&self, rel_path: &str) -> bool {
        rel_path.starts_with("crates/sim/src/") || rel_path.starts_with("crates/core/src/")
    }
    fn check(&self, ctx: &FileCtx<'_>) -> Vec<LintDiag> {
        let Some(lexed) = ctx.lexed else { return Vec::new() };
        let toks = &lexed.tokens;
        let mut out: Vec<LintDiag> = Vec::new();
        let mut flagged_lines = std::collections::BTreeSet::new();
        for (i, tok) in live_tokens(lexed) {
            if tok.kind != TokenKind::Ident {
                continue;
            }
            let hit = match tok.text.as_str() {
                "Instant" | "SystemTime" => true,
                "time" => {
                    // the path `std :: time`
                    i >= 3
                        && toks[i - 1].text == ":"
                        && toks[i - 2].text == ":"
                        && toks[i - 3].text == "std"
                }
                _ => false,
            };
            if hit && flagged_lines.insert(tok.line) {
                out.push(diag(
                    self,
                    ctx,
                    tok.line,
                    format!(
                        "wall-clock time source `{}` inside a deterministic-simulation crate",
                        tok.text
                    ),
                ));
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// no-lossy-cast
// ---------------------------------------------------------------------------

/// No precision-losing `as` casts on time or token arithmetic.
///
/// `SimTime`/`SimDuration` are microsecond `u64` counters and PREMA tokens
/// are `f64`; an `as u32`-style narrowing silently truncates after ~71
/// minutes of simulated time. The rule fires when an `as <narrow type>`
/// appears near time/token vocabulary (`SimTime`, `as_micros`, `tokens`, …)
/// so unrelated index casts (`i as u32` on a slot index) stay legal.
pub struct NoLossyCast;

const NARROW: [&str; 7] = ["u8", "u16", "u32", "i8", "i16", "i32", "f32"];
/// Narrow only relative to the `u128` returned by `Duration::as_nanos`/`as_micros`.
const NARROW_FOR_U128: [&str; 2] = ["u64", "i64"];
const TRIGGERS: [&str; 7] =
    ["SimTime", "SimDuration", "as_micros", "as_millis", "as_nanos", "as_secs", "tokens"];
const U128_TRIGGERS: [&str; 2] = ["as_nanos", "as_micros"];
const LOOKBACK: usize = 12;

impl Rule for NoLossyCast {
    fn id(&self) -> &'static str {
        "no-lossy-cast"
    }
    fn description(&self) -> &'static str {
        "no narrowing `as` casts on SimTime/SimDuration/token arithmetic"
    }
    fn applies_to(&self, rel_path: &str) -> bool {
        rel_path.starts_with("crates/sim/src/") || rel_path.starts_with("crates/core/src/")
    }
    fn check(&self, ctx: &FileCtx<'_>) -> Vec<LintDiag> {
        let Some(lexed) = ctx.lexed else { return Vec::new() };
        let toks = &lexed.tokens;
        let mut out = Vec::new();
        for (i, tok) in live_tokens(lexed) {
            if tok.text != "as" || tok.kind != TokenKind::Ident {
                continue;
            }
            let Some(target) = toks.get(i + 1) else { continue };
            let narrow = NARROW.contains(&target.text.as_str());
            let narrow_u128 = NARROW_FOR_U128.contains(&target.text.as_str());
            if !narrow && !narrow_u128 {
                continue;
            }
            let window = &toks[i.saturating_sub(LOOKBACK)..i];
            let relevant = window.iter().any(|t| {
                if narrow_u128 {
                    U128_TRIGGERS.contains(&t.text.as_str())
                } else {
                    TRIGGERS.contains(&t.text.as_str())
                }
            });
            if relevant {
                out.push(diag(
                    self,
                    ctx,
                    tok.line,
                    format!(
                        "lossy `as {}` on time/token arithmetic — use a checked or \
                         documented conversion",
                        target.text
                    ),
                ));
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// no-println
// ---------------------------------------------------------------------------

/// Library crates never print directly.
///
/// Only the CLI and the bench harness own stdout/stderr; everything else
/// reports through return values, `nimblock-obs` logging, or metrics. A
/// stray `println!` in a library corrupts machine-readable CLI output
/// (JSON reports are parsed by `verify.sh`). The `obs` logging sink itself
/// is the one sanctioned writer and carries an inline allow.
pub struct NoPrintln;

impl Rule for NoPrintln {
    fn id(&self) -> &'static str {
        "no-println"
    }
    fn description(&self) -> &'static str {
        "no println!/eprintln!/print!/eprint!/dbg! outside crates/cli and crates/bench"
    }
    fn applies_to(&self, rel_path: &str) -> bool {
        rel_path.starts_with("crates/")
            && rel_path.contains("/src/")
            && !rel_path.starts_with("crates/cli/")
            && !rel_path.starts_with("crates/bench/")
    }
    fn check(&self, ctx: &FileCtx<'_>) -> Vec<LintDiag> {
        let Some(lexed) = ctx.lexed else { return Vec::new() };
        let toks = &lexed.tokens;
        let mut out = Vec::new();
        for (i, tok) in live_tokens(lexed) {
            if tok.kind != TokenKind::Ident {
                continue;
            }
            let name = tok.text.as_str();
            if !matches!(name, "println" | "eprintln" | "print" | "eprint" | "dbg") {
                continue;
            }
            let is_macro = toks.get(i + 1).map(|t| t.text.as_str()) == Some("!");
            if is_macro {
                out.push(diag(
                    self,
                    ctx,
                    tok.line,
                    format!(
                        "`{name}!` in a library crate — route output through the caller, \
                         `nimblock-obs` logging, or a returned value"
                    ),
                ));
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// no-unbounded-span-buffer
// ---------------------------------------------------------------------------

/// Per-event recording buffers must be capacity-bounded.
///
/// Span and trace recording runs inside the hypervisor's event loop; a
/// buffer that grows one entry per simulated event with no ceiling trades
/// scheduler latency (and memory) for observability — the wrong direction.
/// The sanctioned pattern is `nimblock_obs::SpanBuffer`: a hard capacity
/// fixed at construction, overflow counted in `dropped()` instead of
/// stored. The continuous monitor follows the same discipline: its
/// tumbling-window series (`windows`), flight-recorder ring (`entries`),
/// and alert sink (`alerts`) all bound growth by a `*_capacity` field.
/// The rule fires on `self.<spans|events|entries|windows|alerts>.push(…)`
/// (or `push_back`) in recording code unless a capacity check guards the
/// push nearby (`capacity` within the lookback window, as in
/// `SpanBuffer::push`).
///
/// Post-run exporters (`chrome.rs`, `gantt.rs`) are out of scope: they
/// transform a trace that already retired, so their output is O(input)
/// by construction. `Trace::record` itself carries the one inline allow —
/// the trace is the primary artifact, recorded only when a run opts in
/// via `run_traced`/`--trace-out`, and everything downstream (attribution,
/// invariants, exports) needs it complete, not sampled.
pub struct NoUnboundedSpanBuffer;

/// How many tokens before the `push` a bound check may sit (the
/// `self.spans.len() < self.capacity` guard in `SpanBuffer::push` is
/// well inside this window).
const BUFFER_LOOKBACK: usize = 25;

impl Rule for NoUnboundedSpanBuffer {
    fn id(&self) -> &'static str {
        "no-unbounded-span-buffer"
    }
    fn description(&self) -> &'static str {
        "per-event span/trace/monitor buffers are capacity-bounded or carry an explicit allow"
    }
    fn applies_to(&self, rel_path: &str) -> bool {
        (rel_path.starts_with("crates/obs/src/") || rel_path.starts_with("crates/core/src/"))
            && rel_path != "crates/obs/src/chrome.rs"
            && rel_path != "crates/obs/src/gantt.rs"
    }
    fn check(&self, ctx: &FileCtx<'_>) -> Vec<LintDiag> {
        let Some(lexed) = ctx.lexed else { return Vec::new() };
        let toks = &lexed.tokens;
        let mut out = Vec::new();
        for (i, tok) in live_tokens(lexed) {
            // Match `self . <buffer-field> . <push|push_back> (`.
            if tok.kind != TokenKind::Ident
                || !matches!(tok.text.as_str(), "push" | "push_back")
            {
                continue;
            }
            let called = toks.get(i + 1).map(|t| t.text.as_str()) == Some("(");
            let chain = i >= 4
                && toks[i - 1].text == "."
                && matches!(
                    toks[i - 2].text.as_str(),
                    "spans" | "events" | "entries" | "windows" | "alerts"
                )
                && toks[i - 3].text == "."
                && toks[i - 4].text == "self";
            if !called || !chain {
                continue;
            }
            // Substring match so `self.capacity`, `window_capacity`, and
            // `ring_capacity` guards all count as bounds.
            let window = &toks[i.saturating_sub(BUFFER_LOOKBACK)..i];
            let bounded = window.iter().any(|t| t.text.contains("capacity"));
            if !bounded {
                out.push(diag(
                    self,
                    ctx,
                    tok.line,
                    format!(
                        "unbounded `self.{}.{}(…)` in recording code — use \
                         `nimblock_obs::SpanBuffer` (hard capacity, counted drops) or \
                         justify with an inline allow",
                        toks[i - 2].text, tok.text
                    ),
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lex::lex;

    fn run_rust(rule: &dyn Rule, rel_path: &str, source: &str) -> Vec<LintDiag> {
        assert!(rule.applies_to(rel_path), "{rel_path} should be in scope");
        let lexed = lex(source);
        rule.check(&FileCtx { rel_path, source, lexed: Some(&lexed) })
    }

    #[test]
    fn registry_deps_flags_version_and_git_deps() {
        let toml = "[package]\nname = \"x\"\n\n[dependencies]\nserde = \"1.0\"\nfoo = { git = \"https://example.com\" }\nok = { path = \"../ok\" }\nalso-ok.workspace = true\n";
        let rule = RegistryDeps;
        let diags = rule.check(&FileCtx { rel_path: "crates/x/Cargo.toml", source: toml, lexed: None });
        assert_eq!(diags.len(), 2);
        assert!(diags[0].message.contains("serde"));
        assert_eq!(diags[0].line, 5);
        assert!(diags[1].message.contains("git"));
    }

    #[test]
    fn registry_deps_flags_lockfile_sources() {
        let lock = "[[package]]\nname = \"rand\"\nversion = \"0.8.5\"\nsource = \"registry+https://github.com/rust-lang/crates.io-index\"\n";
        let rule = RegistryDeps;
        let diags =
            rule.check(&FileCtx { rel_path: "Cargo.lock", source: lock, lexed: None });
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].line, 4);
    }

    #[test]
    fn registry_deps_accepts_this_workspace_style() {
        let toml = "[workspace.dependencies]\nnimblock-sim = { path = \"crates/sim\", version = \"0.1.0\" }\n\n[dependencies]\nnimblock-sim.workspace = true\n";
        let rule = RegistryDeps;
        let diags =
            rule.check(&FileCtx { rel_path: "Cargo.toml", source: toml, lexed: None });
        assert!(diags.is_empty(), "unexpected: {diags:?}");
    }

    #[test]
    fn unwrap_rule_flags_bare_unwrap_but_not_expect() {
        let src = "fn f() { x.unwrap(); y.expect(\"bound app is live\"); }";
        let diags = run_rust(&NoUnwrapHotPath, "crates/core/src/hypervisor.rs", src);
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains(".unwrap()"));
    }

    #[test]
    fn unwrap_rule_flags_panic_macros_only() {
        let src = "fn f() { panic!(\"boom\"); todo!(); core::panic::Location::caller(); }";
        let diags = run_rust(&NoUnwrapHotPath, "crates/sim/src/engine.rs", src);
        let rules: Vec<&str> = diags.iter().map(|d| d.message.as_str()).collect();
        assert_eq!(diags.len(), 2, "{rules:?}");
    }

    #[test]
    fn unwrap_rule_skips_test_modules_and_out_of_scope_files() {
        let src = "#[cfg(test)]\nmod tests { fn t() { x.unwrap(); } }";
        let diags = run_rust(&NoUnwrapHotPath, "crates/core/src/scheduler/tokens.rs", src);
        assert!(diags.is_empty());
        assert!(!NoUnwrapHotPath.applies_to("crates/obs/src/log.rs"));
        assert!(!NoUnwrapHotPath.applies_to("crates/core/src/invariants.rs"));
    }

    #[test]
    fn wallclock_rule_flags_instant_once_per_line() {
        let src = "fn f() { let t = std::time::Instant::now(); }";
        let diags = run_rust(&NoWallclockSim, "crates/core/src/hypervisor.rs", src);
        assert_eq!(diags.len(), 1, "std::time and Instant on one line dedupe");
    }

    #[test]
    fn wallclock_rule_respects_inline_allow() {
        let src =
            "// nimblock: allow(no-wallclock-sim)\nlet t = std::time::Instant::now();";
        let lexed = lex(src);
        let diags = NoWallclockSim.check(&FileCtx {
            rel_path: "crates/sim/src/engine.rs",
            source: src,
            lexed: Some(&lexed),
        });
        // The rule itself still reports; suppression is the driver's job.
        assert_eq!(diags.len(), 1);
        assert!(lexed.allowed(diags[0].line, "no-wallclock-sim"));
    }

    #[test]
    fn lossy_cast_rule_needs_a_trigger_nearby() {
        let flagged = "let us = duration.as_micros() as u32;";
        let diags = run_rust(&NoLossyCast, "crates/sim/src/time.rs", flagged);
        assert_eq!(diags.len(), 1);

        let index_cast = "let slot = SlotId::new(i as u32);";
        let diags = run_rust(&NoLossyCast, "crates/core/src/trace.rs", index_cast);
        assert!(diags.is_empty(), "index casts without time context are fine");
    }

    #[test]
    fn lossy_cast_rule_flags_u64_only_for_u128_sources() {
        let nanos = "m.observe(started.elapsed().as_nanos() as u64);";
        let diags = run_rust(&NoLossyCast, "crates/core/src/hypervisor.rs", nanos);
        assert_eq!(diags.len(), 1, "u128 -> u64 is narrowing");

        let micros_u64 = "let t = SimTime::from_micros(raw as u64);";
        let diags = run_rust(&NoLossyCast, "crates/sim/src/time.rs", micros_u64);
        assert!(diags.is_empty(), "widening to u64 from SimTime context is fine");
    }

    #[test]
    fn println_rule_scopes_to_library_crates() {
        let src = "fn f() { println!(\"hi\"); eprintln!(\"err\"); write!(w, \"ok\").ok(); }";
        let diags = run_rust(&NoPrintln, "crates/obs/src/log.rs", src);
        assert_eq!(diags.len(), 2, "write! is fine, print macros are not");
        assert!(!NoPrintln.applies_to("crates/cli/src/commands.rs"));
        assert!(!NoPrintln.applies_to("crates/bench/src/main.rs"));
        assert!(!NoPrintln.applies_to("tests/trace_validation.rs"));
    }

    #[test]
    fn span_buffer_rule_flags_unguarded_recording_pushes() {
        let src = "impl Trace { fn record(&mut self, e: Event) { self.events.push(e); } }";
        let diags = run_rust(&NoUnboundedSpanBuffer, "crates/core/src/trace.rs", src);
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("self.events.push"));
    }

    #[test]
    fn span_buffer_rule_blesses_capacity_guarded_pushes() {
        let src = "impl SpanBuffer { fn push(&mut self, s: Span) -> bool {\n\
                   if self.spans.len() < self.capacity { self.spans.push(s); true }\n\
                   else { self.dropped += 1; false } } }";
        let diags = run_rust(&NoUnboundedSpanBuffer, "crates/obs/src/spans.rs", src);
        assert!(diags.is_empty(), "capacity-guarded push is the blessed pattern: {diags:?}");
    }

    #[test]
    fn span_buffer_rule_skips_locals_and_exporters() {
        // Pushes onto locals (JSON assembly, scratch vectors) are not
        // recording buffers.
        let src = "fn f() { let mut pairs = Vec::new(); pairs.push(1); }";
        let diags = run_rust(&NoUnboundedSpanBuffer, "crates/obs/src/registry.rs", src);
        assert!(diags.is_empty());
        // Post-run exporters transform an already-bounded trace.
        assert!(!NoUnboundedSpanBuffer.applies_to("crates/obs/src/chrome.rs"));
        assert!(!NoUnboundedSpanBuffer.applies_to("crates/obs/src/gantt.rs"));
        assert!(!NoUnboundedSpanBuffer.applies_to("crates/cli/src/commands.rs"));
    }

    #[test]
    fn span_buffer_rule_covers_monitor_rings_and_windows() {
        // The monitor's window series, flight-recorder ring, and alert
        // sink are recording buffers too.
        for field in ["entries", "windows", "alerts"] {
            let src = format!(
                "impl MonitorState {{ fn record(&mut self, w: W) {{ self.{field}.push(w); }} }}"
            );
            let diags =
                run_rust(&NoUnboundedSpanBuffer, "crates/obs/src/timeseries.rs", &src);
            assert_eq!(diags.len(), 1, "self.{field}.push must be flagged");
            assert!(diags[0].message.contains(&format!("self.{field}.push")));
        }
        // push_back (VecDeque rings) is the same hazard...
        let src = "fn record(&mut self, e: E) { self.entries.push_back(e); }";
        let diags = run_rust(&NoUnboundedSpanBuffer, "crates/obs/src/timeseries.rs", src);
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("self.entries.push_back"));
        // ...and a ring_capacity eviction guard blesses it.
        let src = "fn record(&mut self, e: E) {\n\
                   if self.entries.len() == self.ring_capacity { self.entries.pop_front(); }\n\
                   self.entries.push_back(e); }";
        let diags = run_rust(&NoUnboundedSpanBuffer, "crates/obs/src/timeseries.rs", src);
        assert!(diags.is_empty(), "capacity-evicting ring is the blessed pattern: {diags:?}");
    }

    #[test]
    fn span_buffer_rule_respects_inline_allow() {
        let src = "// nimblock: allow(no-unbounded-span-buffer)\nself.events.push(event);";
        let lexed = lex(src);
        let diags = NoUnboundedSpanBuffer.check(&FileCtx {
            rel_path: "crates/core/src/trace.rs",
            source: src,
            lexed: Some(&lexed),
        });
        // The rule itself still reports; suppression is the driver's job.
        assert_eq!(diags.len(), 1);
        assert!(lexed.allowed(diags[0].line, "no-unbounded-span-buffer"));
    }

    #[test]
    fn diag_serializes_to_json() {
        let d = LintDiag {
            rule: "no-println".into(),
            path: "crates/obs/src/log.rs".into(),
            line: 221,
            message: "x".into(),
        };
        let text = nimblock_ser::to_string(&d);
        assert!(text.contains("\"rule\":\"no-println\""));
        let back: LintDiag = nimblock_ser::from_str(&text).unwrap();
        assert_eq!(back, d);
    }
}
