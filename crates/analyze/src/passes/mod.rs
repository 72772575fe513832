//! The deep-analysis pass framework: reachability-based dataflow checks
//! over the whole-workspace call graph, a two-level suppression scheme,
//! and the driver behind `nimblock-cli analyze deep`.
//!
//! Three passes ship today (see `DESIGN.md` §16 for semantics and known
//! boundaries):
//!
//! * [`hot_path::HotPathNoAlloc`] — no allocation reachable from the
//!   hypervisor/scheduler/event-queue hot path,
//! * [`determinism::DeterminismTaint`] — no unordered-container
//!   iteration, wall-clock, or thread-identity source reachable from
//!   report/monitor merge and render code,
//! * [`locks::LockDiscipline`] — no nested `Mutex` acquisition or
//!   lock-held calls in the cluster worker pool.
//!
//! Findings are suppressed either inline (`// nimblock: allow(<pass>)`,
//! same mechanism as the lint rules) or through the committed
//! `analyze-suppressions.txt` at the workspace root, whose entries name
//! a function and carry a mandatory justification; `subtree` entries
//! additionally stop the reachability walk at that function — the
//! "blessed setup path" device for per-application admission work that
//! is allowed to allocate. Every suppression is audited: one that no
//! longer suppresses anything is itself reported as a finding.

pub mod determinism;
pub mod hot_path;
pub mod locks;

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io;
use std::path::Path;

use crate::callgraph::{Model, ModelFile, Walk};
use crate::explain::ExplainFormat;
use crate::lex::{lex, Lexed, Token};
use crate::lint::collect_files;
use crate::parse::parse_file;
use crate::rules::{all_rules, FileCtx, LintDiag};
use nimblock_ser::impl_json_struct;

/// One deep-analysis finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The pass id (kebab-case, e.g. `hot-path-no-alloc`).
    pub pass: String,
    /// Workspace-relative path of the offending file.
    pub path: String,
    /// 1-based line of the offending token.
    pub line: u32,
    /// Qualified name of the containing function.
    pub function: String,
    /// What was found, with the call chain that reaches it.
    pub message: String,
}
impl_json_struct!(Finding { pass, path, line, function, message });

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: [{}] {} — {}", self.path, self.line, self.pass, self.function, self.message)
    }
}

/// A suppression that no longer suppresses any finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnusedSuppression {
    /// File holding the suppression (a source file for inline allows,
    /// `analyze-suppressions.txt` for file entries).
    pub path: String,
    /// 1-based line of the suppression.
    pub line: u32,
    /// The rule or pass the suppression names.
    pub rule: String,
}
impl_json_struct!(UnusedSuppression { path, line, rule });

/// What one pass produced: findings (pre-suppression) and the
/// reachability walk it performed (empty for local passes).
#[derive(Debug, Default)]
pub struct PassOutcome {
    /// Raw findings; the driver applies suppressions.
    pub findings: Vec<Finding>,
    /// The functions reached, for suppression accounting and `--graph-out`.
    pub walk: Walk,
}

/// A deep-analysis pass over the program model.
pub trait Pass {
    /// Stable kebab-case id, used in findings and suppressions.
    fn id(&self) -> &'static str;
    /// One-line description for the catalog.
    fn description(&self) -> &'static str;
    /// Run over the model; `prune` holds function ids whose subtrees are
    /// blessed (reached but neither scanned nor expanded).
    fn run(&self, model: &Model, prune: &BTreeSet<usize>) -> PassOutcome;
}

/// The full pass set, in catalog order.
pub fn all_passes() -> Vec<Box<dyn Pass>> {
    vec![
        Box::new(hot_path::HotPathNoAlloc),
        Box::new(determinism::DeterminismTaint),
        Box::new(locks::LockDiscipline),
    ]
}

/// Name of the committed suppression file at the workspace root.
pub const SUPPRESSION_FILE: &str = "analyze-suppressions.txt";

/// One entry of the committed suppression file.
#[derive(Debug, Clone)]
pub struct SuppressionEntry {
    /// Pass id the entry applies to.
    pub pass: String,
    /// Workspace-relative path of the function's file.
    pub path: String,
    /// Qualified function name (`Type::fn` or `fn`).
    pub function: String,
    /// True when the entry also stops the reachability walk here.
    pub subtree: bool,
    /// The mandatory one-line justification.
    pub justification: String,
    /// 1-based line in the suppression file.
    pub line: u32,
}

/// The parsed suppression file.
#[derive(Debug, Default)]
pub struct Suppressions {
    /// Entries in file order.
    pub entries: Vec<SuppressionEntry>,
}

impl Suppressions {
    /// Parse the suppression file. A missing file is an empty set; a
    /// malformed line (or a missing justification) is an error — the
    /// justification is the point of the file.
    pub fn load(path: &Path) -> io::Result<Suppressions> {
        let text = match fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Suppressions::default()),
            Err(e) => return Err(e),
        };
        Self::parse(&text).map_err(|msg| {
            io::Error::new(io::ErrorKind::InvalidData, format!("{}: {msg}", path.display()))
        })
    }

    /// Parse suppression-file text: one entry per line,
    /// `<pass> <path> <function> [subtree] -- <justification>`.
    pub fn parse(text: &str) -> Result<Suppressions, String> {
        let mut entries = Vec::new();
        for (idx, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let lineno = idx as u32 + 1;
            let (head, justification) = line
                .split_once(" -- ")
                .ok_or_else(|| format!("line {lineno}: missing ` -- <justification>`"))?;
            let justification = justification.trim();
            if justification.is_empty() {
                return Err(format!("line {lineno}: empty justification"));
            }
            let fields: Vec<&str> = head.split_whitespace().collect();
            let (pass, path, function, subtree) = match fields.as_slice() {
                [pass, path, function] => (pass, path, function, false),
                [pass, path, function, "subtree"] => (pass, path, function, true),
                _ => {
                    return Err(format!(
                        "line {lineno}: expected `<pass> <path> <function> [subtree] -- <why>`"
                    ))
                }
            };
            entries.push(SuppressionEntry {
                pass: (*pass).to_owned(),
                path: (*path).to_owned(),
                function: (*function).to_owned(),
                subtree,
                justification: justification.to_owned(),
                line: lineno,
            });
        }
        Ok(Suppressions { entries })
    }

    /// Function ids whose subtrees are blessed for the given pass.
    pub fn prune_ids(&self, model: &Model, pass: &str) -> BTreeSet<usize> {
        let mut out = BTreeSet::new();
        for entry in self.entries.iter().filter(|e| e.subtree && e.pass == pass) {
            for (id, node) in model.fns.iter().enumerate() {
                if node.qual_name() == entry.function && model.path_of(id) == entry.path {
                    out.insert(id);
                }
            }
        }
        out
    }

    /// Index of the first entry suppressing this finding, if any.
    fn matching(&self, finding: &Finding) -> Option<usize> {
        self.entries.iter().position(|e| {
            e.pass == finding.pass && e.path == finding.path && e.function == finding.function
        })
    }
}

/// The outcome of a deep analysis run.
#[derive(Debug, Default)]
pub struct DeepReport {
    /// Pass findings that survived suppression, in (path, line) order.
    pub findings: Vec<Finding>,
    /// Lint findings (the `deep` command subsumes `lint`).
    pub lint: Vec<LintDiag>,
    /// Suppressions that no longer suppress anything.
    pub unused_suppressions: Vec<UnusedSuppression>,
    /// Findings silenced by inline allows or suppression-file entries.
    pub suppressed: usize,
    /// Files scanned (lint scope: sources, manifests, lockfile).
    pub files_scanned: usize,
    /// Functions in the program model (deep scope: non-test sources).
    pub functions: usize,
    /// Call edges in the program model.
    pub edges: usize,
}
impl_json_struct!(DeepReport {
    findings,
    lint,
    unused_suppressions,
    suppressed,
    files_scanned,
    functions,
    edges
});

impl DeepReport {
    /// True when nothing survived suppression and no suppression is stale.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty() && self.lint.is_empty() && self.unused_suppressions.is_empty()
    }

    /// Render in the requested format.
    pub fn render(&self, format: ExplainFormat) -> String {
        match format {
            ExplainFormat::Json => {
                let mut out = nimblock_ser::to_string_pretty(self);
                out.push('\n');
                out
            }
            ExplainFormat::Text => self.render_text(),
            ExplainFormat::Markdown => self.render_markdown(),
        }
    }

    fn render_text(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&format!("{f}\n"));
        }
        for d in &self.lint {
            out.push_str(&format!("{d}\n"));
        }
        for u in &self.unused_suppressions {
            out.push_str(&format!(
                "{}:{}: unused suppression for `{}` — it no longer silences any finding\n",
                u.path, u.line, u.rule
            ));
        }
        out.push_str(&format!(
            "deep analysis: {} finding(s), {} lint finding(s), {} unused suppression(s), \
             {} suppressed — {} file(s), {} function(s), {} call edge(s)\n",
            self.findings.len(),
            self.lint.len(),
            self.unused_suppressions.len(),
            self.suppressed,
            self.files_scanned,
            self.functions,
            self.edges,
        ));
        out
    }

    fn render_markdown(&self) -> String {
        let mut out = String::from("# Deep analysis\n\n");
        out.push_str(&format!(
            "- **{}** pass finding(s), **{}** lint finding(s), **{}** unused suppression(s)\n",
            self.findings.len(),
            self.lint.len(),
            self.unused_suppressions.len()
        ));
        out.push_str(&format!(
            "- {} suppressed · {} files · {} functions · {} call edges\n",
            self.suppressed, self.files_scanned, self.functions, self.edges
        ));
        if !self.findings.is_empty() {
            out.push_str("\n## Pass findings\n\n| location | pass | function | finding |\n|---|---|---|---|\n");
            for f in &self.findings {
                out.push_str(&format!(
                    "| {}:{} | {} | {} | {} |\n",
                    f.path, f.line, f.pass, f.function, f.message
                ));
            }
        }
        if !self.lint.is_empty() {
            out.push_str("\n## Lint findings\n\n| location | rule | finding |\n|---|---|---|\n");
            for d in &self.lint {
                out.push_str(&format!("| {}:{} | {} | {} |\n", d.path, d.line, d.rule, d.message));
            }
        }
        if !self.unused_suppressions.is_empty() {
            out.push_str("\n## Unused suppressions\n\n| location | names |\n|---|---|\n");
            for u in &self.unused_suppressions {
                out.push_str(&format!("| {}:{} | {} |\n", u.path, u.line, u.rule));
            }
        }
        out
    }
}

/// A deep run: the report plus the DOT export of the analyzed subgraph.
#[derive(Debug)]
pub struct DeepAnalysis {
    /// The findings report.
    pub report: DeepReport,
    /// Graphviz DOT of every function reached by any reachability pass.
    pub dot: String,
}

/// Path components excluded from the program model (the lint rules still
/// scan them): test code is not on any hot path by construction, and the
/// adversarial fixtures under `tests/fixtures/analyze/` define decoy
/// hot-path symbols on purpose.
const MODEL_EXCLUDED_COMPONENTS: &[&str] = &["tests", "benches", "examples", "fixtures"];

fn in_model_scope(rel: &str) -> bool {
    !rel.split('/').any(|part| MODEL_EXCLUDED_COMPONENTS.contains(&part))
}

/// Run the deep analysis over a workspace tree: build the program model,
/// run every pass and every lint rule, apply and audit suppressions.
pub fn deep_tree(root: &Path) -> io::Result<DeepAnalysis> {
    let mut rel_paths = Vec::new();
    collect_files(root, root, &mut rel_paths)?;
    rel_paths.sort();

    let mut scanned: Vec<(String, String, Option<Lexed>)> = Vec::new();
    let mut model_files: Vec<ModelFile> = Vec::new();
    for rel in &rel_paths {
        let source = fs::read_to_string(root.join(rel))?;
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        let lexed = rel_str.ends_with(".rs").then(|| lex(&source));
        if let Some(lexed) = &lexed {
            if in_model_scope(&rel_str) {
                let parsed = parse_file(lexed);
                model_files.push(ModelFile { path: rel_str.clone(), lexed: lex(&source), parsed });
            }
        }
        scanned.push((rel_str, source, lexed));
    }
    let model = Model::build(model_files);
    let suppressions = Suppressions::load(&root.join(SUPPRESSION_FILE))?;
    let mut entry_used = vec![false; suppressions.entries.len()];

    let mut report = DeepReport {
        files_scanned: scanned.len(),
        functions: model.fns.len(),
        edges: model.edge_count(),
        ..DeepReport::default()
    };

    // Raw findings per path, as (rule-or-pass id, line): the audit needs
    // pre-suppression knowledge of what fired where.
    let mut raw: BTreeMap<String, Vec<(String, u32)>> = BTreeMap::new();
    let lexed_by_path: BTreeMap<&str, &Lexed> =
        model.files.iter().map(|f| (f.path.as_str(), &f.lexed)).collect();

    let mut merged_walk: Walk = BTreeMap::new();
    for pass in all_passes() {
        let prune = suppressions.prune_ids(&model, pass.id());
        let outcome = pass.run(&model, &prune);
        for (&id, &parent) in &outcome.walk {
            merged_walk.entry(id).or_insert(parent);
        }
        // A subtree entry earns its keep by being reached at all.
        for (ei, entry) in suppressions.entries.iter().enumerate() {
            if entry.subtree
                && entry.pass == pass.id()
                && outcome.walk.keys().any(|&id| {
                    model.fns[id].qual_name() == entry.function
                        && model.path_of(id) == entry.path
                })
            {
                entry_used[ei] = true;
            }
        }
        for finding in outcome.findings {
            raw.entry(finding.path.clone())
                .or_default()
                .push((finding.pass.clone(), finding.line));
            let inline = lexed_by_path
                .get(finding.path.as_str())
                .map(|l| l.allowed(finding.line, &finding.pass))
                .unwrap_or(false);
            if inline {
                report.suppressed += 1;
            } else if let Some(ei) = suppressions.matching(&finding) {
                entry_used[ei] = true;
                report.suppressed += 1;
            } else {
                report.findings.push(finding);
            }
        }
    }

    // The lint rules, over the full tree (deep subsumes lint).
    let rules = all_rules();
    for (rel, source, lexed) in &scanned {
        let ctx = FileCtx { rel_path: rel, source, lexed: lexed.as_ref() };
        for rule in &rules {
            if !rule.applies_to(rel) {
                continue;
            }
            for finding in rule.check(&ctx) {
                raw.entry(rel.clone()).or_default().push((rule.id().to_owned(), finding.line));
                let allowed = lexed
                    .as_ref()
                    .map(|l| l.allowed(finding.line, rule.id()))
                    .unwrap_or(false);
                if allowed {
                    report.suppressed += 1;
                } else {
                    report.lint.push(finding);
                }
            }
        }
    }

    // Unused-suppression audit: inline allow sites…
    for (rel, _, lexed) in &scanned {
        let Some(lexed) = lexed else { continue };
        let fired = raw.get(rel).cloned().unwrap_or_default();
        for (site_line, names) in &lexed.allow_sites {
            for name in names {
                let used = fired.iter().any(|(id, line)| {
                    (name == "all" || id == name)
                        && (*line == *site_line || *line == *site_line + 1)
                });
                if !used {
                    report.unused_suppressions.push(UnusedSuppression {
                        path: rel.clone(),
                        line: *site_line,
                        rule: name.clone(),
                    });
                }
            }
        }
    }
    // …and suppression-file entries.
    for (ei, entry) in suppressions.entries.iter().enumerate() {
        if !entry_used[ei] {
            report.unused_suppressions.push(UnusedSuppression {
                path: SUPPRESSION_FILE.to_owned(),
                line: entry.line,
                rule: format!("{} {}", entry.pass, entry.function),
            });
        }
    }

    report.findings.sort_by(|a, b| {
        (&a.path, a.line, &a.pass, &a.message).cmp(&(&b.path, b.line, &b.pass, &b.message))
    });
    report.lint.sort_by(|a, b| (&a.path, a.line, &a.rule).cmp(&(&b.path, b.line, &b.rule)));
    report.unused_suppressions.sort_by(|a, b| {
        (&a.path, a.line, &a.rule).cmp(&(&b.path, b.line, &b.rule))
    });

    let dot = model.to_dot(&merged_walk);
    Ok(DeepAnalysis { report, dot })
}

// ---------------------------------------------------------------------------
// Shared token-scanning helpers for the passes.
// ---------------------------------------------------------------------------

/// Index of the token after the group opened at `open` (which must hold
/// `(`, `[`, or `{`), or `toks.len()` when unbalanced.
pub(crate) fn skip_group(toks: &[Token], open: usize) -> usize {
    let (open_text, close_text) = match toks.get(open).map(|t| t.text.as_str()) {
        Some("(") => ("(", ")"),
        Some("[") => ("[", "]"),
        Some("{") => ("{", "}"),
        _ => return open + 1,
    };
    let mut depth = 0usize;
    let mut k = open;
    while k < toks.len() {
        let t = toks[k].text.as_str();
        if t == open_text {
            depth += 1;
        } else if t == close_text {
            depth -= 1;
            if depth == 0 {
                return k + 1;
            }
        }
        k += 1;
    }
    toks.len()
}

/// Number of top-level commas inside the group opened at `open`.
pub(crate) fn top_level_commas(toks: &[Token], open: usize) -> usize {
    let end = skip_group(toks, open);
    let mut depth = 0usize;
    let mut commas = 0;
    for tok in &toks[open..end.min(toks.len())] {
        match tok.text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => depth = depth.saturating_sub(1),
            "," if depth == 1 => commas += 1,
            _ => {}
        }
    }
    commas
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suppression_file_parses_and_rejects_missing_justification() {
        let text = "# comment\n\nhot-path-no-alloc crates/core/src/hypervisor.rs Hypervisor::admit subtree -- per-app admission\nlock-discipline crates/cluster/src/pool.rs run_indexed -- bootstrap only\n";
        let sup = Suppressions::parse(text).unwrap();
        assert_eq!(sup.entries.len(), 2);
        assert!(sup.entries[0].subtree);
        assert!(!sup.entries[1].subtree);
        assert_eq!(sup.entries[0].line, 3);
        assert_eq!(sup.entries[1].function, "run_indexed");

        assert!(Suppressions::parse("hot-path-no-alloc a.rs f\n").is_err());
        assert!(Suppressions::parse("hot-path-no-alloc a.rs f -- \n").is_err());
        assert!(Suppressions::parse("too few -- why\n").is_err());
    }

    #[test]
    fn comma_counting_sees_only_the_top_level() {
        let lexed = crate::lex::lex("q.push(done_at, HvEvent::ItemDone(app, item));");
        let open = lexed.tokens.iter().position(|t| t.text == "(").unwrap();
        assert_eq!(top_level_commas(&lexed.tokens, open), 1);
        let lexed = crate::lex::lex("buf.push((micros, seq, event));");
        let open = lexed.tokens.iter().position(|t| t.text == "(").unwrap();
        assert_eq!(top_level_commas(&lexed.tokens, open), 0);
    }
}
