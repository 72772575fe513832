//! Dynamic schedule-invariant verification.
//!
//! Nimblock's correctness claims are invariants over the schedule the
//! hypervisor actually produced: the configuration port serializes partial
//! reconfigurations (paper §2.1), a slot never runs two things at once,
//! batch-preemption fires only at batch boundaries and evicts the
//! topologically-latest task first (§3.2, Algorithm 2), task-graph
//! dependencies are respected even under cross-batch pipelining (§3.1), and
//! every admitted batch item is processed exactly once. This module checks
//! all of them against a recorded [`Trace`] and reports *every* violation as
//! structured data — unlike the original `Trace::validate`, which stopped at
//! the first problem with a bare `String`.
//!
//! The checks are deliberately trace-only: they re-derive legality from the
//! event stream alone (plus the benchmark catalog for task graphs), so the
//! verifier can audit traces produced by this simulator, deserialized from
//! disk, or written by hand as adversarial fixtures.
//!
//! Entry points:
//!
//! * [`verify_trace`] — the full rule set, configured by [`InvariantConfig`].
//! * [`verify_hardware`] — only the physical-resource rules (CAP
//!   exclusivity, slot double-booking); this is what the legacy
//!   [`Trace::validate`] shim delegates to.

use std::collections::{BTreeSet, HashMap};
use std::fmt;

use nimblock_app::{benchmarks, AppSpec, Priority, TaskId};
use nimblock_fpga::SlotId;
use nimblock_ser::{impl_json_struct, FromJson, Json, JsonError, ToJson};
use nimblock_sim::{SimDuration, SimTime};

use crate::dense::DenseIds;
use crate::trace::{Trace, TraceEvent};
use crate::AppId;

/// One checkable invariant of a Nimblock schedule.
///
/// Each rule has a stable kebab-case [`id`](InvariantRule::id) used in JSON
/// output and fixture assertions, and a paper reference recording which
/// claim it encodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum InvariantRule {
    /// At most one partial reconfiguration streams through the
    /// configuration access port at any time (paper §2.1).
    CapExclusive,
    /// Every reconfiguration occupies the port for exactly the device's
    /// serialization latency (paper §2.1: bitstream size over CAP
    /// bandwidth). Only checked when [`InvariantConfig::reconfig_latency`]
    /// is set.
    CapLatency,
    /// A slot is never double-booked: its reconfiguration and execution
    /// spans do not overlap (paper §2.2).
    SlotOverlap,
    /// A task occupies at most one slot at a time (paper §2.2).
    TaskSingleSlot,
    /// No batch item starts before its task-graph predecessors have
    /// produced the inputs it consumes — item `k` of a task needs item `k`
    /// of every predecessor under pipelining (paper §3.1).
    DagOrder,
    /// Batch-preemption fires only at batch boundaries (the victim has no
    /// item in flight and is not mid-reconfiguration) unless the overlay is
    /// checkpoint-capable (paper §3.2, §7).
    PreemptBoundary,
    /// The preemption victim is the topologically-latest placed task of its
    /// application (paper Algorithm 2).
    PreemptTopoLatest,
    /// A high-priority application holding its guaranteed single slot is
    /// never evicted for a lower-priority one (paper §4.1: high-priority
    /// applications are always candidates and the allocator grants every
    /// candidate one slot when slots suffice).
    PreemptPriority,
    /// Work-token conservation: every admitted batch item of every task is
    /// processed exactly once — none leaked, none duplicated (paper §3.1's
    /// PREMA-style accounting).
    TokenConservation,
    /// An application never occupies more slots than it has unfinished
    /// tasks — the ceiling the goal-number allocator enforces (paper §4.2).
    GoalCeiling,
    /// Lifecycle sanity: every event for an application falls between its
    /// arrival and retirement, and every admitted application retires.
    Lifecycle,
}

impl InvariantRule {
    /// Every rule, in checking order.
    pub const ALL: [InvariantRule; 11] = [
        InvariantRule::CapExclusive,
        InvariantRule::CapLatency,
        InvariantRule::SlotOverlap,
        InvariantRule::TaskSingleSlot,
        InvariantRule::DagOrder,
        InvariantRule::PreemptBoundary,
        InvariantRule::PreemptTopoLatest,
        InvariantRule::PreemptPriority,
        InvariantRule::TokenConservation,
        InvariantRule::GoalCeiling,
        InvariantRule::Lifecycle,
    ];

    /// The stable machine-readable rule identifier.
    pub const fn id(self) -> &'static str {
        match self {
            InvariantRule::CapExclusive => "cap-exclusive",
            InvariantRule::CapLatency => "cap-latency",
            InvariantRule::SlotOverlap => "slot-overlap",
            InvariantRule::TaskSingleSlot => "task-single-slot",
            InvariantRule::DagOrder => "dag-order",
            InvariantRule::PreemptBoundary => "preempt-boundary",
            InvariantRule::PreemptTopoLatest => "preempt-topo-latest",
            InvariantRule::PreemptPriority => "preempt-priority",
            InvariantRule::TokenConservation => "token-conservation",
            InvariantRule::GoalCeiling => "goal-ceiling",
            InvariantRule::Lifecycle => "lifecycle",
        }
    }

    /// The paper section whose claim this rule encodes.
    pub const fn paper_section(self) -> &'static str {
        match self {
            InvariantRule::CapExclusive | InvariantRule::CapLatency => "§2.1",
            InvariantRule::SlotOverlap | InvariantRule::TaskSingleSlot => "§2.2",
            InvariantRule::DagOrder | InvariantRule::TokenConservation => "§3.1",
            InvariantRule::PreemptBoundary => "§3.2",
            InvariantRule::PreemptTopoLatest => "Algorithm 2",
            InvariantRule::PreemptPriority => "§4.1",
            InvariantRule::GoalCeiling => "§4.2",
            InvariantRule::Lifecycle => "§2.2",
        }
    }

    /// Resolves a rule from its [`id`](InvariantRule::id).
    pub fn from_id(id: &str) -> Option<InvariantRule> {
        InvariantRule::ALL.into_iter().find(|rule| rule.id() == id)
    }
}

impl fmt::Display for InvariantRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

impl ToJson for InvariantRule {
    fn to_json(&self) -> Json {
        Json::Str(self.id().to_owned())
    }
}

impl FromJson for InvariantRule {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let id = v
            .as_str()
            .ok_or_else(|| JsonError::expected("invariant rule id string", v))?;
        InvariantRule::from_id(id)
            .ok_or_else(|| JsonError::new(format!("unknown invariant rule `{id}`")))
    }
}

/// One invariant violation found in a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The violated rule.
    pub rule: InvariantRule,
    /// When the violation manifested.
    pub at: SimTime,
    /// The slot involved, when slot-specific.
    pub slot: Option<SlotId>,
    /// The application involved, when app-specific.
    pub app: Option<AppId>,
    /// Human-readable description of what went wrong.
    pub message: String,
}

impl_json_struct!(Violation { rule, at, slot, app, message });

impl Violation {
    fn new(rule: InvariantRule, at: SimTime, message: String) -> Self {
        Violation { rule, at, slot: None, app: None, message }
    }

    fn on_slot(mut self, slot: SlotId) -> Self {
        self.slot = Some(slot);
        self
    }

    fn for_app(mut self, app: AppId) -> Self {
        self.app = Some(app);
        self
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] at {}: {}", self.rule, self.at, self.message)
    }
}

/// Configuration of [`verify_trace`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InvariantConfig {
    /// Expected configuration-port occupancy per reconfiguration; when set,
    /// every traced reconfiguration span must last exactly this long
    /// ([`InvariantRule::CapLatency`]). Leave `None` for devices with
    /// SD-card load costs or heterogeneous bitstream sizes.
    pub reconfig_latency: Option<SimDuration>,
    /// Accept mid-item preemption (a checkpoint-capable overlay, the
    /// paper's §7 future work). Off for the evaluated batch-boundary-only
    /// system.
    pub allow_mid_item_preemption: bool,
    /// Also check the Nimblock-policy rules ([`InvariantRule::GoalCeiling`],
    /// [`InvariantRule::PreemptTopoLatest`],
    /// [`InvariantRule::PreemptPriority`]). The shipped baseline policies
    /// never preempt and respect the ceiling structurally, so this is safe
    /// to leave on for all of them; disable it for hand-written policies
    /// with different preemption contracts.
    pub nimblock_policy: bool,
}

impl Default for InvariantConfig {
    fn default() -> Self {
        InvariantConfig {
            reconfig_latency: None,
            allow_mid_item_preemption: false,
            nimblock_policy: true,
        }
    }
}

impl InvariantConfig {
    /// Only the mechanism-level rules: hardware legality, DAG order, token
    /// conservation, lifecycle — no policy-specific checks.
    pub fn mechanism_only() -> Self {
        InvariantConfig { nimblock_policy: false, ..InvariantConfig::default() }
    }

    /// Sets the expected per-reconfiguration port occupancy.
    pub fn with_reconfig_latency(mut self, latency: SimDuration) -> Self {
        self.reconfig_latency = Some(latency);
        self
    }

    /// Accepts mid-item preemption (checkpoint-capable overlay).
    pub fn with_mid_item_preemption(mut self) -> Self {
        self.allow_mid_item_preemption = true;
        self
    }
}

/// The outcome of verifying one trace: all violations, plus how much was
/// checked (so "clean" is distinguishable from "empty").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvariantReport {
    /// Every violation found, in time order.
    pub violations: Vec<Violation>,
    /// How many trace events were examined.
    pub events_checked: usize,
    /// How many applications the trace admitted.
    pub apps_seen: usize,
}

impl_json_struct!(InvariantReport { violations, events_checked, apps_seen });

impl InvariantReport {
    /// Returns `true` when no invariant was violated.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Returns the violations of one rule.
    pub fn of_rule(&self, rule: InvariantRule) -> Vec<&Violation> {
        self.violations.iter().filter(|v| v.rule == rule).collect()
    }

    /// Returns the distinct rules that fired.
    pub fn rules_fired(&self) -> BTreeSet<InvariantRule> {
        self.violations.iter().map(|v| v.rule).collect()
    }
}

impl fmt::Display for InvariantReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            return write!(
                f,
                "invariants clean: {} events, {} applications, 0 violations",
                self.events_checked, self.apps_seen
            );
        }
        writeln!(
            f,
            "{} invariant violation(s) in {} events:",
            self.violations.len(),
            self.events_checked
        )?;
        for violation in &self.violations {
            writeln!(f, "  {violation}")?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Pass A: indexing the trace.
// ---------------------------------------------------------------------------

/// Marks the absent slot or pair of an arrival or retirement.
const NONE: usize = usize::MAX;

/// The raw application of an event, and its slot and task when it has
/// them.
fn ids(event: &TraceEvent) -> (AppId, Option<(SlotId, TaskId)>) {
    match event {
        TraceEvent::Arrival { app, .. } | TraceEvent::Retire { app, .. } => (*app, None),
        TraceEvent::Reconfig { slot, app, task, .. }
        | TraceEvent::Item { slot, app, task, .. }
        | TraceEvent::Preempt { slot, app, task, .. } => (*app, Some((*slot, *task))),
    }
}

/// The dense ids of one trace event.
#[derive(Clone, Copy)]
struct Row {
    /// Dense application.
    app: usize,
    /// Dense slot, [`NONE`] for arrivals and retirements.
    slot: usize,
    /// Dense `(application, task)` pair, [`NONE`] for arrivals and
    /// retirements.
    pair: usize,
}

/// What the index knows about one preemption.
#[derive(Clone, Copy, Default)]
struct PreemptMark {
    /// It interrupted an in-flight item.
    mid_item: bool,
    /// It interrupted an in-flight reconfiguration.
    during_reconfig: bool,
    /// The dense application its slot was next reconfigured for (the
    /// preemptor).
    preemptor: Option<usize>,
}

/// The trace, indexed once: dense ids for everything it names, the spans
/// preemptions cut short, and each pair's completions in one flat table.
struct TraceIndex {
    /// Item event index → the preemption instant that aborted it.
    ///
    /// The hypervisor traces each item's *scheduled* completion at launch
    /// time; a fine-grained preemption aborts the in-flight item, so its
    /// traced span must be truncated at the preemption instant before any
    /// span math (otherwise the abandoned tail would double-book the slot
    /// against the reconfiguration that evicted it). Aborted items do not
    /// count as completions — the resumed launch completes the item.
    truncated: HashMap<usize, SimTime>,
    /// One per preemption, in trace order.
    preempts: Vec<PreemptMark>,
    apps: DenseIds,
    slots: DenseIds,
    /// Per dense application: its tasks, numbered densely…
    app_tasks: Vec<DenseIds>,
    /// …and the dense pair of each.
    app_pairs: Vec<Vec<usize>>,
    /// Per pair: its task.
    pair_task: Vec<TaskId>,
    /// Completed (untruncated) items, `(until, item)`, grouped by pair and
    /// sorted within each group: pair `p` owns
    /// `completions[completion_start[p]..completion_start[p + 1]]`.
    completions: Vec<(SimTime, u32)>,
    completion_start: Vec<usize>,
    /// Reconfiguration and item spans, counted per dense slot: slot `s`
    /// has `slot_start[s + 1] - slot_start[s]` of them.
    slot_start: Vec<usize>,
}

/// `counts` as group offsets: `[0, c0, c0 + c1, …]`.
fn offsets(counts: &[usize]) -> Vec<usize> {
    let mut start = Vec::with_capacity(counts.len() + 1);
    start.push(0);
    for &count in counts {
        start.push(start[start.len() - 1] + count);
    }
    start
}

impl TraceIndex {
    fn build(events: &[TraceEvent]) -> TraceIndex {
        let mut index = TraceIndex {
            truncated: HashMap::new(),
            preempts: Vec::new(),
            apps: DenseIds::default(),
            slots: DenseIds::default(),
            app_tasks: Vec::new(),
            app_pairs: Vec::new(),
            pair_task: Vec::new(),
            completions: Vec::new(),
            completion_start: Vec::new(),
            slot_start: Vec::new(),
        };
        // Per dense slot: the event index of its latest item and
        // reconfiguration, and its span count; per pair, its completions.
        let mut inflight_item: Vec<Option<usize>> = Vec::new();
        let mut inflight_reconfig: Vec<Option<usize>> = Vec::new();
        let mut slot_spans: Vec<usize> = Vec::new();
        let mut pair_items: Vec<usize> = Vec::new();
        for (i, event) in events.iter().enumerate() {
            let (app, placed) = ids(event);
            let (app, new_app) = index.apps.intern(app.raw());
            if new_app {
                index.app_tasks.push(DenseIds::default());
                index.app_pairs.push(Vec::new());
            }
            let Some((slot, task)) = placed else { continue };
            let (slot, new_slot) = index.slots.intern(slot.index() as u64);
            if new_slot {
                inflight_item.push(None);
                inflight_reconfig.push(None);
                slot_spans.push(0);
            }
            let (local, new_task) = index.app_tasks[app].intern(task.index() as u64);
            if new_task {
                index.app_pairs[app].push(index.pair_task.len());
                index.pair_task.push(task);
                pair_items.push(0);
            }
            let pair = index.app_pairs[app][local];
            match event {
                TraceEvent::Item { .. } => {
                    inflight_item[slot] = Some(i);
                    slot_spans[slot] += 1;
                    pair_items[pair] += 1;
                }
                TraceEvent::Reconfig { .. } => {
                    inflight_reconfig[slot] = Some(i);
                    slot_spans[slot] += 1;
                }
                TraceEvent::Preempt { app, task, at, .. } => {
                    let interrupts = |span: Option<usize>| match span.map(|s| &events[s]) {
                        Some(
                            TraceEvent::Item { app: a, task: t, at: started, until, .. }
                            | TraceEvent::Reconfig { app: a, task: t, at: started, until, .. },
                        ) => a == app && t == task && started <= at && at < until,
                        _ => false,
                    };
                    let mark = PreemptMark {
                        mid_item: interrupts(inflight_item[slot]),
                        during_reconfig: interrupts(inflight_reconfig[slot]),
                        preemptor: None,
                    };
                    if let (true, Some(item)) = (mark.mid_item, inflight_item[slot]) {
                        // The aborted item is of the preempted task: this
                        // pair loses a completion.
                        if index.truncated.insert(item, *at).is_none() {
                            pair_items[pair] -= 1;
                        }
                    }
                    index.preempts.push(mark);
                }
                TraceEvent::Arrival { .. } | TraceEvent::Retire { .. } => {}
            }
        }
        index.slot_start = offsets(&slot_spans);
        index.completion_start = offsets(&pair_items);
        // A preemption's preemptor is the application its slot is next
        // reconfigured for: one backward pass.
        let mut next_reconfig: Vec<Option<usize>> = vec![None; index.slots.count()];
        let mut preempts = std::mem::take(&mut index.preempts);
        let mut marks = preempts.iter_mut().rev();
        for event in events.iter().rev() {
            match event {
                TraceEvent::Reconfig { slot, app, .. } => {
                    next_reconfig[index.slot_of(*slot)] = index.apps.lookup(app.raw());
                }
                TraceEvent::Preempt { slot, .. } => {
                    if let Some(mark) = marks.next() {
                        mark.preemptor = next_reconfig[index.slot_of(*slot)];
                    }
                }
                _ => {}
            }
        }
        index.preempts = preempts;
        index.collect_completions(events);
        index
    }

    fn collect_completions(&mut self, events: &[TraceEvent]) {
        let mut fill = self.completion_start.clone();
        let mut completions = vec![(SimTime::ZERO, 0u32); fill[fill.len() - 1]];
        for (i, event) in events.iter().enumerate() {
            if let TraceEvent::Item { app, task, item, until, .. } = event {
                if !self.truncated.contains_key(&i) {
                    let pair = self.pair_of(*app, *task);
                    completions[fill[pair]] = (*until, *item);
                    fill[pair] += 1;
                }
            }
        }
        for pair in self.completion_start.windows(2) {
            completions[pair[0]..pair[1]].sort_unstable();
        }
        self.completions = completions;
    }

    /// The dense ids of an event of the indexed trace.
    fn keys(&self, event: &TraceEvent) -> Row {
        let (app, placed) = ids(event);
        let app = self.apps.lookup(app.raw()).unwrap_or(NONE);
        match placed {
            None => Row { app, slot: NONE, pair: NONE },
            Some((slot, task)) => Row {
                app,
                slot: self.slot_of(slot),
                pair: self.pair(app, task).unwrap_or(NONE),
            },
        }
    }

    /// The dense id of a slot of the indexed trace.
    fn slot_of(&self, slot: SlotId) -> usize {
        self.slots.lookup(slot.index() as u64).unwrap_or(NONE)
    }

    /// The dense pair of a placed event of the indexed trace.
    fn pair_of(&self, app: AppId, task: TaskId) -> usize {
        self.apps.lookup(app.raw()).and_then(|app| self.pair(app, task)).unwrap_or(NONE)
    }

    /// The dense pair of `(app, task)`, if the trace names it.
    fn pair(&self, app: usize, task: TaskId) -> Option<usize> {
        let local = self.app_tasks[app].lookup(task.index() as u64)?;
        Some(self.app_pairs[app][local])
    }

    /// Completed items of `pair`, sorted by completion time.
    fn completed(&self, pair: usize) -> &[(SimTime, u32)] {
        &self.completions[self.completion_start[pair]..self.completion_start[pair + 1]]
    }

    /// How many items of `(app, task)` had completed by time `t`
    /// (inclusive).
    fn completed_before(&self, app: usize, task: TaskId, t: SimTime) -> u32 {
        let done = self
            .pair(app, task)
            .map_or(0, |pair| self.completed(pair).partition_point(|&(until, _)| until <= t));
        u32::try_from(done).unwrap_or(u32::MAX)
    }

    fn app_id(&self, app: usize) -> AppId {
        AppId::new(self.apps.raw(app))
    }

    fn slot_id(&self, slot: usize) -> SlotId {
        // Dense slots are numbered from `SlotId`s, which are `u32`.
        SlotId::new(u32::try_from(self.slots.raw(slot)).unwrap_or(u32::MAX))
    }
}

// ---------------------------------------------------------------------------
// Hardware rules (shared with the legacy `Trace::validate` shim).
// ---------------------------------------------------------------------------

fn hardware_violations(events: &[TraceEvent], index: &TraceIndex) -> Vec<Violation> {
    let mut violations = Vec::new();
    // Configuration-port exclusivity: reconfiguration spans are disjoint.
    let mut cap: Vec<(SimTime, SimTime, SlotId)> = events
        .iter()
        .filter_map(|event| match event {
            TraceEvent::Reconfig { slot, at, until, .. } => Some((*at, *until, *slot)),
            _ => None,
        })
        .collect();
    cap.sort();
    for pair in cap.windows(2) {
        if pair[1].0 < pair[0].1 {
            violations.push(
                Violation::new(
                    InvariantRule::CapExclusive,
                    pair[1].0,
                    format!(
                        "configuration port overlap: [{}, {}) and [{}, {})",
                        pair[0].0, pair[0].1, pair[1].0, pair[1].1
                    ),
                )
                .on_slot(pair[1].2),
            );
        }
    }
    // Slot exclusivity: per slot, reconfiguration and (truncated) item
    // spans are disjoint. Group the spans by slot, then check the slots the
    // trace names in slot order.
    let start = &index.slot_start;
    let mut fill = start.clone();
    let mut spans = vec![(SimTime::ZERO, SimTime::ZERO); start[start.len() - 1]];
    for (i, event) in events.iter().enumerate() {
        let (slot, at, until) = match event {
            TraceEvent::Reconfig { slot, at, until, .. } => (slot, at, until),
            TraceEvent::Item { slot, at, until, .. } => {
                (slot, at, index.truncated.get(&i).unwrap_or(until))
            }
            _ => continue,
        };
        let slot = index.slot_of(*slot);
        spans[fill[slot]] = (*at, *until);
        fill[slot] += 1;
    }
    let mut order: Vec<usize> = (0..index.slots.count()).collect();
    order.sort_unstable_by_key(|&s| index.slots.raw(s));
    for s in order {
        let slot = index.slot_id(s);
        let group = &mut spans[start[s]..start[s + 1]];
        group.sort_unstable();
        for pair in group.windows(2) {
            if pair[1].0 < pair[0].1 {
                violations.push(
                    Violation::new(
                        InvariantRule::SlotOverlap,
                        pair[1].0,
                        format!(
                            "{slot} overlap: [{}, {}) and [{}, {})",
                            pair[0].0, pair[0].1, pair[1].0, pair[1].1
                        ),
                    )
                    .on_slot(slot),
                );
            }
        }
    }
    violations
}

/// Checks only the physical-resource invariants: configuration-port
/// exclusivity and slot double-booking. Fine-preemption-aware: an item span
/// aborted by a traced mid-item preemption is truncated at the preemption
/// instant before overlap checking.
///
/// This is the rule subset the legacy [`Trace::validate`] delegates to; use
/// [`verify_trace`] for the full invariant set.
pub fn verify_hardware(trace: &Trace) -> Vec<Violation> {
    let index = TraceIndex::build(trace.events());
    hardware_violations(trace.events(), &index)
}

// ---------------------------------------------------------------------------
// Pass B: event-ordered replay for the stateful rules.
// ---------------------------------------------------------------------------

/// Token-conservation violations reported item by item for one
/// `(application, task)` at retirement; any further items not consumed
/// exactly once are counted in one summary violation. Above the paper's
/// largest batch (30), so every hypervisor trace reports every item.
const ITEM_VIOLATIONS_PER_TASK: u32 = 64;

/// One benchmark of the catalog, with its tasks' topological positions.
struct Benchmark {
    spec: AppSpec,
    /// Task index → position in topological order.
    topo_pos: Vec<usize>,
}

impl Benchmark {
    fn catalog() -> Vec<Benchmark> {
        benchmarks::all()
            .into_iter()
            .map(|spec| {
                let graph = spec.graph();
                let mut topo_pos = vec![0; graph.task_count()];
                for (pos, &task) in graph.topological_order().iter().enumerate() {
                    topo_pos[task.index()] = pos;
                }
                Benchmark { spec, topo_pos }
            })
            .collect()
    }
}

struct AppState<'a> {
    name: &'a str,
    batch: u32,
    priority: Priority,
    arrival: SimTime,
    retired: Option<SimTime>,
    /// Catalog entry, when the traced name resolves in the catalog;
    /// graph-dependent rules are skipped otherwise.
    spec: Option<usize>,
    /// Its graph's tasks' batch-completion instants, sorted: a range of
    /// [`Replay::done_by`] (goal-ceiling checks only).
    goal_done: std::ops::Range<usize>,
}

/// A slot's current tenant.
#[derive(Clone, Copy)]
struct Binding {
    app: usize,
    pair: usize,
    /// Position of the slot in its application's [`Replay::held`] list.
    position: usize,
}

struct Replay<'a> {
    config: &'a InvariantConfig,
    index: &'a TraceIndex,
    catalog: Vec<Benchmark>,
    slot_count: usize,
    /// Per dense application, once arrived.
    apps: Vec<Option<AppState<'a>>>,
    /// Per pair, once its application arrived: when the application's
    /// whole batch of it had completed (the instant it releases its slot).
    done_at: Vec<Option<SimTime>>,
    /// Flat storage of every [`AppState::goal_done`] range.
    done_by: Vec<SimTime>,
    /// Per pair: observed in a reconfiguration or item after its
    /// application arrived (the task universe for token conservation when
    /// the graph is unknown).
    seen: Vec<bool>,
    /// Per dense slot: its tenant. A bound task releases its slot the
    /// instant its whole batch is done; the table is cleaned lazily, so
    /// liveness is time-qualified.
    bound: Vec<Option<Binding>>,
    /// Per dense application: the dense slots bound to it, unordered.
    held: Vec<Vec<usize>>,
    /// Reused buffer for token counting.
    items: Vec<u32>,
}

impl<'a> Replay<'a> {
    fn new(trace: &Trace, config: &'a InvariantConfig, index: &'a TraceIndex) -> Self {
        let apps = index.apps.count();
        Replay {
            config,
            index,
            catalog: Benchmark::catalog(),
            slot_count: trace.slots(),
            apps: (0..apps).map(|_| None).collect(),
            done_at: vec![None; index.pair_task.len()],
            done_by: Vec::new(),
            seen: vec![false; index.pair_task.len()],
            bound: vec![None; index.slots.count()],
            held: vec![Vec::new(); apps],
            items: Vec::new(),
        }
    }

    /// Whether the task of `pair` had released its slot by time `t`.
    fn released(&self, pair: usize, t: SimTime) -> bool {
        self.done_at[pair].is_some_and(|done| done <= t)
    }

    /// Slots `app` occupies at time `t` (live bindings only).
    fn occupancy(&self, app: usize, t: SimTime) -> usize {
        self.held[app]
            .iter()
            .filter(|&&slot| self.bound[slot].is_some_and(|b| !self.released(b.pair, t)))
            .count()
    }

    fn bind(&mut self, slot: usize, app: usize, pair: usize) {
        self.unbind(slot);
        let position = self.held[app].len();
        self.held[app].push(slot);
        self.bound[slot] = Some(Binding { app, pair, position });
    }

    fn unbind(&mut self, slot: usize) {
        let Some(binding) = self.bound[slot].take() else { return };
        let held = &mut self.held[binding.app];
        held.swap_remove(binding.position);
        if let Some(&moved) = held.get(binding.position) {
            if let Some(moved) = self.bound[moved].as_mut() {
                moved.position = binding.position;
            }
        }
    }

    /// Position of `task` in the topological order of `app`'s graph.
    fn topo_pos(&self, app: usize, task: TaskId) -> Option<usize> {
        let spec = self.apps[app].as_ref()?.spec?;
        self.catalog[spec].topo_pos.get(task.index()).copied()
    }

    fn check_lifecycle(
        &self,
        app: usize,
        at: SimTime,
        what: &str,
        out: &mut Vec<Violation>,
    ) -> bool {
        let id = self.index.app_id(app);
        match &self.apps[app] {
            None => {
                out.push(
                    Violation::new(
                        InvariantRule::Lifecycle,
                        at,
                        format!("{what} for {id}, which never arrived"),
                    )
                    .for_app(id),
                );
                false
            }
            Some(state) => match state.retired {
                Some(retired) if retired < at => {
                    out.push(
                        Violation::new(
                            InvariantRule::Lifecycle,
                            at,
                            format!("{what} for {id}, which retired at {retired}"),
                        )
                        .for_app(id),
                    );
                    false
                }
                _ => true,
            },
        }
    }

    fn on_arrival(
        &mut self,
        app: usize,
        name: &'a str,
        batch: u32,
        priority: Priority,
        at: SimTime,
        out: &mut Vec<Violation>,
    ) {
        if self.apps[app].is_some() {
            let id = self.index.app_id(app);
            out.push(
                Violation::new(
                    InvariantRule::Lifecycle,
                    at,
                    format!("duplicate arrival for {id}"),
                )
                .for_app(id),
            );
            return;
        }
        // A task releases its slot at its `batch`-th completion.
        for &pair in &self.index.app_pairs[app] {
            self.done_at[pair] = match batch.checked_sub(1) {
                None => Some(SimTime::ZERO),
                Some(last) => usize::try_from(last)
                    .ok()
                    .and_then(|last| self.index.completed(pair).get(last))
                    .map(|&(until, _)| until),
            };
        }
        let spec = self.catalog.iter().position(|b| b.spec.name() == name);
        let start = self.done_by.len();
        if let (Some(spec), true) = (spec, self.config.nimblock_policy) {
            for task in self.catalog[spec].spec.graph().task_ids() {
                let done = match self.index.pair(app, task) {
                    Some(pair) => self.done_at[pair],
                    None => (batch == 0).then_some(SimTime::ZERO),
                };
                self.done_by.extend(done);
            }
            self.done_by[start..].sort_unstable();
        }
        self.apps[app] = Some(AppState {
            name,
            batch,
            priority,
            arrival: at,
            retired: None,
            spec,
            goal_done: start..self.done_by.len(),
        });
    }

    fn on_reconfig(
        &mut self,
        row: &Row,
        slot: SlotId,
        task: TaskId,
        at: SimTime,
        out: &mut Vec<Violation>,
    ) {
        let (app, id) = (row.app, self.index.app_id(row.app));
        let known = self.check_lifecycle(app, at, "reconfiguration", out);
        // The slot must be free: unoccupied, or its previous tenant
        // finished its batch, or a preemption was traced (which removed the
        // binding before this event).
        if let Some(prev) = self.bound[row.slot] {
            if !self.released(prev.pair, at) {
                let prev_app = self.index.app_id(prev.app);
                let prev_task = self.index.pair_task[prev.pair];
                out.push(
                    Violation::new(
                        InvariantRule::SlotOverlap,
                        at,
                        format!(
                            "{slot} reconfigured for {task} of {id} while {prev_task} of \
                             {prev_app} still occupies it (no preemption traced)"
                        ),
                    )
                    .on_slot(slot)
                    .for_app(id),
                );
            }
        }
        // A task holds at most one slot.
        if !self.released(row.pair, at) {
            let mut others: Vec<SlotId> = self.held[app]
                .iter()
                .filter(|&&s| {
                    s != row.slot && self.bound[s].is_some_and(|b| b.pair == row.pair)
                })
                .map(|&s| self.index.slot_id(s))
                .collect();
            others.sort_unstable();
            for other_slot in others {
                out.push(
                    Violation::new(
                        InvariantRule::TaskSingleSlot,
                        at,
                        format!(
                            "{task} of {id} reconfigured onto {slot} while still holding \
                             {other_slot}"
                        ),
                    )
                    .on_slot(slot)
                    .for_app(id),
                );
            }
        }
        self.bind(row.slot, app, row.pair);
        if self.apps[app].is_some() {
            self.seen[row.pair] = true;
        }
        // Goal-number ceiling: occupancy never exceeds unfinished tasks.
        if !known || !self.config.nimblock_policy {
            return;
        }
        let Some(state) = &self.apps[app] else { return };
        let Some(spec) = state.spec else { return };
        let task_count = self.catalog[spec].spec.graph().task_count();
        let done_tasks = self.done_by[state.goal_done.clone()].partition_point(|&d| d <= at);
        let unfinished = task_count - done_tasks;
        let occupancy = self.occupancy(app, at);
        if occupancy > unfinished {
            out.push(
                Violation::new(
                    InvariantRule::GoalCeiling,
                    at,
                    format!(
                        "{id} occupies {occupancy} slots but has only {unfinished} \
                         unfinished tasks"
                    ),
                )
                .on_slot(slot)
                .for_app(id),
            );
        }
    }

    fn on_item(
        &mut self,
        row: &Row,
        slot: SlotId,
        task: TaskId,
        item: u32,
        at: SimTime,
        out: &mut Vec<Violation>,
    ) {
        let (app, id) = (row.app, self.index.app_id(row.app));
        let known = self.check_lifecycle(app, at, "item execution", out);
        if self.bound[row.slot].map(|b| b.pair) != Some(row.pair) {
            out.push(
                Violation::new(
                    InvariantRule::Lifecycle,
                    at,
                    format!("item {item} of {task} of {id} ran on {slot}, which is not \
                             configured for it"),
                )
                .on_slot(slot)
                .for_app(id),
            );
        }
        if self.apps[app].is_some() {
            self.seen[row.pair] = true;
        }
        if !known {
            return;
        }
        let Some(state) = &self.apps[app] else { return };
        if item >= state.batch {
            out.push(
                Violation::new(
                    InvariantRule::TokenConservation,
                    at,
                    format!(
                        "{task} of {id} ran item {item}, beyond its batch of {}",
                        state.batch
                    ),
                )
                .on_slot(slot)
                .for_app(id),
            );
        }
        // DAG order: item k needs item k of every predecessor finished.
        let Some(spec) = state.spec else { return };
        let spec = &self.catalog[spec].spec;
        let graph = spec.graph();
        if task.index() >= graph.task_count() {
            out.push(
                Violation::new(
                    InvariantRule::Lifecycle,
                    at,
                    format!(
                        "item {item} of {task} of {id} names a task the {} graph does not \
                         have ({} tasks)",
                        spec.name(),
                        graph.task_count()
                    ),
                )
                .on_slot(slot)
                .for_app(id),
            );
            return;
        }
        for &pred in graph.predecessors(task) {
            let done = self.index.completed_before(app, pred, at);
            if done < item + 1 {
                out.push(
                    Violation::new(
                        InvariantRule::DagOrder,
                        at,
                        format!(
                            "item {item} of {task} of {id} started with predecessor {pred} \
                             at only {done} completed item(s) (needs {})",
                            item + 1
                        ),
                    )
                    .on_slot(slot)
                    .for_app(id),
                );
            }
        }
    }

    fn on_preempt(
        &mut self,
        row: &Row,
        mark: PreemptMark,
        slot: SlotId,
        task: TaskId,
        at: SimTime,
        out: &mut Vec<Violation>,
    ) {
        let id = self.index.app_id(row.app);
        let known = self.check_lifecycle(row.app, at, "preemption", out);
        if self.bound[row.slot].map(|b| b.pair) != Some(row.pair) {
            out.push(
                Violation::new(
                    InvariantRule::Lifecycle,
                    at,
                    format!("preemption of {task} of {id} on {slot}, which it does not hold"),
                )
                .on_slot(slot)
                .for_app(id),
            );
        }
        // Boundary-only: no item in flight (unless checkpoint-capable),
        // never mid-reconfiguration.
        if mark.mid_item && !self.config.allow_mid_item_preemption {
            out.push(
                Violation::new(
                    InvariantRule::PreemptBoundary,
                    at,
                    format!(
                        "{task} of {id} preempted mid-item on {slot} without a \
                         checkpoint-capable overlay"
                    ),
                )
                .on_slot(slot)
                .for_app(id),
            );
        }
        if mark.during_reconfig {
            out.push(
                Violation::new(
                    InvariantRule::PreemptBoundary,
                    at,
                    format!("{task} of {id} preempted while still reconfiguring on {slot}"),
                )
                .on_slot(slot)
                .for_app(id),
            );
        }
        if known && self.config.nimblock_policy {
            self.check_preempt_policy(row, mark.preemptor, slot, task, at, out);
        }
        self.unbind(row.slot);
    }

    fn check_preempt_policy(
        &self,
        row: &Row,
        preemptor: Option<usize>,
        slot: SlotId,
        task: TaskId,
        at: SimTime,
        out: &mut Vec<Violation>,
    ) {
        let (app, id) = (row.app, self.index.app_id(row.app));
        let Some(state) = &self.apps[app] else { return };
        // Topologically-latest-first (Algorithm 2): no placed task of the
        // victim application sits later in topological order. Report the
        // first such slot.
        if let Some(victim_pos) = self.topo_pos(app, task) {
            let later = self.held[app]
                .iter()
                .filter_map(|&s| Some((s, self.bound[s]?)))
                .filter(|&(s, b)| {
                    s != row.slot
                        && !self.released(b.pair, at)
                        && self
                            .topo_pos(app, self.index.pair_task[b.pair])
                            .is_some_and(|pos| pos > victim_pos)
                })
                .map(|(s, b)| (self.index.slot_id(s), self.index.pair_task[b.pair]))
                .min();
            if let Some((other_slot, bound_task)) = later {
                out.push(
                    Violation::new(
                        InvariantRule::PreemptTopoLatest,
                        at,
                        format!(
                            "preempted {task} of {id} while the topologically later \
                             {bound_task} was still placed on {other_slot}"
                        ),
                    )
                    .on_slot(slot)
                    .for_app(id),
                );
            }
        }
        // Priority ordering, conservatively: a High-priority application is
        // always a candidate (its token threshold is floored at its own
        // weight, paper §4.1), and when live applications fit the board the
        // allocator grants every candidate at least one slot — so a High
        // victim on its last slot can never be an over-consumer and must
        // not lose it to a lower-priority preemptor.
        if state.priority != Priority::High {
            return;
        }
        let Some(preemptor) = preemptor else { return };
        let preemptor_priority = match &self.apps[preemptor] {
            Some(p) => p.priority,
            None => return,
        };
        if preemptor_priority >= Priority::High {
            return;
        }
        if self.occupancy(app, at) != 1 {
            return;
        }
        let live_apps = self
            .apps
            .iter()
            .flatten()
            .filter(|a| a.arrival <= at && a.retired.is_none_or(|r| r >= at))
            .count();
        if live_apps <= self.slot_count {
            let preemptor = self.index.app_id(preemptor);
            out.push(
                Violation::new(
                    InvariantRule::PreemptPriority,
                    at,
                    format!(
                        "high-priority {id} lost its only slot ({slot}) to {}-priority \
                         {preemptor} with {live_apps} live application(s) on {} slots",
                        preemptor_priority, self.slot_count
                    ),
                )
                .on_slot(slot)
                .for_app(id),
            );
        }
    }

    fn on_retire(&mut self, app: usize, at: SimTime, out: &mut Vec<Violation>) {
        let id = self.index.app_id(app);
        let Some(state) = self.apps[app].as_mut() else {
            out.push(
                Violation::new(
                    InvariantRule::Lifecycle,
                    at,
                    format!("retirement of {id}, which never arrived"),
                )
                .for_app(id),
            );
            return;
        };
        if let Some(earlier) = state.retired {
            out.push(
                Violation::new(
                    InvariantRule::Lifecycle,
                    at,
                    format!("duplicate retirement of {id} (already retired at {earlier})"),
                )
                .for_app(id),
            );
            return;
        }
        state.retired = Some(at);
        // Token conservation at retirement: every batch item of every task
        // processed exactly once.
        let batch = state.batch;
        let tasks: Vec<TaskId> = match state.spec {
            Some(spec) => self.catalog[spec].spec.graph().task_ids().collect(),
            None => {
                let mut seen: Vec<TaskId> = self.index.app_pairs[app]
                    .iter()
                    .filter(|&&pair| self.seen[pair])
                    .map(|&pair| self.index.pair_task[pair])
                    .collect();
                seen.sort_unstable();
                seen
            }
        };
        let mut items = std::mem::take(&mut self.items);
        for task in tasks {
            items.clear();
            if let Some(pair) = self.index.pair(app, task) {
                items.extend(
                    self.index.completed(pair).iter().map(|&(_, item)| item).filter(|&i| i < batch),
                );
            }
            items.sort_unstable();
            if items.is_empty() && batch > 0 {
                out.push(
                    Violation::new(
                        InvariantRule::TokenConservation,
                        at,
                        format!(
                            "{id} retired with {task} having completed 0 of {batch} items"
                        ),
                    )
                    .for_app(id),
                );
                continue;
            }
            // `batch` comes from the trace, so the walk stops after the
            // listed items: each step consumes a completion or lists an
            // item, and the rest are counted from the completions alone.
            let mut next = 0;
            let mut listed = 0;
            for item in 0..batch {
                if listed == ITEM_VIOLATIONS_PER_TASK {
                    break;
                }
                let first = next;
                while items.get(next) == Some(&item) {
                    next += 1;
                }
                let count = next - first;
                if count != 1 {
                    listed += 1;
                    out.push(
                        Violation::new(
                            InvariantRule::TokenConservation,
                            at,
                            format!(
                                "work token for item {item} of {task} of {id} was consumed \
                                 {count} times (expected exactly once)"
                            ),
                        )
                        .for_app(id),
                    );
                }
            }
            let mut consumed = 0;
            let mut repeated = 0;
            for run in items.chunk_by(|a, b| a == b) {
                consumed += 1;
                repeated += u32::from(run.len() > 1);
            }
            let unlisted = batch - consumed + repeated - listed;
            if unlisted > 0 {
                let (noun, verb) = if unlisted == 1 { ("item", "was") } else { ("items", "were") };
                out.push(
                    Violation::new(
                        InvariantRule::TokenConservation,
                        at,
                        format!(
                            "… and {unlisted} more {noun} of {task} of {id} {verb} not consumed \
                             exactly once"
                        ),
                    )
                    .for_app(id),
                );
            }
        }
        self.items = items;
        for slot in std::mem::take(&mut self.held[app]) {
            self.bound[slot] = None;
        }
    }

    fn finish(&self, out: &mut Vec<Violation>, end: SimTime) {
        let mut unretired: Vec<(AppId, &AppState<'_>)> = self
            .apps
            .iter()
            .enumerate()
            .filter_map(|(app, state)| Some((self.index.app_id(app), state.as_ref()?)))
            .filter(|(_, state)| state.retired.is_none())
            .collect();
        unretired.sort_unstable_by_key(|&(id, _)| id);
        for (id, state) in unretired {
            out.push(
                Violation::new(
                    InvariantRule::Lifecycle,
                    end,
                    format!(
                        "{id} ('{}') arrived at {} but never retired",
                        state.name, state.arrival
                    ),
                )
                .for_app(id),
            );
        }
    }
}

/// Verifies every schedule invariant against `trace`, returning all
/// violations found (never just the first).
///
/// One pass indexes the trace: it numbers the applications, slots and
/// `(application, task)` pairs the trace names densely, marks the spans
/// preemptions cut short, and groups completions by pair. The replay then
/// does work linear in the events, apart from sorting.
///
/// Rules needing the application's task graph (DAG order, preemption
/// topological ordering, full token conservation) resolve the traced
/// benchmark name in [`nimblock_app::benchmarks::all`], built once per
/// call; traces of unknown applications are still checked against the
/// graph-free rules. An item whose task its graph does not have is a
/// [`InvariantRule::Lifecycle`] violation, and skips that item's DAG-order
/// check.
pub fn verify_trace(trace: &Trace, config: &InvariantConfig) -> InvariantReport {
    let events = trace.events();
    let index = TraceIndex::build(events);
    let mut violations = hardware_violations(events, &index);
    if let Some(expected) = config.reconfig_latency {
        for event in events {
            if let TraceEvent::Reconfig { slot, app, task, at, until } = event {
                let took = until.saturating_since(*at);
                if took != expected {
                    violations.push(
                        Violation::new(
                            InvariantRule::CapLatency,
                            *at,
                            format!(
                                "reconfiguration of {task} of {app} on {slot} occupied the \
                                 port for {took}, expected {expected}"
                            ),
                        )
                        .on_slot(*slot)
                        .for_app(*app),
                    );
                }
            }
        }
    }
    let mut replay = Replay::new(trace, config, &index);
    let mut marks = index.preempts.iter();
    for event in events {
        let row = &index.keys(event);
        match event {
            TraceEvent::Arrival { name, batch, priority, at, .. } => {
                replay.on_arrival(row.app, name, *batch, *priority, *at, &mut violations);
            }
            TraceEvent::Reconfig { slot, task, at, .. } => {
                replay.on_reconfig(row, *slot, *task, *at, &mut violations);
            }
            TraceEvent::Item { slot, task, item, at, .. } => {
                replay.on_item(row, *slot, *task, *item, *at, &mut violations);
            }
            TraceEvent::Preempt { slot, task, at, .. } => {
                let mark = marks.next().copied().unwrap_or_default();
                replay.on_preempt(row, mark, *slot, *task, *at, &mut violations);
            }
            TraceEvent::Retire { at, .. } => {
                replay.on_retire(row.app, *at, &mut violations);
            }
        }
    }
    let apps_seen = replay.apps.iter().flatten().count();
    replay.finish(&mut violations, trace.end());
    violations.sort_by_key(|v| v.at);
    InvariantReport { violations, events_checked: events.len(), apps_seen }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceEvent;

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    fn arrival(app: u64, name: &str, batch: u32, priority: Priority, at: u64) -> TraceEvent {
        TraceEvent::Arrival {
            app: AppId::new(app),
            name: name.to_owned(),
            batch,
            priority,
            at: ms(at),
        }
    }

    fn reconfig(slot: u32, app: u64, task: u32, from: u64, to: u64) -> TraceEvent {
        TraceEvent::Reconfig {
            slot: SlotId::new(slot),
            app: AppId::new(app),
            task: TaskId::new(task),
            at: ms(from),
            until: ms(to),
        }
    }

    fn item(slot: u32, app: u64, task: u32, item: u32, from: u64, to: u64) -> TraceEvent {
        TraceEvent::Item {
            slot: SlotId::new(slot),
            app: AppId::new(app),
            task: TaskId::new(task),
            item,
            at: ms(from),
            until: ms(to),
        }
    }

    fn retire(app: u64, at: u64) -> TraceEvent {
        TraceEvent::Retire { app: AppId::new(app), at: ms(at) }
    }

    /// A complete, legal one-item LeNet run on three slots.
    fn clean_lenet_trace() -> Trace {
        let mut trace = Trace::with_slots(3);
        trace.record(arrival(0, "LeNet", 1, Priority::Medium, 0));
        trace.record(reconfig(0, 0, 0, 0, 80));
        trace.record(item(0, 0, 0, 0, 80, 140));
        trace.record(reconfig(1, 0, 1, 80, 160));
        trace.record(item(1, 0, 1, 0, 160, 200));
        trace.record(reconfig(2, 0, 2, 160, 240));
        trace.record(item(2, 0, 2, 0, 240, 260));
        trace.record(retire(0, 260));
        trace
    }

    #[test]
    fn clean_trace_verifies_clean() {
        let report = verify_trace(&clean_lenet_trace(), &InvariantConfig::default());
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.apps_seen, 1);
    }

    #[test]
    fn cap_latency_rule_fires_on_short_reconfig() {
        let mut trace = clean_lenet_trace();
        // Rebuild with a 40 ms reconfiguration where 80 ms is expected.
        trace = {
            let mut t = Trace::with_slots(3);
            for event in trace.events() {
                t.record(event.clone());
            }
            t.record(reconfig(0, 0, 0, 300, 340));
            t
        };
        let config = InvariantConfig::default()
            .with_reconfig_latency(SimDuration::from_millis(80));
        let report = verify_trace(&trace, &config);
        assert!(report.rules_fired().contains(&InvariantRule::CapLatency), "{report}");
    }

    #[test]
    fn dag_order_rule_fires_when_consumer_outruns_producer() {
        let mut trace = Trace::with_slots(3);
        trace.record(arrival(0, "LeNet", 1, Priority::Low, 0));
        trace.record(reconfig(0, 0, 0, 0, 80));
        trace.record(reconfig(1, 0, 1, 80, 160));
        // Task 1 runs its item before task 0 produced anything.
        trace.record(item(1, 0, 1, 0, 160, 200));
        trace.record(item(0, 0, 0, 0, 200, 260));
        let report = verify_trace(&trace, &InvariantConfig::mechanism_only());
        assert!(report.rules_fired().contains(&InvariantRule::DagOrder), "{report}");
    }

    #[test]
    fn unretired_app_is_a_lifecycle_violation() {
        let mut trace = Trace::with_slots(3);
        trace.record(arrival(0, "LeNet", 1, Priority::Low, 0));
        let report = verify_trace(&trace, &InvariantConfig::default());
        let fired = report.rules_fired();
        assert!(fired.contains(&InvariantRule::Lifecycle), "{report}");
        // And the incomplete batch is not (yet) a token violation: tokens
        // are only audited at retirement.
        assert!(!fired.contains(&InvariantRule::TokenConservation), "{report}");
    }

    #[test]
    fn token_rule_fires_on_duplicate_and_missing_items() {
        let mut trace = Trace::with_slots(1);
        trace.record(arrival(0, "LeNet", 2, Priority::Low, 0));
        trace.record(reconfig(0, 0, 0, 0, 80));
        // Item 0 twice, item 1 never.
        trace.record(item(0, 0, 0, 0, 80, 140));
        trace.record(item(0, 0, 0, 0, 140, 200));
        trace.record(retire(0, 200));
        let report = verify_trace(&trace, &InvariantConfig::mechanism_only());
        let tokens = report.of_rule(InvariantRule::TokenConservation);
        assert!(tokens.len() >= 2, "{report}");
    }

    #[test]
    fn token_rule_lists_64_items_per_task_then_counts_the_rest() {
        for (batch, summary) in [
            (64, None),
            (65, Some("… and 1 more item of task#0 of app#0 was not consumed exactly once")),
            (66, Some("… and 2 more items of task#0 of app#0 were not consumed exactly once")),
        ] {
            let mut trace = Trace::with_slots(1);
            trace.record(arrival(0, "LeNet", batch, Priority::Low, 0));
            trace.record(reconfig(0, 0, 0, 0, 80));
            // Item 0 twice, every other item never.
            trace.record(item(0, 0, 0, 0, 80, 140));
            trace.record(item(0, 0, 0, 0, 140, 200));
            trace.record(retire(0, 200));
            let report = verify_trace(&trace, &InvariantConfig::mechanism_only());
            let task0: Vec<&str> = report
                .of_rule(InvariantRule::TokenConservation)
                .into_iter()
                .map(|v| v.message.as_str())
                .filter(|message| message.contains("task#0"))
                .collect();
            assert_eq!(task0.len(), 64 + usize::from(summary.is_some()), "{report}");
            assert!(task0[0].starts_with("work token for item 0 of task#0 of app#0 was consumed 2"));
            assert_eq!(task0.get(64).copied(), summary, "{report}");
        }
    }

    #[test]
    fn rule_ids_are_stable_and_resolvable() {
        for rule in InvariantRule::ALL {
            assert_eq!(InvariantRule::from_id(rule.id()), Some(rule));
            assert!(!rule.paper_section().is_empty());
        }
        assert_eq!(InvariantRule::from_id("no-such-rule"), None);
    }

    #[test]
    fn violations_serialize_with_rule_ids() {
        let violation = Violation::new(
            InvariantRule::SlotOverlap,
            ms(5),
            "synthetic".to_owned(),
        )
        .on_slot(SlotId::new(1));
        let text = nimblock_ser::to_string(&violation);
        assert!(text.contains("\"slot-overlap\""), "{text}");
        let back: Violation = nimblock_ser::from_str(&text).unwrap();
        assert_eq!(back, violation);
    }

    #[test]
    fn report_display_lists_every_violation() {
        let mut trace = Trace::with_slots(1);
        trace.record(arrival(0, "LeNet", 1, Priority::Low, 0));
        trace.record(reconfig(0, 0, 0, 0, 80));
        trace.record(reconfig(0, 0, 1, 40, 120));
        let report = verify_trace(&trace, &InvariantConfig::mechanism_only());
        let rendered = report.to_string();
        assert!(rendered.contains("cap-exclusive"), "{rendered}");
        assert!(rendered.contains("slot-overlap"), "{rendered}");
    }
}
