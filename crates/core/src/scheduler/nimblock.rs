//! The Nimblock scheduling algorithm (paper §4).

use std::collections::BTreeMap;
use std::sync::Arc;

use nimblock_app::TaskGraph;
use nimblock_ilp::{saturation, EstimatorConfig, PipelineEstimator};
use nimblock_obs::nb_debug;
use nimblock_sim::SimTime;

use crate::scheduler::{SchedMetrics, TokenBank};
use crate::{AppId, Reconfig, SchedView, Scheduler, TaskPhase};

/// Configuration of the [`NimblockScheduler`], including the ablation
/// switches of the paper's §5.6 study.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NimblockConfig {
    /// Enable cross-batch pipelining (Figure 2(c)). Off = `NimblockNoPipe`.
    pub pipelining: bool,
    /// Enable batch-preemption (Algorithm 2). Off = `NimblockNoPreempt`.
    pub preemption: bool,
    /// Preempt mid-item as well (requires a checkpoint-capable overlay —
    /// enable it on the testbed with `with_fine_preemption`). The paper's
    /// §7 future work; off in the evaluated system.
    pub fine_preemption: bool,
    /// Token-accumulation scale factor α (Algorithm 1, line 6).
    pub alpha: f64,
    /// Knee threshold for the goal-number saturation analysis.
    pub improvement_threshold: f64,
}

impl NimblockConfig {
    /// The full algorithm: pipelining and preemption enabled.
    pub fn full() -> Self {
        NimblockConfig {
            pipelining: true,
            preemption: true,
            fine_preemption: false,
            alpha: 1.0,
            improvement_threshold: saturation::DEFAULT_IMPROVEMENT_THRESHOLD,
        }
    }

    /// The future-work variant: preemption also mid-item, on a
    /// checkpoint-capable overlay.
    pub fn fine_preemption() -> Self {
        NimblockConfig {
            fine_preemption: true,
            ..NimblockConfig::full()
        }
    }

    /// Ablation: preemption disabled (`NimblockNoPreempt` in Figure 9).
    pub fn no_preemption() -> Self {
        NimblockConfig {
            preemption: false,
            ..NimblockConfig::full()
        }
    }

    /// Ablation: pipelining disabled (`NimblockNoPipe` in Figure 9).
    pub fn no_pipelining() -> Self {
        NimblockConfig {
            pipelining: false,
            ..NimblockConfig::full()
        }
    }

    /// Ablation: both disabled (`NimblockNoPreemptNoPipe` in Figure 9).
    pub fn no_preemption_no_pipelining() -> Self {
        NimblockConfig {
            pipelining: false,
            preemption: false,
            ..NimblockConfig::full()
        }
    }
}

impl Default for NimblockConfig {
    fn default() -> Self {
        NimblockConfig::full()
    }
}

/// The Nimblock scheduler: PREMA-style token candidacy, goal-number slot
/// allocation, oldest-first task selection, cross-batch pipelining, and
/// batch-preemption of over-consumers.
///
/// Decision pipeline per scheduling point (Figure 3 of the paper):
///
/// 1. accumulate tokens, update the candidate pool (Algorithm 1),
/// 2. reallocate slots: one slot per candidate (oldest first), then up to
///    each candidate's *goal number* (from the saturation analysis run at
///    admission), then surplus slots to whoever can use them, by age,
/// 3. select a task: the oldest candidate below its allocation with a
///    placeable task,
/// 4. select a slot: a free slot if available, otherwise batch-preempt the
///    worst over-consumer's topologically-latest idle task (Algorithm 2).
///
/// # Example
///
/// ```
/// use nimblock_core::{NimblockConfig, NimblockScheduler, Scheduler};
///
/// let full = NimblockScheduler::default();
/// assert!(full.pipelining());
/// let ablated = NimblockScheduler::with_config(NimblockConfig::no_pipelining());
/// assert!(!ablated.pipelining());
/// assert_eq!(ablated.name(), "NimblockNoPipe");
/// ```
#[derive(Debug, Clone)]
pub struct NimblockScheduler {
    config: NimblockConfig,
    bank: TokenBank,
    goals: BTreeMap<AppId, usize>,
    /// Goal numbers are deterministic per (task graph, batch, slots); cache
    /// them as the paper caches its offline Gurobi results. Entries hold
    /// the graph itself, not the app name, so two different graphs under
    /// one name never share a goal.
    goal_cache: Vec<(Arc<TaskGraph>, u32, usize, usize)>,
    preemptions_issued: u64,
    metrics: SchedMetrics,
    /// Reusable per-decision buffers: the candidate pool and the slot
    /// allocation table (parallel to it, oldest candidate first), so the
    /// per-event decision path allocates nothing once warm.
    candidate_buf: Vec<AppId>,
    alloc_buf: Vec<(AppId, usize)>,
    /// The candidate, and the needs of its task, whose failed preemption
    /// search ended the last decision with `None`.
    blocked: Option<(AppId, nimblock_fpga::Resources)>,
}

/// Looks up `app`'s allocation in the flat table. Candidate pools are a
/// handful of entries, so a linear scan beats a tree here.
fn alloc_of(alloc: &[(AppId, usize)], app: AppId) -> Option<usize> {
    alloc.iter().find(|&&(a, _)| a == app).map(|&(_, n)| n)
}

impl NimblockScheduler {
    /// Creates the full Nimblock scheduler.
    pub fn new() -> Self {
        NimblockScheduler::with_config(NimblockConfig::full())
    }

    /// Creates a Nimblock scheduler with explicit (possibly ablated)
    /// configuration.
    pub fn with_config(config: NimblockConfig) -> Self {
        NimblockScheduler {
            config,
            bank: TokenBank::new(config.alpha),
            goals: BTreeMap::new(),
            goal_cache: Vec::new(),
            preemptions_issued: 0,
            metrics: SchedMetrics::detached(),
            candidate_buf: Vec::new(),
            alloc_buf: Vec::new(),
            blocked: None,
        }
    }

    /// Returns the configuration.
    pub fn config(&self) -> &NimblockConfig {
        &self.config
    }

    /// Returns how many batch-preemption directives this scheduler issued.
    pub fn preemptions_issued(&self) -> u64 {
        self.preemptions_issued
    }

    /// Computes (or recalls) the goal number for an admitted application.
    fn goal_number(&mut self, view: &SchedView<'_>, app: AppId) -> usize {
        let runtime = view.app(app).expect("admitting app is live");
        let graph = runtime.spec().graph();
        let batch = runtime.batch_size();
        let slots = view.slot_count();
        // Apps of one workload share their graph's `Arc`, so the pointer
        // test settles almost every hit; structural equality catches equal
        // graphs loaded separately. The cache holds one entry per distinct
        // (graph, batch, slots) combination — a handful.
        if let Some(&(.., goal)) = self.goal_cache.iter().find(|(g, b, s, _)| {
            *b == batch && *s == slots && (std::ptr::eq(Arc::as_ptr(g), graph) || **g == *graph)
        }) {
            return goal;
        }
        let estimator = PipelineEstimator::new(EstimatorConfig {
            reconfig: view.reconfig_latency,
            pipelining: self.config.pipelining,
        });
        let goal = saturation::goal_number(
            &estimator,
            graph,
            batch,
            slots,
            self.config.improvement_threshold,
        );
        // First sight of this workload shape: the one-time saturation
        // analysis dwarfs the entry allocation.
        // nimblock: allow(hot-path-no-alloc) cache-miss path only
        self.goal_cache.push((runtime.spec().graph_arc(), batch, slots, goal));
        goal
    }

    /// The most slots an application can put to work right now.
    fn usable_cap(&self, view: &SchedView<'_>, app: AppId) -> usize {
        let Some(runtime) = view.app(app) else { return 0 };
        if self.config.pipelining {
            // Every unfinished task can hold a pipeline stage.
            runtime.unfinished_tasks()
        } else {
            // Without pipelining only parallel graph branches can coexist.
            runtime
                .spec()
                .graph()
                .max_width()
                .min(runtime.unfinished_tasks())
        }
    }

    /// Phase 2 of Figure 3: distribute slots among the current candidate
    /// pool (`candidate_buf`), filling the parallel `alloc_buf` table.
    fn allocate(&mut self, view: &SchedView<'_>) {
        self.alloc_buf.clear();
        self.alloc_buf
            .extend(self.candidate_buf.iter().map(|&a| (a, 0usize)));
        let mut left = view.slot_count();
        // One slot each, oldest candidate first, to guarantee forward
        // progress for everyone.
        for i in 0..self.alloc_buf.len() {
            if left == 0 {
                return;
            }
            self.alloc_buf[i].1 = 1;
            left -= 1;
        }
        // Raise allocations to the goal number, oldest first.
        for i in 0..self.alloc_buf.len() {
            if left == 0 {
                return;
            }
            let app = self.alloc_buf[i].0;
            let goal = self.goals.get(&app).copied().unwrap_or(1);
            while left > 0 && self.alloc_buf[i].1 < goal {
                self.alloc_buf[i].1 += 1;
                left -= 1;
            }
        }
        // Surplus slots go to whoever can still use them, by age.
        for i in 0..self.alloc_buf.len() {
            if left == 0 {
                return;
            }
            let app = self.alloc_buf[i].0;
            let cap = self.usable_cap(view, app);
            while left > 0 && self.alloc_buf[i].1 < cap {
                self.alloc_buf[i].1 += 1;
                left -= 1;
            }
        }
    }

    /// Algorithm 2: pick the slot to batch-preempt for `for_app`, if any.
    fn preemption_victim(
        &self,
        view: &SchedView<'_>,
        alloc: &[(AppId, usize)],
        for_app: AppId,
        needs: &nimblock_fpga::Resources,
    ) -> Option<nimblock_fpga::SlotId> {
        let mut over_consumption = 0i64;
        let mut over_consumer: Option<AppId> = None;
        for binding in view.slots {
            let Some((slot_app, slot_task)) = binding.bound else {
                continue;
            };
            if slot_app == for_app {
                continue;
            }
            let Some(runtime) = view.app(slot_app) else {
                continue;
            };
            let waiting = match runtime.phase(slot_task) {
                TaskPhase::Idle(_) => true,
                // A checkpoint-capable overlay can stop a running item too.
                TaskPhase::Running(_) => self.config.fine_preemption,
                _ => false,
            };
            if !waiting {
                continue;
            }
            let consumption =
                runtime.slots_used() as i64 - alloc_of(alloc, slot_app).unwrap_or(0) as i64;
            if consumption > over_consumption {
                over_consumption = consumption;
                over_consumer = Some(slot_app);
            }
        }
        // "If no application is an over-consumer, then no task will be
        // preempted."
        let victim_app = over_consumer?;
        let runtime = view.app(victim_app).expect("selected above");
        let victim_task = runtime.topologically_latest_placed()?;
        // Preempt at a batch boundary, or mid-item when the overlay can
        // checkpoint; otherwise delay until the task reaches a boundary
        // (the hypervisor will ask again at that event).
        let slot = match runtime.phase(victim_task) {
            TaskPhase::Idle(slot) => slot,
            TaskPhase::Running(slot) if self.config.fine_preemption => slot,
            _ => return None,
        };
        // On heterogeneous overlays the reclaimed slot must fit the task.
        needs
            .fits_within(&view.slots[slot.index()].resources)
            .then_some(slot)
    }
}

impl Default for NimblockScheduler {
    fn default() -> Self {
        NimblockScheduler::new()
    }
}

impl Scheduler for NimblockScheduler {
    fn name(&self) -> String {
        let base = match (self.config.pipelining, self.config.preemption) {
            (true, true) => "Nimblock",
            (true, false) => "NimblockNoPreempt",
            (false, true) => "NimblockNoPipe",
            (false, false) => "NimblockNoPreemptNoPipe",
        };
        if self.config.fine_preemption {
            format!("{base}Fine")
        } else {
            base.to_owned()
        }
    }

    fn pipelining(&self) -> bool {
        self.config.pipelining
    }

    fn on_arrival(&mut self, view: &SchedView<'_>, app: AppId) {
        let runtime = view.app(app).expect("arriving app is live");
        self.bank.admit(runtime, view);
        let goal = self.goal_number(view, app);
        self.goals.insert(app, goal);
    }

    fn on_retire(&mut self, _view: &SchedView<'_>, app: AppId) {
        self.bank.remove(app);
        self.goals.remove(&app);
    }

    fn attach_metrics(&mut self, registry: &nimblock_obs::Registry) {
        self.metrics.register(registry);
    }

    fn next_decision_change(&mut self, view: &SchedView<'_>) -> Option<SimTime> {
        // Items launched since the decision turn idle occupants into
        // running ones, which can move the preemption search that ended
        // it; nothing else the decision reads moves with a launch.
        if let Some((app, needs)) = self.blocked {
            if self
                .preemption_victim(view, &self.alloc_buf, app, &needs)
                .is_some()
            {
                return Some(view.now);
            }
        }
        // Beyond that, candidacy moves only when tokens reach a level.
        self.bank.next_change()
    }

    fn next_reconfig(&mut self, view: &SchedView<'_>) -> Option<Reconfig> {
        self.metrics.decisions.inc();
        self.blocked = None;
        self.bank.accumulate(view.now);
        if self.metrics.exported {
            self.metrics
                .max_tokens_milli
                .set((self.bank.max_tokens() * 1000.0) as i64);
        }
        // One candidate query serves the whole decision: repeat queries at
        // the same `now` are idempotent (threshold and candidate stamps do
        // not move between them), so reusing the buffer changes nothing.
        // `allocate` hands out one slot per candidate before any second
        // one, so candidates past the slot count get nothing: only the
        // first `slot_count` are read.
        let pool = self
            .bank
            .candidates_into(view.now, view.slot_count(), &mut self.candidate_buf);
        // The bank forgets an application in `on_retire`, right after the
        // hypervisor drops it, so every candidate is live.
        debug_assert!(self.candidate_buf.iter().all(|c| view.app(*c).is_some()));
        self.metrics.candidates.observe(pool as u64);
        if self.candidate_buf.is_empty() {
            return None;
        }
        self.allocate(view);
        // Oldest candidate below its allocation with a placeable task.
        for i in 0..self.candidate_buf.len() {
            let app = self.candidate_buf[i];
            let runtime = view.app(app).expect("candidates are live");
            if runtime.slots_used() >= self.alloc_buf[i].1 {
                continue;
            }
            let task = if self.config.pipelining {
                runtime.next_unplaced_eager()
            } else {
                runtime.next_unplaced_ready()
            };
            let Some(task) = task else { continue };
            // Prefer the free slot with the cheapest input path from the
            // task's placed predecessors; on the through-PS interconnect
            // every slot costs the same and this is the first free slot.
            if let Some(slot) = view.best_free_slot_for(app, task) {
                self.metrics.directives.inc();
                nb_debug!("sched.nimblock", "place {app} {task} -> {slot}");
                return Some(Reconfig { app, task, slot });
            }
            if self.config.preemption {
                let needs = *runtime.spec().graph().task(task).resources();
                if let Some(slot) = self.preemption_victim(view, &self.alloc_buf, app, &needs) {
                    self.preemptions_issued += 1;
                    self.metrics.directives.inc();
                    self.metrics.preempt_directives.inc();
                    nb_debug!("sched.nimblock", "preempt {slot} for {app} {task}");
                    return Some(Reconfig { app, task, slot });
                }
                self.blocked = Some((app, needs));
            }
            // No slot obtainable for the neediest candidate; wait for a
            // batch boundary or a retirement rather than skipping ahead.
            return None;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Testbed;
    use nimblock_app::{benchmarks, Priority};
    use nimblock_sim::SimTime;
    use nimblock_workload::{ArrivalEvent, EventSequence};

    #[test]
    fn names_follow_ablation_config() {
        assert_eq!(NimblockScheduler::new().name(), "Nimblock");
        assert_eq!(
            NimblockScheduler::with_config(NimblockConfig::no_preemption()).name(),
            "NimblockNoPreempt"
        );
        assert_eq!(
            NimblockScheduler::with_config(NimblockConfig::no_preemption_no_pipelining()).name(),
            "NimblockNoPreemptNoPipe"
        );
    }

    #[test]
    fn goal_cache_tells_same_named_graphs_apart() {
        use crate::view::SlotBinding;
        use crate::{AppArena, AppRuntime};
        use nimblock_app::AppSpec;
        use nimblock_fpga::{BitstreamId, Interconnect, Resources, SlotId, SlotState};
        use nimblock_sim::SimDuration;

        // A custom app that reuses the name "LeNet" for AlexNet's graph.
        let lenet = Arc::new(benchmarks::lenet());
        let impostor = Arc::new(AppSpec::new("LeNet", benchmarks::alexnet().graph().clone()));
        let mut apps = AppArena::new();
        for (raw, spec) in [lenet, Arc::clone(&impostor)].into_iter().enumerate() {
            let tasks = spec.graph().task_count() as u64;
            apps.insert(AppRuntime::new(
                AppId::new(raw as u64),
                raw,
                spec,
                10,
                Priority::Low,
                SimTime::ZERO,
                (0..tasks).map(BitstreamId::new).collect(),
            ));
        }
        let slots: Vec<SlotBinding> = (0..10)
            .map(|i| SlotBinding {
                slot: SlotId::new(i),
                state: SlotState::Empty,
                bound: None,
                resources: Resources::ZERO,
            })
            .collect();
        let view = SchedView {
            now: SimTime::ZERO,
            apps: &apps,
            slots: &slots,
            reconfig_latency: SimDuration::from_millis(80),
            interconnect: Interconnect::zcu106_default(),
        };
        let mut scheduler = NimblockScheduler::new();
        scheduler.on_arrival(&view, AppId::new(0));
        scheduler.on_arrival(&view, AppId::new(1));

        let estimator = PipelineEstimator::new(EstimatorConfig {
            reconfig: SimDuration::from_millis(80),
            pipelining: true,
        });
        let goal_of = |spec: &AppSpec| {
            saturation::analyze_with(&estimator, spec, 10, 10, saturation::DEFAULT_IMPROVEMENT_THRESHOLD)
                .goal_number()
        };
        let own = goal_of(&impostor);
        assert_ne!(own, goal_of(&benchmarks::lenet()), "the two graphs must saturate apart");
        assert_eq!(scheduler.goals[&AppId::new(1)], own);
    }

    #[test]
    fn pipelining_beats_bulk_for_a_lone_batched_app() {
        let events = EventSequence::new(vec![ArrivalEvent::new(
            benchmarks::optical_flow(),
            10,
            Priority::Medium,
            SimTime::ZERO,
        )]);
        let full = Testbed::new(NimblockScheduler::new()).run(&events);
        let no_pipe =
            Testbed::new(NimblockScheduler::with_config(NimblockConfig::no_pipelining())).run(&events);
        assert!(
            full.records()[0].response_time() < no_pipe.records()[0].response_time(),
            "pipelining should shorten a batched chain"
        );
    }

    #[test]
    fn preemption_rescues_late_arrivals_from_monopolists() {
        // A big pipelining AlexNet occupies many slots; nine short LeNets
        // arrive later. With preemption they claw slots back.
        let mut events = vec![ArrivalEvent::new(
            benchmarks::alexnet(),
            20,
            Priority::Low,
            SimTime::ZERO,
        )];
        for i in 0..9 {
            events.push(ArrivalEvent::new(
                benchmarks::lenet(),
                2,
                Priority::High,
                SimTime::from_millis(2_000 + i * 100),
            ));
        }
        let events = EventSequence::new(events);
        let with = Testbed::new(NimblockScheduler::new()).run(&events);
        let without =
            Testbed::new(NimblockScheduler::with_config(NimblockConfig::no_preemption())).run(&events);
        let mean_lenet = |r: &nimblock_metrics::Report| {
            let times: Vec<f64> = r
                .records()
                .iter()
                .filter(|rec| rec.app_name == "LeNet")
                .map(|rec| rec.response_time().as_secs_f64())
                .collect();
            times.iter().sum::<f64>() / times.len() as f64
        };
        assert!(
            mean_lenet(&with) <= mean_lenet(&without) * 1.05,
            "preemption should not hurt the short high-priority apps: {} vs {}",
            mean_lenet(&with),
            mean_lenet(&without)
        );
    }

    #[test]
    fn all_apps_retire_under_every_ablation() {
        let events = EventSequence::new(vec![
            ArrivalEvent::new(benchmarks::lenet(), 5, Priority::Low, SimTime::ZERO),
            ArrivalEvent::new(benchmarks::alexnet(), 3, Priority::Medium, SimTime::from_millis(100)),
            ArrivalEvent::new(benchmarks::image_compression(), 8, Priority::High, SimTime::from_millis(200)),
            ArrivalEvent::new(benchmarks::rendering_3d(), 2, Priority::Low, SimTime::from_millis(300)),
        ]);
        for config in [
            NimblockConfig::full(),
            NimblockConfig::no_preemption(),
            NimblockConfig::no_pipelining(),
            NimblockConfig::no_preemption_no_pipelining(),
        ] {
            let report = Testbed::new(NimblockScheduler::with_config(config)).run(&events);
            assert_eq!(report.records().len(), 4, "{config:?}");
        }
    }
}
