//! Differential oracle for the check path: the invariant verifier
//! (`verify_trace`, `verify_hardware`) and response-time attribution
//! (`attribute_trace`, `span_trees`).
//!
//! The production functions index a trace once and then do work linear in
//! its events. The formulations they replaced are kept here, test-only, as
//! the reference: a hash map of completion lists, ordered maps of
//! applications and slot bindings, one rescan of the trace per slot, and a
//! scan of every CAP span and every own item per application. Both must
//! agree exactly: equal `InvariantReport`s under all four verifier
//! configurations, the same serialized `AttributionSummary`, and the same
//! span trees.
//!
//! The reference panics on an item whose task its benchmark graph does not
//! have (it indexes the graph's predecessor table with the traced task).
//! Where it does, the production verifier must instead report a
//! `lifecycle` violation naming that task.
//!
//! The fixed panel covers the five main policies on all three scenarios,
//! 102-arrival real-time sequences, a checkpointing board, a heterogeneous
//! board, a cluster's per-board traces and every committed trace fixture.
//! The mutation sweep corrupts panel traces; replay a failure with the
//! `NIMBLOCK_CHECK_SEED` it prints.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;

use nimblock::analyze::invariants::{
    verify_hardware, verify_trace, InvariantConfig, InvariantReport, InvariantRule,
};
use nimblock::app::{Priority, TaskId};
use nimblock::cluster::{ClusterTestbed, DispatchPolicy};
use nimblock::core::{
    attribute_trace, span_trees, AppId, FcfsScheduler, NimblockConfig, NimblockScheduler,
    NoSharingScheduler, PremaScheduler, RoundRobinScheduler, Scheduler, Testbed, Trace, TraceEvent,
};
use nimblock::fpga::{zcu106, DeviceConfig, Resources, SlotId};
use nimblock::sim::{SimDuration, SimTime};
use nimblock::workload::{generate_suite, Scenario};
use nimblock_check::{check_with, Config, Gen};

/// The verifier and attribution as they were before the indexed rewrite,
/// kept line for line (hence the lint allowances).
#[allow(clippy::type_complexity, clippy::unnecessary_map_or)]
mod reference {
    use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

    use nimblock::analyze::invariants::{
        InvariantConfig, InvariantReport, InvariantRule, Violation,
    };
    use nimblock::app::{benchmarks, AppSpec, Priority, TaskId};
    use nimblock::core::{AppId, Trace, TraceEvent};
    use nimblock::fpga::SlotId;
    use nimblock::metrics::{AppAttribution, AttributionComponents, AttributionSummary};
    use nimblock::obs::{Span, SpanKind};
    use nimblock::sim::SimTime;

    fn violation(rule: InvariantRule, at: SimTime, message: String) -> Violation {
        Violation {
            rule,
            at,
            slot: None,
            app: None,
            message,
        }
    }

    trait Build {
        fn on_slot(self, slot: SlotId) -> Self;
        fn for_app(self, app: AppId) -> Self;
    }

    impl Build for Violation {
        fn on_slot(mut self, slot: SlotId) -> Self {
            self.slot = Some(slot);
            self
        }

        fn for_app(mut self, app: AppId) -> Self {
            self.app = Some(app);
            self
        }
    }

    struct SpanData {
        truncated: HashMap<usize, SimTime>,
        mid_item: HashSet<usize>,
        during_reconfig: HashSet<usize>,
        preemptor: HashMap<usize, AppId>,
        completions: HashMap<(AppId, TaskId), Vec<(SimTime, u32)>>,
    }

    impl SpanData {
        fn collect(events: &[TraceEvent]) -> SpanData {
            let mut data = SpanData {
                truncated: HashMap::new(),
                mid_item: HashSet::new(),
                during_reconfig: HashSet::new(),
                preemptor: HashMap::new(),
                completions: HashMap::new(),
            };
            let mut inflight_item: HashMap<SlotId, usize> = HashMap::new();
            let mut inflight_reconfig: HashMap<SlotId, usize> = HashMap::new();
            let mut pending_preempts: HashMap<SlotId, Vec<usize>> = HashMap::new();
            for (index, event) in events.iter().enumerate() {
                match event {
                    TraceEvent::Item { slot, .. } => {
                        inflight_item.insert(*slot, index);
                    }
                    TraceEvent::Reconfig { slot, app, .. } => {
                        inflight_reconfig.insert(*slot, index);
                        for preempt in pending_preempts.remove(slot).unwrap_or_default() {
                            data.preemptor.insert(preempt, *app);
                        }
                    }
                    TraceEvent::Preempt {
                        slot,
                        app,
                        task,
                        at,
                    } => {
                        if let Some(&item_index) = inflight_item.get(slot) {
                            if let TraceEvent::Item {
                                app: item_app,
                                task: item_task,
                                at: started,
                                until,
                                ..
                            } = &events[item_index]
                            {
                                if item_app == app
                                    && item_task == task
                                    && started <= at
                                    && at < until
                                {
                                    data.truncated.insert(item_index, *at);
                                    data.mid_item.insert(index);
                                }
                            }
                        }
                        if let Some(&reconfig_index) = inflight_reconfig.get(slot) {
                            if let TraceEvent::Reconfig {
                                app: r_app,
                                task: r_task,
                                at: started,
                                until,
                                ..
                            } = &events[reconfig_index]
                            {
                                if r_app == app && r_task == task && started <= at && at < until {
                                    data.during_reconfig.insert(index);
                                }
                            }
                        }
                        pending_preempts.entry(*slot).or_default().push(index);
                    }
                    _ => {}
                }
            }
            for (index, event) in events.iter().enumerate() {
                if let TraceEvent::Item {
                    app,
                    task,
                    item,
                    until,
                    ..
                } = event
                {
                    if !data.truncated.contains_key(&index) {
                        data.completions
                            .entry((*app, *task))
                            .or_default()
                            .push((*until, *item));
                    }
                }
            }
            for list in data.completions.values_mut() {
                list.sort();
            }
            data
        }

        fn completed_before(&self, app: AppId, task: TaskId, t: SimTime) -> u32 {
            match self.completions.get(&(app, task)) {
                Some(list) => list.partition_point(|&(until, _)| until <= t) as u32,
                None => 0,
            }
        }
    }

    fn hardware_violations(trace: &Trace, data: &SpanData) -> Vec<Violation> {
        let events = trace.events();
        let mut violations = Vec::new();
        let mut cap: Vec<(SimTime, SimTime, SlotId)> = events
            .iter()
            .filter_map(|event| match event {
                TraceEvent::Reconfig {
                    slot, at, until, ..
                } => Some((*at, *until, *slot)),
                _ => None,
            })
            .collect();
        cap.sort();
        for pair in cap.windows(2) {
            if pair[1].0 < pair[0].1 {
                violations.push(
                    violation(
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
        for index in 0..trace.slots() {
            let slot = SlotId::new(index as u32);
            let mut spans: Vec<(SimTime, SimTime)> = events
                .iter()
                .enumerate()
                .filter_map(|(event_index, event)| match event {
                    TraceEvent::Reconfig {
                        slot: s, at, until, ..
                    } if *s == slot => Some((*at, *until)),
                    TraceEvent::Item {
                        slot: s, at, until, ..
                    } if *s == slot => {
                        let until = data.truncated.get(&event_index).copied().unwrap_or(*until);
                        Some((*at, until))
                    }
                    _ => None,
                })
                .collect();
            spans.sort();
            for pair in spans.windows(2) {
                if pair[1].0 < pair[0].1 {
                    violations.push(
                        violation(
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

    pub fn verify_hardware(trace: &Trace) -> Vec<Violation> {
        let data = SpanData::collect(trace.events());
        hardware_violations(trace, &data)
    }

    struct AppState {
        name: String,
        batch: u32,
        priority: Priority,
        arrival: SimTime,
        retired: Option<SimTime>,
        spec: Option<AppSpec>,
        topo_pos: HashMap<TaskId, usize>,
        seen_tasks: BTreeSet<TaskId>,
    }

    struct Replay<'a> {
        config: &'a InvariantConfig,
        data: &'a SpanData,
        slot_count: usize,
        apps: BTreeMap<AppId, AppState>,
        bindings: BTreeMap<SlotId, (AppId, TaskId)>,
    }

    impl<'a> Replay<'a> {
        fn released(&self, app: AppId, task: TaskId, t: SimTime) -> bool {
            match self.apps.get(&app) {
                Some(state) => self.data.completed_before(app, task, t) >= state.batch,
                None => false,
            }
        }

        fn occupancy(&self, app: AppId, t: SimTime) -> usize {
            self.bindings
                .values()
                .filter(|&&(a, task)| a == app && !self.released(a, task, t))
                .count()
        }

        fn check_lifecycle(
            &self,
            app: AppId,
            at: SimTime,
            what: &str,
            out: &mut Vec<Violation>,
        ) -> bool {
            match self.apps.get(&app) {
                None => {
                    out.push(
                        violation(
                            InvariantRule::Lifecycle,
                            at,
                            format!("{what} for {app}, which never arrived"),
                        )
                        .for_app(app),
                    );
                    false
                }
                Some(state) => match state.retired {
                    Some(retired) if retired < at => {
                        out.push(
                            violation(
                                InvariantRule::Lifecycle,
                                at,
                                format!("{what} for {app}, which retired at {retired}"),
                            )
                            .for_app(app),
                        );
                        false
                    }
                    _ => true,
                },
            }
        }

        fn on_arrival(
            &mut self,
            app: AppId,
            name: &str,
            batch: u32,
            priority: Priority,
            at: SimTime,
            out: &mut Vec<Violation>,
        ) {
            if self.apps.contains_key(&app) {
                out.push(
                    violation(
                        InvariantRule::Lifecycle,
                        at,
                        format!("duplicate arrival for {app}"),
                    )
                    .for_app(app),
                );
                return;
            }
            let spec = benchmarks::by_name(name);
            let topo_pos = spec
                .as_ref()
                .map(|s| {
                    s.graph()
                        .topological_order()
                        .iter()
                        .enumerate()
                        .map(|(pos, &task)| (task, pos))
                        .collect()
                })
                .unwrap_or_default();
            self.apps.insert(
                app,
                AppState {
                    name: name.to_owned(),
                    batch,
                    priority,
                    arrival: at,
                    retired: None,
                    spec,
                    topo_pos,
                    seen_tasks: BTreeSet::new(),
                },
            );
        }

        fn on_reconfig(
            &mut self,
            slot: SlotId,
            app: AppId,
            task: TaskId,
            at: SimTime,
            out: &mut Vec<Violation>,
        ) {
            let known = self.check_lifecycle(app, at, "reconfiguration", out);
            if let Some(&(prev_app, prev_task)) = self.bindings.get(&slot) {
                if !self.released(prev_app, prev_task, at) {
                    out.push(
                        violation(
                            InvariantRule::SlotOverlap,
                            at,
                            format!(
                                "{slot} reconfigured for {task} of {app} while {prev_task} of \
                                 {prev_app} still occupies it (no preemption traced)"
                            ),
                        )
                        .on_slot(slot)
                        .for_app(app),
                    );
                }
            }
            for (&other_slot, &(bound_app, bound_task)) in &self.bindings {
                if other_slot != slot
                    && (bound_app, bound_task) == (app, task)
                    && !self.released(app, task, at)
                {
                    out.push(
                        violation(
                            InvariantRule::TaskSingleSlot,
                            at,
                            format!(
                                "{task} of {app} reconfigured onto {slot} while still holding \
                                 {other_slot}"
                            ),
                        )
                        .on_slot(slot)
                        .for_app(app),
                    );
                }
            }
            self.bindings.insert(slot, (app, task));
            if let Some(state) = self.apps.get_mut(&app) {
                state.seen_tasks.insert(task);
            }
            if known && self.config.nimblock_policy {
                let (task_count, batch) = match self.apps.get(&app) {
                    Some(state) => match &state.spec {
                        Some(spec) => (spec.graph().task_count(), state.batch),
                        None => return,
                    },
                    None => return,
                };
                let done_tasks = (0..task_count)
                    .filter(|&t| {
                        self.data.completed_before(app, TaskId::new(t as u32), at) >= batch
                    })
                    .count();
                let unfinished = task_count - done_tasks;
                let occupancy = self.occupancy(app, at);
                if occupancy > unfinished {
                    out.push(
                        violation(
                            InvariantRule::GoalCeiling,
                            at,
                            format!(
                                "{app} occupies {occupancy} slots but has only {unfinished} \
                                 unfinished tasks"
                            ),
                        )
                        .on_slot(slot)
                        .for_app(app),
                    );
                }
            }
        }

        fn on_item(
            &mut self,
            slot: SlotId,
            app: AppId,
            task: TaskId,
            item: u32,
            at: SimTime,
            out: &mut Vec<Violation>,
        ) {
            let known = self.check_lifecycle(app, at, "item execution", out);
            if self.bindings.get(&slot) != Some(&(app, task)) {
                out.push(
                    violation(
                        InvariantRule::Lifecycle,
                        at,
                        format!(
                            "item {item} of {task} of {app} ran on {slot}, which is not \
                             configured for it"
                        ),
                    )
                    .on_slot(slot)
                    .for_app(app),
                );
            }
            if let Some(state) = self.apps.get_mut(&app) {
                state.seen_tasks.insert(task);
            }
            if !known {
                return;
            }
            let state = &self.apps[&app];
            if item >= state.batch {
                out.push(
                    violation(
                        InvariantRule::TokenConservation,
                        at,
                        format!(
                            "{task} of {app} ran item {item}, beyond its batch of {}",
                            state.batch
                        ),
                    )
                    .on_slot(slot)
                    .for_app(app),
                );
            }
            let Some(spec) = &state.spec else { return };
            for &pred in spec.graph().predecessors(task) {
                let done = self.data.completed_before(app, pred, at);
                if done < item + 1 {
                    out.push(
                        violation(
                            InvariantRule::DagOrder,
                            at,
                            format!(
                                "item {item} of {task} of {app} started with predecessor {pred} \
                                 at only {done} completed item(s) (needs {})",
                                item + 1
                            ),
                        )
                        .on_slot(slot)
                        .for_app(app),
                    );
                }
            }
        }

        fn on_preempt(
            &mut self,
            index: usize,
            slot: SlotId,
            app: AppId,
            task: TaskId,
            at: SimTime,
            out: &mut Vec<Violation>,
        ) {
            let known = self.check_lifecycle(app, at, "preemption", out);
            if self.bindings.get(&slot) != Some(&(app, task)) {
                out.push(
                    violation(
                        InvariantRule::Lifecycle,
                        at,
                        format!("preemption of {task} of {app} on {slot}, which it does not hold"),
                    )
                    .on_slot(slot)
                    .for_app(app),
                );
            }
            if self.data.mid_item.contains(&index) && !self.config.allow_mid_item_preemption {
                out.push(
                    violation(
                        InvariantRule::PreemptBoundary,
                        at,
                        format!(
                            "{task} of {app} preempted mid-item on {slot} without a \
                             checkpoint-capable overlay"
                        ),
                    )
                    .on_slot(slot)
                    .for_app(app),
                );
            }
            if self.data.during_reconfig.contains(&index) {
                out.push(
                    violation(
                        InvariantRule::PreemptBoundary,
                        at,
                        format!("{task} of {app} preempted while still reconfiguring on {slot}"),
                    )
                    .on_slot(slot)
                    .for_app(app),
                );
            }
            if known && self.config.nimblock_policy {
                self.check_preempt_policy(index, slot, app, task, at, out);
            }
            self.bindings.remove(&slot);
        }

        fn check_preempt_policy(
            &self,
            index: usize,
            slot: SlotId,
            app: AppId,
            task: TaskId,
            at: SimTime,
            out: &mut Vec<Violation>,
        ) {
            let state = &self.apps[&app];
            if let Some(&victim_pos) = state.topo_pos.get(&task) {
                for (&other_slot, &(bound_app, bound_task)) in &self.bindings {
                    if bound_app != app || other_slot == slot {
                        continue;
                    }
                    if self.released(app, bound_task, at) {
                        continue;
                    }
                    if let Some(&other_pos) = state.topo_pos.get(&bound_task) {
                        if other_pos > victim_pos {
                            out.push(
                                violation(
                                    InvariantRule::PreemptTopoLatest,
                                    at,
                                    format!(
                                        "preempted {task} of {app} while the topologically later \
                                         {bound_task} was still placed on {other_slot}"
                                    ),
                                )
                                .on_slot(slot)
                                .for_app(app),
                            );
                            break;
                        }
                    }
                }
            }
            if state.priority != Priority::High {
                return;
            }
            let Some(&preemptor) = self.data.preemptor.get(&index) else {
                return;
            };
            let preemptor_priority = match self.apps.get(&preemptor) {
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
                .values()
                .filter(|a| a.arrival <= at && a.retired.map_or(true, |r| r >= at))
                .count();
            if live_apps <= self.slot_count {
                out.push(
                    violation(
                        InvariantRule::PreemptPriority,
                        at,
                        format!(
                            "high-priority {app} lost its only slot ({slot}) to {}-priority \
                             {preemptor} with {live_apps} live application(s) on {} slots",
                            preemptor_priority, self.slot_count
                        ),
                    )
                    .on_slot(slot)
                    .for_app(app),
                );
            }
        }

        fn on_retire(&mut self, app: AppId, at: SimTime, out: &mut Vec<Violation>) {
            let Some(state) = self.apps.get_mut(&app) else {
                out.push(
                    violation(
                        InvariantRule::Lifecycle,
                        at,
                        format!("retirement of {app}, which never arrived"),
                    )
                    .for_app(app),
                );
                return;
            };
            if let Some(earlier) = state.retired {
                out.push(
                    violation(
                        InvariantRule::Lifecycle,
                        at,
                        format!("duplicate retirement of {app} (already retired at {earlier})"),
                    )
                    .for_app(app),
                );
                return;
            }
            state.retired = Some(at);
            let batch = state.batch;
            let tasks: Vec<TaskId> = match &state.spec {
                Some(spec) => spec.graph().task_ids().collect(),
                None => state.seen_tasks.iter().copied().collect(),
            };
            for task in tasks {
                let mut counts = vec![0u32; batch as usize];
                if let Some(list) = self.data.completions.get(&(app, task)) {
                    for &(_, item) in list {
                        if (item as usize) < counts.len() {
                            counts[item as usize] += 1;
                        }
                    }
                }
                if counts.iter().all(|&c| c == 0) && batch > 0 {
                    out.push(
                        violation(
                            InvariantRule::TokenConservation,
                            at,
                            format!(
                                "{app} retired with {task} having completed 0 of {batch} items"
                            ),
                        )
                        .for_app(app),
                    );
                    continue;
                }
                for (item, &count) in counts.iter().enumerate() {
                    if count != 1 {
                        out.push(
                            violation(
                                InvariantRule::TokenConservation,
                                at,
                                format!(
                                    "work token for item {item} of {task} of {app} was consumed \
                                     {count} times (expected exactly once)"
                                ),
                            )
                            .for_app(app),
                        );
                    }
                }
            }
            self.bindings
                .retain(|_, &mut (bound_app, _)| bound_app != app);
        }

        fn finish(&self, out: &mut Vec<Violation>, end: SimTime) {
            for (&app, state) in &self.apps {
                if state.retired.is_none() {
                    out.push(
                        violation(
                            InvariantRule::Lifecycle,
                            end,
                            format!(
                                "{app} ('{}') arrived at {} but never retired",
                                state.name, state.arrival
                            ),
                        )
                        .for_app(app),
                    );
                }
            }
        }
    }

    pub fn verify_trace(trace: &Trace, config: &InvariantConfig) -> InvariantReport {
        let events = trace.events();
        let data = SpanData::collect(events);
        let mut violations = hardware_violations(trace, &data);
        if let Some(expected) = config.reconfig_latency {
            for event in events {
                if let TraceEvent::Reconfig {
                    slot,
                    app,
                    task,
                    at,
                    until,
                } = event
                {
                    let took = until.saturating_since(*at);
                    if took != expected {
                        violations.push(
                            violation(
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
        let mut replay = Replay {
            config,
            data: &data,
            slot_count: trace.slots(),
            apps: BTreeMap::new(),
            bindings: BTreeMap::new(),
        };
        for (index, event) in events.iter().enumerate() {
            match event {
                TraceEvent::Arrival {
                    app,
                    name,
                    batch,
                    priority,
                    at,
                } => {
                    replay.on_arrival(*app, name, *batch, *priority, *at, &mut violations);
                }
                TraceEvent::Reconfig {
                    slot,
                    app,
                    task,
                    at,
                    ..
                } => {
                    replay.on_reconfig(*slot, *app, *task, *at, &mut violations);
                }
                TraceEvent::Item {
                    slot,
                    app,
                    task,
                    item,
                    at,
                    ..
                } => {
                    replay.on_item(*slot, *app, *task, *item, *at, &mut violations);
                }
                TraceEvent::Preempt {
                    slot,
                    app,
                    task,
                    at,
                } => {
                    replay.on_preempt(index, *slot, *app, *task, *at, &mut violations);
                }
                TraceEvent::Retire { app, at } => {
                    replay.on_retire(*app, *at, &mut violations);
                }
            }
        }
        let apps_seen = replay.apps.len();
        replay.finish(&mut violations, trace.end());
        violations.sort_by_key(|v| v.at);
        InvariantReport {
            violations,
            events_checked: events.len(),
            apps_seen,
        }
    }

    struct AppTimeline {
        arrival_order: usize,
        name: String,
        priority: Priority,
        arrival_us: u64,
        retire_us: Option<u64>,
        items: Vec<(usize, u32, u64, u64)>,
        reconfigs: Vec<(usize, usize, u64, u64)>,
        preempts: Vec<(usize, u64)>,
    }

    fn timelines(trace: &Trace) -> (Vec<(AppId, AppTimeline)>, Vec<(u64, u64)>) {
        let mut apps: BTreeMap<AppId, AppTimeline> = BTreeMap::new();
        let mut order: Vec<AppId> = Vec::new();
        let mut cap: Vec<(u64, u64)> = Vec::new();
        for event in trace.events() {
            match event {
                TraceEvent::Arrival {
                    app,
                    name,
                    priority,
                    at,
                    ..
                } => {
                    order.push(*app);
                    apps.insert(
                        *app,
                        AppTimeline {
                            arrival_order: order.len() - 1,
                            name: name.clone(),
                            priority: *priority,
                            arrival_us: at.as_micros(),
                            retire_us: None,
                            items: Vec::new(),
                            reconfigs: Vec::new(),
                            preempts: Vec::new(),
                        },
                    );
                }
                TraceEvent::Retire { app, at } => {
                    if let Some(tl) = apps.get_mut(app) {
                        tl.retire_us = Some(at.as_micros());
                    }
                }
                TraceEvent::Item {
                    app,
                    task,
                    item,
                    at,
                    until,
                    ..
                } => {
                    if let Some(tl) = apps.get_mut(app) {
                        tl.items
                            .push((task.index(), *item, at.as_micros(), until.as_micros()));
                    }
                }
                TraceEvent::Reconfig {
                    slot,
                    app,
                    task,
                    at,
                    until,
                } => {
                    cap.push((at.as_micros(), until.as_micros()));
                    if let Some(tl) = apps.get_mut(app) {
                        tl.reconfigs.push((
                            task.index(),
                            slot.index(),
                            at.as_micros(),
                            until.as_micros(),
                        ));
                    }
                }
                TraceEvent::Preempt { app, task, at, .. } => {
                    if let Some(tl) = apps.get_mut(app) {
                        tl.preempts.push((task.index(), at.as_micros()));
                    }
                }
            }
        }
        cap.sort_unstable();
        let ordered = order
            .into_iter()
            .filter_map(|id| apps.remove(&id).map(|tl| (id, tl)))
            .collect();
        (ordered, cap)
    }

    fn clamp(start: u64, end: u64, lo: u64, hi: u64) -> Option<(u64, u64)> {
        let s = start.max(lo);
        let e = end.min(hi);
        (s < e).then_some((s, e))
    }

    fn union(mut spans: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
        spans.sort_unstable();
        let mut out: Vec<(u64, u64)> = Vec::with_capacity(spans.len());
        for (s, e) in spans {
            match out.last_mut() {
                Some(last) if s <= last.1 => last.1 = last.1.max(e),
                _ => out.push((s, e)),
            }
        }
        out
    }

    fn covered(spans: &[(u64, u64)], t: u64) -> bool {
        let i = spans.partition_point(|&(s, _)| s <= t);
        i > 0 && t < spans[i - 1].1
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Cause {
        Busy,
        Reconfig,
        PreemptionLoss,
        CapSerialization,
        QueueWait,
    }

    struct Classified {
        segments: Vec<(u64, u64, Cause)>,
        components: AttributionComponents,
    }

    fn classify(tl: &AppTimeline, cap: &[(u64, u64)]) -> Option<Classified> {
        let a = tl.arrival_us;
        let r = tl.retire_us?;
        if r <= a {
            return Some(Classified {
                segments: Vec::new(),
                components: AttributionComponents::default(),
            });
        }
        let own_items: Vec<(u64, u64)> = tl
            .items
            .iter()
            .filter_map(|&(_, _, s, e)| clamp(s, e, a, r))
            .collect();
        let compute: u64 = own_items.iter().map(|&(s, e)| e - s).sum();
        let busy = union(own_items);
        let rec = union(
            tl.reconfigs
                .iter()
                .filter_map(|&(_, _, s, e)| clamp(s, e, a, r))
                .collect(),
        );
        let pend = union(
            tl.preempts
                .iter()
                .filter_map(|&(task, at)| {
                    let next_rec = tl
                        .reconfigs
                        .iter()
                        .filter(|&&(t, _, s, _)| t == task && s >= at)
                        .map(|&(_, _, s, _)| s)
                        .min();
                    let next_item = tl
                        .items
                        .iter()
                        .filter(|&&(t, _, s, _)| t == task && s >= at)
                        .map(|&(_, _, s, _)| s)
                        .min();
                    let end = match (next_rec, next_item) {
                        (Some(x), Some(y)) => x.min(y),
                        (Some(x), None) | (None, Some(x)) => x,
                        (None, None) => r,
                    };
                    clamp(at, end.max(at), a, r)
                })
                .collect(),
        );
        let cap_busy = union(cap.iter().filter_map(|&(s, e)| clamp(s, e, a, r)).collect());

        let mut bounds: Vec<u64> = vec![a, r];
        for set in [&busy, &rec, &pend, &cap_busy] {
            for &(s, e) in set.iter() {
                bounds.push(s);
                bounds.push(e);
            }
        }
        bounds.sort_unstable();
        bounds.dedup();

        let mut components = AttributionComponents {
            compute,
            ..AttributionComponents::default()
        };
        let mut busy_union_len = 0u64;
        let mut segments = Vec::with_capacity(bounds.len().saturating_sub(1));
        for pair in bounds.windows(2) {
            let (t0, t1) = (pair[0], pair[1]);
            let len = t1 - t0;
            let cause = if covered(&busy, t0) {
                busy_union_len += len;
                Cause::Busy
            } else if covered(&rec, t0) {
                components.reconfig += len;
                Cause::Reconfig
            } else if covered(&pend, t0) {
                components.preemption_loss += len;
                Cause::PreemptionLoss
            } else if covered(&cap_busy, t0) {
                components.cap_serialization += len;
                Cause::CapSerialization
            } else {
                components.queue_wait += len;
                Cause::QueueWait
            };
            segments.push((t0, t1, cause));
        }
        components.pipeline_overlap_gain = busy_union_len as i64 - compute as i64;
        Some(Classified {
            segments,
            components,
        })
    }

    pub fn attribute_trace(trace: &Trace) -> AttributionSummary {
        let (apps, cap) = timelines(trace);
        let attributions = apps
            .iter()
            .filter_map(|(_, tl)| {
                let classified = classify(tl, &cap)?;
                let response = tl.retire_us?.saturating_sub(tl.arrival_us);
                Some(AppAttribution {
                    event_index: tl.arrival_order,
                    app_name: tl.name.clone(),
                    priority: tl.priority,
                    response_micros: response,
                    components: classified.components,
                })
            })
            .collect();
        AttributionSummary::from_apps(attributions)
    }

    pub fn span_trees(trace: &Trace) -> Vec<Span> {
        let (apps, cap) = timelines(trace);
        let mut trees = Vec::new();
        for (id, tl) in &apps {
            let Some(retire) = tl.retire_us else { continue };
            let Some(classified) = classify(tl, &cap) else {
                continue;
            };
            let mut root = Span::new(
                format!("{} {}", tl.name, id),
                SpanKind::App,
                tl.arrival_us,
                retire,
            );
            root.critical = true;

            let mut item_critical = vec![false; tl.items.len()];
            for &(t0, _, cause) in &classified.segments {
                if cause != Cause::Busy {
                    continue;
                }
                let last_ending = tl
                    .items
                    .iter()
                    .enumerate()
                    .filter(|&(_, &(_, _, s, e))| s <= t0 && t0 < e)
                    .max_by_key(|&(i, &(_, _, _, e))| (e, i))
                    .map(|(i, _)| i);
                if let Some(i) = last_ending {
                    item_critical[i] = true;
                }
            }

            let mut tasks: BTreeMap<usize, Span> = BTreeMap::new();
            let task_span = |tasks: &mut BTreeMap<usize, Span>, task: usize| {
                tasks.entry(task).or_insert_with(|| {
                    let mut span = Span::new(format!("task#{task}"), SpanKind::Task, u64::MAX, 0);
                    if task > 0 {
                        span.links.push(format!("pred:task#{}", task - 1));
                    }
                    span
                });
            };
            for &(task, slot, s, e) in &tl.reconfigs {
                task_span(&mut tasks, task);
                let parent = tasks.get_mut(&task).expect("just inserted");
                parent.start_us = parent.start_us.min(s);
                parent.end_us = parent.end_us.max(e);
                let mut span = Span::new(format!("reconfig slot#{slot}"), SpanKind::Reconfig, s, e);
                span.links.push("cap".to_owned());
                span.critical = true;
                parent.children.push(span);
            }
            for (i, &(task, item, s, e)) in tl.items.iter().enumerate() {
                task_span(&mut tasks, task);
                let parent = tasks.get_mut(&task).expect("just inserted");
                parent.start_us = parent.start_us.min(s);
                parent.end_us = parent.end_us.max(e);
                let mut span = Span::new(format!("item{item}"), SpanKind::BatchItem, s, e);
                span.critical = item_critical[i];
                if span.critical {
                    parent.critical = true;
                }
                parent.children.push(span);
            }
            for &(task, at) in &tl.preempts {
                if let Some(parent) = tasks.get_mut(&task) {
                    let resume = tl
                        .reconfigs
                        .iter()
                        .filter(|&&(t, _, s, _)| t == task && s >= at)
                        .map(|&(_, _, s, _)| s)
                        .min()
                        .unwrap_or(retire);
                    parent.end_us = parent.end_us.max(resume);
                    let mut span = Span::new("preempted".to_owned(), SpanKind::Preempt, at, resume);
                    span.critical = true;
                    parent.children.push(span);
                }
            }
            for task in tasks.values_mut() {
                task.children.sort_by_key(|c| (c.start_us, c.end_us));
            }

            let mut gaps: Vec<Span> = Vec::new();
            for &(t0, t1, cause) in &classified.segments {
                let (kind, name, link) = match cause {
                    Cause::QueueWait => (SpanKind::Queue, "queue wait", None),
                    Cause::CapSerialization => (SpanKind::Requeue, "cap wait", Some("cap")),
                    _ => continue,
                };
                match gaps.last_mut() {
                    Some(last) if last.end_us == t0 && last.kind == kind => last.end_us = t1,
                    _ => {
                        let mut span = Span::new(name.to_owned(), kind, t0, t1);
                        span.critical = true;
                        if let Some(link) = link {
                            span.links.push(link.to_owned());
                        }
                        gaps.push(span);
                    }
                }
            }

            let mut children: Vec<Span> = tasks.into_values().collect();
            children.extend(gaps);
            children.sort_by_key(|c| (c.start_us, c.end_us));
            root.children = children;
            trees.push(root);
        }
        trees
    }
}

// ---------------------------------------------------------------------------
// Comparison.
// ---------------------------------------------------------------------------

/// The four verifier configurations the check path runs under.
fn configs() -> [(&'static str, InvariantConfig); 4] {
    [
        ("default", InvariantConfig::default()),
        (
            "reconfig-80ms",
            InvariantConfig::default().with_reconfig_latency(SimDuration::from_millis(80)),
        ),
        ("mechanism-only", InvariantConfig::mechanism_only()),
        (
            "mid-item",
            InvariantConfig::default().with_mid_item_preemption(),
        ),
    ]
}

/// Runs `f`, returning its panic message instead of unwinding.
fn guarded<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|m| (*m).to_owned()))
            .unwrap_or_default()
    })
}

/// Whether the report names an item whose task its graph does not have.
fn reports_unknown_task(report: &InvariantReport) -> bool {
    report
        .of_rule(InvariantRule::Lifecycle)
        .iter()
        .any(|v| v.message.contains("graph does not have"))
}

/// What the two implementations agreed on, for the panel's coverage check.
#[derive(Default)]
struct Tally {
    traces: usize,
    violations: usize,
    reference_panics: usize,
    rules: std::collections::BTreeSet<InvariantRule>,
}

/// Compares every check-path output of the production code with the
/// reference on one trace.
fn compare(what: &str, trace: &Trace, tally: &mut Tally) -> Result<(), String> {
    tally.traces += 1;
    for (name, config) in configs() {
        let fresh = verify_trace(trace, &config);
        match guarded(|| reference::verify_trace(trace, &config)) {
            Ok(old) => {
                if fresh != old {
                    return Err(format!(
                        "{what} [{name}]: reports differ\nreference:\n{old}\nindexed:\n{fresh}"
                    ));
                }
            }
            Err(message) => {
                tally.reference_panics += 1;
                if !message.contains("index out of bounds") || !reports_unknown_task(&fresh) {
                    return Err(format!(
                        "{what} [{name}]: the reference panicked ({message}) but the indexed \
                         verifier did not report the unknown task:\n{fresh}"
                    ));
                }
            }
        }
        tally.violations += fresh.violations.len();
        tally.rules.extend(fresh.rules_fired());
    }
    if verify_hardware(trace) != reference::verify_hardware(trace) {
        return Err(format!("{what}: hardware violations differ"));
    }
    let fresh = nimblock_ser::to_string_pretty(&attribute_trace(trace));
    let old = nimblock_ser::to_string_pretty(&reference::attribute_trace(trace));
    if fresh != old {
        return Err(format!(
            "{what}: attribution differs\nreference:\n{old}\nindexed:\n{fresh}"
        ));
    }
    let fresh = format!("{:#?}", span_trees(trace));
    let old = format!("{:#?}", reference::span_trees(trace));
    if fresh != old {
        let line = fresh
            .lines()
            .zip(old.lines())
            .position(|(a, b)| a != b)
            .unwrap_or(0);
        return Err(format!("{what}: span trees differ from line {line}"));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// The fixed panel.
// ---------------------------------------------------------------------------

/// The five policies the paper evaluates (Fig. 5).
fn main_policies() -> Vec<Box<dyn Scheduler + Send>> {
    vec![
        Box::new(NoSharingScheduler::new()),
        Box::new(FcfsScheduler::new()),
        Box::new(RoundRobinScheduler::new()),
        Box::new(PremaScheduler::new()),
        Box::new(NimblockScheduler::new()),
    ]
}

fn hetero_board() -> DeviceConfig {
    let large = Resources {
        dsp: zcu106::SLOT_MAX.dsp * 2,
        lut: zcu106::SLOT_MAX.lut * 2,
        ff: zcu106::SLOT_MAX.ff * 2,
        carry: zcu106::SLOT_MAX.carry * 2,
        ramb18: zcu106::SLOT_MAX.ramb18 * 2,
        ramb36: zcu106::SLOT_MAX.ramb36 * 2,
        iobuf: zcu106::SLOT_MAX.iobuf * 2,
    };
    let small = zcu106::SLOT_MIN;
    DeviceConfig::zcu106().with_slot_resources(vec![small, small, small, small, large, large])
}

/// The committed trace fixtures and the golden trace, by file name.
fn committed_traces() -> Vec<(String, Trace)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests");
    let mut paths: Vec<_> = std::fs::read_dir(root.join("fixtures"))
        .expect("tests/fixtures is readable")
        .map(|entry| entry.expect("directory entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "json"))
        .collect();
    paths.sort();
    paths.push(root.join("goldens").join("trace.json"));
    paths
        .into_iter()
        .map(|path| {
            let text = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
            let trace = nimblock_ser::from_str::<Trace>(&text)
                .unwrap_or_else(|e| panic!("{} is not a trace: {e}", path.display()));
            (
                path.file_name().unwrap().to_string_lossy().into_owned(),
                trace,
            )
        })
        .collect()
}

/// Every trace of the fixed panel, named.
fn panel() -> Vec<(String, Trace)> {
    let mut traces = Vec::new();
    for scenario in [Scenario::Standard, Scenario::Stress, Scenario::RealTime] {
        for (i, events) in generate_suite(2023, 2, 12, scenario).iter().enumerate() {
            for scheduler in main_policies() {
                let name = format!("{} {} #{i}", scheduler.name(), scenario.name());
                traces.push((name, Testbed::new(scheduler).run_traced(events).1));
            }
        }
    }
    for (i, events) in generate_suite(2023, 2, 102, Scenario::RealTime)
        .iter()
        .enumerate()
    {
        let (_, trace) = Testbed::new(NimblockScheduler::new()).run_traced(events);
        traces.push((format!("nimblock real-time 102 arrivals #{i}"), trace));
    }
    for (i, events) in generate_suite(2023, 2, 12, Scenario::Stress)
        .iter()
        .enumerate()
    {
        let (_, trace) = Testbed::new(NimblockScheduler::with_config(
            NimblockConfig::fine_preemption(),
        ))
        .with_fine_preemption(SimDuration::from_millis(10))
        .run_traced(events);
        traces.push((format!("nimblock checkpointing #{i}"), trace));
        for scheduler in [
            Box::new(NimblockScheduler::new()) as Box<dyn Scheduler + Send>,
            Box::new(FcfsScheduler::new()),
        ] {
            let name = format!("{} hetero #{i}", scheduler.name());
            let (_, trace) = Testbed::new(scheduler)
                .with_device_config(hetero_board())
                .run_traced(events);
            traces.push((name, trace));
        }
    }
    let events = &generate_suite(2023, 1, 24, Scenario::Stress)[0];
    let factory = || Box::new(NimblockScheduler::new()) as Box<dyn Scheduler + Send>;
    let report = ClusterTestbed::new(4, DispatchPolicy::FewestApps, factory)
        .with_tracing()
        .run(events);
    for (board, trace) in report.per_board_traces().iter().enumerate() {
        traces.push((format!("cluster board {board}"), trace.clone()));
    }
    traces.extend(committed_traces());
    traces
}

#[test]
fn the_fixed_panel_matches_the_reference_check_path() {
    let mut tally = Tally::default();
    for (name, trace) in panel() {
        if let Err(message) = compare(&name, &trace, &mut tally) {
            panic!("{message}");
        }
    }
    // The panel is not vacuous: the fixtures fire violations, and every
    // preemption rule the fixtures target is among them.
    assert!(tally.traces > 40, "{} traces", tally.traces);
    assert!(tally.violations > 0);
    for rule in [
        InvariantRule::CapExclusive,
        InvariantRule::SlotOverlap,
        InvariantRule::PreemptBoundary,
        InvariantRule::PreemptPriority,
        InvariantRule::TokenConservation,
    ] {
        assert!(tally.rules.contains(&rule), "the panel never fires {rule}");
    }
}

// ---------------------------------------------------------------------------
// The mutation sweep.
// ---------------------------------------------------------------------------

fn shift(t: SimTime, g: &mut Gen) -> SimTime {
    let delta = g.u64(0..=120_000);
    if g.bool() {
        SimTime::from_micros(t.as_micros().saturating_add(delta))
    } else {
        SimTime::from_micros(t.as_micros().saturating_sub(delta))
    }
}

/// Applies one random corruption to `events`; returns the slot count the
/// mutated trace declares.
fn mutate(events: &mut Vec<TraceEvent>, slots: usize, g: &mut Gen) -> usize {
    if events.is_empty() {
        return slots;
    }
    let i = g.usize(0..=events.len() - 1);
    match g.usize(0..=11) {
        0 => {
            events.remove(i);
        }
        1 => {
            let copy = events[i].clone();
            let at = g.usize(0..=events.len());
            events.insert(at, copy);
        }
        2 => {
            let j = g.usize(0..=events.len() - 1);
            events.swap(i, j);
        }
        3 => match &mut events[i] {
            TraceEvent::Reconfig { at, until, .. } | TraceEvent::Item { at, until, .. } => {
                if g.bool() {
                    *at = shift(*at, g);
                } else {
                    *until = shift(*until, g);
                }
            }
            TraceEvent::Arrival { at, .. }
            | TraceEvent::Preempt { at, .. }
            | TraceEvent::Retire { at, .. } => *at = shift(*at, g),
        },
        4 => match &mut events[i] {
            TraceEvent::Reconfig { slot, .. }
            | TraceEvent::Item { slot, .. }
            | TraceEvent::Preempt { slot, .. } => {
                let bound = u32::try_from(slots).unwrap_or(u32::MAX).saturating_add(2);
                *slot = SlotId::new(g.u32(0..=bound));
            }
            _ => {}
        },
        5 => {
            let app = AppId::new(g.u64(0..=12));
            match &mut events[i] {
                TraceEvent::Arrival { app: a, .. }
                | TraceEvent::Reconfig { app: a, .. }
                | TraceEvent::Item { app: a, .. }
                | TraceEvent::Preempt { app: a, .. }
                | TraceEvent::Retire { app: a, .. } => *a = app,
            }
        }
        6 => match &mut events[i] {
            TraceEvent::Reconfig { task, .. }
            | TraceEvent::Item { task, .. }
            | TraceEvent::Preempt { task, .. } => *task = TaskId::new(g.u32(0..=40)),
            _ => {}
        },
        7 => match &mut events[i] {
            TraceEvent::Item { item, .. } => *item = g.u32(0..=40),
            TraceEvent::Arrival { batch, .. } => *batch = g.u32(0..=40),
            _ => {}
        },
        8 => {
            // A preemption in the middle of a traced span.
            if let TraceEvent::Reconfig {
                slot,
                app,
                task,
                at,
                until,
            }
            | TraceEvent::Item {
                slot,
                app,
                task,
                at,
                until,
                ..
            } = events[i].clone()
            {
                let mid = SimTime::from_micros(
                    at.as_micros() + until.as_micros().saturating_sub(at.as_micros()) / 2,
                );
                events.insert(
                    i + 1,
                    TraceEvent::Preempt {
                        slot,
                        app,
                        task,
                        at: mid,
                    },
                );
            }
        }
        9 => {
            if let TraceEvent::Arrival { priority, .. } = &mut events[i] {
                *priority = *g.pick(&Priority::ALL);
            }
        }
        10 => {
            // The same task configured onto a second slot at once.
            if let TraceEvent::Reconfig {
                slot,
                app,
                task,
                at,
                until,
            } = events[i].clone()
            {
                let other = SlotId::new((slot.index() as u32 + 1) % slots.max(1) as u32);
                events.insert(
                    i + 1,
                    TraceEvent::Reconfig {
                        slot: other,
                        app,
                        task,
                        at,
                        until,
                    },
                );
            }
        }
        _ => return g.usize(0..=slots.saturating_sub(1)),
    }
    slots
}

/// The shorter panel traces, whose corruptions the sweep checks.
fn sweep_bases() -> Vec<(String, Trace)> {
    let mut bases = Vec::new();
    for scenario in [Scenario::Standard, Scenario::Stress, Scenario::RealTime] {
        let events = &generate_suite(2023, 1, 6, scenario)[0];
        for scheduler in [
            Box::new(NimblockScheduler::new()) as Box<dyn Scheduler + Send>,
            Box::new(PremaScheduler::new()),
            Box::new(FcfsScheduler::new()),
        ] {
            let name = format!("{} {}", scheduler.name(), scenario.name());
            bases.push((
                name,
                Testbed::new(scheduler)
                    .with_device_config(small_board())
                    .run_traced(events)
                    .1,
            ));
        }
    }
    let events = &generate_suite(2023, 1, 6, Scenario::Stress)[0];
    let (_, trace) = Testbed::new(NimblockScheduler::with_config(
        NimblockConfig::fine_preemption(),
    ))
    .with_fine_preemption(SimDuration::from_millis(10))
    .with_device_config(small_board())
    .run_traced(events);
    bases.push(("nimblock checkpointing".to_owned(), trace));
    bases.extend(committed_traces());
    bases
}

/// A three-slot board: contention makes preemptions frequent.
fn small_board() -> DeviceConfig {
    DeviceConfig::zcu106().with_slot_count(3)
}

fn rebuild(events: Vec<TraceEvent>, slots: usize) -> Trace {
    let mut trace = Trace::with_slots(slots);
    for event in events {
        trace.record(event);
    }
    trace
}

#[test]
fn mutated_traces_match_the_reference_check_path() {
    let bases = sweep_bases();
    let mut tally = Tally::default();
    check_with(
        Config::new().cases(160),
        "mutated_traces_match_the_reference_check_path",
        |g| {
            let (name, base) = g.pick(&bases);
            let mut events = base.events().to_vec();
            let mut slots = base.slots();
            let rounds = g.usize(1..=6);
            for _ in 0..rounds {
                slots = mutate(&mut events, slots, g);
            }
            let trace = rebuild(events, slots);
            compare(
                &format!("{name} after {rounds} mutation(s)"),
                &trace,
                &mut tally,
            )
        },
    );
    assert!(tally.violations > 0);
    let missing: Vec<_> = InvariantRule::ALL
        .into_iter()
        .filter(|rule| !tally.rules.contains(rule))
        .collect();
    assert!(
        missing.is_empty(),
        "the sweep never fires {missing:?} ({} violations)",
        tally.violations
    );
}

/// The reference panics where an item names a task outside its graph;
/// the indexed verifier reports it and checks the rest of the trace.
#[test]
fn an_unknown_task_is_reported_where_the_reference_panics() {
    let mut trace = Trace::with_slots(1);
    trace.record(TraceEvent::Arrival {
        app: AppId::new(0),
        name: "LeNet".to_owned(),
        batch: 1,
        priority: Priority::Low,
        at: SimTime::ZERO,
    });
    trace.record(TraceEvent::Reconfig {
        slot: SlotId::new(0),
        app: AppId::new(0),
        task: TaskId::new(7),
        at: SimTime::ZERO,
        until: SimTime::from_millis(80),
    });
    trace.record(TraceEvent::Item {
        slot: SlotId::new(0),
        app: AppId::new(0),
        task: TaskId::new(7),
        item: 0,
        at: SimTime::from_millis(80),
        until: SimTime::from_millis(90),
    });
    let mut tally = Tally::default();
    compare("unknown task", &trace, &mut tally).unwrap();
    assert_eq!(
        tally.reference_panics, 4,
        "the reference panics under every config"
    );
}
