//! Response-time attribution: critical-path decomposition of every
//! application's life from a recorded [`Trace`].
//!
//! The paper's evaluation (Figs. 6–9) is an argument about *where
//! response time goes* under each policy — queue wait, CAP-serialized
//! reconfiguration, compute, preemption loss, and the wall-clock time
//! cross-batch pipelining claws back. This module turns any trace into
//! that argument, mechanically:
//!
//! 1. [`attribute_trace`] walks each retired application's `[arrival,
//!    retire)` window and classifies every elementary interval by the
//!    cause that was *driving (or blocking) progress* at that instant,
//!    with a fixed precedence — own execution > own reconfiguration >
//!    preemption loss > CAP serialization > queue wait. The resulting
//!    six components sum **exactly** (integer microseconds, no drift)
//!    to the measured response time; `pipeline_overlap_gain` is the
//!    negative term crediting overlapped execution across slots.
//! 2. [`span_trees`] derives a Dapper-style span tree per application
//!    (app → task → batch item, with reconfig / preemption / queue
//!    children, causal links to the CAP and the blocking predecessor
//!    task) and flags the spans on the critical path.
//!
//! Both run on the bare trace — no hypervisor state needed — so
//! `nimblock analyze explain` can post-process any `trace.json`.
//!
//! ## Cost
//!
//! One pass builds the per-app timelines and the union of every CAP span.
//! Each app then binary-searches its `[arrival, retire)` window in that
//! union instead of scanning every span, and one sweep with a monotone
//! cursor per span union labels its elementary intervals. `span_trees`
//! finds each busy interval's driving item by a second sweep over the
//! items in start order. Apart from sorting, the work is linear in the
//! trace.
//!
//! ## Why the decomposition is exact
//!
//! For one app, partition `[arrival, retire)` at every span boundary.
//! Each elementary interval gets exactly one label, so the labelled
//! interval lengths sum to the response time by construction. The
//! *busy* label (some own task item running) is then rewritten as
//! `compute + pipeline_overlap_gain`, where `compute` is the sum of
//! clamped item durations (double-counting parallel items) and the
//! gain is `busy_union − compute ≤ 0` — an identity, so exactness is
//! preserved.

use std::collections::{BTreeMap, BinaryHeap};

use nimblock_metrics::{AppAttribution, AttributionComponents, AttributionSummary};
use nimblock_obs::{Span, SpanKind};

use nimblock_app::Priority;

use crate::dense::DenseIds;
use crate::trace::{Trace, TraceEvent};
use crate::AppId;

/// Everything one application's trace events say about its life.
struct AppTimeline<'t> {
    id: AppId,
    /// Position of this app's `Arrival` among all arrivals (equals the
    /// stimulus event index for time-sorted sequences — the simulator
    /// pops same-time events FIFO).
    arrival_order: usize,
    name: &'t str,
    priority: Priority,
    arrival_us: u64,
    retire_us: Option<u64>,
    /// `(task, item, start, end)` in record order.
    items: Vec<(usize, u32, u64, u64)>,
    /// `(task, slot, start, end)` own reconfigurations.
    reconfigs: Vec<(usize, usize, u64, u64)>,
    /// `(task, at)` preemptions suffered.
    preempts: Vec<(usize, u64)>,
}

/// Collects per-app timelines, in order of first arrival, plus the union
/// of the CAP busy spans. A repeated arrival starts its app's timeline
/// afresh; events of an app that has not arrived are ignored.
fn timelines(trace: &Trace) -> (Vec<AppTimeline<'_>>, Vec<(u64, u64)>) {
    let mut ids = DenseIds::default();
    let mut apps: Vec<AppTimeline<'_>> = Vec::new();
    let mut arrivals = 0;
    let mut cap: Vec<(u64, u64)> = Vec::new();
    for event in trace.events() {
        let app = match event {
            TraceEvent::Arrival { app, name, priority, at, .. } => {
                let timeline = AppTimeline {
                    id: *app,
                    arrival_order: arrivals,
                    name,
                    priority: *priority,
                    arrival_us: at.as_micros(),
                    retire_us: None,
                    items: Vec::new(),
                    reconfigs: Vec::new(),
                    preempts: Vec::new(),
                };
                arrivals += 1;
                match ids.intern(app.raw()) {
                    (_, true) => apps.push(timeline),
                    (i, false) => apps[i] = timeline,
                }
                continue;
            }
            TraceEvent::Reconfig { app, at, until, .. } => {
                cap.push((at.as_micros(), until.as_micros()));
                app
            }
            TraceEvent::Retire { app, .. }
            | TraceEvent::Item { app, .. }
            | TraceEvent::Preempt { app, .. } => app,
        };
        let Some(i) = ids.lookup(app.raw()) else { continue };
        let tl = &mut apps[i];
        match event {
            TraceEvent::Retire { at, .. } => tl.retire_us = Some(at.as_micros()),
            TraceEvent::Item { task, item, at, until, .. } => {
                tl.items.push((task.index(), *item, at.as_micros(), until.as_micros()));
            }
            TraceEvent::Reconfig { slot, task, at, until, .. } => {
                tl.reconfigs.push((
                    task.index(),
                    slot.index(),
                    at.as_micros(),
                    until.as_micros(),
                ));
            }
            TraceEvent::Preempt { task, at, .. } => tl.preempts.push((task.index(), at.as_micros())),
            TraceEvent::Arrival { .. } => {}
        }
    }
    // Empty and inverted spans cover no instant.
    cap.retain(|&(s, e)| s < e);
    (apps, union(cap))
}

/// Clamps `(start, end)` to `[lo, hi]`; `None` if the result is empty.
fn clamp(start: u64, end: u64, lo: u64, hi: u64) -> Option<(u64, u64)> {
    let s = start.max(lo);
    let e = end.min(hi);
    (s < e).then_some((s, e))
}

/// Merges possibly-overlapping spans into a sorted disjoint union.
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

/// A monotone cursor over a sorted disjoint union, probed at
/// non-decreasing instants.
struct Cursor<'s> {
    spans: &'s [(u64, u64)],
}

impl Cursor<'_> {
    /// Whether `t` lies inside the union, and the first span boundary after
    /// `t` (`u64::MAX` when none is left).
    fn probe(&mut self, t: u64) -> (bool, u64) {
        while let Some((&(_, e), rest)) = self.spans.split_first() {
            if e > t {
                break;
            }
            self.spans = rest;
        }
        match self.spans.first() {
            Some(&(s, e)) if s <= t => (true, e),
            Some(&(s, _)) => (false, s),
            None => (false, u64::MAX),
        }
    }
}

/// `(task, start)` of every span, sorted: the first start of one task at
/// or after an instant is one binary search away.
fn task_starts(spans: impl Iterator<Item = (usize, u64)>) -> Vec<(usize, u64)> {
    let mut starts: Vec<(usize, u64)> = spans.collect();
    starts.sort_unstable();
    starts
}

/// The first start of `task` at or after `at` in sorted `task_starts`.
fn first_start(starts: &[(usize, u64)], task: usize, at: u64) -> Option<u64> {
    let i = starts.partition_point(|&key| key < (task, at));
    starts.get(i).filter(|&&(t, _)| t == task).map(|&(_, s)| s)
}

/// The label an elementary interval receives, in precedence order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Cause {
    Busy,
    Reconfig,
    PreemptionLoss,
    CapSerialization,
    QueueWait,
}

/// Per-app classified timeline: each elementary interval of
/// `[arrival, retire)` with its winning cause (when asked for), plus the
/// derived components. Internal scaffolding shared by [`attribute_trace`]
/// and [`span_trees`].
struct Classified {
    segments: Vec<(u64, u64, Cause)>,
    components: AttributionComponents,
}

/// Classifies one app's life against the trace-wide CAP union `cap`,
/// keeping the elementary intervals only when `keep_segments` is set.
fn classify(tl: &AppTimeline<'_>, cap: &[(u64, u64)], keep_segments: bool) -> Option<Classified> {
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
    // A preemption's pending window ends when the task next gets a
    // reconfiguration stream (normal path) or, defensively, when it
    // next runs an item; otherwise it pends until retirement.
    let pend = if tl.preempts.is_empty() {
        Vec::new()
    } else {
        let rec_starts = task_starts(tl.reconfigs.iter().map(|&(t, _, s, _)| (t, s)));
        let item_starts = task_starts(tl.items.iter().map(|&(t, _, s, _)| (t, s)));
        union(
            tl.preempts
                .iter()
                .filter_map(|&(task, at)| {
                    let next_rec = first_start(&rec_starts, task, at);
                    let next_item = first_start(&item_starts, task, at);
                    let end = match (next_rec, next_item) {
                        (Some(x), Some(y)) => x.min(y),
                        (Some(x), None) | (None, Some(x)) => x,
                        (None, None) => r,
                    };
                    clamp(at, end.max(at), a, r)
                })
                .collect(),
        )
    };
    // The CAP pieces overlapping `[a, r)`; probed only inside the window,
    // so they need no clamping.
    let first = cap.partition_point(|&(_, e)| e <= a);
    let cap_busy = &cap[first..first + cap[first..].partition_point(|&(s, _)| s < r)];

    // Sweep the elementary intervals: each ends at the next boundary of
    // any of the four unions (or at retirement), and takes the cause of
    // the first union, in precedence order, that covers its start.
    let mut components = AttributionComponents {
        compute,
        ..AttributionComponents::default()
    };
    let mut busy_union_len = 0u64;
    let mut segments = Vec::new();
    let mut cursors = [
        (Cursor { spans: &busy }, Cause::Busy),
        (Cursor { spans: &rec }, Cause::Reconfig),
        (Cursor { spans: &pend }, Cause::PreemptionLoss),
        (Cursor { spans: cap_busy }, Cause::CapSerialization),
    ];
    let mut t0 = a;
    while t0 < r {
        let mut t1 = r;
        let mut cause = Cause::QueueWait;
        for (cursor, label) in &mut cursors {
            let (covered, next) = cursor.probe(t0);
            t1 = t1.min(next);
            if covered && cause == Cause::QueueWait {
                cause = *label;
            }
        }
        let len = t1 - t0;
        match cause {
            Cause::Busy => busy_union_len += len,
            Cause::Reconfig => components.reconfig += len,
            Cause::PreemptionLoss => components.preemption_loss += len,
            Cause::CapSerialization => components.cap_serialization += len,
            Cause::QueueWait => components.queue_wait += len,
        }
        if keep_segments {
            segments.push((t0, t1, cause));
        }
        t0 = t1;
    }
    // busy = compute + gain, an identity: the sum stays exact.
    components.pipeline_overlap_gain = busy_union_len as i64 - compute as i64;
    Some(Classified { segments, components })
}

/// Decomposes every retired application's response time into the six
/// attribution components (see the module docs for the exactness
/// argument). Apps are indexed by arrival order, which matches the
/// stimulus event index for time-sorted sequences.
pub fn attribute_trace(trace: &Trace) -> AttributionSummary {
    let (apps, cap) = timelines(trace);
    let attributions = apps
        .iter()
        .filter_map(|tl| {
            let classified = classify(tl, &cap, false)?;
            let response = tl.retire_us?.saturating_sub(tl.arrival_us);
            debug_assert!(
                classified.components.sums_to(response),
                "attribution drift for {}: {:?} != {response}",
                tl.name,
                classified.components,
            );
            Some(AppAttribution {
                event_index: tl.arrival_order,
                app_name: tl.name.to_owned(),
                priority: tl.priority,
                response_micros: response,
                components: classified.components,
            })
        })
        .collect();
    AttributionSummary::from_apps(attributions)
}

/// Which own item drives each busy interval: among the items running at
/// its start, the one ending last (the later-recorded on a tie). One sweep
/// over the items in start order, with the running ones in a max-heap
/// keyed `(end, index)`.
fn critical_items(items: &[(usize, u32, u64, u64)], segments: &[(u64, u64, Cause)]) -> Vec<bool> {
    let mut critical = vec![false; items.len()];
    let mut by_start: Vec<usize> = (0..items.len()).collect();
    by_start.sort_unstable_by_key(|&i| items[i].2);
    let mut by_start = by_start.into_iter().peekable();
    let mut running: BinaryHeap<(u64, usize)> = BinaryHeap::new();
    for &(t0, _, cause) in segments {
        if cause != Cause::Busy {
            continue;
        }
        while let Some(i) = by_start.next_if(|&i| items[i].2 <= t0) {
            running.push((items[i].3, i));
        }
        // Segment starts only grow, so an item ended by one is ended for
        // every later one.
        while running.peek().is_some_and(|&(end, _)| end <= t0) {
            running.pop();
        }
        if let Some(&(_, i)) = running.peek() {
            critical[i] = true;
        }
    }
    critical
}

/// Derives one span tree per retired application, in arrival order:
/// an `App` root with `Task` children (each holding its `Reconfig`
/// and `BatchItem` spans plus post-preemption `Preempt` pending
/// windows), interleaved with synthesized `Queue` ("queue wait") and
/// `Requeue` ("cap wait") spans for the intervals where the app was
/// purely blocked. Spans on the critical path — the chain of
/// intervals that actually determined the retire time — are flagged
/// [`Span::critical`]; reconfig and cap-wait spans carry a `cap`
/// causal link, tasks link their blocking predecessor.
pub fn span_trees(trace: &Trace) -> Vec<Span> {
    let (apps, cap) = timelines(trace);
    apps.iter().filter_map(|tl| app_tree(tl, &cap)).collect()
}

/// The span tree [`span_trees`] derives for `app`, built alone; `None`
/// if `app` never retired.
pub(crate) fn span_tree(trace: &Trace, app: AppId) -> Option<Span> {
    let (apps, cap) = timelines(trace);
    apps.iter().find(|tl| tl.id == app).and_then(|tl| app_tree(tl, &cap))
}

/// One application's span tree against the trace-wide CAP union `cap`;
/// `None` if it never retired.
fn app_tree(tl: &AppTimeline<'_>, cap: &[(u64, u64)]) -> Option<Span> {
    let retire = tl.retire_us?;
    let classified = classify(tl, cap, true)?;
    let mut root = Span::new(
        format!("{} {}", tl.name, tl.id),
        SpanKind::App,
        tl.arrival_us,
        retire,
    );
    root.critical = true;
    let item_critical = critical_items(&tl.items, &classified.segments);

    // Task spans with their children.
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
    if !tl.preempts.is_empty() {
        let rec_starts = task_starts(tl.reconfigs.iter().map(|&(t, _, s, _)| (t, s)));
        for &(task, at) in &tl.preempts {
            if let Some(parent) = tasks.get_mut(&task) {
                let resume = first_start(&rec_starts, task, at).unwrap_or(retire);
                parent.end_us = parent.end_us.max(resume);
                let mut span = Span::new("preempted".to_owned(), SpanKind::Preempt, at, resume);
                span.critical = true;
                parent.children.push(span);
            }
        }
    }
    for task in tasks.values_mut() {
        task.children.sort_by_key(|c| (c.start_us, c.end_us));
    }

    // Synthesized blocked-interval spans on the root, coalescing
    // adjacent segments with the same cause.
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
    Some(root)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nimblock_app::TaskId;
    use nimblock_fpga::SlotId;
    use nimblock_sim::SimTime;

    fn arrival(app: u64, name: &str, priority: Priority, at_ms: u64) -> TraceEvent {
        TraceEvent::Arrival {
            app: AppId::new(app),
            name: name.into(),
            batch: 2,
            priority,
            at: SimTime::from_millis(at_ms),
        }
    }

    fn reconfig(slot: u32, app: u64, task: u32, from_ms: u64, to_ms: u64) -> TraceEvent {
        TraceEvent::Reconfig {
            slot: SlotId::new(slot),
            app: AppId::new(app),
            task: TaskId::new(task),
            at: SimTime::from_millis(from_ms),
            until: SimTime::from_millis(to_ms),
        }
    }

    fn item(slot: u32, app: u64, task: u32, item: u32, from_ms: u64, to_ms: u64) -> TraceEvent {
        TraceEvent::Item {
            slot: SlotId::new(slot),
            app: AppId::new(app),
            task: TaskId::new(task),
            item,
            at: SimTime::from_millis(from_ms),
            until: SimTime::from_millis(to_ms),
        }
    }

    fn retire(app: u64, at_ms: u64) -> TraceEvent {
        TraceEvent::Retire { app: AppId::new(app), at: SimTime::from_millis(at_ms) }
    }

    /// app0: arrival 0, reconfig 0..80, items 80..130 and 130..180,
    /// retire 180. No contention.
    fn simple_trace() -> Trace {
        let mut trace = Trace::with_slots(2);
        trace.record(arrival(0, "lenet", Priority::Medium, 0));
        trace.record(reconfig(0, 0, 0, 0, 80));
        trace.record(item(0, 0, 0, 0, 80, 130));
        trace.record(item(0, 0, 0, 1, 130, 180));
        trace.record(retire(0, 180));
        trace
    }

    #[test]
    fn uncontended_app_attributes_reconfig_and_compute() {
        let summary = attribute_trace(&simple_trace());
        assert_eq!(summary.apps.len(), 1);
        let app = &summary.apps[0];
        assert_eq!(app.response_micros, 180_000);
        assert_eq!(app.components.reconfig, 80_000);
        assert_eq!(app.components.compute, 100_000);
        assert_eq!(app.components.queue_wait, 0);
        assert_eq!(app.components.cap_serialization, 0);
        assert_eq!(app.components.preemption_loss, 0);
        assert_eq!(app.components.pipeline_overlap_gain, 0);
        assert!(summary.is_exact());
    }

    #[test]
    fn cap_serialization_is_charged_while_anothers_reconfig_blocks() {
        let mut trace = Trace::with_slots(2);
        // app0 hogs the CAP 0..80; app1 arrives at 0, waits, then
        // reconfigures 80..160, runs 160..200.
        trace.record(arrival(0, "a", Priority::Low, 0));
        trace.record(arrival(1, "b", Priority::Low, 0));
        trace.record(reconfig(0, 0, 0, 0, 80));
        trace.record(item(0, 0, 0, 0, 80, 300));
        trace.record(reconfig(1, 1, 0, 80, 160));
        trace.record(item(1, 1, 0, 0, 160, 200));
        trace.record(retire(1, 200));
        trace.record(retire(0, 300));
        let summary = attribute_trace(&trace);
        let b = summary.apps.iter().find(|a| a.app_name == "b").unwrap();
        assert_eq!(b.components.cap_serialization, 80_000, "{:?}", b.components);
        assert_eq!(b.components.reconfig, 80_000);
        assert_eq!(b.components.compute, 40_000);
        assert_eq!(b.components.queue_wait, 0);
        assert!(summary.is_exact());
    }

    #[test]
    fn preemption_loss_covers_the_evicted_window() {
        let mut trace = Trace::with_slots(1);
        trace.record(arrival(0, "victim", Priority::Low, 0));
        trace.record(reconfig(0, 0, 0, 0, 80));
        trace.record(item(0, 0, 0, 0, 80, 120));
        trace.record(TraceEvent::Preempt {
            slot: SlotId::new(0),
            app: AppId::new(0),
            task: TaskId::new(0),
            at: SimTime::from_millis(120),
        });
        // Re-admitted: reconfig 200..280, final item 280..320.
        trace.record(reconfig(0, 0, 0, 200, 280));
        trace.record(item(0, 0, 0, 1, 280, 320));
        trace.record(retire(0, 320));
        let summary = attribute_trace(&trace);
        let app = &summary.apps[0];
        assert_eq!(app.components.preemption_loss, 80_000, "{:?}", app.components);
        assert_eq!(app.components.reconfig, 160_000);
        assert_eq!(app.components.compute, 80_000);
        assert!(summary.is_exact());
    }

    #[test]
    fn pipeline_overlap_gain_is_negative_for_parallel_tasks() {
        let mut trace = Trace::with_slots(2);
        trace.record(arrival(0, "pipe", Priority::High, 0));
        trace.record(reconfig(0, 0, 0, 0, 80));
        trace.record(item(0, 0, 0, 0, 80, 180));
        trace.record(reconfig(1, 0, 1, 80, 160));
        // task#1 overlaps task#0's second item 180..280.
        trace.record(item(0, 0, 0, 1, 180, 280));
        trace.record(item(1, 0, 1, 0, 180, 280));
        trace.record(item(1, 0, 1, 1, 280, 380));
        trace.record(retire(0, 380));
        let summary = attribute_trace(&trace);
        let app = &summary.apps[0];
        assert_eq!(app.components.compute, 400_000);
        assert_eq!(app.components.pipeline_overlap_gain, -100_000);
        assert!(summary.is_exact());
        // busy union is 80..380 = 300ms; reconfig interval 0..80 own.
        assert_eq!(app.components.reconfig, 80_000);
        assert_eq!(app.components.queue_wait, 0);
    }

    #[test]
    fn span_tree_marks_critical_path_and_links() {
        let trees = span_trees(&simple_trace());
        assert_eq!(trees.len(), 1);
        let root = &trees[0];
        assert!(root.critical);
        assert_eq!(root.kind, SpanKind::App);
        let task = root
            .children
            .iter()
            .find(|c| c.kind == SpanKind::Task)
            .expect("task span");
        let rendered = root.render();
        assert!(rendered.contains("reconfig slot#0"), "{rendered}");
        assert!(rendered.contains("<- cap"), "{rendered}");
        assert!(task.children.iter().any(|c| c.critical && c.kind == SpanKind::BatchItem));
    }

    #[test]
    fn never_retired_apps_are_skipped() {
        let mut trace = Trace::with_slots(1);
        trace.record(arrival(0, "zombie", Priority::Low, 0));
        assert!(attribute_trace(&trace).apps.is_empty());
        assert!(span_trees(&trace).is_empty());
    }

    #[test]
    fn interval_union_and_coverage() {
        let u = union(vec![(5, 10), (0, 3), (9, 12), (20, 25)]);
        assert_eq!(u, vec![(0, 3), (5, 12), (20, 25)]);
        let mut cursor = Cursor { spans: &u };
        assert_eq!(cursor.probe(0), (true, 3));
        assert_eq!(cursor.probe(3), (false, 5));
        assert_eq!(cursor.probe(4), (false, 5));
        assert_eq!(cursor.probe(11), (true, 12));
        assert_eq!(cursor.probe(12), (false, 20));
        assert_eq!(cursor.probe(25), (false, u64::MAX));
    }
}
