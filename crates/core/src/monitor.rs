//! Trace-derived monitoring: the offline twin of the live monitor.
//!
//! A live run mirrors hypervisor events into a
//! [`nimblock_obs::MonitorState`] as they happen
//! ([`crate::Hypervisor::with_monitor`]). This module re-derives the same
//! windowed series from a recorded [`Trace`] instead, so:
//!
//! - post-mortem bundles can be built for schedules that never ran live —
//!   adversarial invariant fixtures, imported traces, or a trace salvaged
//!   from a panicking run ([`post_mortem`]);
//! - the Chrome exporter can draw queue-depth / utilization counter lanes
//!   for *any* trace ([`Trace::to_chrome`] calls [`derive_monitor`]).
//!
//! Both paths are pure functions of the trace and virtual time, so the
//! derived series is deterministic and thread-count-invariant wherever
//! the trace itself is.
//!
//! Exactness: counters (arrivals, retires, preemptions,
//! reconfigurations), busy time, and response times match the live
//! monitor exactly. Two gauges are necessarily approximations: the
//! derived queue depth counts *waiting applications* (the live monitor
//! counts unplaced tasks, which needs runtime state a trace does not
//! carry), and derived slowdown uses item-span durations (which include
//! input fetch) as the ideal-service denominator. The trace records no
//! bitstream-cache outcomes, so derived cache hit rates are always zero.

use std::collections::HashMap;

use nimblock_obs::{MonitorConfig, MonitorDoc, MonitorState};

use crate::trace::{Trace, TraceEvent};
use crate::AppId;

/// Per-app bookkeeping while sweeping the trace.
struct AppInfo {
    arrival_us: u64,
    weight: u64,
    /// Sum of item-span durations (compute incl. input fetch).
    run_us: u64,
    /// Sum of reconfiguration-span durations charged to the app.
    reconfig_us: u64,
    /// Furthest end of any busy span seen so far — the occupancy proxy:
    /// the app is considered "running" at `t` while this exceeds `t`.
    active_until_us: u64,
    retired: bool,
}

/// Replays `trace` through a fresh monitor, producing the same windowed
/// series, flight-recorder entries, and SLO evaluation a live run with
/// `config` would have produced (up to the documented gauge
/// approximations). The returned state is already finalized at the
/// trace's end.
pub fn derive_monitor(trace: &Trace, config: MonitorConfig) -> MonitorState {
    let mut state = MonitorState::new(config, trace.slots());
    let mut apps: HashMap<u64, AppInfo> = HashMap::new();
    for event in trace.events() {
        let now = event.at().as_micros();
        match event {
            TraceEvent::Arrival { app, name, batch, priority, .. } => {
                state.on_arrival(now);
                apps.insert(
                    app.raw(),
                    AppInfo {
                        arrival_us: now,
                        weight: u64::from(priority.weight()),
                        run_us: 0,
                        reconfig_us: 0,
                        active_until_us: 0,
                        retired: false,
                    },
                );
                state.record(
                    now,
                    "arrival",
                    || format!("{app} {name} batch={batch} priority={priority:?}"),
                );
            }
            TraceEvent::Reconfig { slot, app, task, at, until } => {
                let (start, end) = (at.as_micros(), until.as_micros());
                state.on_reconfig(start, end);
                if let Some(info) = apps.get_mut(&app.raw()) {
                    info.reconfig_us += end.saturating_sub(start);
                    info.active_until_us = info.active_until_us.max(end);
                }
                state.record(
                    start,
                    "reconfig",
                    || format!("slot={slot} app={app} task={task} until={until}"),
                );
            }
            TraceEvent::Item { slot, app, task, item, at, until } => {
                let (start, end) = (at.as_micros(), until.as_micros());
                state.on_item_launch(slot.index(), start, end);
                if let Some(info) = apps.get_mut(&app.raw()) {
                    info.run_us += end.saturating_sub(start);
                    info.active_until_us = info.active_until_us.max(end);
                }
                state.record(
                    start,
                    "item",
                    || format!("slot={slot} app={app} task={task} item={item} until={until}"),
                );
            }
            TraceEvent::Preempt { slot, app, task, .. } => {
                state.on_preempt(now);
                // A batch preemption strikes an idle slot (its open item
                // span already ended, so this subtracts nothing); a
                // fine-grained preemption strikes mid-span and returns
                // the un-executed remainder — identical to the live path.
                state.on_item_abort(slot.index(), now);
                state.record(now, "preempt", || format!("slot={slot} victim={app} task={task}"));
            }
            TraceEvent::Retire { app, .. } => {
                if let Some(info) = apps.get_mut(&app.raw()) {
                    info.retired = true;
                    let response = now.saturating_sub(info.arrival_us);
                    let ideal = (info.run_us + info.reconfig_us).max(1);
                    let slowdown_milli = response.saturating_mul(1000) / ideal;
                    state.on_retire(now, info.weight, response, slowdown_milli);
                }
                state.record(now, "retire", || format!("{app}"));
            }
        }
        // Post-event occupancy sample, mirroring the live monitor's
        // per-event sampling point.
        let mut waiting = 0u64;
        let mut running = 0u64;
        for info in apps.values() {
            if info.retired {
                continue;
            }
            if info.active_until_us > now {
                running += 1;
            } else {
                waiting += 1;
            }
        }
        state.sample(now, waiting, waiting, running);
    }
    state.finalize(trace.end().as_micros());
    state
}

/// Builds a post-mortem bundle from a recorded trace: the derived
/// windowed series and flight recorder, stamped with what `trigger`ed
/// the dump, plus the implicated application's rendered span tree when
/// one can be attributed (an app that never retired has no tree). Only
/// that application's tree is built, however many the trace holds.
pub fn post_mortem(
    trace: &Trace,
    config: MonitorConfig,
    trigger: &str,
    failing_app: Option<AppId>,
) -> MonitorDoc {
    let state = derive_monitor(trace, config);
    let mut doc = state.to_doc();
    doc.trigger = Some(trigger.to_owned());
    doc.span_tree = failing_app
        .and_then(|app| crate::attribution::span_tree(trace, app))
        .map(|tree| tree.render());
    doc
}

#[cfg(test)]
mod tests {
    use nimblock_app::{Priority, TaskId};
    use nimblock_fpga::SlotId;
    use nimblock_sim::SimTime;

    use super::*;

    fn fixture_trace() -> Trace {
        let mut trace = Trace::with_slots(2);
        trace.record(TraceEvent::Arrival {
            app: AppId::new(0),
            name: "lenet".into(),
            batch: 1,
            priority: Priority::High,
            at: SimTime::ZERO,
        });
        trace.record(TraceEvent::Reconfig {
            slot: SlotId::new(0),
            app: AppId::new(0),
            task: TaskId::new(0),
            at: SimTime::ZERO,
            until: SimTime::from_millis(80),
        });
        trace.record(TraceEvent::Item {
            slot: SlotId::new(0),
            app: AppId::new(0),
            task: TaskId::new(0),
            item: 0,
            at: SimTime::from_millis(80),
            until: SimTime::from_millis(130),
        });
        trace.record(TraceEvent::Retire { app: AppId::new(0), at: SimTime::from_millis(130) });
        trace
    }

    #[test]
    fn derivation_recovers_counts_and_busy_time() {
        let state = derive_monitor(&fixture_trace(), MonitorConfig::with_window_micros(10_000));
        let windows = state.windows();
        // Windows 0..12 cover [0, 130 ms); the post-event occupancy
        // sample at the retire instant (exactly 130 ms) opens one
        // trailing window, just as the live monitor's sampling does.
        assert_eq!(windows.len(), 14);
        let arrivals: u64 = windows.iter().map(|w| w.arrivals).sum();
        let retires: u64 = windows.iter().map(|w| w.retires).sum();
        let reconfigs: u64 = windows.iter().map(|w| w.reconfigurations).sum();
        let busy: u64 = windows.iter().map(|w| w.busy_micros).sum();
        assert_eq!((arrivals, retires, reconfigs), (1, 1, 1));
        assert_eq!(busy, 130_000, "80ms reconfig + 50ms item");
        // Windows 0..8 are fully busy (the reconfig stream), so each
        // holds exactly one slot-window of busy time.
        assert_eq!(windows[0].busy_micros, 10_000);
        assert_eq!(state.slots(), 2);
        let resp: u64 = windows.iter().map(|w| w.resp_high.count()).sum();
        assert_eq!(resp, 1, "High-priority retire lands in resp_high");
    }

    #[test]
    fn fine_preemption_returns_the_aborted_remainder() {
        let mut trace = Trace::with_slots(1);
        trace.record(TraceEvent::Item {
            slot: SlotId::new(0),
            app: AppId::new(0),
            task: TaskId::new(0),
            item: 0,
            at: SimTime::ZERO,
            until: SimTime::from_millis(10),
        });
        trace.record(TraceEvent::Preempt {
            slot: SlotId::new(0),
            app: AppId::new(0),
            task: TaskId::new(0),
            at: SimTime::from_millis(4),
        });
        let state = derive_monitor(&trace, MonitorConfig::with_window_micros(1_000));
        let busy: u64 = state.windows().iter().map(|w| w.busy_micros).sum();
        assert_eq!(busy, 4_000, "6 ms of the 10 ms span were never executed");
    }

    #[test]
    fn post_mortem_carries_trigger_and_span_tree() {
        let trace = fixture_trace();
        let doc = post_mortem(
            &trace,
            MonitorConfig::default(),
            "invariant: token-conservation",
            Some(AppId::new(0)),
        );
        assert_eq!(doc.trigger.as_deref(), Some("invariant: token-conservation"));
        let tree = doc.span_tree.expect("retired app has a span tree");
        assert!(tree.contains("lenet"), "{tree}");
        assert!(!doc.recorder.is_empty());
        // An app that never retired has no attributable tree.
        let doc = post_mortem(&trace, MonitorConfig::default(), "x", Some(AppId::new(9)));
        assert!(doc.span_tree.is_none());
    }

    #[test]
    fn post_mortem_finds_the_implicated_tree_among_300_apps() {
        // A post-mortem builds the implicated app's tree alone, so every
        // app of a long trace gets its tree, the last of 300 as well as
        // the first.
        let mut trace = Trace::with_slots(1);
        let apps = 300u64;
        for i in 0..apps {
            let base = i * 1_000;
            trace.record(TraceEvent::Arrival {
                app: AppId::new(i),
                name: "lenet".into(),
                batch: 1,
                priority: Priority::Low,
                at: SimTime::from_micros(base),
            });
            trace.record(TraceEvent::Item {
                slot: SlotId::new(0),
                app: AppId::new(i),
                task: TaskId::new(0),
                item: 0,
                at: SimTime::from_micros(base),
                until: SimTime::from_micros(base + 500),
            });
            trace.record(TraceEvent::Retire {
                app: AppId::new(i),
                at: SimTime::from_micros(base + 500),
            });
        }
        let config = MonitorConfig::with_window_micros(100_000);
        for app in [apps - 1, 0] {
            let doc = post_mortem(&trace, config.clone(), "flood", Some(AppId::new(app)));
            let tree = doc.span_tree.expect("every retired app has a tree");
            let want = crate::attribution::span_trees(&trace)[app as usize].render();
            assert_eq!(tree, want, "app {app}");
        }
    }
}
