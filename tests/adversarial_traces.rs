//! Adversarial fixture traces for the invariant verifier.
//!
//! Each fixture is a hand-built schedule that is legal in *every* respect
//! except one: it violates exactly one named invariant, and the test pins
//! the rule id the verifier must report. The traces are committed as JSON
//! under `tests/fixtures/` and verified from their *parsed* form, so the
//! suite also exercises the serde roundtrip an external trace would take
//! through `nimblock-cli analyze trace`.
//!
//! Regenerate the committed fixtures with
//! `NIMBLOCK_REGEN_GOLDENS=1 cargo test --test adversarial_traces`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fs;
use std::path::Path;
use std::time::{Duration, Instant};

use nimblock::analyze::invariants::{
    verify_hardware, verify_trace, InvariantConfig, InvariantRule,
};
use nimblock::app::{Priority, TaskId};
use nimblock::core::{attribute_trace, span_trees, AppId, Trace, TraceEvent};
use nimblock::fpga::SlotId;
use nimblock::sim::SimTime;
use nimblock_ser::{from_str, to_string_pretty};

// ---------------------------------------------------------------------------
// Trace-building helpers (times in milliseconds).
// ---------------------------------------------------------------------------

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

fn preempt(slot: u32, app: u64, task: u32, at: u64) -> TraceEvent {
    TraceEvent::Preempt {
        slot: SlotId::new(slot),
        app: AppId::new(app),
        task: TaskId::new(task),
        at: ms(at),
    }
}

fn retire(app: u64, at: u64) -> TraceEvent {
    TraceEvent::Retire { app: AppId::new(app), at: ms(at) }
}

fn trace_of(slot_count: usize, events: Vec<TraceEvent>) -> Trace {
    let mut trace = Trace::with_slots(slot_count);
    for event in events {
        trace.record(event);
    }
    trace
}

// ---------------------------------------------------------------------------
// Fixture plumbing: write-on-regen, then verify the PARSED committed JSON.
// ---------------------------------------------------------------------------

/// Serializes `trace`, syncs it with the committed fixture under
/// `tests/fixtures/`, and returns the trace re-parsed from the on-disk JSON.
fn fixture(name: &str, trace: &Trace) -> Trace {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests").join("fixtures");
    let path = dir.join(format!("{name}.json"));
    let fresh = to_string_pretty(trace);
    if std::env::var_os("NIMBLOCK_REGEN_GOLDENS").is_some() || !path.exists() {
        fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("create {}: {e}", dir.display()));
        fs::write(&path, &fresh).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    }
    let on_disk = fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    assert_eq!(
        on_disk, fresh,
        "committed fixture {name}.json drifted from the in-code trace; \
         rerun with NIMBLOCK_REGEN_GOLDENS=1 if the change is intentional"
    );
    from_str::<Trace>(&on_disk)
        .unwrap_or_else(|e| panic!("fixture {name}.json does not parse: {e}"))
}

/// Asserts the trace violates `rule` — and *only* `rule` — under the full
/// default configuration (Nimblock policy rules on).
fn assert_fires_exactly(name: &str, trace: &Trace, rule: InvariantRule) {
    let parsed = fixture(name, trace);
    let report = verify_trace(&parsed, &InvariantConfig::default());
    assert!(
        !report.is_clean(),
        "{name}: expected a {} violation, got a clean report",
        rule.id()
    );
    let fired = report.rules_fired();
    assert!(
        fired.contains(&rule),
        "{name}: expected rule {} to fire, fired: {:?}\n{report}",
        rule.id(),
        fired.iter().map(|r| r.id()).collect::<Vec<_>>()
    );
    assert_eq!(
        fired.len(),
        1,
        "{name}: expected ONLY {} to fire, fired: {:?}\n{report}",
        rule.id(),
        fired.iter().map(|r| r.id()).collect::<Vec<_>>()
    );
    assert!(!report.of_rule(rule).is_empty());
}

// ---------------------------------------------------------------------------
// The adversarial fixtures.
// ---------------------------------------------------------------------------

/// Two reconfigurations stream through the configuration access port at
/// once: slot 1 starts loading at t=40 while slot 0's load runs to t=80.
/// Everything downstream is a legal LeNet batch-1 run.
#[test]
fn overlapping_cap_windows_fire_cap_exclusive() {
    let trace = trace_of(
        3,
        vec![
            arrival(0, "LeNet", 1, Priority::Medium, 0),
            reconfig(0, 0, 0, 0, 80),
            reconfig(1, 0, 1, 40, 120), // CAP still busy until t=80.
            item(0, 0, 0, 0, 80, 140),
            item(1, 0, 1, 0, 140, 180),
            reconfig(2, 0, 2, 180, 260),
            item(2, 0, 2, 0, 260, 280),
            retire(0, 280),
        ],
    );
    assert_fires_exactly("cap_overlap", &trace, InvariantRule::CapExclusive);
}

/// Slot 0 is double-booked: a reconfiguration for task 1 starts at t=100
/// while task 0's item still executes until t=140 (and no preemption was
/// traced that would have vacated the slot).
#[test]
fn double_booked_slot_fires_slot_overlap() {
    let trace = trace_of(
        2,
        vec![
            arrival(0, "LeNet", 1, Priority::Medium, 0),
            reconfig(0, 0, 0, 0, 80),
            item(0, 0, 0, 0, 80, 140),
            reconfig(0, 0, 1, 100, 180), // overlaps the item span on slot 0.
            item(0, 0, 1, 0, 180, 220),
            reconfig(1, 0, 2, 220, 300),
            item(1, 0, 2, 0, 300, 320),
            retire(0, 320),
        ],
    );
    assert_fires_exactly("double_booked_slot", &trace, InvariantRule::SlotOverlap);
}

/// A preemption strikes in the middle of an executing batch item (t=100,
/// inside the [80, 140) span) on an overlay without checkpoint support.
/// The aborted item is re-run after the slot is reloaded, so token
/// conservation still holds — only the preemption boundary rule is broken.
#[test]
fn mid_item_preemption_fires_preempt_boundary() {
    let trace = trace_of(
        3,
        vec![
            arrival(0, "LeNet", 1, Priority::Medium, 0),
            reconfig(0, 0, 0, 0, 80),
            item(0, 0, 0, 0, 80, 140), // truncated at t=100 by the preemption.
            preempt(0, 0, 0, 100),
            reconfig(0, 0, 0, 120, 200), // reload and...
            item(0, 0, 0, 0, 200, 260),  // ...re-run the aborted item.
            reconfig(1, 0, 1, 260, 340),
            item(1, 0, 1, 0, 340, 380),
            reconfig(2, 0, 2, 380, 460),
            item(2, 0, 2, 0, 460, 480),
            retire(0, 480),
        ],
    );
    assert_fires_exactly("mid_item_preempt", &trace, InvariantRule::PreemptBoundary);
}

/// A batch-2 LeNet run retires with task 2 having processed only one of
/// its two batch items: a token leaked. Every executed span is otherwise
/// legal.
#[test]
fn missing_batch_item_fires_token_conservation() {
    let trace = trace_of(
        3,
        vec![
            arrival(0, "LeNet", 2, Priority::Medium, 0),
            reconfig(0, 0, 0, 0, 80),
            reconfig(1, 0, 1, 80, 160),
            item(0, 0, 0, 0, 80, 140),
            item(0, 0, 0, 1, 140, 200),
            reconfig(2, 0, 2, 160, 240),
            item(1, 0, 1, 0, 200, 240),
            item(1, 0, 1, 1, 240, 280),
            item(2, 0, 2, 0, 280, 300),
            // item 1 of task 2 never runs.
            retire(0, 300),
        ],
    );
    assert_fires_exactly("token_leak", &trace, InvariantRule::TokenConservation);
}

/// A high-priority application is evicted from its *only* slot by a
/// low-priority preemptor while the board has room for every live
/// application (2 apps, 2 slots) — the allocator's priority floor (paper
/// §4.1) forbids this. The preemption itself lands on an item boundary
/// mid-batch, so no mechanism rule fires; both applications then run to a
/// fully legal completion.
#[test]
fn low_priority_eviction_fires_preempt_priority() {
    let trace = trace_of(
        2,
        vec![
            arrival(0, "LeNet", 2, Priority::High, 0),
            arrival(1, "LeNet", 1, Priority::Low, 0),
            reconfig(0, 0, 0, 0, 80),
            item(0, 0, 0, 0, 80, 140), // 1 of 2 batch items done: mid-batch.
            preempt(0, 0, 0, 140),     // item boundary, so mechanically legal...
            reconfig(0, 1, 0, 140, 220), // ...but the preemptor is Low priority.
            item(0, 1, 0, 0, 220, 280),
            reconfig(1, 1, 1, 280, 360),
            item(1, 1, 1, 0, 360, 400),
            reconfig(0, 1, 2, 400, 480),
            item(0, 1, 2, 0, 480, 500),
            retire(1, 500),
            reconfig(0, 0, 0, 500, 580), // the victim resumes where it left off.
            item(0, 0, 0, 1, 580, 640),
            reconfig(1, 0, 1, 640, 720),
            item(1, 0, 1, 0, 720, 760),
            item(1, 0, 1, 1, 760, 800),
            reconfig(0, 0, 2, 800, 880),
            item(0, 0, 2, 0, 880, 900),
            item(0, 0, 2, 1, 900, 920),
            retire(0, 920),
        ],
    );
    assert_fires_exactly("priority_inversion", &trace, InvariantRule::PreemptPriority);
}

/// Sanity check on the harness itself: the priority-inversion timeline with
/// the priorities swapped back to legal (victim not High) verifies clean —
/// proving the fixtures isolate exactly one bad decision each.
#[test]
fn the_same_schedule_with_legal_priorities_is_clean() {
    let trace = trace_of(
        2,
        vec![
            arrival(0, "LeNet", 2, Priority::Low, 0),
            arrival(1, "LeNet", 1, Priority::High, 0),
            reconfig(0, 0, 0, 0, 80),
            item(0, 0, 0, 0, 80, 140),
            preempt(0, 0, 0, 140),
            reconfig(0, 1, 0, 140, 220),
            item(0, 1, 0, 0, 220, 280),
            reconfig(1, 1, 1, 280, 360),
            item(1, 1, 1, 0, 360, 400),
            reconfig(0, 1, 2, 400, 480),
            item(0, 1, 2, 0, 480, 500),
            retire(1, 500),
            reconfig(0, 0, 0, 500, 580),
            item(0, 0, 0, 1, 580, 640),
            reconfig(1, 0, 1, 640, 720),
            item(1, 0, 1, 0, 720, 760),
            item(1, 0, 1, 1, 760, 800),
            reconfig(0, 0, 2, 800, 880),
            item(0, 0, 2, 0, 880, 900),
            item(0, 0, 2, 1, 900, 920),
            retire(0, 920),
        ],
    );
    let report = verify_trace(&trace, &InvariantConfig::default());
    assert!(report.is_clean(), "{report}");
    assert_eq!(report.apps_seen, 2);
}

/// The mechanism-only configuration (for traces of non-Nimblock preempting
/// policies) must still catch hardware violations while staying silent on
/// the policy rules the priority-inversion fixture trips.
#[test]
fn mechanism_only_ignores_policy_rules_but_keeps_hardware_rules() {
    let inversion = fixture_path("priority_inversion");
    if let Ok(text) = fs::read_to_string(&inversion) {
        let trace: Trace = from_str(&text).expect("committed fixture parses");
        let report = verify_trace(&trace, &InvariantConfig::mechanism_only());
        assert!(
            report.is_clean(),
            "mechanism-only must not fire policy rules: {report}"
        );
    }
    let hw = fixture_path("cap_overlap");
    if let Ok(text) = fs::read_to_string(&hw) {
        let trace: Trace = from_str(&text).expect("committed fixture parses");
        let report = verify_trace(&trace, &InvariantConfig::mechanism_only());
        assert!(report.rules_fired().contains(&InvariantRule::CapExclusive));
    }
}

fn fixture_path(name: &str) -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join(format!("{name}.json"))
}

// ---------------------------------------------------------------------------
// Same-instant retire/reconfigure tie (microsecond-precision fixture).
// ---------------------------------------------------------------------------

/// The instant of the tie; the committed `rollover_tie` fixture is written
/// against it.
const TIE_MICROS: u64 = 524_288;

fn us(v: u64) -> SimTime {
    SimTime::from_micros(v)
}

fn reconfig_us(slot: u32, app: u64, task: u32, from: u64, to: u64) -> TraceEvent {
    TraceEvent::Reconfig {
        slot: SlotId::new(slot),
        app: AppId::new(app),
        task: TaskId::new(task),
        at: us(from),
        until: us(to),
    }
}

fn item_us(slot: u32, app: u64, task: u32, item: u32, from: u64, to: u64) -> TraceEvent {
    TraceEvent::Item {
        slot: SlotId::new(slot),
        app: AppId::new(app),
        task: TaskId::new(task),
        item,
        at: us(from),
        until: us(to),
    }
}

/// Builds the tie timeline: application 0's last item ends — and its
/// retirement fires — at exactly `tie` µs, where application 1's
/// reconfiguration of the *same slot* begins in the same instant. With
/// half-open spans the schedule is legal iff the retirement orders before
/// the reconfiguration; `skew` pulls the reconfiguration earlier to model
/// the misordering a broken tie-break would produce.
fn tie_trace(tie: u64, skew: u64) -> Trace {
    const RECONFIG: u64 = 80_000; // the ZCU106's 80 ms, in µs
    let grab = tie - skew;
    trace_of(
        2,
        vec![
            TraceEvent::Arrival {
                app: AppId::new(0),
                name: "LeNet".to_owned(),
                batch: 1,
                priority: Priority::Medium,
                at: us(0),
            },
            TraceEvent::Arrival {
                app: AppId::new(1),
                name: "LeNet".to_owned(),
                batch: 1,
                priority: Priority::Medium,
                at: us(100_000),
            },
            // Application 0: a legal three-task chain whose final item is
            // stretched to end exactly at the tie instant.
            reconfig_us(0, 0, 0, 0, 80_000),
            item_us(0, 0, 0, 0, 80_000, 200_000),
            reconfig_us(1, 0, 1, 80_000, 160_000),
            item_us(1, 0, 1, 0, 200_000, 300_000),
            reconfig_us(0, 0, 2, 200_000, 280_000),
            item_us(0, 0, 2, 0, 300_000, tie),
            TraceEvent::Retire { app: AppId::new(0), at: us(tie) },
            // Application 1 claims the just-vacated slot 0 in the same
            // microsecond (or `skew` µs too early).
            reconfig_us(0, 1, 0, grab, grab + RECONFIG),
            item_us(0, 1, 0, 0, 604_288, 700_000),
            reconfig_us(1, 1, 1, 604_288, 684_288),
            item_us(1, 1, 1, 0, 700_000, 800_000),
            reconfig_us(0, 1, 2, 700_000, 780_000),
            item_us(0, 1, 2, 0, 800_000, 900_000),
            TraceEvent::Retire { app: AppId::new(1), at: us(900_000) },
        ],
    )
}

/// Two events share a timestamp: application 0 retires — freeing slot 0 —
/// at t = 524,288 µs, and application 1's reconfiguration of that slot
/// starts in the same microsecond. The engine must pop the tie in push
/// (FIFO) order for the schedule to be legal; all eleven invariant rules
/// agree the committed trace is clean.
#[test]
fn same_timestamp_events_across_the_rollover_boundary_stay_ordered() {
    let parsed = fixture("rollover_tie", &tie_trace(TIE_MICROS, 0));
    assert_eq!(InvariantRule::ALL.len(), 11);
    let report = verify_trace(&parsed, &InvariantConfig::default());
    assert!(report.is_clean(), "same-instant tie misordered: {report}");
    assert_eq!(report.apps_seen, 2);
}

/// The same timeline with the tie broken the wrong way by a single
/// microsecond double-books slot 0 — proving the clean verdict above
/// certifies ordering, not verifier leniency.
#[test]
fn a_misordered_rollover_tie_is_caught() {
    let report = verify_trace(&tie_trace(TIE_MICROS, 1), &InvariantConfig::default());
    assert!(
        report.rules_fired().contains(&InvariantRule::SlotOverlap),
        "expected slot-overlap, got: {report}"
    );
}

// ---------------------------------------------------------------------------
// Untrusted sizes: an unknown task, huge slot counts and ids.
// ---------------------------------------------------------------------------

/// The token-leak run with its last item naming task 7, which LeNet (three
/// tasks) does not have. The verifier reports it as a lifecycle violation
/// naming the application and the task, skips that item's DAG-order check,
/// and goes on checking the rest of the trace.
#[test]
fn an_item_of_a_task_its_graph_does_not_have_is_a_lifecycle_violation() {
    let trace = trace_of(
        3,
        vec![
            arrival(0, "LeNet", 2, Priority::Medium, 0),
            reconfig(0, 0, 0, 0, 80),
            reconfig(1, 0, 1, 80, 160),
            item(0, 0, 0, 0, 80, 140),
            item(0, 0, 0, 1, 140, 200),
            reconfig(2, 0, 2, 160, 240),
            item(1, 0, 1, 0, 200, 240),
            item(1, 0, 1, 1, 240, 280),
            item(2, 0, 7, 0, 280, 300), // LeNet has no task 7.
            retire(0, 300),
        ],
    );
    let parsed = fixture("unknown_task", &trace);
    for config in [InvariantConfig::default(), InvariantConfig::mechanism_only()] {
        let report = verify_trace(&parsed, &config);
        let unknown: Vec<_> = report
            .of_rule(InvariantRule::Lifecycle)
            .into_iter()
            .filter(|v| v.message.contains("task#7") && v.message.contains("graph does not have"))
            .collect();
        assert_eq!(unknown.len(), 1, "{report}");
        assert_eq!(unknown[0].app, Some(AppId::new(0)));
        assert_eq!(unknown[0].slot, Some(SlotId::new(2)));
        // The rest of the trace is still checked: task 2 never ran.
        assert!(report.rules_fired().contains(&InvariantRule::TokenConservation), "{report}");
    }
}

/// Records the largest single allocation each thread requests, so a test
/// can show that a check sized no table by a value read from the trace.
struct LargestRequest;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note_request(size: usize) {
    LARGEST.with(|largest| largest.set(largest.get().max(size)));
}

// SAFETY: forwards every call to the system allocator unchanged; the
// thread-local it updates is a `const`-initialized `Cell` with no
// destructor, so touching it never allocates.
unsafe impl GlobalAlloc for LargestRequest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_request(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_request(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_request(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: LargestRequest = LargestRequest;

/// `slot_count` and every id are read from the file by `analyze trace` and
/// `analyze explain`. Neither a declared slot count of 2^40 nor events
/// naming slot 4 000 000 000 and application `u64::MAX` may make the
/// checker loop to those values or allocate by them.
#[test]
fn huge_slot_counts_and_ids_are_checked_promptly_without_sized_tables() {
    let far = AppId::new(u64::MAX);
    let slot = SlotId::new(4_000_000_000);
    let mut named = Trace::with_slots(2);
    for event in [
        TraceEvent::Arrival {
            app: far,
            name: "LeNet".to_owned(),
            batch: 1,
            priority: Priority::High,
            at: ms(0),
        },
        TraceEvent::Reconfig { slot, app: far, task: TaskId::new(0), at: ms(0), until: ms(80) },
        TraceEvent::Item {
            slot,
            app: far,
            task: TaskId::new(0),
            item: 0,
            at: ms(80),
            until: ms(140),
        },
        TraceEvent::Preempt { slot, app: far, task: TaskId::new(0), at: ms(140) },
        TraceEvent::Retire { app: far, at: ms(140) },
    ] {
        named.record(event);
    }
    assert_eq!(named.slots(), 4_000_000_001);
    for (what, trace) in [("empty, 2^40 slots", Trace::with_slots(1 << 40)), ("far ids", named)] {
        LARGEST.with(|largest| largest.set(0));
        let start = Instant::now();
        let report = verify_trace(&trace, &InvariantConfig::default());
        let hardware = verify_hardware(&trace);
        let summary = attribute_trace(&trace);
        let trees = span_trees(&trace);
        let took = start.elapsed();
        let largest = LARGEST.with(Cell::get);
        assert!(largest < 1 << 20, "{what}: one allocation asked for {largest} bytes");
        assert!(took < Duration::from_secs(5), "{what}: checking took {took:?}");
        assert!(hardware.is_empty(), "{what}: {hardware:?}");
        let retired = trace.events().iter().any(|e| matches!(e, TraceEvent::Retire { .. }));
        assert_eq!(summary.apps.len(), usize::from(retired), "{what}");
        assert_eq!(trees.len(), usize::from(retired), "{what}");
        assert_eq!(report.apps_seen, usize::from(retired), "{what}: {report}");
    }
}

/// `batch` is read from the file too. The token-leak run re-declared with
/// a batch of 10⁶ or `u32::MAX` leaves nearly every item of its three tasks
/// unconsumed: the verifier lists the first 64 items of each task, counts
/// the rest in one violation, and neither loops to nor allocates by the
/// batch.
#[test]
fn a_huge_declared_batch_gives_a_bounded_report() {
    let text = fs::read_to_string(fixture_path("token_leak")).expect("committed fixture");
    let leak: Trace = from_str(&text).expect("fixture parses");
    for batch in [1_000_000, u32::MAX] {
        let mut trace = Trace::with_slots(leak.slots());
        for event in leak.events() {
            let mut event = event.clone();
            if let TraceEvent::Arrival { batch: declared, .. } = &mut event {
                *declared = batch;
            }
            trace.record(event);
        }
        LARGEST.with(|largest| largest.set(0));
        let start = Instant::now();
        let report = verify_trace(&trace, &InvariantConfig::default());
        let summary = attribute_trace(&trace);
        let trees = span_trees(&trace);
        let took = start.elapsed();
        let largest = LARGEST.with(Cell::get);
        assert!(largest < 1 << 20, "batch {batch}: one allocation asked for {largest} bytes");
        assert!(took < Duration::from_secs(1), "batch {batch}: checking took {took:?}");
        assert_eq!(report.violations.len(), 3 * 65, "batch {batch}: {report}");
        assert!(
            report.violations.iter().all(|v| v.rule == InvariantRule::TokenConservation),
            "batch {batch}: {report}"
        );
        // Tasks 0 and 1 completed items 0 and 1, task 2 only item 0.
        for (task, completed) in [(0, 2), (1, 2), (2, 1)] {
            let rest = batch - completed - 64;
            let line = format!("… and {rest} more items of task#{task} of app#0 were not");
            assert!(
                report.violations.iter().any(|v| v.message.starts_with(&line)),
                "batch {batch}: no `{line}` in {report}"
            );
        }
        assert_eq!(summary.apps.len(), 1);
        assert_eq!(trees.len(), 1);
    }
}
