//! Exactness oracle for tick elision and boundary consults (DESIGN.md §19).
//!
//! The hypervisor queues its 400 ms scheduling tick only where one can act:
//! where the policy's `Scheduler::next_decision_change` says a consult may
//! answer differently, while a launch is stalled on buffer memory, and
//! where the run ends. Every queued tick pops in the place among
//! same-instant events that it holds when a tick is queued every interval.
//! The same hook gates the consult at an item boundary, an `ItemDone`
//! after which its task keeps its slot.
//!
//! The reference is [`EveryTick`], a wrapper that forwards every
//! `Scheduler` method except `next_decision_change`. The trait's default
//! answer then keeps every tick and consults at every item boundary, so
//! the reference runs the every-interval, every-consult schedule through
//! the same production code. The two runs must agree byte for byte on the
//! report (records, counters, attribution), the schedule trace and the
//! monitor document. Their metrics may differ only in the series that
//! count ticks and consults: events, queue depth, decisions and
//! candidate-pool samples (plus the wall-clock decision latency, which no
//! two runs share).
//!
//! Replay a failure of the randomized sweep with the `NIMBLOCK_CHECK_SEED`
//! it prints.

use std::path::PathBuf;

use nimblock::app::{benchmarks, Priority};
use nimblock::cluster::{ClusterTestbed, DispatchPolicy};
use nimblock::core::{
    AppId, DmlStaticScheduler, EdfScheduler, FcfsScheduler, HvEvent, Hypervisor, NimblockConfig,
    NimblockScheduler, NoSharingScheduler, PremaScheduler, Reconfig, RoundRobinScheduler,
    SchedView, Scheduler, SjfScheduler, TaskPhase, Testbed,
};
use nimblock::fpga::{zcu106, Device, DeviceConfig, Resources};
use nimblock::obs::{MonitorConfig, MonitorHandle, Registry};
use nimblock::sim::{EventQueue, Handler, SimDuration, SimTime, Simulation};
use nimblock::workload::{
    fixed_batch_sequence, generate_suite, ArrivalEvent, EventSequence, Scenario,
};
use nimblock_check::{check_with, Config, Gen};

/// Forwards every [`Scheduler`] method except `next_decision_change`, so
/// the hypervisor keeps every tick and consults at every item boundary;
/// counts the directives it passes on.
struct EveryTick<S> {
    inner: S,
    directives: u64,
}

impl<S: Scheduler> Scheduler for EveryTick<S> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn pipelining(&self) -> bool {
        self.inner.pipelining()
    }

    fn on_arrival(&mut self, view: &SchedView<'_>, app: AppId) {
        self.inner.on_arrival(view, app);
    }

    fn on_retire(&mut self, view: &SchedView<'_>, app: AppId) {
        self.inner.on_retire(view, app);
    }

    fn next_reconfig(&mut self, view: &SchedView<'_>) -> Option<Reconfig> {
        let directive = self.inner.next_reconfig(view);
        self.directives += u64::from(directive.is_some());
        directive
    }

    fn attach_metrics(&mut self, registry: &Registry) {
        self.inner.attach_metrics(registry);
    }
}

/// Every policy the repository ships: the five of the paper's main
/// evaluation, the three Figure 9 ablations, the mid-item preemption
/// variant, and the extras.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Policy {
    NoSharing,
    Fcfs,
    RoundRobin,
    Prema,
    Nimblock,
    NimblockNoPreempt,
    NimblockNoPipe,
    NimblockNoPreemptNoPipe,
    NimblockFine,
    PremaBackfill,
    Edf,
    Sjf,
    Dml,
}

const POLICIES: [Policy; 13] = [
    Policy::NoSharing,
    Policy::Fcfs,
    Policy::RoundRobin,
    Policy::Prema,
    Policy::Nimblock,
    Policy::NimblockNoPreempt,
    Policy::NimblockNoPipe,
    Policy::NimblockNoPreemptNoPipe,
    Policy::NimblockFine,
    Policy::PremaBackfill,
    Policy::Edf,
    Policy::Sjf,
    Policy::Dml,
];

impl Policy {
    fn build(self, events: &EventSequence, board: &Board) -> Box<dyn Scheduler + Send> {
        let nimblock = |config| Box::new(NimblockScheduler::with_config(config));
        match self {
            Policy::NoSharing => Box::new(NoSharingScheduler::new()),
            Policy::Fcfs => Box::new(FcfsScheduler::new()),
            Policy::RoundRobin => Box::new(RoundRobinScheduler::new()),
            Policy::Prema => Box::new(PremaScheduler::new()),
            Policy::Nimblock => nimblock(NimblockConfig::full()),
            Policy::NimblockNoPreempt => nimblock(NimblockConfig::no_preemption()),
            Policy::NimblockNoPipe => nimblock(NimblockConfig::no_pipelining()),
            Policy::NimblockNoPreemptNoPipe => {
                nimblock(NimblockConfig::no_preemption_no_pipelining())
            }
            Policy::NimblockFine => nimblock(NimblockConfig::fine_preemption()),
            Policy::PremaBackfill => Box::new(PremaScheduler::with_backfill()),
            Policy::Edf => Box::new(EdfScheduler::default()),
            Policy::Sjf => Box::new(SjfScheduler::new()),
            Policy::Dml => {
                let device = Device::new(board.device.clone());
                Box::new(DmlStaticScheduler::plan(
                    events,
                    device.slot_count(),
                    device.nominal_reconfig_latency(),
                ))
            }
        }
    }

    /// The policy as the reference (`every_tick`) or the elided run sees it.
    fn scheduler(
        self,
        events: &EventSequence,
        board: &Board,
        every_tick: bool,
    ) -> Box<dyn Scheduler + Send> {
        let scheduler = self.build(events, board);
        if every_tick {
            Box::new(EveryTick {
                inner: scheduler,
                directives: 0,
            })
        } else {
            scheduler
        }
    }

    /// Mid-item preemption needs a checkpoint-capable overlay.
    fn runs_on(self, board: &Board) -> bool {
        self != Policy::NimblockFine || board.checkpoint.is_some()
    }
}

/// A device and runtime variant.
#[derive(Clone)]
struct Board {
    name: &'static str,
    device: DeviceConfig,
    checkpoint: Option<SimDuration>,
    /// Arrivals the board is given from a stimulus: a starved board
    /// deadlocks on buffer memory once a few applications hold buffers.
    arrivals: usize,
}

impl Board {
    /// The first [`Board::arrivals`] arrivals of `events`.
    fn stimulus(&self, events: &EventSequence) -> EventSequence {
        EventSequence::new(events.iter().take(self.arrivals).cloned().collect())
    }
}

/// The evaluated overlay, a heterogeneous one (four minimum-size slots and
/// two double-size ones), one with room for four 1 MiB task buffers (a
/// launch beyond them stalls and retries at each tick, or deadlocks until
/// the livelock horizon), and a checkpointing overlay for mid-item
/// preemption.
fn boards() -> [Board; 4] {
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
    let mut starved = DeviceConfig::zcu106();
    starved.memory_bytes = 4 << 20;
    [
        Board {
            name: "zcu106",
            device: DeviceConfig::zcu106(),
            checkpoint: None,
            arrivals: usize::MAX,
        },
        Board {
            name: "hetero",
            device: DeviceConfig::zcu106()
                .with_slot_resources(vec![small, small, small, small, large, large]),
            checkpoint: None,
            arrivals: usize::MAX,
        },
        Board {
            name: "starved",
            device: starved,
            checkpoint: None,
            arrivals: 3,
        },
        Board {
            name: "checkpointing",
            device: DeviceConfig::zcu106(),
            checkpoint: Some(SimDuration::from_millis(10)),
            arrivals: usize::MAX,
        },
    ]
}

/// The series that count ticks and consults, plus the wall-clock decision
/// latency.
const TICK_SERIES: [&str; 5] = [
    "sim_events_total",
    "sim_event_queue_depth_max",
    "sched_decisions_total",
    "sched_candidates",
    "hv_decision_latency_nanos",
];

/// What one run shows: everything that must match exactly, the metrics
/// page without the tick-counting series, and the event count.
struct Outcome {
    exact: String,
    metrics: String,
    events: u64,
}

fn outcome(exact: String, registry: &Registry) -> Outcome {
    let metrics = registry
        .render_prometheus()
        .lines()
        .filter(|line| !TICK_SERIES.iter().any(|series| line.contains(series)))
        .collect::<Vec<_>>()
        .join("\n");
    let events = registry.counter("sim_events_total", "").get();
    Outcome {
        exact,
        metrics,
        events,
    }
}

/// Simulated time after which a run counts as livelocked. A starved
/// board can deadlock on buffer memory; both runs must then stop at the
/// horizon with the same verdict.
const HORIZON: SimTime = SimTime::from_secs(3_000);

/// Runs `events` on one board, traced, metered and monitored. A run that
/// hits the livelock horizon yields its panic message as the outcome.
fn run_board(board: &Board, policy: Policy, events: &EventSequence, every_tick: bool) -> Outcome {
    let run = || run_board_to_completion(board, policy, events, every_tick);
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(run)).unwrap_or_else(|payload| {
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|m| (*m).to_owned()))
            .unwrap_or_default();
        Outcome {
            exact: format!("panicked: {message}"),
            metrics: String::new(),
            events: 0,
        }
    })
}

fn run_board_to_completion(
    board: &Board,
    policy: Policy,
    events: &EventSequence,
    every_tick: bool,
) -> Outcome {
    let registry = Registry::new();
    let monitor = MonitorHandle::new(MonitorConfig::with_window_micros(1_000_000), 0);
    let mut testbed = Testbed::new(policy.scheduler(events, board, every_tick))
        .with_horizon(HORIZON)
        .with_device_config(board.device.clone())
        .with_metrics(registry.clone())
        .with_monitor(monitor.clone());
    if let Some(checkpoint) = board.checkpoint {
        testbed = testbed.with_fine_preemption(checkpoint);
    }
    let (report, trace) = testbed.run_traced(events);
    let mut exact = nimblock_ser::to_string_pretty(&report);
    exact.push('\n');
    exact.push_str(&nimblock_ser::to_string(&trace));
    exact.push('\n');
    exact.push_str(&nimblock_ser::to_string_pretty(&monitor.to_doc()));
    outcome(exact, &registry)
}

/// Runs `events` on an eight-board cluster with `threads` workers.
fn run_cluster(
    policy: Policy,
    events: &EventSequence,
    threads: usize,
    every_tick: bool,
) -> Outcome {
    let board = &boards()[0];
    let registry = Registry::new();
    let factory = || policy.scheduler(events, board, every_tick);
    let report = ClusterTestbed::new(8, DispatchPolicy::FewestApps, factory)
        .with_threads(threads)
        .with_tracing()
        .with_metrics(registry.clone())
        .with_monitor(MonitorConfig::with_window_micros(1_000_000))
        .run(events);
    let mut exact = nimblock_ser::to_string_pretty(report.merged());
    exact.push_str(&format!("\nassignments: {:?}", report.assignments()));
    for per_board in report.per_board() {
        exact.push('\n');
        exact.push_str(&nimblock_ser::to_string(per_board));
    }
    for trace in report.per_board_traces() {
        exact.push('\n');
        exact.push_str(&nimblock_ser::to_string(trace));
    }
    exact.push('\n');
    exact.push_str(&nimblock_ser::to_string_pretty(&report.monitor().cloned()));
    outcome(exact, &registry)
}

/// The first line at which two outputs differ, for a readable failure.
fn first_difference(reference: &str, elided: &str) -> String {
    reference
        .lines()
        .zip(elided.lines())
        .enumerate()
        .find(|(_, (r, e))| r != e)
        .map_or_else(
            || "outputs differ in length".to_owned(),
            |(line, (r, e))| format!("line {line}: every-tick `{r}` vs elided `{e}`"),
        )
}

/// Compares an elided run against its every-tick reference.
fn compare(what: &str, reference: &Outcome, elided: &Outcome) -> Result<(), String> {
    if reference.exact != elided.exact {
        return Err(format!(
            "{what}: outputs diverged at {}",
            first_difference(&reference.exact, &elided.exact)
        ));
    }
    if reference.metrics != elided.metrics {
        return Err(format!(
            "{what}: metrics beyond the tick series diverged at {}",
            first_difference(&reference.metrics, &elided.metrics)
        ));
    }
    if elided.events > reference.events {
        return Err(format!(
            "{what}: eliding ticks added events ({} > {})",
            elided.events, reference.events
        ));
    }
    Ok(())
}

fn check_board(
    board: &Board,
    policy: Policy,
    events: &EventSequence,
    what: &str,
) -> Result<(), String> {
    let events = &board.stimulus(events);
    let reference = run_board(board, policy, events, true);
    let elided = run_board(board, policy, events, false);
    compare(
        &format!("{policy:?} on {} ({what})", board.name),
        &reference,
        &elided,
    )
}

/// The committed stimulus `tests/fixtures/tick_elision/{name}.json`.
fn fixture(name: &str) -> EventSequence {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/tick_elision")
        .join(format!("{name}.json"));
    let text = std::fs::read_to_string(path).expect("fixture is committed");
    nimblock_ser::from_str(&text).expect("fixture parses")
}

/// The fixed panel: the standard, stress and real-time suites, fixed-batch
/// sequences whose millisecond-aligned arrivals put completions on the
/// tick grid, and the two committed fixtures: a directive-issuing tick that
/// shares its instant with a completion (see [`same_instant_ticks`]), and
/// a batch-preemption at an item boundary (see [`boundary_preemptions`]).
fn panel() -> Vec<(String, EventSequence)> {
    let mut panel = Vec::new();
    for scenario in [Scenario::Standard, Scenario::Stress, Scenario::RealTime] {
        for (i, events) in generate_suite(2023, 2, 8, scenario).into_iter().enumerate() {
            panel.push((format!("{} #{i}", scenario.name()), events));
        }
    }
    // Seeds whose completions land on grid instants the runs end or act
    // at: each distinguishes a tick queued behind such a completion from
    // one queued ahead of it.
    for (seed, batch, spacing) in [
        (2093, 2, 100),
        (2093, 2, 200),
        (2093, 2, 400),
        (2069, 4, 200),
    ] {
        let events = fixed_batch_sequence(seed, 8, batch, SimDuration::from_millis(spacing));
        panel.push((
            format!("fixed batch {batch}, {spacing} ms spacing, seed {seed}"),
            events,
        ));
    }
    for name in ["same_instant_tick", "boundary_preempt"] {
        panel.push((format!("fixture {name}"), fixture(name)));
    }
    panel
}

#[test]
fn every_policy_matches_the_every_tick_reference_on_the_fixed_panel() {
    let board = &boards()[0];
    for (what, events) in panel() {
        for policy in POLICIES.into_iter().filter(|p| p.runs_on(board)) {
            check_board(board, policy, &events, &what).unwrap_or_else(|e| panic!("{e}"));
        }
    }
}

#[test]
fn device_variants_match_the_every_tick_reference() {
    let panel = panel();
    for board in &boards()[1..] {
        for (what, events) in panel.iter().step_by(3) {
            for policy in POLICIES.into_iter().filter(|p| p.runs_on(board)) {
                check_board(board, policy, events, what).unwrap_or_else(|e| panic!("{e}"));
            }
        }
    }
}

#[test]
fn starved_memory_keeps_every_stall_retry() {
    // Room for two task buffers: launches stall, and each tick retries
    // them and counts another alloc stall. The stall count is part of the
    // compared report, so it pins that every retry tick is kept.
    let mut board = boards()[2].clone();
    board.device.memory_bytes = 2 << 20;
    let board = &board;
    let events = EventSequence::new(vec![
        ArrivalEvent::new(benchmarks::lenet(), 3, Priority::High, SimTime::ZERO),
        ArrivalEvent::new(
            benchmarks::image_compression(),
            2,
            Priority::Low,
            SimTime::from_millis(100),
        ),
        ArrivalEvent::new(
            benchmarks::rendering_3d(),
            2,
            Priority::Medium,
            SimTime::from_millis(200),
        ),
    ]);
    let reference = run_board(board, Policy::Nimblock, &events, true);
    let elided = run_board(board, Policy::Nimblock, &events, false);
    let stalls = elided
        .metrics
        .lines()
        .find_map(|line| line.strip_prefix("hv_alloc_stalls_total "))
        .and_then(|count| count.parse::<u64>().ok())
        .expect("the run completes and exports its stall counter");
    assert!(stalls > 0, "a 2 MiB pool must stall launches");
    compare("stall retries", &reference, &elided).unwrap_or_else(|e| panic!("{e}"));
}

#[test]
fn cluster_runs_match_the_every_tick_reference_on_one_and_two_threads() {
    let events = &generate_suite(2023, 1, 24, Scenario::Stress)[0];
    for policy in [Policy::Nimblock, Policy::Prema, Policy::Fcfs] {
        for threads in [1, 2] {
            let reference = run_cluster(policy, events, threads, true);
            let elided = run_cluster(policy, events, threads, false);
            compare(
                &format!("{policy:?} cluster, {threads} threads"),
                &reference,
                &elided,
            )
            .unwrap_or_else(|e| panic!("{e}"));
        }
    }
}

#[test]
fn random_workloads_match_the_every_tick_reference() {
    let boards = boards();
    let scenarios = [Scenario::Standard, Scenario::Stress, Scenario::RealTime];
    check_with(
        Config::new().cases(64),
        "random_workloads_match_the_every_tick_reference",
        |g: &mut Gen| {
            let seed = g.u64(0..=100_000);
            let board = g.pick(&boards);
            let policy = *g.pick(&POLICIES);
            let events = if g.bool() {
                let scenario = *g.pick(&scenarios);
                generate_suite(seed, 1, g.usize(1..=8), scenario).remove(0)
            } else {
                let spacing = *g.pick(&[100u64, 200, 400]);
                fixed_batch_sequence(
                    seed,
                    g.usize(1..=8),
                    g.u32(1..=6),
                    SimDuration::from_millis(spacing),
                )
            };
            if !policy.runs_on(board) {
                return Ok(());
            }
            let result = check_board(board, policy, &events, &format!("seed {seed}"));
            nimblock_check::prop_assert!(result.is_ok(), "{}", result.unwrap_err());
            Ok(())
        },
    );
}

/// One event an every-tick hypervisor handled, with the directives the
/// policy issued while handling it, and what happened at an item boundary.
struct Logged {
    at: SimTime,
    event: HvEvent,
    directives: u64,
    boundary: Option<Boundary>,
}

/// An item boundary: an `ItemDone` after which its task keeps its slot.
#[derive(Clone, Copy)]
struct Boundary {
    /// The policy batch-preempted the task that finished.
    preempted: bool,
    /// The task's dependencies allowed its next item at once, so the
    /// launch pass would have started it had the policy not taken the slot.
    ready: bool,
}

/// A [`Handler`] that logs every event the hypervisor handles.
struct Probe<S: Scheduler> {
    hv: Hypervisor<EveryTick<S>>,
    log: Vec<Logged>,
}

impl<S: Scheduler> Handler<HvEvent> for Probe<S> {
    fn handle(&mut self, now: SimTime, event: HvEvent, queue: &mut EventQueue<HvEvent>) {
        let finished = match event {
            HvEvent::ItemDone { slot, gen } => {
                self.hv.item_owner(slot, gen).filter(|&(app, task)| {
                    let runtime = &self.hv.apps()[app];
                    runtime.items_done(task) + 1 < runtime.batch_size()
                })
            }
            _ => None,
        };
        let before = self.hv.scheduler().directives;
        self.hv.handle(now, event, queue);
        let boundary = finished.map(|(app, task)| {
            let runtime = self.hv.apps().get(app).expect("a boundary retires nothing");
            Boundary {
                preempted: runtime.phase(task) == TaskPhase::Unplaced,
                ready: runtime.deps_allow_next_item(task, self.hv.scheduler().pipelining()),
            }
        });
        self.log.push(Logged {
            at: now,
            event,
            directives: self.hv.scheduler().directives - before,
            boundary,
        });
    }
}

/// Runs `events` on the every-tick schedule, wired as `Testbed::run`
/// wires a board, and logs every event it handles.
fn probe_log(policy: Policy, events: &EventSequence) -> Vec<Logged> {
    let board = &boards()[0];
    let tick = SimDuration::from_millis(zcu106::SCHEDULING_INTERVAL_MILLIS);
    let hv = Hypervisor::new(
        Device::new(board.device.clone()),
        EveryTick {
            inner: policy.build(events, board),
            directives: 0,
        },
        events.events().to_vec(),
    )
    .with_tick_interval(tick);
    let mut sim = Simulation::new(Probe {
        hv,
        log: Vec::new(),
    });
    for (index, event) in events.iter().enumerate() {
        sim.queue_mut()
            .push(event.arrival(), HvEvent::Arrival(index));
    }
    sim.queue_mut().push(SimTime::ZERO + tick, HvEvent::Tick);
    sim.run();
    assert!(sim.handler().hv.finished());
    std::mem::take(&mut sim.handler_mut().log)
}

/// The directive-issuing ticks of an every-tick run that share their
/// instant with an item or reconfiguration completion, as `(instant,
/// completion pops before the tick)`.
fn same_instant_ticks(policy: Policy, events: &EventSequence) -> Vec<(SimTime, bool)> {
    let log = probe_log(policy, events);
    let completion =
        |e: &HvEvent| matches!(e, HvEvent::ItemDone { .. } | HvEvent::ReconfigDone { .. });
    log.iter()
        .enumerate()
        .filter(|(_, l)| l.event == HvEvent::Tick && l.directives > 0)
        .filter_map(|(i, l)| {
            let shared = log
                .iter()
                .enumerate()
                .filter(|(j, o)| *j != i && o.at == l.at && completion(&o.event));
            let before = shared.clone().any(|(j, _)| j < i);
            (shared.count() > 0).then_some((l.at, before))
        })
        .collect()
}

/// The item boundaries at which an every-tick run, which also consults
/// at every boundary, batch-preempts the task that finished, though it
/// was ready for its next item, with no tick at that instant.
fn boundary_preemptions(policy: Policy, events: &EventSequence) -> Vec<SimTime> {
    let log = probe_log(policy, events);
    log.iter()
        .filter(|l| l.boundary.is_some_and(|b| b.preempted && b.ready))
        .filter(|l| !log.iter().any(|o| o.at == l.at && o.event == HvEvent::Tick))
        .map(|l| l.at)
        .collect()
}

#[test]
fn the_panel_hits_a_directive_issuing_tick_that_shares_its_instant_with_a_completion() {
    // The committed fixture holds such a tick under Nimblock: the elided
    // run must queue it in the same place among that instant's events.
    let events = fixture("same_instant_tick");
    let hits = same_instant_ticks(Policy::Nimblock, &events);
    assert!(!hits.is_empty(), "the fixture lost its same-instant tick");
    // A completion ahead of a tick has already consulted at that instant,
    // on the state the tick sees, so only ticks ahead of one can act.
    assert!(
        hits.iter().all(|&(_, completion_first)| !completion_first),
        "a directive tick popped after a same-instant completion: {hits:?}"
    );
    check_board(
        &boards()[0],
        Policy::Nimblock,
        &events,
        "same-instant fixture",
    )
    .unwrap_or_else(|e| panic!("{e}"));
}

#[test]
fn the_panel_hits_a_batch_preemption_at_an_item_boundary_without_a_tick() {
    // The committed fixture holds one under Nimblock: a task finishes an
    // item, is ready for its next one, and the every-consult schedule
    // preempts it before the launch pass restarts it. The elided run
    // consults there only because the hook, asked before the launches,
    // re-runs the failed preemption search that ended the last consult;
    // no tick shares the instant to consult.
    let events = fixture("boundary_preempt");
    let hits = boundary_preemptions(Policy::Nimblock, &events);
    assert!(!hits.is_empty(), "the fixture lost its boundary preemption");
    check_board(
        &boards()[0],
        Policy::Nimblock,
        &events,
        "boundary-preemption fixture",
    )
    .unwrap_or_else(|e| panic!("{e}"));
}
