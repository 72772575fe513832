//! The cluster testbed: plan, fan out, merge — in parallel if asked.
//!
//! A run has three phases:
//!
//! 1. **Plan** (sequential): a [`Dispatcher`] assigns every arrival to a
//!    board using its own deterministic load model. No board state is
//!    consulted, so the plan is a pure function of the arrival sequence.
//! 2. **Execute** (parallel): each board runs its own `Hypervisor` + sim
//!    engine over *only its* arrivals, on a worker from the scoped pool in
//!    [`crate::pool`]. Boards share nothing — scheduler, device model,
//!    metrics shard, and trace are all per-board.
//! 3. **Merge** (sequential, board-index order): per-board records are
//!    remapped to their global stimulus indices and folded into one
//!    [`ClusterReport`]; metrics shards are merged into the cluster
//!    registry in board order.
//!
//! Because phase 1 is sequential, phase 2 is embarrassingly parallel, and
//! phase 3 merges in a fixed order, the result is **byte-identical** no
//! matter how many worker threads run phase 2 — `with_threads(1)` is the
//! oracle the differential tests compare against.

use nimblock_core::{HvEvent, Hypervisor, Scheduler, Trace, LIVELOCK_HORIZON};
use nimblock_fpga::{Device, DeviceConfig};
use nimblock_metrics::{Report, RunCounters};
use nimblock_obs::nb_debug;
use nimblock_sim::{SimDuration, SimTime, Simulation};
use nimblock_workload::{ArrivalEvent, EventSequence};

use crate::pool;
use crate::{DispatchPolicy, Dispatcher};

/// The result of a cluster run: the merged report plus per-board detail.
#[derive(Debug, Clone)]
pub struct ClusterReport {
    merged: Report,
    per_board: Vec<Report>,
    assignments: Vec<usize>,
    per_board_traces: Vec<Trace>,
    monitor: Option<nimblock_obs::MonitorDoc>,
}

impl ClusterReport {
    /// Returns the merged report over all boards (records keep their
    /// stimulus event indices; `finished_at` is the latest board finish).
    pub fn merged(&self) -> &Report {
        &self.merged
    }

    /// Returns one report per board, containing only its own applications
    /// (with their *global* stimulus event indices).
    pub fn per_board(&self) -> &[Report] {
        &self.per_board
    }

    /// Returns one schedule trace per board, when the run was traced (see
    /// [`ClusterTestbed::with_tracing`]); empty otherwise.
    pub fn per_board_traces(&self) -> &[Trace] {
        &self.per_board_traces
    }

    /// Returns the number of boards.
    pub fn board_count(&self) -> usize {
        self.per_board.len()
    }

    /// Returns which board each stimulus event was dispatched to.
    pub fn assignments(&self) -> &[usize] {
        &self.assignments
    }

    /// Returns the merged monitoring document when the run was monitored
    /// (see [`ClusterTestbed::with_monitor`]); `None` otherwise. Windows
    /// are summed index-wise across boards in board order, SLO rules are
    /// evaluated once over the merged series, and the flight recorders
    /// are concatenated in board order — so the document is byte-identical
    /// for any worker-thread count.
    pub fn monitor(&self) -> Option<&nimblock_obs::MonitorDoc> {
        self.monitor.as_ref()
    }

    /// Returns how many events each board received.
    pub fn board_loads(&self) -> Vec<usize> {
        let mut loads = vec![0usize; self.per_board.len()];
        for &board in &self.assignments {
            loads[board] += 1;
        }
        loads
    }
}

/// Everything one board's worker produces; merged in board-index order.
struct BoardOutcome {
    report: Report,
    trace: Option<Trace>,
    shard: Option<nimblock_obs::Registry>,
    monitor: Option<nimblock_obs::MonitorState>,
}

/// Emulates real-time application arrival on a cluster of identical boards:
/// arrivals are planned onto boards by a deterministic [`Dispatcher`], each
/// board simulates its own share (in parallel under
/// [`ClusterTestbed::with_threads`]), and the per-board results merge into
/// one report — byte-identical to the sequential run for the same seed.
///
/// See the crate-level example.
pub struct ClusterTestbed<F> {
    boards: usize,
    dispatch: DispatchPolicy,
    scheduler_factory: F,
    device_config: DeviceConfig,
    horizon: SimTime,
    threads: usize,
    tracing: bool,
    metrics: Option<nimblock_obs::Registry>,
    monitor: Option<nimblock_obs::MonitorConfig>,
}

impl<S, F> ClusterTestbed<F>
where
    S: Scheduler,
    F: Fn() -> S + Sync,
{
    /// Creates a cluster of `boards` identical ZCU106 overlays; every board
    /// gets a fresh scheduler from `scheduler_factory`. The factory is
    /// shared by reference with the worker threads, hence the `Sync` bound;
    /// the schedulers it builds never cross threads.
    ///
    /// Runs sequentially by default ([`ClusterTestbed::with_threads`]).
    ///
    /// # Panics
    ///
    /// Panics if `boards` is zero.
    pub fn new(boards: usize, dispatch: DispatchPolicy, scheduler_factory: F) -> Self {
        assert!(boards > 0, "a cluster needs at least one board");
        ClusterTestbed {
            boards,
            dispatch,
            scheduler_factory,
            device_config: DeviceConfig::zcu106(),
            horizon: LIVELOCK_HORIZON,
            threads: 1,
            tracing: false,
            metrics: None,
            monitor: None,
        }
    }

    /// Sets how many worker threads simulate boards in parallel.
    ///
    /// `1` (the default) runs every board inline on the calling thread —
    /// the sequential oracle. `0` means auto (the host's available
    /// parallelism). Any value yields the same bytes; threads only change
    /// wall-clock time.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = pool::resolve_threads(threads);
        self
    }

    /// Enables per-board schedule tracing; the traces come back in
    /// [`ClusterReport::per_board_traces`], in board order.
    pub fn with_tracing(mut self) -> Self {
        self.tracing = true;
        self
    }

    /// Overrides the per-board device configuration.
    pub fn with_device_config(mut self, device_config: DeviceConfig) -> Self {
        self.device_config = device_config;
        self
    }

    /// Publishes cluster telemetry in `registry`: the dispatcher's
    /// `cluster_*` series plus — merged from per-board shards in board
    /// order — the boards' `hv_*`, `sched_*`, and `sim_*` series. Shards
    /// use untimed hypervisor metrics (no wall-clock samples), so the
    /// merged export is deterministic across runs and thread counts.
    pub fn with_metrics(mut self, registry: nimblock_obs::Registry) -> Self {
        self.metrics = Some(registry);
        self
    }

    /// Attaches a continuous monitor to every board. Each board
    /// aggregates its own windowed series (with the rule set stripped —
    /// running per-board rules on partial series would mis-fire); the
    /// merge phase folds the boards together in board-index order and
    /// evaluates `config`'s SLO rules once, over the merged series. The
    /// result lands in [`ClusterReport::monitor`].
    pub fn with_monitor(mut self, config: nimblock_obs::MonitorConfig) -> Self {
        self.monitor = Some(config);
        self
    }

    /// Runs `events` to completion.
    ///
    /// # Panics
    ///
    /// Panics if any application fails to retire before the livelock
    /// horizon.
    pub fn run(self, events: &EventSequence) -> ClusterReport {
        let tick = SimDuration::from_millis(nimblock_fpga::zcu106::SCHEDULING_INTERVAL_MILLIS);
        let reconfig = Device::new(self.device_config.clone()).nominal_reconfig_latency();

        // Phase 1: plan. Sequential over the arrival stream; the only
        // shared mutable state of the whole run lives here.
        let dispatches = match &self.metrics {
            Some(registry) => {
                registry
                    .gauge("cluster_boards", "Boards in the modelled cluster")
                    .set(self.boards as i64);
                registry.counter(
                    "cluster_dispatches_total",
                    "Applications dispatched to a board",
                )
            }
            None => nimblock_obs::Counter::detached(),
        };
        let mut dispatcher = Dispatcher::new(self.dispatch, self.boards, reconfig);
        let mut assignments = Vec::with_capacity(events.len());
        let mut board_events: Vec<(Vec<ArrivalEvent>, Vec<usize>)> =
            vec![(Vec::new(), Vec::new()); self.boards];
        for (index, event) in events.iter().enumerate() {
            let board = dispatcher.assign(event);
            nb_debug!("cluster", "dispatch event {index} -> board {board}");
            dispatches.inc();
            assignments.push(board);
            board_events[board].0.push(event.clone());
            board_events[board].1.push(index);
        }

        // Phase 2: execute. One independent job per board; nothing below
        // touches shared state, so the pool may run them in any order.
        let factory = &self.scheduler_factory;
        let device_config = &self.device_config;
        let horizon = self.horizon;
        let tracing = self.tracing;
        let sharded = self.metrics.is_some();
        let monitor_config = &self.monitor;
        let jobs: Vec<_> = board_events
            .into_iter()
            .enumerate()
            .map(|(board, (stimulus, globals))| {
                move || {
                    run_board(
                        factory(),
                        device_config.clone(),
                        stimulus,
                        globals,
                        board,
                        tick,
                        horizon,
                        tracing,
                        sharded,
                        monitor_config.clone(),
                    )
                }
            })
            .collect();
        let outcomes = pool::run_indexed(self.threads, jobs);

        // Phase 3: merge, strictly in board-index order.
        let mut per_board = Vec::with_capacity(outcomes.len());
        let mut per_board_traces = Vec::new();
        let mut merged_monitor = self
            .monitor
            .as_ref()
            .map(|config| nimblock_obs::MonitorState::new(config.clone(), 0));
        for outcome in outcomes {
            if let (Some(registry), Some(shard)) = (&self.metrics, &outcome.shard) {
                registry.merge_from(shard);
            }
            if let (Some(merged), Some(board)) = (&mut merged_monitor, &outcome.monitor) {
                merged.merge_from(board);
            }
            if let Some(trace) = outcome.trace {
                per_board_traces.push(trace);
            }
            per_board.push(outcome.report);
        }
        // SLO rules run exactly once, over the cluster-wide series.
        let monitor_doc = merged_monitor.map(|mut merged| {
            merged.evaluate_merged();
            merged.to_doc()
        });
        let finished_at = per_board
            .iter()
            .map(|r| r.finished_at())
            .max()
            .unwrap_or(SimTime::ZERO);
        let scheduler_name = per_board
            .first()
            .map(|r| r.scheduler().to_owned())
            .unwrap_or_default();
        let merged_records = per_board
            .iter()
            .flat_map(|r| r.records().iter().cloned())
            .collect();
        let merged_counters = per_board
            .iter()
            .fold(RunCounters::default(), |acc, r| acc.merged(*r.counters()));
        if let Some(registry) = &self.metrics {
            registry
                .counter("cluster_arrivals_total", "Arrivals across all boards")
                .add(merged_counters.arrivals);
            registry
                .counter("cluster_retires_total", "Retirements across all boards")
                .add(merged_counters.retires);
        }
        let mut merged = Report::new(
            format!(
                "cluster({boards}x{scheduler_name}, {dispatch_name})",
                boards = per_board.len(),
                dispatch_name = self.dispatch.name(),
            ),
            merged_records,
            finished_at,
        )
        .with_counters(merged_counters);
        // Traced runs carry per-board attribution; the merge re-sorts by
        // global event index, so it is invariant to board and fold order.
        if let Some(attribution) = per_board
            .iter()
            .filter_map(|r| r.attribution().cloned())
            .reduce(nimblock_metrics::AttributionSummary::merged)
        {
            merged = merged.with_attribution(attribution);
        }
        ClusterReport {
            merged,
            per_board,
            assignments,
            per_board_traces,
            monitor: monitor_doc,
        }
    }
}

/// Simulates one board over its share of the stimulus. Runs on a pool
/// worker; everything it touches is owned by this call.
#[allow(clippy::too_many_arguments)]
fn run_board<S: Scheduler>(
    mut scheduler: S,
    device_config: DeviceConfig,
    stimulus: Vec<ArrivalEvent>,
    globals: Vec<usize>,
    board: usize,
    tick: SimDuration,
    horizon: SimTime,
    tracing: bool,
    sharded: bool,
    monitor_config: Option<nimblock_obs::MonitorConfig>,
) -> BoardOutcome {
    let shard = sharded.then(nimblock_obs::Registry::new);
    if let Some(shard) = &shard {
        scheduler.attach_metrics(shard);
    }
    // Board monitors aggregate only: the rule set is stripped so no SLO
    // fires on a partial (single-board) series; rules run on the merge.
    let monitor = monitor_config.map(|config| {
        let handle = nimblock_obs::MonitorHandle::new(config.without_rules(), 0);
        handle.with(|m| m.set_board(board as u64));
        handle
    });
    let arrivals: Vec<SimTime> = stimulus.iter().map(|e| e.arrival()).collect();
    let mut hypervisor =
        Hypervisor::new(Device::new(device_config), scheduler, stimulus).with_tick_interval(tick);
    if let Some(shard) = &shard {
        // Untimed: no wall-clock samples, so the shard (and therefore the
        // merged cluster registry) is a function of simulated time only.
        hypervisor = hypervisor.with_untimed_metrics(shard);
    }
    if let Some(monitor) = &monitor {
        hypervisor = hypervisor.with_monitor(monitor.clone());
    }
    if tracing {
        hypervisor = hypervisor.with_tracing();
    }
    let mut sim = Simulation::new(hypervisor);
    for (local, at) in arrivals.iter().enumerate() {
        sim.queue_mut().push(*at, HvEvent::Arrival(local));
    }
    // An idle board never ticks: its sim ends at t=0 instead of spinning,
    // and it cannot inflate the merged finish time.
    if !arrivals.is_empty() {
        sim.queue_mut().push(SimTime::ZERO + tick, HvEvent::Tick);
    }
    sim.run_until(horizon);
    assert!(
        sim.handler().finished(),
        "cluster board hit the livelock horizon with applications outstanding"
    );
    if let Some(shard) = &shard {
        shard
            .counter("sim_events_total", "Simulation events processed")
            .add(sim.steps());
        shard
            .gauge(
                "sim_event_queue_depth_max",
                "High-water mark of the simulation event-queue depth",
            )
            .set(sim.max_queue_depth() as i64);
    }
    let finished_at = sim.now();
    sim.handler_mut().release_monitor();
    let monitor_state = monitor.map(|handle| {
        handle.with(|m| {
            m.finalize(finished_at.as_micros());
            m.clone()
        })
    });
    let mut hypervisor = sim.into_handler();
    let trace = hypervisor.take_trace();
    let report = hypervisor.into_report(finished_at);
    // Remap board-local stimulus indices back to the global event order the
    // caller dispatched. Local order is a subsequence of global order, so
    // the report's index-sorted invariant survives the remap.
    let records = report
        .records()
        .iter()
        .cloned()
        .map(|mut record| {
            record.event_index = globals[record.event_index];
            record
        })
        .collect();
    let mut report = Report::new(report.scheduler().to_owned(), records, finished_at)
        .with_counters(*report.counters());
    if let Some(trace) = &trace {
        // Attribution uses per-board arrival order as its index; remap to
        // global stimulus indices the same way the records were. The
        // summary is a pure function of the (deterministic) trace, so it
        // cannot depend on the worker-thread count.
        let mut attribution = nimblock_core::attribute_trace(trace);
        for app in &mut attribution.apps {
            app.event_index = globals[app.event_index];
        }
        let attribution =
            nimblock_metrics::AttributionSummary::from_apps(attribution.apps);
        report = report.with_attribution(attribution);
    }
    BoardOutcome {
        report,
        trace,
        shard,
        monitor: monitor_state,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nimblock_core::{NimblockScheduler, Testbed};
    use nimblock_workload::{generate, Scenario};

    fn cluster(
        boards: usize,
        dispatch: DispatchPolicy,
    ) -> ClusterTestbed<impl Fn() -> NimblockScheduler> {
        ClusterTestbed::new(boards, dispatch, NimblockScheduler::default)
    }

    #[test]
    fn single_board_cluster_matches_the_plain_testbed() {
        let events = generate(3, 8, Scenario::Stress);
        let plain = Testbed::new(NimblockScheduler::default()).run(&events);
        let clustered = cluster(1, DispatchPolicy::RoundRobin).run(&events);
        assert_eq!(plain.records(), clustered.merged().records());
    }

    #[test]
    fn every_event_is_assigned_and_retired() {
        let events = generate(4, 12, Scenario::Stress);
        for dispatch in DispatchPolicy::ALL {
            let report = cluster(3, dispatch).run(&events);
            assert_eq!(report.merged().records().len(), 12, "{}", dispatch.name());
            assert_eq!(report.assignments().len(), 12);
            assert!(report.assignments().iter().all(|&b| b < 3));
            let loads = report.board_loads();
            assert_eq!(loads.iter().sum::<usize>(), 12);
        }
    }

    #[test]
    fn round_robin_spreads_evenly() {
        let events = generate(5, 12, Scenario::RealTime);
        let report = cluster(4, DispatchPolicy::RoundRobin).run(&events);
        assert_eq!(report.board_loads(), vec![3, 3, 3, 3]);
    }

    #[test]
    fn more_boards_do_not_hurt_mean_response() {
        let events = generate(6, 16, Scenario::Stress);
        let one = cluster(1, DispatchPolicy::LeastOutstanding).run(&events);
        let four = cluster(4, DispatchPolicy::LeastOutstanding).run(&events);
        assert!(
            four.merged().mean_response_secs() <= one.merged().mean_response_secs(),
            "4 boards ({:.1}s) vs 1 board ({:.1}s)",
            four.merged().mean_response_secs(),
            one.merged().mean_response_secs()
        );
    }

    #[test]
    fn least_outstanding_avoids_the_loaded_board() {
        use nimblock_app::{benchmarks, Priority};
        // A huge app lands first; the next arrivals must go to the other
        // board under least-outstanding.
        let events = EventSequence::new(vec![
            ArrivalEvent::new(benchmarks::digit_recognition(), 10, Priority::Low, SimTime::ZERO),
            ArrivalEvent::new(benchmarks::lenet(), 2, Priority::High, SimTime::from_millis(100)),
            ArrivalEvent::new(benchmarks::lenet(), 2, Priority::High, SimTime::from_millis(200)),
        ]);
        let report = cluster(2, DispatchPolicy::LeastOutstanding).run(&events);
        let assignments = report.assignments();
        assert_ne!(assignments[1], assignments[0]);
        assert_ne!(assignments[2], assignments[0]);
    }

    #[test]
    fn cluster_metrics_and_merged_counters() {
        let events = generate(7, 9, Scenario::Standard);
        let registry = nimblock_obs::Registry::new();
        let report = cluster(3, DispatchPolicy::RoundRobin)
            .with_metrics(registry.clone())
            .run(&events);
        let text = registry.render_prometheus();
        assert!(text.contains("cluster_dispatches_total 9"), "{text}");
        assert!(text.contains("cluster_boards 3"), "{text}");
        assert!(text.contains("cluster_arrivals_total 9"), "{text}");
        assert!(text.contains("cluster_retires_total 9"), "{text}");
        // Board shards surface merged in the same registry.
        assert!(text.contains("hv_arrivals_total 9"), "{text}");
        assert!(text.contains("sim_events_total"), "{text}");
        // The untimed shards never take wall-clock samples.
        assert!(text.contains("hv_decision_latency_nanos_count 0"), "{text}");
        nimblock_obs::validate_prometheus(&text).unwrap();
        // The merged report aggregates the per-board counters.
        assert_eq!(report.merged().counters().arrivals, 9);
        let per_board_sum: u64 = report.per_board().iter().map(|r| r.counters().retires).sum();
        assert_eq!(per_board_sum, 9);
    }

    /// The determinism oracle in miniature: every thread count yields the
    /// same bytes — records, assignments, per-board reports, traces, and
    /// the rendered metrics page. The full randomized version lives in
    /// `tests/cluster_differential.rs`.
    #[test]
    fn parallel_run_is_byte_identical_to_sequential() {
        let events = generate(21, 14, Scenario::Stress);
        let run = |threads: usize| {
            let registry = nimblock_obs::Registry::new();
            let monitor = nimblock_obs::MonitorConfig::with_window_micros(1_000_000)
                .rules(nimblock_obs::parse_rules(&["resp:low:p50<=1us".into()]).unwrap());
            let report = cluster(3, DispatchPolicy::LeastOutstanding)
                .with_threads(threads)
                .with_tracing()
                .with_metrics(registry.clone())
                .with_monitor(monitor)
                .run(&events);
            (report, registry.render_prometheus())
        };
        let (sequential, seq_metrics) = run(1);
        for threads in [2, 8] {
            let (parallel, par_metrics) = run(threads);
            assert_eq!(sequential.assignments(), parallel.assignments());
            assert_eq!(sequential.merged().records(), parallel.merged().records());
            assert_eq!(sequential.merged().finished_at(), parallel.merged().finished_at());
            assert_eq!(sequential.merged().counters(), parallel.merged().counters());
            for (a, b) in sequential.per_board().iter().zip(parallel.per_board()) {
                assert_eq!(a.records(), b.records());
                assert_eq!(a.finished_at(), b.finished_at());
            }
            assert_eq!(
                sequential.per_board_traces().len(),
                parallel.per_board_traces().len()
            );
            for (a, b) in sequential
                .per_board_traces()
                .iter()
                .zip(parallel.per_board_traces())
            {
                assert_eq!(
                    nimblock_ser::to_string_pretty(a),
                    nimblock_ser::to_string_pretty(b)
                );
            }
            assert_eq!(seq_metrics, par_metrics, "metrics page must not depend on threads");
            assert_eq!(
                sequential.merged().attribution(),
                parallel.merged().attribution(),
                "merged attribution must not depend on threads"
            );
            // The merged monitoring document — windows, alerts, and the
            // concatenated flight recorder — down to its serialized bytes.
            assert_eq!(sequential.monitor(), parallel.monitor());
            assert_eq!(
                nimblock_ser::to_string_pretty(sequential.monitor().unwrap()),
                nimblock_ser::to_string_pretty(parallel.monitor().unwrap()),
                "monitor doc must not depend on threads"
            );
        }
    }

    #[test]
    fn cluster_monitor_merges_boards_and_fires_rules_once() {
        let events = generate(9, 6, Scenario::Standard);
        // A 100% utilization floor is unmeetable, so the merged
        // evaluation must fire; per-board evaluation is stripped, so
        // every alert can only come from the merged series.
        let config = nimblock_obs::MonitorConfig::with_window_micros(1_000_000)
            .rules(nimblock_obs::parse_rules(&["util>=100%".into()]).unwrap());
        let report = cluster(3, DispatchPolicy::RoundRobin)
            .with_monitor(config)
            .run(&events);
        let doc = report.monitor().expect("monitored run carries a doc");
        assert_eq!(doc.slots, 30, "3 boards x 10 slots");
        let arrivals: u64 = doc.windows.iter().map(|w| w.arrivals).sum();
        let retires: u64 = doc.windows.iter().map(|w| w.retires).sum();
        assert_eq!((arrivals, retires), (6, 6));
        assert!(!doc.alerts.is_empty(), "unmeetable SLO must fire on the merge");
        assert_eq!(doc.rules, vec!["util>=100%".to_owned()]);
        // Flight-recorder entries carry their board tags, concatenated in
        // board-index order.
        let boards: Vec<u64> = doc.recorder.iter().map(|e| e.board).collect();
        assert!(boards.windows(2).all(|pair| pair[0] <= pair[1]), "{boards:?}");
        assert!(boards.iter().any(|&b| b > 0), "multiple boards recorded");
        // Unmonitored runs carry no doc.
        assert!(cluster(3, DispatchPolicy::RoundRobin).run(&events).monitor().is_none());
    }

    #[test]
    fn traced_cluster_carries_exact_attribution() {
        let events = generate(17, 10, Scenario::Stress);
        let report = cluster(3, DispatchPolicy::LeastOutstanding)
            .with_tracing()
            .run(&events);
        let merged = report.merged().attribution().expect("traced run attributes");
        assert!(merged.is_exact());
        assert_eq!(merged.apps.len(), 10, "every retired app is attributed");
        // Per-app event indices are the *global* stimulus indices.
        let indices: Vec<usize> = merged.apps.iter().map(|a| a.event_index).collect();
        assert_eq!(indices, (0..10).collect::<Vec<_>>());
        for board in report.per_board() {
            let attribution = board.attribution().expect("per-board attribution");
            assert!(attribution.is_exact());
        }
        // Untraced runs carry no attribution.
        let untraced = cluster(3, DispatchPolicy::LeastOutstanding).run(&events);
        assert!(untraced.merged().attribution().is_none());
    }

    #[test]
    fn single_board_attribution_matches_the_plain_testbed_oracle() {
        let events = generate(29, 8, Scenario::Stress);
        let (plain, _trace) =
            Testbed::new(NimblockScheduler::default()).run_traced(&events);
        let clustered = cluster(1, DispatchPolicy::RoundRobin)
            .with_tracing()
            .run(&events);
        assert_eq!(plain.attribution(), clustered.merged().attribution());
    }

    #[test]
    fn traced_cluster_returns_one_trace_per_board() {
        let events = generate(9, 6, Scenario::Standard);
        let report = cluster(3, DispatchPolicy::RoundRobin)
            .with_tracing()
            .run(&events);
        assert_eq!(report.per_board_traces().len(), 3);
        // Untraced runs return no traces.
        let untraced = cluster(3, DispatchPolicy::RoundRobin).run(&events);
        assert!(untraced.per_board_traces().is_empty());
    }

    #[test]
    fn idle_boards_do_not_inflate_the_merged_finish() {
        // Eight boards, two events: six boards stay idle at t=0.
        let events = generate(13, 2, Scenario::Standard);
        let few = cluster(1, DispatchPolicy::RoundRobin).run(&events);
        let many = cluster(8, DispatchPolicy::RoundRobin)
            .with_threads(4)
            .run(&events);
        assert!(many.merged().finished_at() <= few.merged().finished_at());
        assert_eq!(many.merged().records().len(), 2);
    }

    #[test]
    #[should_panic(expected = "at least one board")]
    fn zero_boards_is_rejected() {
        let _ = ClusterTestbed::new(0, DispatchPolicy::RoundRobin, NimblockScheduler::default);
    }
}
