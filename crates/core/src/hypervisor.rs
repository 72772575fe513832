//! The hypervisor mechanism.

use std::collections::HashMap;
use std::sync::Arc;

use nimblock_fpga::{Device, SlotId};
use nimblock_metrics::{Report, ResponseRecord};
use nimblock_sim::{EventQueue, Handler, SimTime};
use nimblock_app::TaskId;
use nimblock_workload::ArrivalEvent;

use nimblock_obs::{nb_debug, nb_info, nb_trace};

use crate::tick_grid::TickGrid;
use crate::trace::{Trace, TraceEvent};
use crate::{
    AppArena, AppId, AppRuntime, HvMetrics, Reconfig, SchedView, Scheduler, SlotBinding, TaskPhase,
};

/// A hypervisor event, delivered by the simulation engine.
///
/// These are the occurrences the bare-metal hypervisor of the paper reacts
/// to: an application arriving from the testbed, the periodic scheduling
/// interval, the configuration port finishing a partial reconfiguration,
/// and user logic finishing one batch item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HvEvent {
    /// Arrival of stimulus event `index` (resolved against the stimulus the
    /// hypervisor was constructed with).
    Arrival(usize),
    /// The periodic scheduling interval (400 ms on the evaluated system):
    /// a scheduling point with no state change of its own.
    ///
    /// The caller seeds the first tick at one interval past zero; the
    /// hypervisor then keeps the grid of multiples of the interval, but
    /// queues a tick only at the first grid instant where one can act —
    /// where [`Scheduler::next_decision_change`] says a consult may do
    /// something new, while a launch is stalled on buffer memory (each
    /// retry counts as an alloc stall), or where the run ends (every run
    /// ends on a tick). Each queued tick pops in the place among
    /// same-instant events that it would hold if a tick were queued every
    /// interval, so skipping the rest changes nothing but the event count.
    Tick,
    /// The configuration port finished reconfiguring `slot`.
    ReconfigDone {
        /// The reconfigured slot.
        slot: SlotId,
    },
    /// The task on `slot` finished one batch item.
    ///
    /// The event names no task: [`Hypervisor::item_owner`] reads it from
    /// the slot table while `gen` is still the slot's launch generation.
    ///
    /// A completion that leaves the task holding its slot (items of its
    /// batch remain) is an *item boundary*, the point at which the task may
    /// be batch-preempted; so is a stale completion, which changes nothing.
    /// With the configuration port idle, the last consult of the policy
    /// returned `None`, and since then only item-level fields have moved.
    /// At a boundary the hypervisor therefore consults the policy only if
    /// [`Scheduler::next_decision_change`], asked with the finished task
    /// idle, answers at or before now; it then launches items as after
    /// every event. A completion that finishes the task's batch frees its
    /// slot and always consults.
    ItemDone {
        /// The slot the item ran on.
        slot: SlotId,
        /// Launch generation of the slot; stale completions (the item was
        /// aborted by a fine-grained preemption) are ignored.
        gen: u64,
    },
}

/// The Nimblock hypervisor: mechanism only, policy behind [`Scheduler`].
///
/// Owns the device model and all application runtime state. Driven as a
/// [`Handler`] by `nimblock_sim::Simulation`; most users want the
/// [`crate::Testbed`] wrapper instead of driving this directly.
#[derive(Debug)]
pub struct Hypervisor<S> {
    device: Device,
    scheduler: S,
    stimulus: Vec<ArrivalEvent>,
    apps: AppArena,
    /// The slot table: every slot's hardware state and bound task, in slot
    /// order, which every [`SchedView`] borrows as it is. It is updated in
    /// place where a slot changes (begin and finish reconfiguration; begin,
    /// finish and abort execution; release).
    slots: Vec<SlotBinding>,
    /// The slots the next launch pass visits (see
    /// [`Hypervisor::launch_items`]).
    launch_set: SlotSet,
    records: Vec<ResponseRecord>,
    next_app_raw: u64,
    arrivals_seen: usize,
    /// Instrumentation: always-on detached handles, optionally published
    /// through a registry via [`Hypervisor::with_metrics`].
    metrics: HvMetrics,
    interconnect: nimblock_fpga::Interconnect,
    ticks: TickGrid,
    /// Set when the last launch pass deferred a launch for lack of buffer
    /// memory; every later tick retries it until an event changes state.
    launch_stalled: bool,
    trace: Option<Trace>,
    /// Per-slot launch generation; bumped on every launch and abort so
    /// stale [`HvEvent::ItemDone`] events can be recognized.
    launch_gen: Vec<u64>,
    /// Checkpoint-save latency of fine-grained (mid-item) preemption;
    /// `None` models the baseline overlay, which can only batch-preempt.
    fine_checkpoint: Option<nimblock_sim::SimDuration>,
    /// Partial bitstreams are per (application, task), not per arrival:
    /// repeated invocations of the same application reuse the same files,
    /// so their SD-card load cost is paid once (a warm start). The key
    /// includes the bitstream size so same-named applications with
    /// different footprints do not share entries.
    bitstream_cache: HashMap<(String, usize, u64), nimblock_fpga::BitstreamId>,
    /// Continuous-observability sink (windowed time-series + flight
    /// recorder + SLO engine), held here for the length of the run so an
    /// emission takes no lock. `None` (the default) keeps the hot path
    /// free of monitoring work beyond one branch per emission point.
    monitor: Option<HeldMonitor>,
    /// Set whenever an event may have changed the scheduling state, so
    /// the post-event occupancy sample (an O(apps × tasks) scan) is
    /// skipped on no-op ticks. The monitor carries the previous sample
    /// through unsampled windows, so skipping is observationally free.
    monitor_dirty: bool,
    /// `false` when the attached monitor retains no windows (a sink-less
    /// configuration): occupancy samples would be discarded on arrival,
    /// so the post-event scan is skipped entirely.
    monitor_samples: bool,
}

impl<S: Scheduler> Hypervisor<S> {
    /// Creates a hypervisor over `device` that will admit `stimulus` events
    /// as the simulation delivers [`HvEvent::Arrival`]s.
    pub fn new(device: Device, scheduler: S, stimulus: Vec<ArrivalEvent>) -> Self {
        let slot_count = device.slot_count();
        let slots = device
            .slots()
            .iter()
            .map(|slot| SlotBinding {
                slot: slot.id(),
                state: slot.state(),
                bound: None,
                resources: *slot.resources(),
            })
            .collect();
        Hypervisor {
            device,
            scheduler,
            stimulus,
            apps: AppArena::new(),
            slots,
            launch_set: SlotSet::new(slot_count),
            records: Vec::new(),
            next_app_raw: 0,
            arrivals_seen: 0,
            metrics: HvMetrics::detached(),
            interconnect: nimblock_fpga::Interconnect::zcu106_default(),
            ticks: TickGrid::new(nimblock_sim::SimDuration::from_millis(
                nimblock_fpga::zcu106::SCHEDULING_INTERVAL_MILLIS,
            )),
            launch_stalled: false,
            trace: None,
            launch_gen: vec![0; slot_count],
            fine_checkpoint: None,
            bitstream_cache: HashMap::new(),
            monitor: None,
            monitor_dirty: false,
            monitor_samples: false,
        }
    }

    /// Attaches a continuous-observability monitor: every admission,
    /// reconfiguration, preemption, item launch/abort, and retirement is
    /// mirrored into its virtual-time tumbling windows and flight
    /// recorder, and the scheduling state (queue depth, waiting/running
    /// apps) is sampled after every event. Detached hypervisors skip all
    /// of this behind a single `Option` branch.
    ///
    /// The hypervisor takes the state out of `monitor` and updates it
    /// without locking until [`Hypervisor::release_monitor`], or until it
    /// is dropped, hands it back; a run that panics thus still leaves its
    /// state in the handle for a post-mortem. A handle therefore serves
    /// one running hypervisor at a time; runs one after another keep
    /// aggregating into the same state.
    pub fn with_monitor(mut self, monitor: nimblock_obs::MonitorHandle) -> Self {
        let mut state = monitor.with(std::mem::take);
        // Bind the monitor to this device so its utilization denominator
        // and per-slot abort tracking match regardless of how the handle
        // was constructed.
        state.set_slots(self.device.slot_count());
        self.monitor_samples = state.config().window_capacity > 0;
        self.monitor = Some(HeldMonitor { handle: monitor, state });
        self
    }

    /// Hands the attached monitor's state back to its handle; later
    /// events are no longer monitored. Call it when the run ends, before
    /// reading the handle.
    pub fn release_monitor(&mut self) {
        // Dropping the held state returns it.
        self.monitor = None;
    }

    /// Enables fine-grained (mid-item) preemption with the given
    /// checkpoint-save latency, modelling the checkpoint-capable overlay of
    /// the paper's future work (§7). Schedulers may then preempt a
    /// *running* task; its item progress is checkpointed and resumed later.
    pub fn with_fine_preemption(mut self, checkpoint: nimblock_sim::SimDuration) -> Self {
        self.fine_checkpoint = Some(checkpoint);
        self
    }

    /// Overrides the periodic scheduling-tick interval. The caller seeds
    /// the first [`HvEvent::Tick`] at one interval past zero; a zero
    /// interval disables re-arming, for an outer driver that supplies the
    /// ticks itself.
    pub fn with_tick_interval(mut self, interval: nimblock_sim::SimDuration) -> Self {
        self.ticks = TickGrid::new(interval);
        self
    }

    /// Enables schedule tracing (see [`Trace`]). Off by default: traces of
    /// long runs are large. The trace records the device's slot count so
    /// downstream analysis (utilization, validation, Gantt/Chrome export)
    /// needs no out-of-band configuration.
    pub fn with_tracing(mut self) -> Self {
        self.trace = Some(Trace::with_slots(self.device.slot_count()));
        self
    }

    /// Publishes this hypervisor's instruments in `registry` (as `hv_*`
    /// series) and enables wall-clock scheduler decision-latency timing.
    /// Without this the hypervisor still counts — into detached handles —
    /// so the end-of-run report's counters are always populated.
    pub fn with_metrics(mut self, registry: &nimblock_obs::Registry) -> Self {
        self.metrics = HvMetrics::registered(registry);
        self
    }

    /// Publishes this hypervisor's instruments in `registry` like
    /// [`Hypervisor::with_metrics`], but *without* wall-clock
    /// decision-latency timing, so everything the registry observes is a
    /// function of simulated time only. Cluster board shards use this to
    /// keep the merged metrics export deterministic.
    pub fn with_untimed_metrics(mut self, registry: &nimblock_obs::Registry) -> Self {
        self.metrics = HvMetrics::registered_untimed(registry);
        self
    }

    /// Returns the hypervisor's instruments.
    pub fn metrics(&self) -> &HvMetrics {
        &self.metrics
    }

    /// Returns the recorded trace so far, if tracing is enabled.
    pub fn trace(&self) -> Option<&Trace> {
        self.trace.as_ref()
    }

    /// Removes and returns the recorded trace, if tracing was enabled.
    pub fn take_trace(&mut self) -> Option<Trace> {
        self.trace.take()
    }

    /// Overrides the per-item hypervisor overhead (task launch plus data
    /// movement through the PS). Zero models an ideal zero-cost hypervisor.
    /// Sugar for a position-independent [`nimblock_fpga::Interconnect::ThroughPs`].
    pub fn with_per_item_overhead(self, overhead: nimblock_sim::SimDuration) -> Self {
        self.with_interconnect(nimblock_fpga::Interconnect::ThroughPs {
            per_transfer: overhead,
        })
    }

    /// Overrides the inter-slot data-movement model (through-PS on the
    /// evaluated overlay; a ring NoC is the paper's §7 future work).
    pub fn with_interconnect(mut self, interconnect: nimblock_fpga::Interconnect) -> Self {
        self.interconnect = interconnect;
        self
    }

    /// Returns the device model.
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// Returns the scheduling policy.
    pub fn scheduler(&self) -> &S {
        &self.scheduler
    }

    /// Returns the live (admitted, unretired) applications.
    pub fn apps(&self) -> &AppArena {
        &self.apps
    }

    /// Returns the records of retired applications so far.
    pub fn records(&self) -> &[ResponseRecord] {
        &self.records
    }

    /// Returns the task whose item an [`HvEvent::ItemDone`] on `slot` with
    /// launch generation `gen` completes, or `None` if the completion is
    /// stale. Every launch and every abort moves the slot's generation, and
    /// a running task keeps its slot until its item completes or is
    /// aborted, so while `gen` is current the slot is still bound to the
    /// task that launched the item.
    pub fn item_owner(&self, slot: SlotId, gen: u64) -> Option<(AppId, TaskId)> {
        if self.launch_gen.get(slot.index()) != Some(&gen) {
            return None;
        }
        self.slots[slot.index()].bound
    }

    /// Returns how many launches were deferred for lack of buffer memory.
    pub fn alloc_stalls(&self) -> u64 {
        self.metrics.alloc_stalls.get()
    }

    /// Returns `true` once every stimulus event has arrived and retired.
    pub fn finished(&self) -> bool {
        self.arrivals_seen == self.stimulus.len() && self.apps.is_empty()
    }

    /// Consumes the hypervisor into a metrics report, including the
    /// whole-run counters (preemptions, reconfigurations, alloc stalls,
    /// bitstream cache hits/misses).
    pub fn into_report(self, finished_at: SimTime) -> Report {
        Report::new(self.scheduler.name(), self.records, finished_at)
            .with_counters(self.metrics.run_counters())
    }

    /// Copies `slot`'s hardware state from the device into the slot table,
    /// after a device call moved it. [`SchedView`]s are built from
    /// `&self.slots` and `&self.apps` directly — disjoint field borrows, so
    /// the scheduler (another field) can still be called mutably while the
    /// view is alive.
    fn sync_slot(&mut self, slot: SlotId) {
        self.slots[slot.index()].state = self.device.slots()[slot.index()].state();
    }

    /// Admits stimulus event `index`: registers its bitstreams, creates the
    /// runtime, and notifies the policy (paper §2.2: bitstreams are placed
    /// in the filesystem and the application enters the pending queue).
    /// # Panics
    ///
    /// Panics if any task of the arriving application fits no slot on this
    /// device: such an application could never be placed by any policy and
    /// would livelock the run, so admission fails fast and names the task.
    fn admit(&mut self, index: usize, now: SimTime) {
        let event = self.stimulus[index].clone();
        for (task, spec) in event.app().graph().tasks() {
            assert!(
                self.device
                    .slots()
                    .iter()
                    .any(|slot| spec.resources().fits_within(slot.resources())),
                "application '{}' cannot be admitted: {task} ('{}') fits no slot on this device",
                event.app().name(),
                spec.name(),
            );
        }
        self.arrivals_seen += 1;
        self.metrics.arrivals.inc();
        let id = AppId::new(self.next_app_raw);
        self.next_app_raw += 1;
        let mut cache_hits = 0u64;
        let mut cache_misses = 0u64;
        let bitstreams = (0..event.app().graph().task_count())
            .map(|task| {
                let key = (
                    event.app().name().to_owned(),
                    task,
                    event.app().bitstream_bytes(),
                );
                match self.bitstream_cache.get(&key) {
                    Some(&bitstream) => {
                        // Warm start: the partial bitstream files of a
                        // repeat invocation are already on the card.
                        self.metrics.bitstream_cache_hits.inc();
                        cache_hits += 1;
                        bitstream
                    }
                    None => {
                        self.metrics.bitstream_cache_misses.inc();
                        cache_misses += 1;
                        let bitstream =
                            self.device.store_mut().register(event.app().bitstream_bytes());
                        self.bitstream_cache.insert(key, bitstream);
                        bitstream
                    }
                }
            })
            .collect();
        if let Some(HeldMonitor { state: m, .. }) = &mut self.monitor {
            let at = now.as_micros();
            m.on_arrival(at);
            for _ in 0..cache_hits {
                m.on_cache(at, true);
            }
            for _ in 0..cache_misses {
                m.on_cache(at, false);
            }
            m.record(
                at,
                "arrival",
                || format!(
                    "{id} {} batch={} priority={:?}",
                    event.app().name(),
                    event.batch_size(),
                    event.priority(),
                ),
            );
        }
        nb_info!(
            "hv",
            "msg=\"admitted\" app={id} name={} batch={} priority={:?} at={now}",
            event.app().name(),
            event.batch_size(),
            event.priority(),
        );
        let runtime = AppRuntime::new(
            id,
            index,
            Arc::clone(event.app()),
            event.batch_size(),
            event.priority(),
            now,
            bitstreams,
        );
        self.apps.insert(runtime);
        if let Some(trace) = &mut self.trace {
            trace.record(TraceEvent::Arrival {
                app: id,
                name: event.app().name().to_owned(),
                batch: event.batch_size(),
                priority: event.priority(),
                at: now,
            });
        }
        let view = SchedView {
            now,
            apps: &self.apps,
            slots: &self.slots,
            reconfig_latency: self.device.nominal_reconfig_latency(),
            interconnect: self.interconnect,
        };
        self.scheduler.on_arrival(&view, id);
    }

    fn on_reconfig_done(&mut self, slot: SlotId, now: SimTime) {
        nb_trace!("cap", "msg=\"reconfig done\" slot={slot} at={now}");
        self.metrics.reconfig_queue_depth.add(-1);
        self.device.finish_reconfiguration(slot);
        self.sync_slot(slot);
        let (app, task) = self.slots[slot.index()]
            .bound
            .expect("reconfiguration completed on an unbound slot");
        let runtime = self.apps.get_mut(app).expect("bound app is live");
        debug_assert_eq!(runtime.phases[task.index()], TaskPhase::Reconfiguring(slot));
        runtime.phases[task.index()] = TaskPhase::Idle(slot);
        self.launch_set.insert(slot.index());
    }

    /// Records one finished item. Returns `true` at an item boundary: the
    /// task keeps its slot for its next item, or the completion is stale.
    fn on_item_done(&mut self, slot: SlotId, gen: u64, now: SimTime) -> bool {
        let Some((app, task)) = self.item_owner(slot, gen) else {
            // The launch this completion belongs to was aborted by a
            // fine-grained preemption; its progress is checkpointed.
            self.metrics.stale_completions.inc();
            return true;
        };
        self.metrics.items.inc();
        self.device.finish_execution(slot);
        self.sync_slot(slot);
        let runtime = self.apps.get_mut(app).expect("running app is live");
        debug_assert_eq!(runtime.phases[task.index()], TaskPhase::Running(slot));
        runtime.item_progress[task.index()] = nimblock_sim::SimDuration::ZERO;
        runtime.item_started[task.index()] = None;
        runtime.items_done[task.index()] += 1;
        runtime.run_time += runtime.spec().graph().task(task).latency();
        // The finished item is an input an idle successor may wait for.
        for &succ in runtime.spec().graph().successors(task) {
            if let TaskPhase::Idle(succ_slot) = runtime.phases[succ.index()] {
                self.launch_set.insert(succ_slot.index());
            }
        }
        if runtime.items_done[task.index()] < runtime.batch_size() {
            runtime.phases[task.index()] = TaskPhase::Idle(slot);
            self.launch_set.insert(slot.index());
            return true;
        }
        runtime.phases[task.index()] = TaskPhase::Done;
        self.slots[slot.index()].bound = None;
        self.device
            .release_slot(slot)
            .expect("slot of a completed task is idle");
        self.sync_slot(slot);
        self.free_consumed_buffers(app, task);
        if self.apps[app].is_complete() {
            self.retire(app, now);
        }
        false
    }

    /// Relinquishes output buffers whose data no consumer still needs
    /// (paper §2.2: "the hypervisor relinquishes the unneeded data
    /// buffers"), now that `task` has reached `Done`. A buffer is freeable
    /// once its producer and every consumer are done; the last of them to
    /// finish is `task` or one of its successors, so only the buffers of
    /// `task` and of its predecessors can have become freeable.
    fn free_consumed_buffers(&mut self, app: AppId, task: TaskId) {
        let runtime = self.apps.get_mut(app).expect("app is live");
        let graph = runtime.spec().graph_arc();
        for &producer in std::iter::once(&task).chain(graph.predecessors(task)) {
            let consumed = runtime.phases[producer.index()] == TaskPhase::Done
                && graph
                    .successors(producer)
                    .iter()
                    .all(|&s| runtime.phases[s.index()] == TaskPhase::Done);
            if consumed {
                if let Some(buffer) = runtime.buffers[producer.index()].take() {
                    self.device
                        .memory_mut()
                        .free(buffer)
                        .expect("buffer was live");
                }
            }
        }
    }

    fn retire(&mut self, app: AppId, now: SimTime) {
        let runtime = self.apps.remove(app).expect("retiring app is live");
        // Free any buffers the consumed-buffer sweep left behind.
        for buffer in runtime.buffers.iter().flatten() {
            self.device
                .memory_mut()
                .free(*buffer)
                .expect("buffer was live");
        }
        if let Some(trace) = &mut self.trace {
            trace.record(TraceEvent::Retire { app, at: now });
        }
        self.metrics.retires.inc();
        let wait = match runtime.first_launch {
            Some(first) => first.saturating_since(runtime.arrival()),
            None => now.saturating_since(runtime.arrival()),
        };
        self.metrics.wait_micros.observe(wait.as_micros());
        let response = now.saturating_since(runtime.arrival()).as_micros();
        self.metrics.response_micros.observe(response);
        // Per-priority class series plus the streaming quantile sketches.
        // Slowdown = response over ideal service time (own compute plus
        // own reconfiguration), scaled ×1000 to keep integer buckets.
        let ideal = (runtime.run_time + runtime.reconfig_time).as_micros().max(1);
        let slowdown_milli = response.saturating_mul(1000) / ideal;
        self.metrics.response_time_for(runtime.priority()).observe(response);
        self.metrics.slowdown_for(runtime.priority()).observe(slowdown_milli);
        self.metrics.response_quantiles.observe(response);
        self.metrics.slowdown_quantiles.observe(slowdown_milli);
        if let Some(HeldMonitor { state: m, .. }) = &mut self.monitor {
            let at = now.as_micros();
            let weight = u64::from(runtime.priority().weight());
            m.on_retire(at, weight, response, slowdown_milli);
            m.record(
                at,
                "retire",
                || format!(
                    "{app} {} response={response}us slowdown_milli={slowdown_milli}",
                    runtime.spec().name(),
                ),
            );
        }
        nb_info!(
            "hv",
            "msg=\"retired\" app={app} name={} at={now} preemptions={}",
            runtime.spec().name(),
            runtime.preemptions,
        );
        self.records.push(ResponseRecord {
            event_index: runtime.event_index(),
            app_name: runtime.spec().name().to_owned(),
            batch_size: runtime.batch_size(),
            priority: runtime.priority(),
            arrival: runtime.arrival(),
            first_launch: runtime.first_launch,
            retired: now,
            run_time: runtime.run_time,
            reconfig_time: runtime.reconfig_time,
            preemptions: runtime.preemptions,
        });
        let view = SchedView {
            now,
            apps: &self.apps,
            slots: &self.slots,
            reconfig_latency: self.device.nominal_reconfig_latency(),
            interconnect: self.interconnect,
        };
        self.scheduler.on_retire(&view, app);
    }

    /// Validates and enacts one scheduling directive.
    ///
    /// # Panics
    ///
    /// Panics when the directive violates the [`Scheduler`] contract: dead
    /// application, non-unplaced task, busy slot, or preemption of a
    /// non-idle victim. These are policy bugs.
    fn enact(&mut self, directive: Reconfig, now: SimTime, queue: &mut EventQueue<HvEvent>) {
        self.monitor_dirty = true;
        let Reconfig { app, task, slot } = directive;
        assert!(
            self.apps.contains(app),
            "directive names dead application {app}"
        );
        assert_eq!(
            self.apps[app].phase(task),
            TaskPhase::Unplaced,
            "directive places {task} of {app} which is not unplaced"
        );
        assert!(
            self.apps[app]
                .spec()
                .graph()
                .task(task)
                .resources()
                .fits_within(
                    self.device
                        .slot(slot)
                        .expect("directive names a real slot")
                        .resources()
                ),
            "directive places {task} of {app} into {slot}, which it does not fit"
        );
        // Preempt the current occupant, if any.
        let mut reconfig_start = now;
        if let Some((victim_app, victim_task)) = self.slots[slot.index()].bound {
            assert!(
                (victim_app, victim_task) != (app, task),
                "directive reconfigures {task} of {app} onto its own slot"
            );
            let fine_checkpoint = self.fine_checkpoint;
            let victim = self
                .apps
                .get_mut(victim_app)
                .expect("bound app is live");
            match victim.phases[victim_task.index()] {
                // Batch-preemption: batch state (items_done) is retained —
                // that is the whole point of preempting at batch boundaries
                // (paper §3.2).
                TaskPhase::Idle(victim_slot) if victim_slot == slot => {}
                // Fine-grained preemption: only legal on a checkpoint-capable
                // overlay; the in-flight item's progress is saved and the
                // checkpoint latency delays the reconfiguration.
                TaskPhase::Running(victim_slot) if victim_slot == slot => {
                    let checkpoint = fine_checkpoint.unwrap_or_else(|| {
                        // Scheduler-contract violation, documented under
                        // "# Panics": a policy may only request mid-item
                        // preemption when the overlay checkpoints.
                        // nimblock: allow(no-unwrap-hot-path)
                        panic!(
                            "mid-item preemption of {victim_task} of {victim_app} \
                             without a checkpoint-capable overlay"
                        )
                    });
                    let started = victim.item_started[victim_task.index()]
                        .expect("running task has a start time");
                    let latency = victim.spec().graph().task(victim_task).latency();
                    // Elapsed time includes the item's input fetch, so a
                    // preempted item may bank up to one fetch worth of
                    // "progress" — a slightly optimistic checkpoint model.
                    let progress = victim.item_progress[victim_task.index()]
                        + now.saturating_since(started);
                    victim.item_progress[victim_task.index()] =
                        progress.min(latency);
                    victim.item_started[victim_task.index()] = None;
                    self.launch_gen[slot.index()] += 1; // in-flight ItemDone is stale
                    self.device
                        .abort_execution(slot)
                        .expect("running slot can be aborted");
                    self.sync_slot(slot);
                    if let Some(HeldMonitor { state: m, .. }) = &mut self.monitor {
                        // The aborted item's un-executed remainder leaves
                        // the busy series.
                        m.on_item_abort(slot.index(), now.as_micros());
                    }
                    reconfig_start = now + checkpoint;
                }
                // Scheduler-contract violation ("# Panics"): only bound
                // tasks (idle at a batch boundary, or running on a
                // checkpointing overlay) are legal preemption victims.
                // nimblock: allow(no-unwrap-hot-path)
                other => panic!(
                    "preemption of {victim_task} of {victim_app} in phase {other:?}"
                ),
            }
            let victim = self.apps.get_mut(victim_app).expect("bound app is live");
            victim.phases[victim_task.index()] = TaskPhase::Unplaced;
            victim.preemptions += 1;
            self.metrics.preemptions.inc();
            if let Some(HeldMonitor { state: m, .. }) = &mut self.monitor {
                let at = now.as_micros();
                m.on_preempt(at);
                m.record(
                    at,
                    "preempt",
                    // Lazy: evaluated only if the flight recorder
                    // accepts the event. nimblock: allow(hot-path-no-alloc)
                    || format!("slot={slot} victim={victim_app} task={victim_task}"),
                );
            }
            nb_debug!(
                "hv",
                "msg=\"preempt\" slot={slot} victim={victim_app} task={victim_task} at={now}"
            );
            self.slots[slot.index()].bound = None;
            if let Some(trace) = &mut self.trace {
                trace.record(TraceEvent::Preempt {
                    slot,
                    app: victim_app,
                    task: victim_task,
                    at: now,
                });
            }
        }
        let bitstream = self.apps[app].bitstream(task);
        let done_at = self
            .device
            .begin_reconfiguration(slot, bitstream, reconfig_start)
            .expect("directive validated against device state");
        self.sync_slot(slot);
        self.slots[slot.index()].bound = Some((app, task));
        let runtime = self.apps.get_mut(app).expect("checked above");
        runtime.phases[task.index()] = TaskPhase::Reconfiguring(slot);
        runtime.reconfig_time += done_at.saturating_since(now);
        self.metrics.reconfigurations.inc();
        self.metrics.reconfig_queue_depth.add(1);
        self.metrics
            .cap_busy_micros
            .add(done_at.saturating_since(reconfig_start).as_micros());
        nb_debug!(
            "cap",
            "msg=\"reconfig\" slot={slot} app={app} task={task} start={reconfig_start} done={done_at}"
        );
        if let Some(trace) = &mut self.trace {
            // Traced at the stream start, not the decision instant: under
            // fine-grained preemption the checkpoint save delays the
            // stream, and the CAP span must cover port occupancy only so
            // trace analysis can audit the serialization latency exactly.
            trace.record(TraceEvent::Reconfig {
                slot,
                app,
                task,
                at: reconfig_start,
                until: done_at,
            });
        }
        if let Some(HeldMonitor { state: m, .. }) = &mut self.monitor {
            m.on_reconfig(reconfig_start.as_micros(), done_at.as_micros());
            m.record(
                reconfig_start.as_micros(),
                "reconfig",
                // Lazy: evaluated only if the flight recorder
                // accepts the event. nimblock: allow(hot-path-no-alloc)
                || format!("slot={slot} app={app} task={task} until={done_at}"),
            );
        }
        self.ticks.push(queue, done_at, HvEvent::ReconfigDone { slot });
    }

    /// Feeds the next batch item to every idle task whose dependencies
    /// allow it (under the policy's pipelining rule).
    ///
    /// Only the slots in the launch set are visited, in ascending order, so
    /// launches, buffer allocations and queue pushes come in the order of a
    /// scan over every slot. A bound task can start an item only once it is
    /// idle on its slot and its dependencies allow its next item, so a slot
    /// joins the set when its task becomes idle on it (its reconfiguration
    /// completes, or it finishes an item and keeps the slot) and when a
    /// predecessor of its idle task finishes an item. A visit takes the
    /// slot out of the set unless its launch stalls on buffer memory; a
    /// stalled launch stays in for every later pass to retry.
    fn launch_items(&mut self, now: SimTime, queue: &mut EventQueue<HvEvent>) {
        let pipelining = self.scheduler.pipelining();
        self.launch_stalled = false;
        let mut next = 0;
        while let Some(slot_index) = self.launch_set.pop_from(next) {
            next = slot_index + 1;
            let SlotBinding { slot, bound: Some((app, task)), .. } = self.slots[slot_index] else {
                continue;
            };
            let runtime = self.apps.get_mut(app).expect("bound app is live");
            if runtime.phases[task.index()] != TaskPhase::Idle(slot) {
                continue;
            }
            if !runtime.deps_allow_next_item(task, pipelining) {
                continue;
            }
            // Allocate the task's output buffer on first launch.
            if runtime.buffers[task.index()].is_none() {
                let bytes = runtime.spec().graph().task(task).output_bytes();
                match self.device.memory_mut().alloc(bytes) {
                    Ok(buffer) => {
                        let runtime = self.apps.get_mut(app).expect("bound app is live");
                        runtime.buffers[task.index()] = Some(buffer);
                    }
                    Err(_) => {
                        // Retry at a later scheduling point, once buffers
                        // have been relinquished.
                        self.metrics.alloc_stalls.inc();
                        self.launch_stalled = true;
                        self.launch_set.insert(slot_index);
                        nb_debug!(
                            "hv",
                            "msg=\"alloc stall\" app={app} task={task} at={now}"
                        );
                        continue;
                    }
                }
            }
            self.device
                .begin_execution(slot)
                .expect("idle bound slot is configured");
            self.sync_slot(slot);
            self.launch_gen[slot_index] += 1;
            let gen = self.launch_gen[slot_index];
            let runtime = self.apps.get_mut(app).expect("bound app is live");
            runtime.phases[task.index()] = TaskPhase::Running(slot);
            self.monitor_dirty = true;
            runtime.first_launch.get_or_insert(now);
            runtime.item_started[task.index()] = Some(now);
            // Fetch the item's inputs: from predecessors' slots when they
            // are resident, from PS memory otherwise (application inputs,
            // or producers that already left the fabric).
            let slot_count = self.slots.len();
            let preds = runtime.spec().graph().predecessors(task);
            let fetch = if preds.is_empty() {
                self.interconnect.fetch_latency(None, slot, slot_count)
            } else {
                preds
                    .iter()
                    .map(|&p| {
                        let from = runtime.phases[p.index()].slot();
                        self.interconnect.fetch_latency(from, slot, slot_count)
                    })
                    .max()
                    .expect("non-empty predecessors")
            };
            // Resume a checkpointed item where it left off.
            let full = runtime.spec().graph().task(task).latency();
            let remaining = full - runtime.item_progress[task.index()].min(full);
            let latency = remaining + fetch;
            let item = runtime.items_done[task.index()];
            if let Some(trace) = &mut self.trace {
                trace.record(TraceEvent::Item {
                    slot,
                    app,
                    task,
                    item,
                    at: now,
                    until: now + latency,
                });
            }
            self.ticks
                .push(queue, now + latency, HvEvent::ItemDone { slot, gen });
            if let Some(HeldMonitor { state: m, .. }) = &mut self.monitor {
                let until = now + latency;
                m.on_item_launch(slot_index, now.as_micros(), until.as_micros());
                m.record(
                    now.as_micros(),
                    "item",
                    // Lazy: evaluated only if the flight recorder
                    // accepts the event. nimblock: allow(hot-path-no-alloc)
                    || format!("slot={slot} app={app} task={task} item={item} until={until}"),
                );
            }
        }
    }

    /// Asks the policy when a consult on the current state can next do
    /// something new (see [`Scheduler::next_decision_change`]).
    fn next_decision_change(&mut self, now: SimTime) -> Option<SimTime> {
        let view = SchedView {
            now,
            apps: &self.apps,
            slots: &self.slots,
            reconfig_latency: self.device.nominal_reconfig_latency(),
            interconnect: self.interconnect,
        };
        self.scheduler.next_decision_change(&view)
    }

    /// The scheduling loop run after every event: policy directives while
    /// the configuration port is idle, then item launches.
    ///
    /// At an item boundary (see [`HvEvent::ItemDone`]) with the port idle,
    /// the last consult returned `None`, and since then only item-level
    /// fields have moved; the policy is consulted only if its hook says a
    /// consult at `now` can answer differently.
    fn drive(&mut self, now: SimTime, boundary: bool, queue: &mut EventQueue<HvEvent>) {
        let consult = !boundary
            || (self.device.cap().is_idle()
                && self.next_decision_change(now).is_some_and(|due| due <= now));
        while consult && self.device.cap().is_idle() {
            let directive = {
                let view = SchedView {
                    now,
                    apps: &self.apps,
                    slots: &self.slots,
                    reconfig_latency: self.device.nominal_reconfig_latency(),
                    interconnect: self.interconnect,
                };
                // Wall-clock decision latency is only measured when a
                // registry is attached: the Instant pair is the one
                // instrument with a real (syscall-level) cost, and its
                // values are nondeterministic.
                if self.metrics.timed {
                    // nimblock: allow(no-wallclock-sim)
                    let started = std::time::Instant::now();
                    let directive = self.scheduler.next_reconfig(&view);
                    // Sub-nanosecond beyond u64 range (584 years) cannot
                    // occur for a single decision.
                    // nimblock: allow(no-lossy-cast)
                    let elapsed = started.elapsed().as_nanos() as u64;
                    self.metrics.decision_latency_nanos.observe(elapsed);
                    self.metrics.decision_latency_quantiles.observe(elapsed);
                    directive
                } else {
                    self.scheduler.next_reconfig(&view)
                }
            };
            match directive {
                Some(reconfig) => self.enact(reconfig, now, queue),
                None => break,
            }
        }
        self.launch_items(now, queue);
    }

    /// Checks, after every event of a debug build, what handling an event
    /// in proportion to its change relies on:
    ///
    /// - (a) the slot table matches the device, and binds each slot to the
    ///   task whose phase holds it;
    /// - (b) a bound task idle on its slot whose dependencies allow its
    ///   next item is in the launch set, and is there only because its
    ///   buffer allocation failed in this pass; nothing else is in the set;
    /// - (c) every buffer whose producer and consumers are all done has
    ///   been freed.
    #[cfg(debug_assertions)]
    fn check_tables(&self) {
        let pipelining = self.scheduler.pipelining();
        assert_eq!(self.slots.len(), self.device.slot_count());
        for (binding, slot) in self.slots.iter().zip(self.device.slots()) {
            assert_eq!(
                (binding.slot, binding.state, binding.resources),
                (slot.id(), slot.state(), *slot.resources()),
                "the slot table disagrees with the device on {}",
                slot.id()
            );
            let Some((app, task)) = binding.bound else {
                assert!(!self.launch_set.contains(binding.slot.index()));
                continue;
            };
            let runtime = self.apps.get(app).expect("bound app is live");
            assert_eq!(
                runtime.phase(task).slot(),
                Some(binding.slot),
                "{} is bound to {task} of {app}, which does not hold it",
                binding.slot
            );
            let ready = runtime.phase(task) == TaskPhase::Idle(binding.slot)
                && runtime.deps_allow_next_item(task, pipelining);
            let stalled = self.launch_stalled && runtime.buffers[task.index()].is_none();
            assert_eq!(
                ready,
                self.launch_set.contains(binding.slot.index()),
                "{task} of {app} on {}: a task whose next item can start must be \
                 launched, or stay in the launch set while stalled on memory",
                binding.slot
            );
            assert!(!ready || stalled, "{task} of {app} was left idle though ready");
        }
        for (id, runtime) in self.apps.iter() {
            let graph = runtime.spec().graph();
            for task in graph.task_ids() {
                if let Some(slot) = runtime.phase(task).slot() {
                    assert_eq!(
                        self.slots[slot.index()].bound,
                        Some((id, task)),
                        "{task} of {id} holds {slot}, which the slot table binds elsewhere"
                    );
                }
                let consumed = runtime.phase(task) == TaskPhase::Done
                    && graph
                        .successors(task)
                        .iter()
                        .all(|&s| runtime.phase(s) == TaskPhase::Done);
                assert!(
                    !consumed || runtime.buffers[task.index()].is_none(),
                    "the buffer of {task} of {id} outlived its producer and consumers"
                );
            }
        }
    }

    /// Queues the next tick that can act (see [`HvEvent::Tick`]), once no
    /// event can still be pushed ahead of it.
    fn arm_tick(&mut self, now: SimTime, queue: &mut EventQueue<HvEvent>) {
        if !self.ticks.unplaced() {
            return;
        }
        let due = if self.finished() || self.launch_stalled {
            // The run ends on the next tick; a stalled launch retries at
            // every tick.
            Some(now)
        } else {
            // With the port busy no tick consults before its ReconfigDone,
            // which asks again; an answer now can only queue a tick early.
            self.next_decision_change(now)
        };
        if let Some(due) = due {
            self.ticks.arm(queue, due);
        }
    }
}

/// Slot indices `0..n` as a bitmap of 64-bit words.
///
/// The hypervisor's launch set: its launch pass takes members out in
/// ascending order for any slot count, so launches, buffer allocations and
/// queue pushes keep the order of a scan over every slot.
#[derive(Debug, PartialEq, Eq)]
struct SlotSet {
    words: Vec<u64>,
}

impl SlotSet {
    /// An empty set over slots `0..slots`.
    fn new(slots: usize) -> Self {
        SlotSet {
            words: vec![0; slots.div_ceil(64)],
        }
    }

    /// Adds slot `index`.
    fn insert(&mut self, index: usize) {
        self.words[index / 64] |= 1 << (index % 64);
    }

    /// Whether slot `index` is a member.
    #[cfg(any(test, debug_assertions))]
    fn contains(&self, index: usize) -> bool {
        self.words[index / 64] >> (index % 64) & 1 == 1
    }

    /// Removes and returns the smallest member at or above `from`.
    fn pop_from(&mut self, from: usize) -> Option<usize> {
        let mut word = from / 64;
        let mut mask = u64::MAX << (from % 64);
        while let Some(bits) = self.words.get_mut(word) {
            let hit = *bits & mask;
            if hit != 0 {
                let bit = hit.trailing_zeros() as usize;
                *bits &= !(1 << bit);
                return Some(word * 64 + bit);
            }
            word += 1;
            mask = u64::MAX;
        }
        None
    }
}

/// A monitor's state, taken out of its shared handle for the length of a
/// run. Dropping it puts the state back in the handle, on release and when
/// a panicking run unwinds alike.
#[derive(Debug)]
struct HeldMonitor {
    handle: nimblock_obs::MonitorHandle,
    state: nimblock_obs::MonitorState,
}

impl Drop for HeldMonitor {
    fn drop(&mut self) {
        let state = std::mem::take(&mut self.state);
        self.handle.with(|m| *m = state);
    }
}

impl<S: Scheduler> Handler<HvEvent> for Hypervisor<S> {
    fn handle(&mut self, now: SimTime, event: HvEvent, queue: &mut EventQueue<HvEvent>) {
        if event != HvEvent::Tick {
            self.ticks.pass_before(now);
        }
        let boundary = match event {
            HvEvent::Arrival(index) => {
                self.monitor_dirty = true;
                self.admit(index, now);
                false
            }
            HvEvent::Tick => false,
            HvEvent::ReconfigDone { slot } => {
                self.monitor_dirty = true;
                self.on_reconfig_done(slot, now);
                false
            }
            HvEvent::ItemDone { slot, gen } => {
                self.monitor_dirty = true;
                self.on_item_done(slot, gen, now)
            }
        };
        self.drive(now, boundary, queue);
        if self.monitor_dirty {
            if let (true, Some(HeldMonitor { state: m, .. })) =
                (self.monitor_samples, &mut self.monitor)
            {
                // Sample the post-event scheduling state: unplaced tasks
                // (work backlog), slotless apps, and apps holding a slot.
                // Only when the state may have changed — no-op ticks skip
                // the scan, and the monitor carries the previous sample
                // through the windows in between.
                let mut queue_depth = 0u64;
                let mut waiting = 0u64;
                let mut running = 0u64;
                for (_, runtime) in self.apps.iter() {
                    let mut placed = false;
                    for phase in &runtime.phases {
                        if *phase == TaskPhase::Unplaced {
                            queue_depth += 1;
                        } else if phase.is_placed() {
                            placed = true;
                        }
                    }
                    if placed {
                        running += 1;
                    } else {
                        waiting += 1;
                    }
                }
                m.sample(now.as_micros(), queue_depth, waiting, running);
            }
            self.monitor_dirty = false;
        }
        if event == HvEvent::Tick {
            self.ticks.handled(now, self.finished());
        }
        self.arm_tick(now, queue);
        #[cfg(debug_assertions)]
        self.check_tables();
    }
}

#[cfg(test)]
mod tests {
    use std::collections::VecDeque;
    

    use nimblock_app::{benchmarks, Priority, TaskId};
    use nimblock_fpga::DeviceConfig;
    use nimblock_sim::{SimDuration, Simulation};
    use nimblock_workload::ArrivalEvent;

    use super::*;
    use crate::Reconfig;

    /// A test policy that replays a fixed list of directives, one per
    /// scheduling point, then stays silent. It counts its consults and
    /// keeps the task phases of application 0 that the last one saw; its
    /// hook gives the trait default's answer unless `silent_hook` makes it
    /// answer `None`.
    #[derive(Debug, Default)]
    struct Scripted {
        directives: VecDeque<Reconfig>,
        pipelining: bool,
        silent_hook: bool,
        consults: u64,
        seen: Vec<TaskPhase>,
    }

    impl Scheduler for Scripted {
        fn name(&self) -> String {
            "Scripted".to_owned()
        }

        fn pipelining(&self) -> bool {
            self.pipelining
        }

        fn next_reconfig(&mut self, view: &SchedView<'_>) -> Option<Reconfig> {
            self.consults += 1;
            if let Some(runtime) = view.app(app0()) {
                self.seen.clone_from(&runtime.phases);
            }
            self.directives.pop_front()
        }

        fn next_decision_change(&mut self, view: &SchedView<'_>) -> Option<SimTime> {
            (!self.silent_hook).then_some(view.now)
        }
    }

    fn start(scheduler: Scripted, batch: u32) -> Simulation<HvEvent, Hypervisor<Scripted>> {
        let events = vec![ArrivalEvent::new(
            benchmarks::lenet(),
            batch,
            Priority::Medium,
            SimTime::ZERO,
        )];
        let hypervisor = Hypervisor::new(Device::new(DeviceConfig::zcu106()), scheduler, events);
        let mut sim = Simulation::new(hypervisor);
        sim.queue_mut().push(SimTime::ZERO, HvEvent::Arrival(0));
        sim
    }

    fn app0() -> AppId {
        AppId::new(0)
    }

    #[test]
    #[should_panic(expected = "dead application")]
    fn directive_for_unknown_app_panics() {
        let scripted = Scripted {
            directives: VecDeque::from(vec![Reconfig {
                app: AppId::new(99),
                task: TaskId::new(0),
                slot: SlotId::new(0),
            }]),
            pipelining: false,
            ..Scripted::default()
        };
        start(scripted, 1).run();
    }

    #[test]
    #[should_panic(expected = "not unplaced")]
    fn directive_for_placed_task_panics() {
        // Place task 0 twice on two different slots.
        let scripted = Scripted {
            directives: VecDeque::from(vec![
                Reconfig { app: app0(), task: TaskId::new(0), slot: SlotId::new(0) },
                Reconfig { app: app0(), task: TaskId::new(0), slot: SlotId::new(1) },
            ]),
            pipelining: false,
            ..Scripted::default()
        };
        start(scripted, 1).run();
    }

    #[test]
    fn scripted_single_app_completes_and_reports() {
        // Place the three LeNet tasks on three slots in topological order.
        let scripted = Scripted {
            directives: VecDeque::from(vec![
                Reconfig { app: app0(), task: TaskId::new(0), slot: SlotId::new(0) },
                Reconfig { app: app0(), task: TaskId::new(1), slot: SlotId::new(1) },
                Reconfig { app: app0(), task: TaskId::new(2), slot: SlotId::new(2) },
            ]),
            pipelining: true,
            ..Scripted::default()
        };
        let mut sim = start(scripted, 2);
        sim.run();
        assert!(sim.handler().finished());
        let records = sim.handler().records();
        assert_eq!(records.len(), 1);
        // 3 reconfigurations of 80 ms each were charged to the app.
        assert_eq!(records[0].reconfig_time, SimDuration::from_millis(240));
        assert_eq!(sim.handler().device().cap().completed(), 3);
    }

    #[test]
    fn silent_scheduler_never_finishes() {
        let mut sim = start(Scripted::default(), 1);
        sim.run_until(SimTime::from_secs(10));
        assert!(!sim.handler().finished());
        assert!(sim.handler().records().is_empty());
        assert_eq!(sim.handler().apps().len(), 1);
    }

    #[test]
    fn tracing_is_off_by_default_and_on_when_enabled() {
        let hypervisor = Hypervisor::new(
            Device::new(DeviceConfig::zcu106()),
            Scripted::default(),
            Vec::new(),
        );
        assert!(hypervisor.trace().is_none());
        let mut traced = Hypervisor::new(
            Device::new(DeviceConfig::zcu106()),
            Scripted::default(),
            Vec::new(),
        )
        .with_tracing();
        assert!(traced.trace().is_some());
        assert!(traced.take_trace().is_some());
        assert!(traced.trace().is_none());
    }

    #[test]
    fn finished_requires_all_arrivals_and_retirements() {
        let hypervisor = Hypervisor::new(
            Device::new(DeviceConfig::zcu106()),
            Scripted::default(),
            vec![ArrivalEvent::new(
                benchmarks::lenet(),
                1,
                Priority::Low,
                SimTime::ZERO,
            )],
        );
        // Nothing arrived yet: one stimulus event outstanding.
        assert!(!hypervisor.finished());
    }

    /// A scheduling point as the consult rule sees it.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Point {
        Arrival,
        Reconfigured,
        /// An item completion that leaves its task holding its slot.
        Boundary,
        /// A completion that finishes its task's batch.
        BatchEnd,
        /// A batch end that finishes the application, which retires.
        Retirement,
        Tick,
    }

    /// One scheduling point of a [`Probe`]d run.
    #[derive(Debug, Clone, Copy)]
    struct Logged {
        point: Point,
        /// The port is idle once the event's state change is applied.
        idle: bool,
        consults: u64,
        /// At a boundary: the last consult saw the finished task idle.
        saw_idle: bool,
    }

    /// Handles events for a hypervisor and logs each one.
    struct Probe {
        hv: Hypervisor<Scripted>,
        log: Vec<Logged>,
    }

    impl Handler<HvEvent> for Probe {
        fn handle(&mut self, now: SimTime, event: HvEvent, queue: &mut EventQueue<HvEvent>) {
            let (point, finished) = match event {
                HvEvent::Arrival(_) => (Point::Arrival, None),
                HvEvent::Tick => (Point::Tick, None),
                HvEvent::ReconfigDone { .. } => (Point::Reconfigured, None),
                HvEvent::ItemDone { slot, gen } => {
                    let (app, task) = self
                        .hv
                        .item_owner(slot, gen)
                        .expect("a scripted run aborts no item");
                    let runtime = &self.hv.apps()[app];
                    let point = if runtime.items_done(task) + 1 < runtime.batch_size() {
                        Point::Boundary
                    } else if runtime.unfinished_tasks() == 1 {
                        Point::Retirement
                    } else {
                        Point::BatchEnd
                    };
                    (point, Some((task, slot)))
                }
            };
            let idle = point == Point::Reconfigured || self.hv.device().cap().is_idle();
            let before = self.hv.scheduler().consults;
            self.hv.handle(now, event, queue);
            let policy = self.hv.scheduler();
            let saw_idle = finished.is_some_and(|(task, slot)| {
                policy.seen.get(task.index()) == Some(&TaskPhase::Idle(slot))
            });
            self.log.push(Logged {
                point,
                idle,
                consults: policy.consults - before,
                saw_idle,
            });
        }
    }

    /// Runs one bulk-processed LeNet of four items, its three tasks placed
    /// by script, and logs every scheduling point (see [`Probe`]).
    fn consult_log(silent_hook: bool) -> Vec<Logged> {
        let scripted = Scripted {
            directives: (0..3)
                .map(|i| Reconfig {
                    app: app0(),
                    task: TaskId::new(i),
                    slot: SlotId::new(i),
                })
                .collect(),
            silent_hook,
            ..Scripted::default()
        };
        let events = vec![ArrivalEvent::new(
            benchmarks::lenet(),
            4,
            Priority::Medium,
            SimTime::ZERO,
        )];
        let hv = Hypervisor::new(Device::new(DeviceConfig::zcu106()), scripted, events);
        let mut sim = Simulation::new(Probe {
            hv,
            log: Vec::new(),
        });
        sim.queue_mut().push(SimTime::ZERO, HvEvent::Arrival(0));
        sim.run();
        assert!(sim.handler().hv.finished());
        sim.handler().log.clone()
    }

    #[test]
    fn a_silent_hook_is_skipped_only_at_item_boundaries() {
        let log = consult_log(true);
        for point in [
            Point::Arrival,
            Point::Reconfigured,
            Point::Boundary,
            Point::BatchEnd,
            Point::Retirement,
        ] {
            assert!(
                log.iter().any(|l| l.point == point && l.idle),
                "the run has no {point:?} with the port idle: {log:?}"
            );
        }
        for l in &log {
            match l.point {
                Point::Boundary => assert_eq!(l.consults, 0, "consulted at a boundary: {log:?}"),
                Point::Tick => {}
                point if l.idle => assert!(l.consults > 0, "{point:?} not consulted: {log:?}"),
                _ => {}
            }
        }
    }

    #[test]
    fn the_default_hook_is_consulted_at_every_item_boundary_before_launches() {
        // Task 0 is a source, so each of its boundaries launches its next
        // item at once: a consult after the launches would see it running.
        let log = consult_log(false);
        let boundaries: Vec<_> = log
            .iter()
            .filter(|l| l.point == Point::Boundary && l.idle)
            .collect();
        assert!(!boundaries.is_empty(), "{log:?}");
        assert!(
            boundaries.iter().all(|l| l.consults > 0 && l.saw_idle),
            "a boundary was not consulted with its task idle: {log:?}"
        );
    }

    #[test]
    fn bulk_mode_waits_for_predecessor_batches() {
        // With pipelining disabled, task 1 must not start until task 0 has
        // finished both items; verify through the final timestamp.
        let scripted_bulk = Scripted {
            directives: VecDeque::from(vec![
                Reconfig { app: app0(), task: TaskId::new(0), slot: SlotId::new(0) },
                Reconfig { app: app0(), task: TaskId::new(1), slot: SlotId::new(1) },
                Reconfig { app: app0(), task: TaskId::new(2), slot: SlotId::new(2) },
            ]),
            pipelining: false,
            ..Scripted::default()
        };
        let scripted_pipe = Scripted {
            directives: VecDeque::from(vec![
                Reconfig { app: app0(), task: TaskId::new(0), slot: SlotId::new(0) },
                Reconfig { app: app0(), task: TaskId::new(1), slot: SlotId::new(1) },
                Reconfig { app: app0(), task: TaskId::new(2), slot: SlotId::new(2) },
            ]),
            pipelining: true,
            ..Scripted::default()
        };
        let mut bulk = start(scripted_bulk, 3);
        let mut pipe = start(scripted_pipe, 3);
        let bulk_end = bulk.run();
        let pipe_end = pipe.run();
        assert!(
            pipe_end < bulk_end,
            "pipelined ({pipe_end}) must finish before bulk ({bulk_end})"
        );
    }

    #[test]
    fn slot_set_members_come_out_in_ascending_order_across_words() {
        let mut set = SlotSet::new(130);
        for index in [129, 3, 64, 0, 63, 70] {
            set.insert(index);
        }
        set.insert(3);
        assert!(set.contains(70) && !set.contains(71));
        let mut order = Vec::new();
        let mut next = 0;
        while let Some(index) = set.pop_from(next) {
            order.push(index);
            next = index + 1;
        }
        assert_eq!(order, [0, 3, 63, 64, 70, 129]);
        assert_eq!(set, SlotSet::new(130));
    }

    #[test]
    fn slot_set_pop_from_skips_members_below_its_start() {
        let mut set = SlotSet::new(70);
        set.insert(2);
        set.insert(69);
        assert_eq!(set.pop_from(3), Some(69));
        assert_eq!(set.pop_from(3), None);
        assert_eq!(set.pop_from(0), Some(2));
        assert_eq!(SlotSet::new(0).pop_from(0), None);
    }
}
