//! The testbed: stimulus in, report out (paper §5.1).

use nimblock_fpga::{Device, DeviceConfig};
use nimblock_metrics::Report;
use nimblock_sim::{SimDuration, SimTime, Simulation};
use nimblock_workload::EventSequence;

use crate::{HvEvent, Hypervisor, Scheduler};

/// Emulates real-time application arrival on a single FPGA: releases each
/// stimulus event to the hypervisor at its arrival time, runs the system to
/// completion, and collects per-application metadata into a
/// [`Report`].
///
/// # Example
///
/// ```
/// use nimblock_core::{PremaScheduler, Testbed};
/// use nimblock_workload::{generate, Scenario};
///
/// let events = generate(3, 4, Scenario::Standard);
/// let report = Testbed::new(PremaScheduler::new()).run(&events);
/// assert_eq!(report.records().len(), 4);
/// assert_eq!(report.scheduler(), "PREMA");
/// ```
#[derive(Debug)]
pub struct Testbed<S> {
    scheduler: S,
    device_config: DeviceConfig,
    horizon: SimTime,
    per_item_overhead: Option<SimDuration>,
    interconnect: Option<nimblock_fpga::Interconnect>,
    scheduling_interval: SimDuration,
    fine_checkpoint: Option<SimDuration>,
    metrics: Option<nimblock_obs::Registry>,
    monitor: Option<nimblock_obs::MonitorHandle>,
}

/// The default livelock horizon of [`Testbed`] and of the cluster testbed:
/// a run with applications outstanding at this time panics. It lies far
/// beyond any legitimate sequence length (the longest benchmark runs ~17
/// minutes per arrival), so a stimulus must arrive before it.
pub const LIVELOCK_HORIZON: SimTime = SimTime::from_secs(10_000_000);

impl<S: Scheduler> Testbed<S> {
    /// Creates a testbed on the default ZCU106 overlay (ten slots, 80 ms
    /// reconfiguration).
    pub fn new(scheduler: S) -> Self {
        Testbed {
            scheduler,
            device_config: DeviceConfig::zcu106(),
            horizon: LIVELOCK_HORIZON,
            per_item_overhead: None,
            interconnect: None,
            scheduling_interval: SimDuration::from_millis(
                nimblock_fpga::zcu106::SCHEDULING_INTERVAL_MILLIS,
            ),
            fine_checkpoint: None,
            metrics: None,
            monitor: None,
        }
    }

    /// Attaches a continuous-observability monitor (windowed time-series,
    /// flight recorder, SLO rules — see `nimblock_obs::timeseries`). The
    /// caller keeps a clone of the handle and snapshots it with
    /// [`nimblock_obs::MonitorHandle::to_doc`] after the run; the testbed
    /// finalizes the window series at the run's finish time.
    pub fn with_monitor(mut self, monitor: nimblock_obs::MonitorHandle) -> Self {
        self.monitor = Some(monitor);
        self
    }

    /// Publishes run telemetry in `registry`: the hypervisor's `hv_*`
    /// series, the policy's `sched_*` series (via
    /// [`Scheduler::attach_metrics`]), and the simulation engine's `sim_*`
    /// series. The registry outlives the run — render it afterwards with
    /// `registry.render_prometheus()` or serialize it as JSON.
    pub fn with_metrics(mut self, registry: nimblock_obs::Registry) -> Self {
        self.metrics = Some(registry);
        self
    }

    /// Overrides the device configuration (slot count, port bandwidth, …).
    pub fn with_device_config(mut self, device_config: DeviceConfig) -> Self {
        self.device_config = device_config;
        self
    }

    /// Overrides the livelock horizon after which [`Testbed::run`] panics.
    pub fn with_horizon(mut self, horizon: SimTime) -> Self {
        self.horizon = horizon;
        self
    }

    /// Overrides the per-item hypervisor overhead (control plus data
    /// movement through the PS between batch items; default 1 ms). A
    /// NoC-equipped overlay — the paper's §7 future work — would shrink
    /// this; zero models an ideal zero-cost hypervisor.
    pub fn with_per_item_overhead(mut self, overhead: SimDuration) -> Self {
        self.per_item_overhead = Some(overhead);
        self
    }

    /// Overrides the inter-slot data-movement model: the evaluated
    /// through-PS path, or the ring NoC of the paper's §7 future work.
    pub fn with_interconnect(mut self, interconnect: nimblock_fpga::Interconnect) -> Self {
        self.interconnect = Some(interconnect);
        self
    }

    /// Models a checkpoint-capable overlay: schedulers may preempt
    /// mid-item, paying `checkpoint` to save the item's state (paper §7
    /// future work). Pair with a policy that exploits it, e.g.
    /// `NimblockConfig::fine_preemption()`.
    pub fn with_fine_preemption(mut self, checkpoint: SimDuration) -> Self {
        self.fine_checkpoint = Some(checkpoint);
        self
    }

    /// Overrides the periodic scheduling interval at which slot
    /// reallocation is triggered (400 ms on the evaluated system).
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero (the tick would spin forever).
    pub fn with_scheduling_interval(mut self, interval: SimDuration) -> Self {
        assert!(!interval.is_zero(), "scheduling interval must be positive");
        self.scheduling_interval = interval;
        self
    }

    /// Runs `events` to completion with schedule tracing enabled, returning
    /// the report, with its response-time attribution, plus the full
    /// [`crate::Trace`].
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Testbed::run`].
    pub fn run_traced(self, events: &EventSequence) -> (Report, crate::Trace) {
        let (mut hypervisor, finished_at) = self.drive(events, true);
        let trace = hypervisor.take_trace().expect("tracing was enabled");
        let report = hypervisor
            .into_report(finished_at)
            .with_attribution(crate::attribution::attribute_trace(&trace));
        (report, trace)
    }

    /// Runs the simulation to completion and returns the finished
    /// hypervisor with its finish time, after publishing the engine-level
    /// series (events processed, event-queue high-water mark) and
    /// finalizing the monitor.
    fn drive(self, events: &EventSequence, tracing: bool) -> (Hypervisor<S>, SimTime) {
        let horizon = self.horizon;
        let registry = self.metrics.clone();
        let monitor = self.monitor.clone();
        let mut sim = self.into_simulation(events, tracing);
        sim.run_until(horizon);
        assert!(
            sim.handler().finished(),
            "testbed hit the livelock horizon with {} applications outstanding",
            sim.handler().apps().len()
        );
        if let Some(registry) = &registry {
            registry
                .counter("sim_events_total", "Simulation events processed")
                .add(sim.steps());
            registry
                .gauge(
                    "sim_event_queue_depth_max",
                    "High-water mark of the simulation event-queue depth",
                )
                .set(sim.max_queue_depth() as i64);
        }
        let finished_at = sim.now();
        if let Some(monitor) = &monitor {
            sim.handler_mut().release_monitor();
            monitor.with(|m| m.finalize(finished_at.as_micros()));
        }
        (sim.into_handler(), finished_at)
    }

    fn into_simulation(
        self,
        events: &EventSequence,
        tracing: bool,
    ) -> Simulation<HvEvent, Hypervisor<S>> {
        let device = Device::new(self.device_config);
        let tick = self.scheduling_interval;
        let mut scheduler = self.scheduler;
        if let Some(registry) = &self.metrics {
            scheduler.attach_metrics(registry);
        }
        let mut hypervisor = Hypervisor::new(device, scheduler, events.events().to_vec())
            .with_tick_interval(tick);
        if let Some(registry) = &self.metrics {
            hypervisor = hypervisor.with_metrics(registry);
        }
        if let Some(overhead) = self.per_item_overhead {
            hypervisor = hypervisor.with_per_item_overhead(overhead);
        }
        if let Some(interconnect) = self.interconnect {
            hypervisor = hypervisor.with_interconnect(interconnect);
        }
        if let Some(checkpoint) = self.fine_checkpoint {
            hypervisor = hypervisor.with_fine_preemption(checkpoint);
        }
        if let Some(monitor) = self.monitor {
            hypervisor = hypervisor.with_monitor(monitor);
        }
        if tracing {
            hypervisor = hypervisor.with_tracing();
        }
        let mut sim = Simulation::new(hypervisor);
        for (index, event) in events.iter().enumerate() {
            sim.queue_mut().push(event.arrival(), HvEvent::Arrival(index));
        }
        sim.queue_mut().push(SimTime::ZERO + tick, HvEvent::Tick);
        sim
    }

    /// Runs `events` to completion and returns the report.
    ///
    /// # Panics
    ///
    /// Panics if the system fails to retire every application before the
    /// livelock horizon — a scheduler that stops making progress is a bug
    /// worth failing loudly on.
    pub fn run(self, events: &EventSequence) -> Report {
        let (hypervisor, finished_at) = self.drive(events, false);
        hypervisor.into_report(finished_at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FcfsScheduler, NimblockScheduler, NoSharingScheduler, PremaScheduler, RoundRobinScheduler};
    use nimblock_workload::{generate, Scenario};

    #[test]
    fn every_policy_retires_every_app_on_the_same_stimulus() {
        let events = generate(11, 8, Scenario::Stress);
        let reports = [
            Testbed::new(NoSharingScheduler::new()).run(&events),
            Testbed::new(FcfsScheduler::new()).run(&events),
            Testbed::new(PremaScheduler::new()).run(&events),
            Testbed::new(RoundRobinScheduler::new()).run(&events),
            Testbed::new(NimblockScheduler::new()).run(&events),
        ];
        for report in &reports {
            assert_eq!(report.records().len(), 8, "{}", report.scheduler());
            for record in report.records() {
                assert!(record.retired >= record.arrival);
                assert!(record.first_launch.is_some(), "{}", report.scheduler());
            }
        }
    }

    #[test]
    fn metrics_registry_collects_run_telemetry() {
        let events = generate(5, 6, Scenario::Standard);
        let registry = nimblock_obs::Registry::new();
        let report = Testbed::new(NimblockScheduler::new())
            .with_metrics(registry.clone())
            .run(&events);
        let text = registry.render_prometheus();
        assert!(text.contains("hv_arrivals_total 6"), "{text}");
        assert!(text.contains("hv_retires_total 6"), "{text}");
        assert!(text.contains("sim_events_total"), "{text}");
        assert!(text.contains("sim_event_queue_depth_max"), "{text}");
        assert!(text.contains("sched_decisions_total"), "{text}");
        assert!(text.contains("sched_candidates_count"), "{text}");
        nimblock_obs::validate_prometheus(&text).unwrap();
        // The same counters surface in the report without any registry.
        assert_eq!(report.counters().arrivals, 6);
        assert_eq!(report.counters().retires, 6);
    }

    #[test]
    fn instrumentation_does_not_perturb_the_schedule() {
        let events = generate(9, 6, Scenario::Standard);
        let plain = Testbed::new(NimblockScheduler::new()).run(&events);
        let metered = Testbed::new(NimblockScheduler::new())
            .with_metrics(nimblock_obs::Registry::new())
            .run(&events);
        assert_eq!(plain.records(), metered.records());
        assert_eq!(plain.finished_at(), metered.finished_at());
        assert_eq!(plain.counters(), metered.counters());
    }

    #[test]
    fn monitor_fills_windows_without_perturbing_the_schedule() {
        let events = generate(9, 6, Scenario::Standard);
        let plain = Testbed::new(NimblockScheduler::new()).run(&events);
        // One-second windows: the Standard scenario spans ~28 min of
        // virtual time, which overflows the default 10 ms windows'
        // capacity bound (the drop counter would eat the late retires).
        let config = nimblock_obs::MonitorConfig::with_window_micros(1_000_000);
        let monitor = nimblock_obs::MonitorHandle::new(config, 0);
        let monitored = Testbed::new(NimblockScheduler::new())
            .with_monitor(monitor.clone())
            .run(&events);
        assert_eq!(plain.records(), monitored.records());
        assert_eq!(plain.finished_at(), monitored.finished_at());
        assert_eq!(plain.counters(), monitored.counters());
        let doc = monitor.to_doc();
        assert_eq!(doc.slots, 10, "bound to the zcu106 slot count on attach");
        assert!(!doc.windows.is_empty());
        let arrivals: u64 = doc.windows.iter().map(|w| w.arrivals).sum();
        let retires: u64 = doc.windows.iter().map(|w| w.retires).sum();
        assert_eq!((arrivals, retires), (6, 6));
        let responses: u64 = doc
            .windows
            .iter()
            .map(|w| w.resp_low.count() + w.resp_med.count() + w.resp_high.count())
            .sum();
        assert_eq!(responses, 6, "every retiree lands in one class sketch");
        for (index, window) in doc.windows.iter().enumerate() {
            assert!(
                window.busy_micros <= doc.slots * doc.window_micros,
                "window {index} overfull: {} busy µs",
                window.busy_micros
            );
        }
        assert!(!doc.recorder.is_empty());
    }

    #[test]
    fn a_panicking_monitored_run_leaves_its_state_in_the_handle() {
        let events = generate(9, 6, Scenario::Standard);
        let config = nimblock_obs::MonitorConfig::with_window_micros(1_000_000);
        let monitor = nimblock_obs::MonitorHandle::new(config, 0);
        // A horizon well before the run ends makes it panic mid-run.
        let testbed = Testbed::new(NimblockScheduler::new())
            .with_monitor(monitor.clone())
            .with_horizon(SimTime::from_secs(120));
        let outcome =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| testbed.run(&events)));
        assert!(outcome.is_err(), "the horizon cuts the run short");
        // The hypervisor held the state; unwinding handed it back.
        let doc = monitor.to_doc();
        assert_eq!(doc.slots, 10);
        let arrivals: u64 = doc.windows.iter().map(|w| w.arrivals).sum();
        assert!(arrivals > 0, "the arrivals before the horizon were kept");
        assert!(!doc.recorder.is_empty());
    }

    #[test]
    fn identical_runs_are_deterministic() {
        let events = generate(5, 6, Scenario::Standard);
        let a = Testbed::new(NimblockScheduler::new()).run(&events);
        let b = Testbed::new(NimblockScheduler::new()).run(&events);
        assert_eq!(a.records(), b.records());
        assert_eq!(a.finished_at(), b.finished_at());
    }

    #[test]
    fn smaller_devices_work() {
        let events = generate(2, 4, Scenario::Standard);
        let config = DeviceConfig::zcu106().with_slot_count(3);
        let report = Testbed::new(NimblockScheduler::new())
            .with_device_config(config)
            .run(&events);
        assert_eq!(report.records().len(), 4);
    }

    #[test]
    #[should_panic(expected = "livelock horizon")]
    fn horizon_catches_unfinished_runs() {
        let events = generate(0, 4, Scenario::Standard);
        // A horizon shorter than any execution forces the panic path.
        Testbed::new(NoSharingScheduler::new())
            .with_horizon(SimTime::from_millis(1))
            .run(&events);
    }
}
