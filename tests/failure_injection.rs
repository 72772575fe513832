//! Failure injection: exhausted buffer memory, degraded configuration
//! ports, tiny and wide devices, and livelock detection.
//!
//! In a debug build `Hypervisor::handle` checks its tables after every
//! event (DESIGN.md §14.6), so the wide-device runs here also check the
//! launch set past one 64-bit word, with launches stalled on memory.

use nimblock::app::{benchmarks, Priority};
use nimblock::core::{
    verify_trace, FcfsScheduler, Hypervisor, HvEvent, InvariantConfig, NimblockScheduler,
    NoSharingScheduler, Scheduler, Testbed, TraceEvent,
};
use nimblock::fpga::{Device, DeviceConfig};
use nimblock::sim::{SimDuration, SimTime, Simulation};
use nimblock::workload::{generate, ArrivalEvent, EventSequence, Scenario};

fn three_apps() -> EventSequence {
    EventSequence::new(vec![
        ArrivalEvent::new(benchmarks::lenet(), 3, Priority::High, SimTime::ZERO),
        ArrivalEvent::new(benchmarks::image_compression(), 2, Priority::Low, SimTime::from_millis(100)),
        ArrivalEvent::new(benchmarks::rendering_3d(), 2, Priority::Medium, SimTime::from_millis(200)),
    ])
}

#[test]
fn tight_memory_stalls_launches_but_completes() {
    // Room for only two 1 MiB task buffers at a time: launches must stall
    // and retry as buffers are relinquished, but everything retires.
    let mut config = DeviceConfig::zcu106();
    config.memory_bytes = 2 << 20;
    let device = Device::new(config);
    let events = three_apps();
    let hypervisor = Hypervisor::new(
        device,
        NimblockScheduler::default(),
        events.events().to_vec(),
    );
    let mut sim = Simulation::new(hypervisor);
    for (index, event) in events.iter().enumerate() {
        sim.queue_mut().push(event.arrival(), HvEvent::Arrival(index));
    }
    sim.queue_mut()
        .push(SimTime::ZERO + SimDuration::from_millis(400), HvEvent::Tick);
    sim.run();
    assert!(sim.handler().finished(), "apps must retire despite stalls");
    assert!(
        sim.handler().alloc_stalls() > 0,
        "a 2 MiB pool must cause allocation stalls"
    );
    assert_eq!(sim.handler().device().memory().in_use(), 0);
}

/// Forty long pipelines arriving 50 ms apart: enough concurrent tasks to
/// bind slots past index 63 of a 70-slot device.
fn crowd() -> EventSequence {
    let apps = [
        benchmarks::optical_flow,
        benchmarks::alexnet,
        benchmarks::rendering_3d,
        benchmarks::image_compression,
    ];
    EventSequence::new(
        (0..40u64)
            .map(|i| {
                ArrivalEvent::new(
                    apps[i as usize % apps.len()](),
                    20,
                    Priority::Medium,
                    SimTime::from_millis(i * 50),
                )
            })
            .collect(),
    )
}

/// Runs [`crowd`] on 70 slots (two words of launch set) with room for 96
/// task buffers of 1 MiB, fewer than the run keeps live when unbounded.
fn wide_tight_run(scheduler: impl Scheduler) {
    let name = scheduler.name();
    let mut config = DeviceConfig::zcu106().with_slot_count(70);
    config.memory_bytes = 96 << 20;
    let events = crowd();
    let (report, trace) = Testbed::new(scheduler)
        .with_device_config(config)
        .run_traced(&events);
    assert_eq!(report.records().len(), events.len(), "{name}: every app retires");
    assert!(
        report.counters().alloc_stalls > 0,
        "{name}: the small pool must stall launches"
    );
    let second_word = trace.events().iter().any(|event| {
        matches!(event, TraceEvent::Item { slot, .. } if slot.index() >= 64)
    });
    assert!(second_word, "{name}: no item ran past the first 64 slots");
    let verdict = verify_trace(&trace, &InvariantConfig::default());
    assert!(verdict.is_clean(), "{name}:\n{verdict}");
}

#[test]
fn seventy_slots_with_stalled_launches_run_clean_under_fcfs() {
    wide_tight_run(FcfsScheduler::new());
}

#[test]
fn seventy_slots_with_stalled_launches_run_clean_under_nimblock() {
    wide_tight_run(NimblockScheduler::default());
}

#[test]
fn zero_memory_never_launches_and_the_horizon_catches_it() {
    let mut config = DeviceConfig::zcu106();
    config.memory_bytes = 0;
    let result = std::panic::catch_unwind(|| {
        Testbed::new(NimblockScheduler::default())
            .with_device_config(config)
            .with_horizon(SimTime::from_secs(100))
            .run(&three_apps())
    });
    assert!(result.is_err(), "livelock horizon must fire");
}

#[test]
fn slow_configuration_port_still_completes() {
    // A CAP ten times slower (800 ms per slot) changes latencies, not
    // correctness.
    let mut config = DeviceConfig::zcu106();
    config.cap_bandwidth_bytes_per_sec /= 10;
    let events = three_apps();
    let fast = Testbed::new(NimblockScheduler::default()).run(&events);
    let slow = Testbed::new(NimblockScheduler::default())
        .with_device_config(config)
        .run(&events);
    assert_eq!(slow.records().len(), 3);
    for (s, f) in slow.records().iter().zip(fast.records()) {
        assert!(
            s.response_time() >= f.response_time(),
            "slower reconfiguration cannot speed {} up",
            s.app_name
        );
    }
}

#[test]
fn sd_card_loading_adds_first_use_latency_only() {
    let mut config = DeviceConfig::zcu106();
    config.sd_bandwidth_bytes_per_sec = 100 << 20; // 100 MiB/s SD card
    let events = three_apps();
    let preloaded = Testbed::new(NimblockScheduler::default()).run(&events);
    let sd = Testbed::new(NimblockScheduler::default())
        .with_device_config(config)
        .run(&events);
    assert_eq!(sd.records().len(), 3);
    // Loading 32 MiB bitstreams at 100 MiB/s adds latency overall.
    assert!(sd.finished_at() >= preloaded.finished_at());
}

#[test]
fn single_slot_device_serializes_everything_but_works() {
    let config = DeviceConfig::zcu106().with_slot_count(1);
    let events = generate(9, 5, Scenario::Standard);
    for scheduler in [
        "nosharing",
        "nimblock",
    ] {
        let report = match scheduler {
            "nosharing" => Testbed::new(Box::new(NoSharingScheduler::new()) as Box<dyn nimblock::core::Scheduler>)
                .with_device_config(config.clone())
                .run(&events),
            _ => Testbed::new(Box::new(NimblockScheduler::default()) as Box<dyn nimblock::core::Scheduler>)
                .with_device_config(config.clone())
                .run(&events),
        };
        assert_eq!(report.records().len(), 5, "{scheduler}");
    }
}

#[test]
fn two_slot_device_allows_minimal_pipelining() {
    let config = DeviceConfig::zcu106().with_slot_count(2);
    let events = EventSequence::new(vec![ArrivalEvent::new(
        benchmarks::optical_flow(),
        10,
        Priority::High,
        SimTime::ZERO,
    )]);
    let one = Testbed::new(NimblockScheduler::default())
        .with_device_config(DeviceConfig::zcu106().with_slot_count(1))
        .run(&events);
    let two = Testbed::new(NimblockScheduler::default())
        .with_device_config(config)
        .run(&events);
    assert!(
        two.records()[0].response_time() < one.records()[0].response_time(),
        "a second slot must help a batched chain"
    );
}

#[test]
fn ring_noc_speeds_up_fine_grained_pipelines() {
    use nimblock::fpga::Interconnect;
    let events = EventSequence::new(vec![ArrivalEvent::new(
        benchmarks::image_compression(),
        30,
        Priority::Medium,
        SimTime::ZERO,
    )]);
    let slow_ps = Testbed::new(NimblockScheduler::default())
        .with_interconnect(Interconnect::ThroughPs {
            per_transfer: SimDuration::from_millis(20),
        })
        .run(&events);
    let noc = Testbed::new(NimblockScheduler::default())
        .with_interconnect(Interconnect::RingNoc {
            base: SimDuration::from_micros(50),
            per_hop: SimDuration::from_micros(10),
            ps_transfer: SimDuration::from_millis(20),
        })
        .run(&events);
    assert!(
        noc.records()[0].response_time() < slow_ps.records()[0].response_time(),
        "a NoC must beat staging every inter-stage transfer through a slow PS"
    );
}

#[test]
fn interconnect_default_matches_legacy_per_item_overhead() {
    // The ThroughPs default must reproduce the flat 1 ms per-item model the
    // calibration was built on.
    let events = three_apps();
    let default_run = Testbed::new(NimblockScheduler::default()).run(&events);
    let explicit = Testbed::new(NimblockScheduler::default())
        .with_per_item_overhead(SimDuration::from_millis(1))
        .run(&events);
    assert_eq!(default_run.records(), explicit.records());
}
