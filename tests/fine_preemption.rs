//! End-to-end tests of fine-grained (mid-item) preemption, the paper's §7
//! future-work overlay capability.

use nimblock::app::{benchmarks, Priority};
use nimblock::core::{HvEvent, Hypervisor, NimblockConfig, NimblockScheduler, Testbed};
use nimblock::fpga::{zcu106, Device, DeviceConfig};
use nimblock::sim::{SimDuration, SimTime, Simulation};
use nimblock::workload::{ArrivalEvent, EventSequence};

/// A long, low-priority digit recognition (65 s items!) holds slots while
/// short high-priority LeNets arrive. Batch-preemption must wait up to an
/// item (65 s); fine-grained preemption stops the item immediately.
fn monopolist_stimulus() -> EventSequence {
    // Four digit recognitions pipeline 12 tasks across the 10 slots, every
    // item taking ~65 s.
    let mut events: Vec<ArrivalEvent> = (0..4u64)
        .map(|i| {
            ArrivalEvent::new(
                benchmarks::digit_recognition(),
                10,
                Priority::Low,
                SimTime::from_millis(i * 100),
            )
        })
        .collect();
    for i in 0..4u64 {
        events.push(ArrivalEvent::new(
            benchmarks::lenet(),
            2,
            Priority::High,
            SimTime::from_millis(200_000 + i * 300),
        ));
    }
    EventSequence::new(events)
}

fn mean_lenet_response(report: &nimblock::metrics::Report) -> f64 {
    let samples: Vec<f64> = report
        .records()
        .iter()
        .filter(|r| r.app_name == "LeNet")
        .map(|r| r.response_time().as_secs_f64())
        .collect();
    samples.iter().sum::<f64>() / samples.len() as f64
}

#[test]
fn fine_preemption_rescues_high_priority_apps_faster() {
    let events = monopolist_stimulus();
    let batch_only = Testbed::new(NimblockScheduler::default()).run(&events);
    let fine = Testbed::new(NimblockScheduler::with_config(NimblockConfig::fine_preemption()))
        .with_fine_preemption(SimDuration::from_millis(10))
        .run(&events);
    let batch_mean = mean_lenet_response(&batch_only);
    let fine_mean = mean_lenet_response(&fine);
    assert!(
        fine_mean < batch_mean,
        "fine ({fine_mean:.2}s) must beat batch-only ({batch_mean:.2}s): \
         DR items are 65 s, so batch boundaries are seconds apart in steady state"
    );
}

#[test]
fn checkpointed_progress_is_not_lost() {
    // Work conservation must hold even with mid-item preemption: the
    // preempted item resumes from its checkpoint, so total run time still
    // equals batch x sum of latencies... minus nothing.
    let events = monopolist_stimulus();
    let report = Testbed::new(NimblockScheduler::with_config(NimblockConfig::fine_preemption()))
        .with_fine_preemption(SimDuration::from_millis(10))
        .run(&events);
    for record in report.records() {
        let app = benchmarks::by_name(&record.app_name).unwrap();
        let expected = app
            .graph()
            .total_latency()
            .saturating_mul(u64::from(record.batch_size));
        assert_eq!(
            record.run_time, expected,
            "{}: checkpointed work must be conserved",
            record.app_name
        );
    }
}

#[test]
fn fine_preemption_actually_preempts_running_items() {
    let events = monopolist_stimulus();
    let report = Testbed::new(NimblockScheduler::with_config(NimblockConfig::fine_preemption()))
        .with_fine_preemption(SimDuration::from_millis(10))
        .run(&events);
    let dr_preemptions: u32 = report
        .records()
        .iter()
        .filter(|r| r.app_name == "DigitRecognition")
        .map(|r| r.preemptions)
        .sum();
    assert!(dr_preemptions > 0, "some monopolist must get preempted");
    assert_eq!(report.scheduler(), "NimblockFine");
}

#[test]
fn checkpoint_cost_shows_up_in_response_times() {
    let events = monopolist_stimulus();
    let cheap = Testbed::new(NimblockScheduler::with_config(NimblockConfig::fine_preemption()))
        .with_fine_preemption(SimDuration::ZERO)
        .run(&events);
    let expensive = Testbed::new(NimblockScheduler::with_config(NimblockConfig::fine_preemption()))
        .with_fine_preemption(SimDuration::from_millis(500))
        .run(&events);
    // Same schedule structure, strictly more overhead per preemption.
    assert!(expensive.finished_at() >= cheap.finished_at());
}

#[test]
#[should_panic(expected = "without a checkpoint-capable overlay")]
fn fine_policy_on_baseline_overlay_is_a_contract_violation() {
    // The policy asks for mid-item preemption but the testbed models the
    // baseline overlay: the hypervisor must fail loudly.
    let events = monopolist_stimulus();
    let _ = Testbed::new(NimblockScheduler::with_config(NimblockConfig::fine_preemption()))
        .run(&events);
}

#[test]
fn traces_remain_hardware_legal_under_fine_preemption() {
    let events = monopolist_stimulus();
    let (_, trace) = Testbed::new(NimblockScheduler::with_config(NimblockConfig::fine_preemption()))
        .with_fine_preemption(SimDuration::from_millis(10))
        .run_traced(&events);
    // Aborted items leave truncated spans in the trace; slot exclusivity
    // must still hold for the *started* spans versus reconfigurations
    // (reconfiguration begins only after the checkpoint completes).
    // Note: an aborted item's traced span extends past the preemption
    // point, so only CAP exclusivity is asserted here.
    let mut cap = trace.cap_spans();
    cap.sort();
    for pair in cap.windows(2) {
        assert!(pair[1].0 >= pair[0].1, "CAP overlap under fine preemption");
    }
}

#[test]
fn stale_completions_of_aborted_items_are_discarded() {
    // An aborted item's completion stays queued as an `ItemDone` naming
    // only its slot and launch generation; the abort moved the generation,
    // so the hypervisor must drop it without reading the slot's new owner.
    let events = monopolist_stimulus();
    let hypervisor = Hypervisor::new(
        Device::new(DeviceConfig::zcu106()),
        NimblockScheduler::with_config(NimblockConfig::fine_preemption()),
        events.events().to_vec(),
    )
    .with_fine_preemption(SimDuration::from_millis(10));
    let mut sim = Simulation::new(hypervisor);
    for (index, event) in events.iter().enumerate() {
        sim.queue_mut().push(event.arrival(), HvEvent::Arrival(index));
    }
    let tick = SimDuration::from_millis(zcu106::SCHEDULING_INTERVAL_MILLIS);
    sim.queue_mut().push(SimTime::ZERO + tick, HvEvent::Tick);
    sim.run();
    let hv = sim.handler();
    assert!(hv.finished(), "every app retires");
    assert!(
        hv.metrics().stale_completions.get() > 0,
        "no completion of an aborted item was seen"
    );
    // Counting an aborted item would add to its app's run time.
    for record in hv.records() {
        let app = benchmarks::by_name(&record.app_name).expect("a benchmark");
        assert_eq!(
            record.run_time,
            app.graph()
                .total_latency()
                .saturating_mul(u64::from(record.batch_size)),
            "{}",
            record.app_name
        );
    }
}
