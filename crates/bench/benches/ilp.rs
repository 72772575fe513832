//! Micro-benchmarks of the makespan estimator, the saturation analysis and
//! the exact slot split — the paper keeps this work off the scheduling
//! critical path; these numbers show why that is the right call and how
//! cheap the estimator is.
//!
//! Run with `cargo bench --bench ilp` (add `--quick` for a smoke pass).
//! Results land in `results/micro/estimator_makespan.json`,
//! `results/micro/saturation_analyze.json`, and
//! `results/micro/ilp_slot_split.json`.

use nimblock_app::benchmarks;
use nimblock_bench::micro::Runner;
use nimblock_ilp::{saturation, EstimatorConfig, PipelineEstimator};
use nimblock_sim::SimDuration;

fn estimator_makespan() {
    let estimator = PipelineEstimator::new(EstimatorConfig {
        reconfig: SimDuration::from_millis(80),
        pipelining: true,
    });
    let mut runner = Runner::new("estimator_makespan");
    for app in benchmarks::all() {
        runner.bench(app.name(), || estimator.makespan(app.graph(), 20, 10));
    }
    runner.finish();
}

fn saturation_sweep() {
    let mut runner = Runner::new("saturation_analyze");
    for app in [benchmarks::lenet(), benchmarks::alexnet()] {
        runner.bench(app.name(), || {
            saturation::analyze(&app, 20, 10, SimDuration::from_millis(80))
        });
    }
    runner.finish();
}

fn optimal_split() {
    // The exact split the rule-based allocator avoids at runtime.
    let curves: Vec<Vec<SimDuration>> = benchmarks::all()
        .iter()
        .map(|app| {
            saturation::analyze(app, 10, 10, SimDuration::from_millis(80))
                .makespans()
                .to_vec()
        })
        .collect();
    let mut runner = Runner::new("ilp_slot_split");
    runner.bench("six_apps_ten_slots", || {
        saturation::optimal_slot_split(&curves, 10)
    });
    runner.finish();
}

fn main() {
    estimator_makespan();
    saturation_sweep();
    optimal_split();
}
