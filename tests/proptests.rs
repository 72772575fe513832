//! Property-based tests over the core data structures and the end-to-end
//! system, ported to the in-repo `nimblock-check` harness (256 cases per
//! property, replayable via `NIMBLOCK_CHECK_SEED`).

use nimblock_check::{check, prop_assert, prop_assert_eq, Gen};

use nimblock::app::{benchmarks, AppSpec, Priority, TaskGraph, TaskGraphBuilder, TaskId, TaskSpec};
use nimblock::ilp::{saturation, EstimatorConfig, PipelineEstimator};
use nimblock::sim::{EventQueue, SimDuration, SimTime};
use nimblock::workload::{ArrivalEvent, EventSequence};

/// Generator: a random DAG with `n` tasks whose edges always point from a
/// lower to a higher task index (guaranteeing acyclicity by construction).
fn arb_dag(g: &mut Gen) -> TaskGraph {
    let n = g.usize(2..=11);
    let latencies = g.vec(n..=n, |g| g.u64(1..=1_999));
    let edges = g.vec(0..=(n * 2).saturating_sub(1), |g| {
        (g.usize(0..=n - 2), g.usize(1..=n - 1))
    });
    let mut builder = TaskGraphBuilder::new();
    let ids: Vec<TaskId> = latencies
        .iter()
        .enumerate()
        .map(|(i, &ms)| {
            builder.add_task(TaskSpec::new(format!("t{i}"), SimDuration::from_millis(ms)))
        })
        .collect();
    for (a, b) in edges {
        let (from, to) = (a.min(b), a.max(b).max(a.min(b) + 1).min(ids.len() - 1));
        if from != to {
            // Duplicate edges are rejected; ignore those.
            let _ = builder.add_edge(ids[from], ids[to]);
        }
    }
    builder.build().expect("forward edges cannot form a cycle")
}

#[test]
fn topological_order_is_a_valid_permutation() {
    check("topological_order_is_a_valid_permutation", |g| {
        let graph = arb_dag(g);
        let topo = graph.topological_order();
        prop_assert_eq!(topo.len(), graph.task_count());
        let position = |t: TaskId| topo.iter().position(|&x| x == t).unwrap();
        for &(from, to) in graph.edges() {
            prop_assert!(position(from) < position(to));
        }
        Ok(())
    });
}

#[test]
fn levels_strictly_increase_along_edges() {
    check("levels_strictly_increase_along_edges", |g| {
        let graph = arb_dag(g);
        for &(from, to) in graph.edges() {
            prop_assert!(graph.level(from) < graph.level(to));
        }
        prop_assert_eq!(
            graph.level_widths().iter().sum::<usize>(),
            graph.task_count()
        );
        Ok(())
    });
}

#[test]
fn critical_path_bounds() {
    check("critical_path_bounds", |g| {
        let graph = arb_dag(g);
        let critical = graph.critical_path_latency();
        let total = graph.total_latency();
        let longest_task = graph.tasks().map(|(_, t)| t.latency()).max().unwrap();
        prop_assert!(critical <= total);
        prop_assert!(critical >= longest_task);
        Ok(())
    });
}

#[test]
fn estimator_makespan_monotone_in_slots() {
    check("estimator_makespan_monotone_in_slots", |g| {
        let graph = arb_dag(g);
        let batch = g.u32(1..=7);
        let estimator = PipelineEstimator::new(EstimatorConfig {
            reconfig: SimDuration::from_millis(80),
            pipelining: true,
        });
        let mut previous = estimator.makespan(&graph, batch, 1);
        for slots in 2..=6 {
            let makespan = estimator.makespan(&graph, batch, slots);
            prop_assert!(makespan <= previous, "slots {slots}: {makespan} > {previous}");
            previous = makespan;
        }
        Ok(())
    });
}

#[test]
fn estimator_pipelining_never_slower_than_bulk() {
    check("estimator_pipelining_never_slower_than_bulk", |g| {
        let graph = arb_dag(g);
        let batch = g.u32(1..=7);
        let pipe = PipelineEstimator::new(EstimatorConfig {
            reconfig: SimDuration::from_millis(80),
            pipelining: true,
        });
        let bulk = PipelineEstimator::new(EstimatorConfig {
            reconfig: SimDuration::from_millis(80),
            pipelining: false,
        });
        let slots = 4;
        prop_assert!(pipe.makespan(&graph, batch, slots) <= bulk.makespan(&graph, batch, slots));
        Ok(())
    });
}

#[test]
fn estimator_makespan_bounded_below_by_work_over_slots() {
    check("estimator_makespan_bounded_below_by_work_over_slots", |g| {
        let graph = arb_dag(g);
        let batch = g.u32(1..=5);
        // Total compute work / slot count is an unbeatable lower bound.
        let estimator = PipelineEstimator::default();
        let slots = 3;
        let work = graph.total_latency().saturating_mul(u64::from(batch));
        let makespan = estimator.makespan(&graph, batch, slots);
        prop_assert!(makespan.as_micros() >= work.as_micros() / slots as u64);
        Ok(())
    });
}

#[test]
fn event_queue_pops_sorted() {
    check("event_queue_pops_sorted", |g| {
        let entries = g.vec(1..=199, |g| (g.u64(0..=999), g.u32(0..=99)));
        let mut queue = EventQueue::new();
        for &(at, payload) in &entries {
            queue.push(SimTime::from_millis(at), payload);
        }
        let mut last = SimTime::ZERO;
        let mut count = 0;
        while let Some((at, _)) = queue.pop() {
            prop_assert!(at >= last);
            last = at;
            count += 1;
        }
        prop_assert_eq!(count, entries.len());
        Ok(())
    });
}

#[test]
fn random_graph_applications_complete_under_nimblock() {
    check("random_graph_applications_complete_under_nimblock", |g| {
        let graph = arb_dag(g);
        let batch = g.u32(1..=5);
        let priority_index = g.usize(0..=2);
        let app = AppSpec::new("random", graph);
        let events = EventSequence::new(vec![ArrivalEvent::new(
            app,
            batch,
            Priority::ALL[priority_index],
            SimTime::ZERO,
        )]);
        let report = nimblock::core::Testbed::new(nimblock::core::NimblockScheduler::default())
            .run(&events);
        prop_assert_eq!(report.records().len(), 1);
        // Response is at least one reconfiguration plus the critical path.
        let record = &report.records()[0];
        prop_assert!(record.response_time() >= SimDuration::from_millis(80));
        Ok(())
    });
}

#[test]
fn single_slot_latency_scales_linearly_in_batch() {
    check("single_slot_latency_scales_linearly_in_batch", |g| {
        let graph = arb_dag(g);
        let batch = g.u32(1..=19);
        let app = AppSpec::new("x", graph);
        let r = SimDuration::from_millis(80);
        let base = app.single_slot_latency(0, r);
        let at_batch = app.single_slot_latency(batch, r);
        let per_item = app.graph().total_latency();
        prop_assert_eq!(at_batch - base, per_item.saturating_mul(u64::from(batch)));
        Ok(())
    });
}

/// Single-slot latency task by task: every task reconfigures once, then
/// processes the whole batch.
fn per_task_single_slot_latency(app: &AppSpec, batch: u32, reconfig: SimDuration) -> SimDuration {
    app.graph()
        .tasks()
        .map(|(_, task)| reconfig + task.latency().saturating_mul(u64::from(batch)))
        .sum()
}

#[test]
fn single_slot_latency_matches_the_per_task_formula() {
    let reconfig = SimDuration::from_millis(80);
    for app in benchmarks::all() {
        for batch in 0..=30 {
            assert_eq!(
                app.single_slot_latency(batch, reconfig),
                per_task_single_slot_latency(&app, batch, reconfig),
                "{} at batch {batch}",
                app.name()
            );
        }
    }
    check("single_slot_latency_matches_the_per_task_formula", |g| {
        let app = AppSpec::new("x", arb_dag(g));
        let batch = g.u32(0..=30);
        let reconfig = SimDuration::from_micros(g.u64(0..=200_000));
        prop_assert_eq!(
            app.single_slot_latency(batch, reconfig),
            per_task_single_slot_latency(&app, batch, reconfig)
        );
        Ok(())
    });
}

/// Visits every split of at most `slots_left` slots that gives each
/// application of `curves` one to `curve.len()` slots, in lexicographic
/// order.
fn every_split(
    curves: &[Vec<SimDuration>],
    slots_left: usize,
    prefix: &mut Vec<usize>,
    visit: &mut dyn FnMut(&[usize]),
) {
    let Some((curve, rest)) = curves.split_first() else {
        return visit(prefix);
    };
    for k in 1..=curve.len().min(slots_left) {
        prefix.push(k);
        every_split(rest, slots_left - k, prefix, visit);
        prefix.pop();
    }
}

// The exact slot split agrees with brute-force enumeration of every split:
// the same least summed makespan, and among tied splits the
// lexicographically smallest; `None` exactly when the apps outnumber the
// slots.
#[test]
fn slot_split_matches_bruteforce_enumeration() {
    check("slot_split_matches_bruteforce_enumeration", |g| {
        // Non-increasing curves from a narrow range, so ties are common.
        let curves: Vec<Vec<SimDuration>> = g.vec(1..=6, |g| {
            let mut curve = g.vec(1..=10, |g| g.u64(1..=6));
            curve.sort_unstable_by(|a, b| b.cmp(a));
            curve.into_iter().map(SimDuration::from_micros).collect()
        });
        let total_slots = g.usize(0..=10);
        let summed = |split: &[usize]| -> u64 {
            split.iter().zip(&curves).map(|(&k, curve)| curve[k - 1].as_micros()).sum()
        };

        let mut best: Option<(u64, Vec<usize>)> = None;
        every_split(&curves, total_slots, &mut Vec::new(), &mut |split| {
            let total = summed(split);
            if best.as_ref().is_none_or(|(least, _)| total < *least) {
                best = Some((total, split.to_vec()));
            }
        });

        let split = saturation::optimal_slot_split(&curves, total_slots);
        prop_assert_eq!(split.is_none(), total_slots < curves.len());
        prop_assert_eq!(split.as_deref().map(summed), best.as_ref().map(|(least, _)| *least));
        prop_assert_eq!(split, best.map(|(_, split)| split));
        Ok(())
    });
}

/// Fixed-seed regression cases: concrete DAGs from pinned seeds, exercising
/// the full topo/level/critical-path contract on stable inputs.
#[test]
fn fixed_seed_regressions() {
    for seed in [0u64, 17, 2023, 0xFACE] {
        let mut g = Gen::from_seed(seed);
        let graph = arb_dag(&mut g);
        let topo = graph.topological_order();
        assert_eq!(topo.len(), graph.task_count(), "seed {seed}");
        for &(from, to) in graph.edges() {
            assert!(graph.level(from) < graph.level(to), "seed {seed}");
        }
        assert!(
            graph.critical_path_latency() <= graph.total_latency(),
            "seed {seed}"
        );
    }
}
