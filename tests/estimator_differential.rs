//! Differential oracle for the makespan estimator (`nimblock-ilp`).
//!
//! `PipelineEstimator::makespan` computes its list schedule as a max-plus
//! recurrence in one pass over the topological order, with no events: a
//! task's configuration waits for the CAP and for the batch completion that
//! frees its slot, and each item waits for the configuration, for the
//! task's previous item and for its inputs. The event-queue formulation it
//! replaced is kept here, test-only, as the reference: it drives the
//! simulator's `EventQueue`, rescans the unconfigured list for the first
//! task whose predecessors have started, and launches items from an
//! ordered candidate set. Every makespan, and so every goal number and
//! every schedule built on them, must be identical.

use std::collections::BTreeSet;

use nimblock::app::{benchmarks, TaskGraph, TaskGraphBuilder, TaskId, TaskSpec};
use nimblock::ilp::{saturation, EstimatorConfig, PipelineEstimator};
use nimblock::sim::{EventQueue, SimDuration, SimTime};
use nimblock_check::{check_with, prop_assert_eq, Config, Gen};

#[derive(Debug, Clone, Copy)]
enum Event {
    ReconfigDone(TaskId),
    ItemDone(TaskId),
}

/// The queue-driven estimator, as it was before the slot-bounded rewrite.
fn reference_makespan(config: EstimatorConfig, graph: &TaskGraph, batch: u32, slots: usize) -> SimDuration {
    assert!(slots > 0 && batch > 0);
    let n = graph.task_count();
    let batch = batch as usize;
    let mut item_done_at: Vec<Vec<SimTime>> = vec![Vec::with_capacity(batch); n];
    let mut configured = vec![false; n];
    let mut running = vec![false; n];
    let mut finished = vec![false; n];
    let mut reconfiguring = vec![false; n];
    let mut free_slots = slots;
    let mut cap_free_at = SimTime::ZERO;
    let mut unconfigured: Vec<TaskId> = graph.topological_order().to_vec();
    let mut queue: EventQueue<Event> = EventQueue::new();
    let mut now = SimTime::ZERO;
    let mut makespan = SimTime::ZERO;
    let mut launch_candidates: BTreeSet<TaskId> = BTreeSet::new();
    loop {
        // Configure the first topo-order task whose predecessors have all
        // started, while slots allow.
        while free_slots > 0 {
            let next = unconfigured.iter().position(|&t| {
                graph
                    .predecessors(t)
                    .iter()
                    .all(|&p| configured[p.index()] || finished[p.index()] || reconfiguring[p.index()])
            });
            let Some(pos) = next else { break };
            let task = unconfigured.remove(pos);
            free_slots -= 1;
            reconfiguring[task.index()] = true;
            let start = now.max(cap_free_at);
            cap_free_at = start + config.reconfig;
            queue.push(cap_free_at, Event::ReconfigDone(task));
        }
        // Launch items on idle configured tasks whose dependency for the
        // next item is satisfied.
        let candidates: Vec<TaskId> = launch_candidates.iter().copied().collect();
        for task in candidates {
            let t = task.index();
            if !configured[t] || running[t] || finished[t] {
                launch_candidates.remove(&task);
                continue;
            }
            let next_item = item_done_at[t].len();
            let deps_ok = graph.predecessors(task).iter().all(|&p| {
                let done = item_done_at[p.index()].len();
                if config.pipelining {
                    done > next_item
                } else {
                    done == batch
                }
            });
            if deps_ok {
                running[t] = true;
                queue.push(now + graph.task(task).latency(), Event::ItemDone(task));
                launch_candidates.remove(&task);
            }
        }
        let Some((at, event)) = queue.pop() else { break };
        now = at;
        match event {
            Event::ReconfigDone(task) => {
                let t = task.index();
                reconfiguring[t] = false;
                configured[t] = true;
                launch_candidates.insert(task);
            }
            Event::ItemDone(task) => {
                let t = task.index();
                running[t] = false;
                item_done_at[t].push(now);
                makespan = makespan.max(now);
                if item_done_at[t].len() == batch {
                    finished[t] = true;
                    configured[t] = false;
                    free_slots += 1;
                } else {
                    launch_candidates.insert(task);
                }
                for &succ in graph.successors(task) {
                    launch_candidates.insert(succ);
                }
            }
        }
    }
    assert!(finished.iter().all(|&f| f), "reference estimator deadlocked");
    makespan.elapsed()
}

fn config(reconfig_ms: u64, pipelining: bool) -> EstimatorConfig {
    EstimatorConfig {
        reconfig: SimDuration::from_millis(reconfig_ms),
        pipelining,
    }
}

#[test]
fn benchmark_panel_matches_the_queue_driven_reference() {
    // The six paper benchmarks × batch 1–30 × slots 1–12 × pipelining on
    // and off × four reconfiguration latencies: 17 280 makespans.
    for app in benchmarks::all() {
        for reconfig_ms in [0, 40, 80, 200] {
            for pipelining in [true, false] {
                let config = config(reconfig_ms, pipelining);
                let estimator = PipelineEstimator::new(config);
                for batch in 1..=30 {
                    for slots in 1..=12 {
                        assert_eq!(
                            estimator.makespan(app.graph(), batch, slots),
                            reference_makespan(config, app.graph(), batch, slots),
                            "{} batch {batch} slots {slots} reconfig {reconfig_ms} ms \
                             pipelining {pipelining}",
                            app.name()
                        );
                    }
                }
            }
        }
    }
}

/// A random DAG whose task ids are shuffled against its topological order,
/// with latencies drawn from four values, zero among them, so that
/// completions, and reconfigurations at the shorter latencies, often share
/// a timestamp. Up to 40 tasks, as many as AlexNet's 38, so that slot
/// counts below the task count hand slots from finished tasks to later ones.
fn tied_dag(g: &mut Gen) -> TaskGraph {
    let n = g.usize(1..=40);
    let mut builder = TaskGraphBuilder::new();
    let ids: Vec<TaskId> = (0..n)
        .map(|i| {
            let ms = *g.pick(&[0u64, 10, 20, 30]);
            builder.add_task(TaskSpec::new(format!("t{i}"), SimDuration::from_millis(ms)))
        })
        .collect();
    // Edges run forward in a shuffled order, so the graph stays acyclic but
    // its topological order differs from id order.
    let mut order = ids.clone();
    for i in (1..n).rev() {
        order.swap(i, g.usize(0..=i));
    }
    for i in 0..n {
        for j in i + 1..n {
            if g.u32(0..=3) == 0 {
                builder.add_edge(order[i], order[j]).expect("forward edges are fresh");
            }
        }
    }
    builder.build().expect("forward edges cannot form a cycle")
}

#[test]
fn random_dags_with_tied_timestamps_match_the_reference() {
    let cases = Config::new().cases(2048);
    check_with(cases, "random_dags_with_tied_timestamps_match_the_reference", |g| {
        let graph = tied_dag(g);
        let config = config(*g.pick(&[0u64, 10, 20, 80]), g.bool());
        let batch = g.u32(1..=30);
        let slots = g.usize(1..=graph.task_count() + 2);
        prop_assert_eq!(
            PipelineEstimator::new(config).makespan(&graph, batch, slots),
            reference_makespan(config, &graph, batch, slots)
        );
        Ok(())
    });
}

#[test]
fn early_stopping_goal_matches_the_full_curve() {
    let thresholds = [0.001, 0.01, 0.02, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9, 0.999];
    for app in benchmarks::all() {
        for pipelining in [true, false] {
            let estimator = PipelineEstimator::new(config(80, pipelining));
            for batch in [1, 2, 5, 10, 20, 30] {
                for max_slots in [1, 2, 4, 10, 12] {
                    for threshold in thresholds {
                        let full = saturation::analyze_with(&estimator, &app, batch, max_slots, threshold);
                        assert_eq!(
                            saturation::goal_number(&estimator, app.graph(), batch, max_slots, threshold),
                            full.goal_number(),
                            "{} batch {batch} max_slots {max_slots} threshold {threshold} \
                             pipelining {pipelining}",
                            app.name()
                        );
                    }
                }
            }
        }
    }
}
