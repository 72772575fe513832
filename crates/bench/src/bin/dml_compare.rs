//! Nimblock versus a DML-style static planner (paper §6.2).
//!
//! DML solves slot allocation with an offline ILP but "relies on prior
//! knowledge of applications and their arrival times, and it disregards
//! application priority levels". The static planner here gets that prior
//! knowledge (the full stimulus) and the exact optimum of that slot split,
//! found by dynamic programming; a window with more co-resident
//! applications than slots gives each one slot. Nimblock gets neither. The
//! paper's argument is that dynamic allocation competes without the
//! oracle — this experiment measures by how much.

use nimblock_bench::{sequences_from_args, ResultWriter, BASE_SEED, EVENTS_PER_SEQUENCE};
use nimblock_core::{DmlStaticScheduler, NimblockScheduler, Testbed};
use nimblock_metrics::{fmt3, harmonic_speedup, TextTable};
use nimblock_sim::SimDuration;
use nimblock_workload::{generate_suite, Scenario};

fn main() {
    let sequences = sequences_from_args();
    let reconfig = SimDuration::from_millis(80);
    println!(
        "Nimblock (no prior knowledge) vs DML-style static ILP planner (full oracle)\n({sequences} sequences x {EVENTS_PER_SEQUENCE} events per scenario)\n"
    );
    let mut table = TextTable::new(vec![
        "scenario",
        "DML-static mean (s)",
        "Nimblock mean (s)",
        "Nimblock vs DML",
    ]);
    for scenario in Scenario::ALL {
        let suite = generate_suite(BASE_SEED, sequences, EVENTS_PER_SEQUENCE, scenario);
        let mut dml_mean = 0.0;
        let mut nb_mean = 0.0;
        let mut speedups = Vec::new();
        for seq in &suite {
            let planner = DmlStaticScheduler::plan(seq, 10, reconfig);
            let dml = Testbed::new(planner).run(seq);
            let nb = Testbed::new(NimblockScheduler::default()).run(seq);
            dml_mean += dml.mean_response_secs() / suite.len() as f64;
            nb_mean += nb.mean_response_secs() / suite.len() as f64;
            speedups.push(harmonic_speedup(&dml, &nb));
        }
        let mean_speedup = speedups.iter().sum::<f64>() / speedups.len() as f64;
        table.row(vec![
            scenario.name().to_owned(),
            fmt3(dml_mean),
            fmt3(nb_mean),
            format!("{}x", fmt3(mean_speedup)),
        ]);
    }
    print!("{table}");
    println!(
        "\nExpected: Nimblock matches or beats the static plan (>= ~1x) because static\nallocations cannot adapt when arrivals overlap unpredictably, and the planner\ncannot preempt; the oracle's only edge is avoiding reallocation churn."
    );
    ResultWriter::new("dml_compare", BASE_SEED, sequences)
        .table("Nimblock (no prior knowledge) vs DML-style static ILP planner", &table)
        .note("the static planner sees the full stimulus in advance; Nimblock does not")
        .write();
}
