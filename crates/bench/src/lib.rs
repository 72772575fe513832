//! Shared experiment harness for the Nimblock evaluation binaries.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the paper
//! (see DESIGN.md §5 for the index and EXPERIMENTS.md for paper-versus-
//! measured results). This library holds what they share: the policy
//! roster, the standard stimulus parameters, and result aggregation.

pub mod micro;
pub mod results;

pub use results::ResultWriter;

use nimblock_core::{
    FcfsScheduler, NimblockConfig, NimblockScheduler, NoSharingScheduler, PremaScheduler,
    RoundRobinScheduler, Scheduler, Testbed,
};
use nimblock_metrics::Report;
use nimblock_workload::EventSequence;

/// Seed of the first sequence in every suite; sequence `i` uses
/// `BASE_SEED + i` (see `nimblock_workload::generate_suite`).
pub const BASE_SEED: u64 = 2023;

/// Sequences per test, as in the paper ("the same test of 10 distinct
/// event sequences").
pub const SEQUENCES_PER_TEST: usize = 10;

/// Events per sequence ("each sequence consists of 20 randomly selected
/// events").
pub const EVENTS_PER_SEQUENCE: usize = 20;

/// A scheduler roster entry: every policy the harness can run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Policy {
    /// The no-sharing, no-virtualization baseline.
    NoSharing,
    /// First-come, first-served ready-task FIFO.
    Fcfs,
    /// Coyote-style per-slot priority queues.
    RoundRobin,
    /// Task-based PREMA (paper-faithful, candidates only).
    Prema,
    /// PREMA with the work-conserving backfill extension (not in the paper).
    PremaBackfill,
    /// The full Nimblock algorithm.
    Nimblock,
    /// Nimblock ablation: preemption off.
    NimblockNoPreempt,
    /// Nimblock ablation: pipelining off.
    NimblockNoPipe,
    /// Nimblock ablation: both off.
    NimblockNoPreemptNoPipe,
}

impl Policy {
    /// The five policies of the paper's main evaluation, in figure order.
    pub const MAIN: [Policy; 5] = [
        Policy::NoSharing,
        Policy::Fcfs,
        Policy::RoundRobin,
        Policy::Prema,
        Policy::Nimblock,
    ];

    /// The four sharing policies compared against the baseline.
    pub const SHARING: [Policy; 4] = [
        Policy::Fcfs,
        Policy::RoundRobin,
        Policy::Prema,
        Policy::Nimblock,
    ];

    /// The ablation roster of Figure 9.
    pub const ABLATION: [Policy; 4] = [
        Policy::Nimblock,
        Policy::NimblockNoPreempt,
        Policy::NimblockNoPipe,
        Policy::NimblockNoPreemptNoPipe,
    ];

    /// Returns the display name used in report tables.
    pub fn name(self) -> &'static str {
        match self {
            Policy::NoSharing => "NoSharing",
            Policy::Fcfs => "FCFS",
            Policy::RoundRobin => "RR",
            Policy::Prema => "PREMA",
            Policy::PremaBackfill => "PREMA+backfill",
            Policy::Nimblock => "Nimblock",
            Policy::NimblockNoPreempt => "NimblockNoPreempt",
            Policy::NimblockNoPipe => "NimblockNoPipe",
            Policy::NimblockNoPreemptNoPipe => "NimblockNoPreemptNoPipe",
        }
    }

    /// Builds a fresh scheduler instance.
    pub fn build(self) -> Box<dyn Scheduler> {
        match self {
            Policy::NoSharing => Box::new(NoSharingScheduler::new()),
            Policy::Fcfs => Box::new(FcfsScheduler::new()),
            Policy::RoundRobin => Box::new(RoundRobinScheduler::new()),
            Policy::Prema => Box::new(PremaScheduler::new()),
            Policy::PremaBackfill => Box::new(PremaScheduler::with_backfill()),
            Policy::Nimblock => Box::new(NimblockScheduler::new()),
            Policy::NimblockNoPreempt => {
                Box::new(NimblockScheduler::with_config(NimblockConfig::no_preemption()))
            }
            Policy::NimblockNoPipe => {
                Box::new(NimblockScheduler::with_config(NimblockConfig::no_pipelining()))
            }
            Policy::NimblockNoPreemptNoPipe => Box::new(NimblockScheduler::with_config(
                NimblockConfig::no_preemption_no_pipelining(),
            )),
        }
    }

    /// Runs this policy on one stimulus sequence.
    pub fn run(self, events: &EventSequence) -> Report {
        Testbed::new(self.build()).run(events)
    }

    /// Runs this policy on every sequence of a suite.
    pub fn run_suite(self, suite: &[EventSequence]) -> Vec<Report> {
        suite.iter().map(|seq| self.run(seq)).collect()
    }
}

/// Returns the number of suite sequences to run, honoring the `--quick`
/// command-line flag (3 sequences instead of the paper's 10) so every
/// binary can be smoke-tested cheaply.
pub fn sequences_from_args() -> usize {
    if std::env::args().any(|a| a == "--quick") {
        3
    } else {
        SEQUENCES_PER_TEST
    }
}

/// Pools the per-event response times (seconds) of a suite of reports,
/// ascending.
pub fn pooled_response_secs(reports: &[Report]) -> Vec<f64> {
    let mut secs: Vec<f64> = reports
        .iter()
        .flat_map(|r| r.records().iter().map(|rec| rec.response_time().as_secs_f64()))
        .collect();
    secs.sort_by(f64::total_cmp);
    secs
}

#[cfg(test)]
mod tests {
    use super::*;
    use nimblock_workload::{generate, Scenario};

    #[test]
    fn every_policy_builds_and_names_consistently() {
        for policy in [
            Policy::NoSharing,
            Policy::Fcfs,
            Policy::RoundRobin,
            Policy::Prema,
            Policy::PremaBackfill,
            Policy::Nimblock,
            Policy::NimblockNoPreempt,
            Policy::NimblockNoPipe,
            Policy::NimblockNoPreemptNoPipe,
        ] {
            assert_eq!(policy.build().name(), policy.name());
        }
    }

    #[test]
    fn run_produces_one_record_per_event() {
        let events = generate(BASE_SEED, 4, Scenario::Stress);
        for policy in Policy::MAIN {
            assert_eq!(policy.run(&events).records().len(), 4, "{}", policy.name());
        }
    }

    #[test]
    fn pooled_responses_are_sorted() {
        let events = generate(BASE_SEED, 5, Scenario::Standard);
        let reports = Policy::Nimblock.run_suite(&[events]);
        let pooled = pooled_response_secs(&reports);
        assert_eq!(pooled.len(), 5);
        assert!(pooled.windows(2).all(|w| w[0] <= w[1]));
    }
}
