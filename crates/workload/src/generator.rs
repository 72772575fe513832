//! Seeded random stimulus generation (paper §5.1).

use std::sync::Arc;

use nimblock_prng::Prng;
use nimblock_ser::impl_json_enum_units;

use nimblock_app::{benchmarks, AppSpec, Priority};
use nimblock_sim::{SimDuration, SimTime};

use crate::{ArrivalEvent, EventSequence};

/// The maximum batch size for a generated event (paper §5.1).
pub const MAX_BATCH_SIZE: u32 = 30;

/// The three congestion conditions of the evaluation (paper §5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scenario {
    /// Moderate delay between events: 1500–2000 ms. "Low-demand behavior
    /// where tasks have great opportunity to leverage additional resources."
    Standard,
    /// Rapid stream of events: 150–200 ms between arrivals.
    Stress,
    /// Streaming input: a consistent 50 ms between events.
    RealTime,
}

impl_json_enum_units!(Scenario { Standard, Stress, RealTime });

impl Scenario {
    /// All three scenarios in the order the paper presents them.
    pub const ALL: [Scenario; 3] = [Scenario::Standard, Scenario::Stress, Scenario::RealTime];

    /// Returns the scenario's display name.
    pub fn name(self) -> &'static str {
        match self {
            Scenario::Standard => "standard",
            Scenario::Stress => "stress",
            Scenario::RealTime => "real-time",
        }
    }

    /// Draws one inter-arrival delay for this scenario.
    fn inter_arrival(self, rng: &mut Prng) -> SimDuration {
        let millis = match self {
            Scenario::Standard => rng.gen_range(1_500u64..=2_000),
            Scenario::Stress => rng.gen_range(150u64..=200),
            Scenario::RealTime => 50,
        };
        SimDuration::from_millis(millis)
    }
}

/// Generates one sequence of `n_events` random events under `scenario`.
///
/// Events pick uniformly from the six-benchmark pool, batch sizes from
/// `1..=MAX_BATCH_SIZE`, and priorities from the three levels; arrivals are
/// spaced by the scenario's inter-arrival distribution. The same seed
/// always produces the same sequence, so every scheduler can run identical
/// stimuli (paper: "all algorithms are evaluated on the same set of
/// stimuli").
///
/// # Example
///
/// ```
/// use nimblock_workload::{generate, Scenario};
///
/// let a = generate(7, 20, Scenario::Stress);
/// let b = generate(7, 20, Scenario::Stress);
/// assert_eq!(a, b);
/// assert_eq!(a.len(), 20);
/// ```
pub fn generate(seed: u64, n_events: usize, scenario: Scenario) -> EventSequence {
    let pool: Vec<Arc<AppSpec>> = benchmarks::all().into_iter().map(Arc::new).collect();
    let mut rng = Prng::seed_from_u64(seed);
    let mut now = SimTime::ZERO;
    let mut events = Vec::with_capacity(n_events);
    for _ in 0..n_events {
        let app = Arc::clone(&pool[rng.gen_range(0..pool.len())]);
        let batch = rng.gen_range(1..=MAX_BATCH_SIZE);
        let priority = Priority::ALL[rng.gen_range(0..Priority::ALL.len())];
        events.push(ArrivalEvent::new(app, batch, priority, now));
        now += scenario.inter_arrival(&mut rng);
    }
    EventSequence::new(events)
}

/// Generates the paper's full test for one scenario: `n_sequences` distinct
/// sequences of `n_events` events (10 × 20 in the evaluation). Sequence `i`
/// uses seed `base_seed + i`, so suites are reproducible and sequences
/// distinct.
pub fn generate_suite(
    base_seed: u64,
    n_sequences: usize,
    n_events: usize,
    scenario: Scenario,
) -> Vec<EventSequence> {
    (0..n_sequences)
        .map(|i| generate(base_seed + i as u64, n_events, scenario))
        .collect()
}

/// Generates a sequence with a *fixed* batch size and fixed inter-arrival
/// delay but random benchmarks and priorities — the stimulus of the
/// benchmark-characteristics study (Table 3: batch 5, 500 ms delay) and the
/// ablation study (Figure 9: stress delays, swept fixed batch sizes).
pub fn fixed_batch_sequence(
    seed: u64,
    n_events: usize,
    batch_size: u32,
    delay: SimDuration,
) -> EventSequence {
    let pool: Vec<Arc<AppSpec>> = benchmarks::all().into_iter().map(Arc::new).collect();
    let mut rng = Prng::seed_from_u64(seed);
    let mut now = SimTime::ZERO;
    let mut events = Vec::with_capacity(n_events);
    for _ in 0..n_events {
        let app = Arc::clone(&pool[rng.gen_range(0..pool.len())]);
        let priority = Priority::ALL[rng.gen_range(0..Priority::ALL.len())];
        events.push(ArrivalEvent::new(app, batch_size, priority, now));
        now = now.saturating_add(delay);
    }
    EventSequence::new(events)
}

/// Generates a sequence with Poisson (exponentially distributed) arrivals
/// at `rate_per_sec`, random benchmarks, batch sizes, and priorities — an
/// open-loop cloud arrival model complementing the paper's fixed-delay
/// scenarios.
///
/// # Panics
///
/// Panics if `rate_per_sec` is not positive and finite.
pub fn poisson_sequence(seed: u64, n_events: usize, rate_per_sec: f64) -> EventSequence {
    assert!(
        rate_per_sec.is_finite() && rate_per_sec > 0.0,
        "arrival rate must be positive, got {rate_per_sec}"
    );
    let pool: Vec<Arc<AppSpec>> = benchmarks::all().into_iter().map(Arc::new).collect();
    let mut rng = Prng::seed_from_u64(seed);
    let mut now = SimTime::ZERO;
    let mut events = Vec::with_capacity(n_events);
    for _ in 0..n_events {
        let app = Arc::clone(&pool[rng.gen_range(0..pool.len())]);
        let batch = rng.gen_range(1..=MAX_BATCH_SIZE);
        let priority = Priority::ALL[rng.gen_range(0..Priority::ALL.len())];
        events.push(ArrivalEvent::new(app, batch, priority, now));
        // Inverse-CDF exponential gap: -ln(U) / rate.
        let uniform: f64 = rng.gen_range(f64::EPSILON..1.0);
        let gap_secs = -uniform.ln() / rate_per_sec;
        now += SimDuration::from_secs_f64(gap_secs);
    }
    EventSequence::new(events)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_per_seed() {
        assert_eq!(
            generate(42, 20, Scenario::Standard),
            generate(42, 20, Scenario::Standard)
        );
        assert_ne!(
            generate(42, 20, Scenario::Standard),
            generate(43, 20, Scenario::Standard)
        );
    }

    #[test]
    fn batch_sizes_and_priorities_within_bounds() {
        let seq = generate(1, 200, Scenario::Stress);
        for event in &seq {
            assert!((1..=MAX_BATCH_SIZE).contains(&event.batch_size()));
        }
        // With 200 draws all three priorities should appear.
        for p in Priority::ALL {
            assert!(seq.iter().any(|e| e.priority() == p), "missing {p}");
        }
    }

    #[test]
    fn inter_arrival_ranges_match_scenarios() {
        for (scenario, lo, hi) in [
            (Scenario::Standard, 1_500, 2_000),
            (Scenario::Stress, 150, 200),
            (Scenario::RealTime, 50, 50),
        ] {
            let seq = generate(5, 50, scenario);
            for pair in seq.events().windows(2) {
                let gap = (pair[1].arrival() - pair[0].arrival()).as_millis();
                assert!(
                    (lo..=hi).contains(&gap),
                    "{}: gap {gap} outside [{lo}, {hi}]",
                    scenario.name()
                );
            }
        }
    }

    #[test]
    fn suite_produces_distinct_sequences() {
        let suite = generate_suite(100, 10, 20, Scenario::Standard);
        assert_eq!(suite.len(), 10);
        for pair in suite.windows(2) {
            assert_ne!(pair[0], pair[1]);
        }
    }

    #[test]
    fn fixed_batch_sequence_fixes_batch_and_delay() {
        let seq = fixed_batch_sequence(9, 20, 5, SimDuration::from_millis(500));
        for event in &seq {
            assert_eq!(event.batch_size(), 5);
        }
        for pair in seq.events().windows(2) {
            assert_eq!((pair[1].arrival() - pair[0].arrival()).as_millis(), 500);
        }
    }

    #[test]
    fn zero_events_gives_an_empty_sequence() {
        assert!(generate(1, 0, Scenario::Standard).is_empty());
        assert!(fixed_batch_sequence(1, 0, 5, SimDuration::from_millis(1)).is_empty());
    }

    #[test]
    fn first_event_arrives_at_time_zero() {
        for scenario in Scenario::ALL {
            let seq = generate(9, 5, scenario);
            assert_eq!(seq.events()[0].arrival(), nimblock_sim::SimTime::ZERO);
        }
    }

    #[test]
    fn scenario_names_are_stable() {
        assert_eq!(Scenario::Standard.name(), "standard");
        assert_eq!(Scenario::Stress.name(), "stress");
        assert_eq!(Scenario::RealTime.name(), "real-time");
    }

    #[test]
    fn poisson_gaps_average_near_the_rate() {
        let rate = 4.0; // four arrivals per second
        let seq = poisson_sequence(13, 2_000, rate);
        let span = seq.events().last().unwrap().arrival().as_secs_f64();
        let mean_gap = span / (seq.len() - 1) as f64;
        assert!(
            (mean_gap - 1.0 / rate).abs() < 0.05,
            "mean gap {mean_gap} vs expected {}",
            1.0 / rate
        );
    }

    #[test]
    fn poisson_is_deterministic_per_seed() {
        assert_eq!(poisson_sequence(7, 30, 2.0), poisson_sequence(7, 30, 2.0));
    }

    #[test]
    #[should_panic(expected = "arrival rate must be positive")]
    fn poisson_rejects_zero_rate() {
        let _ = poisson_sequence(0, 1, 0.0);
    }

    #[test]
    fn all_benchmarks_eventually_appear() {
        let seq = generate(3, 300, Scenario::RealTime);
        for name in [
            "LeNet",
            "AlexNet",
            "ImageCompression",
            "OpticalFlow",
            "3DRendering",
            "DigitRecognition",
        ] {
            assert!(seq.iter().any(|e| e.app().name() == name), "missing {name}");
        }
    }
}
