//! Open-loop invocation workloads.

use nimblock_prng::Prng;

use nimblock_sim::{SimDuration, SimTime};

use crate::registry::FunctionRegistry;
use crate::FaasError;

/// One generated invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Invocation {
    pub(crate) function: String,
    pub(crate) items: u32,
    pub(crate) at: SimTime,
}

/// A seeded open-loop invocation stream.
///
/// Function popularity is Zipf-like (rank-weighted `1/rank`): a couple of
/// hot functions take most invocations and the tail stays cold — the
/// defining property of serverless traffic that makes the warm/cold
/// distinction matter. Inter-arrival gaps are uniform in
/// `[mean/2, 3·mean/2]`, payload sizes (batch items per invocation) uniform
/// in `1..=max_items`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvocationWorkload {
    seed: u64,
    invocations: usize,
    mean_gap: SimDuration,
    max_items: u32,
}

impl InvocationWorkload {
    /// Creates a workload with the given seed and defaults: 50 invocations,
    /// 200 ms mean gap, up to 8 items per invocation.
    pub fn new(seed: u64) -> Self {
        InvocationWorkload {
            seed,
            invocations: 50,
            mean_gap: SimDuration::from_millis(200),
            max_items: 8,
        }
    }

    /// Sets the number of invocations.
    pub fn invocations(mut self, invocations: usize) -> Self {
        self.invocations = invocations;
        self
    }

    /// Sets the mean inter-arrival gap in milliseconds.
    ///
    /// # Panics
    ///
    /// Panics if `millis` is zero.
    pub fn mean_gap_millis(self, millis: u64) -> Self {
        self.mean_gap(SimDuration::from_millis(millis))
    }

    /// Sets the mean inter-arrival gap. Arrival times saturate at
    /// [`SimTime::MAX`] rather than wrap, however long the gap.
    ///
    /// # Panics
    ///
    /// Panics if `gap` is zero.
    pub fn mean_gap(mut self, gap: SimDuration) -> Self {
        assert!(!gap.is_zero(), "mean gap must be positive");
        self.mean_gap = gap;
        self
    }

    /// Sets the maximum items per invocation.
    ///
    /// # Panics
    ///
    /// Panics if `max_items` is zero.
    pub fn max_items(mut self, max_items: u32) -> Self {
        assert!(max_items > 0, "invocations need at least one item");
        self.max_items = max_items;
        self
    }

    /// Generates the invocation stream against `registry`.
    ///
    /// # Errors
    ///
    /// Returns [`FaasError::EmptyRegistry`] when nothing is deployed.
    pub(crate) fn generate(
        &self,
        registry: &FunctionRegistry,
    ) -> Result<Vec<Invocation>, FaasError> {
        let names = registry.names();
        if names.is_empty() {
            return Err(FaasError::EmptyRegistry);
        }
        // Zipf-like weights by registry order: weight(rank) = 1 / (rank+1).
        let weights: Vec<f64> = (0..names.len()).map(|r| 1.0 / (r + 1) as f64).collect();
        let total: f64 = weights.iter().sum();

        let mut rng = Prng::seed_from_u64(self.seed);
        let mut now = SimTime::ZERO;
        let mut invocations = Vec::with_capacity(self.invocations);
        for _ in 0..self.invocations {
            let mut pick = rng.gen_range(0.0..total);
            let mut chosen = names.len() - 1;
            for (index, &w) in weights.iter().enumerate() {
                if pick < w {
                    chosen = index;
                    break;
                }
                pick -= w;
            }
            invocations.push(Invocation {
                function: names[chosen].to_owned(),
                items: rng.gen_range(1..=self.max_items),
                at: now,
            });
            let mean = self.mean_gap.as_micros();
            let gap = rng.gen_range(mean / 2..=mean.saturating_add(mean / 2));
            now = now.saturating_add(SimDuration::from_micros(gap));
        }
        Ok(invocations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn registry() -> FunctionRegistry {
        FunctionRegistry::benchmark_suite()
    }

    #[test]
    fn generation_is_deterministic() {
        let workload = InvocationWorkload::new(5).invocations(20);
        assert_eq!(
            workload.generate(&registry()).unwrap(),
            workload.generate(&registry()).unwrap()
        );
    }

    #[test]
    fn popularity_is_skewed_toward_low_ranks() {
        let workload = InvocationWorkload::new(11).invocations(600);
        let invocations = workload.generate(&registry()).unwrap();
        let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
        for inv in &invocations {
            *counts.entry(inv.function.as_str()).or_default() += 1;
        }
        let names = registry().names().into_iter().map(str::to_owned).collect::<Vec<_>>();
        let first = counts.get(names[0].as_str()).copied().unwrap_or(0);
        let last = counts.get(names.last().unwrap().as_str()).copied().unwrap_or(0);
        assert!(
            first > 3 * last,
            "rank-0 function ({first}) should dominate rank-5 ({last})"
        );
    }

    #[test]
    fn gaps_follow_the_mean() {
        let workload = InvocationWorkload::new(3).invocations(50).mean_gap_millis(100);
        let invocations = workload.generate(&registry()).unwrap();
        for pair in invocations.windows(2) {
            let gap = (pair[1].at - pair[0].at).as_millis();
            assert!((50..=150).contains(&gap), "gap {gap} outside [50, 150]");
        }
    }

    #[test]
    fn items_respect_the_cap() {
        let workload = InvocationWorkload::new(4).invocations(100).max_items(3);
        for inv in workload.generate(&registry()).unwrap() {
            assert!((1..=3).contains(&inv.items));
        }
    }

    #[test]
    fn empty_registry_is_an_error() {
        let workload = InvocationWorkload::new(1);
        assert_eq!(
            workload.generate(&FunctionRegistry::new()),
            Err(FaasError::EmptyRegistry)
        );
    }

    #[test]
    #[should_panic(expected = "mean gap must be positive")]
    fn zero_gap_panics() {
        let _ = InvocationWorkload::new(1).mean_gap_millis(0);
    }
}
