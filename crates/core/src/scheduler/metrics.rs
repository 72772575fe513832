//! Shared policy telemetry: the `sched_*` series.
//!
//! Every instrumented policy holds a [`SchedMetrics`] of detached handles;
//! [`crate::Scheduler::attach_metrics`] swaps them for registry-backed ones.
//! Detached handles cost the same single relaxed atomic op, so an
//! uninstrumented run pays nothing measurable (see the `obs_overhead`
//! bench).

use nimblock_obs::{Counter, Gauge, Histogram, Registry};

/// Instrument handles shared by the scheduling policies.
#[derive(Debug, Clone)]
pub(crate) struct SchedMetrics {
    /// `next_reconfig` invocations (scheduling points consulted).
    pub(crate) decisions: Counter,
    /// Directives returned (reconfigurations requested).
    pub(crate) directives: Counter,
    /// Directives that batch-preempt an idle occupant.
    pub(crate) preempt_directives: Counter,
    /// Candidate-pool size per decision (token policies only).
    pub(crate) candidates: Histogram,
    /// Highest token count in the bank, in milli-tokens (token policies).
    pub(crate) max_tokens_milli: Gauge,
    /// Ready-queue depth (queue policies only).
    pub(crate) ready_depth: Gauge,
    /// Whether the handles are registry-backed. Gauges that cost a walk of
    /// the policy's state to compute are only set when they are exported.
    pub(crate) exported: bool,
}

impl SchedMetrics {
    /// Creates detached handles: fully functional, never exported.
    pub(crate) fn detached() -> Self {
        SchedMetrics {
            decisions: Counter::detached(),
            directives: Counter::detached(),
            preempt_directives: Counter::detached(),
            candidates: Histogram::detached(),
            max_tokens_milli: Gauge::detached(),
            ready_depth: Gauge::detached(),
            exported: false,
        }
    }

    /// Rebinds every handle to `registry` under the `sched_*` names.
    /// Handles the policy does not drive simply stay at zero.
    pub(crate) fn register(&mut self, registry: &Registry) {
        self.decisions = registry.counter(
            "sched_decisions_total",
            "Scheduling points at which the policy was consulted",
        );
        self.directives = registry.counter(
            "sched_directives_total",
            "Reconfiguration directives the policy returned",
        );
        self.preempt_directives = registry.counter(
            "sched_preempt_directives_total",
            "Directives that batch-preempt an idle occupant",
        );
        self.candidates = registry.histogram(
            "sched_candidates",
            "Candidate-pool size per scheduling decision",
        );
        self.max_tokens_milli = registry.gauge(
            "sched_max_tokens_milli",
            "Highest token count in the bank, in milli-tokens",
        );
        self.ready_depth = registry.gauge(
            "sched_ready_queue_depth",
            "Ready tasks waiting for a slot",
        );
        self.exported = true;
    }
}

impl Default for SchedMetrics {
    fn default() -> Self {
        SchedMetrics::detached()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detached_handles_count_without_a_registry() {
        let metrics = SchedMetrics::detached();
        metrics.decisions.inc();
        metrics.candidates.observe(3);
        metrics.max_tokens_milli.set(9_000);
        assert_eq!(metrics.decisions.get(), 1);
        assert_eq!(metrics.candidates.count(), 1);
        assert_eq!(metrics.max_tokens_milli.get(), 9_000);
    }

    #[test]
    fn register_rebinds_to_exported_instruments() {
        let registry = Registry::new();
        let mut metrics = SchedMetrics::detached();
        metrics.register(&registry);
        metrics.decisions.inc();
        metrics.directives.add(2);
        let text = registry.render_prometheus();
        assert!(text.contains("sched_decisions_total 1"), "{text}");
        assert!(text.contains("sched_directives_total 2"), "{text}");
    }
}
