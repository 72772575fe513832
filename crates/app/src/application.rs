//! Applications and priority levels.

use std::fmt;
use std::sync::Arc;

use nimblock_ser::{impl_json_enum_units, impl_json_struct};

use nimblock_sim::SimDuration;

use crate::TaskGraph;

/// Application priority level.
///
/// Consistent with PREMA and the paper (§4.1), the system uses three
/// increasing levels whose numeric weights 1, 3, and 9 drive token
/// accumulation.
///
/// # Example
///
/// ```
/// use nimblock_app::Priority;
///
/// assert_eq!(Priority::High.weight(), 9);
/// assert!(Priority::Low < Priority::High);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Priority {
    /// Weight 1.
    #[default]
    Low,
    /// Weight 3.
    Medium,
    /// Weight 9.
    High,
}

impl_json_enum_units!(Priority { Low, Medium, High });

impl Priority {
    /// All levels, in increasing order.
    pub const ALL: [Priority; 3] = [Priority::Low, Priority::Medium, Priority::High];

    /// Returns the token-accumulation weight (1, 3, or 9).
    pub const fn weight(self) -> u32 {
        match self {
            Priority::Low => 1,
            Priority::Medium => 3,
            Priority::High => 9,
        }
    }

    /// Returns the largest priority weight that is `<= tokens`, i.e. the
    /// PREMA threshold rounding of a token count down to the nearest
    /// priority level (paper Algorithm 1, line 8). Token counts below the
    /// lowest weight floor to 0.
    pub fn floor_weight(tokens: f64) -> u32 {
        let mut floor = 0;
        for level in Priority::ALL {
            if f64::from(level.weight()) <= tokens {
                floor = level.weight();
            }
        }
        floor
    }
}

impl fmt::Display for Priority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Priority::Low => "low",
            Priority::Medium => "medium",
            Priority::High => "high",
        };
        f.write_str(name)
    }
}

/// A named application: its task graph plus the per-task partial-bitstream
/// size used for reconfiguration-latency modelling.
///
/// `AppSpec` corresponds to the compilation product delivered to the
/// hypervisor in the paper (§2.2): partial bitstreams for every task plus a
/// header with interface information and HLS performance estimates. Batch
/// size and priority are *per-arrival* attributes and live on
/// `nimblock_workload::ArrivalEvent`, not here.
///
/// # Example
///
/// ```
/// use nimblock_app::benchmarks;
/// use nimblock_sim::SimDuration;
///
/// let lenet = benchmarks::lenet();
/// let single_slot = lenet.single_slot_latency(5, SimDuration::from_millis(80));
/// assert!(single_slot > lenet.graph().total_latency());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AppSpec {
    name: String,
    graph: Arc<TaskGraph>,
    bitstream_bytes: u64,
}

impl_json_struct!(AppSpec { name, graph, bitstream_bytes });

impl AppSpec {
    /// Creates an application from its name and task graph, with the
    /// default ZCU106 slot-sized bitstreams.
    pub fn new(name: impl Into<String>, graph: TaskGraph) -> Self {
        AppSpec {
            name: name.into(),
            graph: Arc::new(graph),
            bitstream_bytes: nimblock_fpga::zcu106::SLOT_BITSTREAM_BYTES,
        }
    }

    /// Sets the per-task partial-bitstream size in bytes.
    pub fn with_bitstream_bytes(mut self, bitstream_bytes: u64) -> Self {
        self.bitstream_bytes = bitstream_bytes;
        self
    }

    /// Returns the application name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Returns the task graph.
    pub fn graph(&self) -> &TaskGraph {
        &self.graph
    }

    /// Returns the task graph behind its shared handle.
    pub fn graph_arc(&self) -> Arc<TaskGraph> {
        Arc::clone(&self.graph)
    }

    /// Returns the per-task partial-bitstream size in bytes.
    pub fn bitstream_bytes(&self) -> u64 {
        self.bitstream_bytes
    }

    /// Returns the latency of running the whole application on a single
    /// slot with no resource contention: every task reconfigures once and
    /// then processes the full batch.
    ///
    /// This is the *single-slot latency* the paper scales by the deadline
    /// factor `D_s` to define deadlines (§5.4).
    ///
    /// O(1): the per-item sum is [`TaskGraph::total_latency`], which the
    /// graph computes once.
    pub fn single_slot_latency(&self, batch_size: u32, reconfig: SimDuration) -> SimDuration {
        let reconfigs = reconfig.saturating_mul(self.graph.task_count() as u64);
        let compute = self.graph.total_latency().saturating_mul(u64::from(batch_size));
        reconfigs + compute
    }
}

impl fmt::Display for AppSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} tasks, {} edges)",
            self.name,
            self.graph.task_count(),
            self.graph.edge_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{TaskGraphBuilder, TaskSpec};

    fn two_task_app() -> AppSpec {
        let mut builder = TaskGraphBuilder::new();
        let a = builder.add_task(TaskSpec::new("a", SimDuration::from_millis(100)));
        let b = builder.add_task(TaskSpec::new("b", SimDuration::from_millis(50)));
        builder.add_edge(a, b).unwrap();
        AppSpec::new("two", builder.build().unwrap())
    }

    #[test]
    fn priority_weights_match_paper() {
        assert_eq!(Priority::Low.weight(), 1);
        assert_eq!(Priority::Medium.weight(), 3);
        assert_eq!(Priority::High.weight(), 9);
    }

    #[test]
    fn floor_weight_rounds_down_to_priority_level() {
        assert_eq!(Priority::floor_weight(0.5), 0);
        assert_eq!(Priority::floor_weight(1.0), 1);
        assert_eq!(Priority::floor_weight(2.9), 1);
        assert_eq!(Priority::floor_weight(3.0), 3);
        assert_eq!(Priority::floor_weight(8.9), 3);
        assert_eq!(Priority::floor_weight(100.0), 9);
    }

    #[test]
    fn single_slot_latency_charges_every_reconfig() {
        let app = two_task_app();
        let latency = app.single_slot_latency(10, SimDuration::from_millis(80));
        // 2 reconfigs (160 ms) + 10 * (100 + 50) ms = 1660 ms.
        assert_eq!(latency, SimDuration::from_millis(1_660));
    }

    #[test]
    fn single_slot_latency_zero_batch_is_reconfig_only() {
        let app = two_task_app();
        assert_eq!(
            app.single_slot_latency(0, SimDuration::from_millis(80)),
            SimDuration::from_millis(160)
        );
    }

    #[test]
    fn display_includes_topology() {
        assert_eq!(two_task_app().to_string(), "two (2 tasks, 1 edges)");
    }
}
