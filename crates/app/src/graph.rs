//! Validated task-graph DAGs.

use std::error::Error;
use std::fmt;

use nimblock_ser::{field_from_json, impl_to_json_struct, FromJson, Json, JsonError};

use nimblock_sim::SimDuration;

use crate::{TaskId, TaskSpec};

/// An error raised while constructing a [`TaskGraph`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum GraphError {
    /// The graph has no tasks.
    Empty,
    /// An edge endpoint refers to a task that was never added.
    InvalidEdge {
        /// Source of the offending edge.
        from: TaskId,
        /// Destination of the offending edge.
        to: TaskId,
    },
    /// An edge connects a task to itself.
    SelfLoop(TaskId),
    /// The same dependency was added twice.
    DuplicateEdge {
        /// Source of the offending edge.
        from: TaskId,
        /// Destination of the offending edge.
        to: TaskId,
    },
    /// The dependencies form a cycle, so no execution order exists.
    Cycle,
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::Empty => write!(f, "task graph has no tasks"),
            GraphError::InvalidEdge { from, to } => {
                write!(f, "edge {from} -> {to} references a task that was never added")
            }
            GraphError::SelfLoop(task) => write!(f, "{task} depends on itself"),
            GraphError::DuplicateEdge { from, to } => {
                write!(f, "edge {from} -> {to} was added twice")
            }
            GraphError::Cycle => write!(f, "task dependencies form a cycle"),
        }
    }
}

impl Error for GraphError {}

/// Incrementally builds a [`TaskGraph`].
///
/// # Example
///
/// ```
/// use nimblock_app::{TaskGraphBuilder, TaskSpec};
/// use nimblock_sim::SimDuration;
///
/// let mut builder = TaskGraphBuilder::new();
/// let a = builder.add_task(TaskSpec::new("a", SimDuration::from_millis(10)));
/// let b = builder.add_task(TaskSpec::new("b", SimDuration::from_millis(20)));
/// builder.add_edge(a, b)?;
/// let graph = builder.build()?;
/// assert_eq!(graph.task_count(), 2);
/// assert_eq!(graph.successors(a), &[b]);
/// # Ok::<(), nimblock_app::GraphError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct TaskGraphBuilder {
    tasks: Vec<TaskSpec>,
    edges: Vec<(TaskId, TaskId)>,
}

impl TaskGraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        TaskGraphBuilder::default()
    }

    /// Adds a task, returning its identifier.
    pub fn add_task(&mut self, task: TaskSpec) -> TaskId {
        let id = TaskId::new(self.tasks.len() as u32);
        self.tasks.push(task);
        id
    }

    /// Adds a dependency: `to` consumes the output of `from`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidEdge`], [`GraphError::SelfLoop`], or
    /// [`GraphError::DuplicateEdge`] for malformed edges. Cycles are
    /// detected in [`TaskGraphBuilder::build`].
    pub fn add_edge(&mut self, from: TaskId, to: TaskId) -> Result<(), GraphError> {
        if from.index() >= self.tasks.len() || to.index() >= self.tasks.len() {
            return Err(GraphError::InvalidEdge { from, to });
        }
        if from == to {
            return Err(GraphError::SelfLoop(from));
        }
        if self.edges.contains(&(from, to)) {
            return Err(GraphError::DuplicateEdge { from, to });
        }
        self.edges.push((from, to));
        Ok(())
    }

    /// Adds the chain of dependencies `ids[0] -> ids[1] -> ...`.
    ///
    /// # Errors
    ///
    /// Propagates the first edge error encountered.
    pub fn add_chain(&mut self, ids: &[TaskId]) -> Result<(), GraphError> {
        for pair in ids.windows(2) {
            self.add_edge(pair[0], pair[1])?;
        }
        Ok(())
    }

    /// Builds a chain graph directly from `(name, latency)` stages.
    ///
    /// # Panics
    ///
    /// Panics if `stages` is empty.
    ///
    /// # Example
    ///
    /// ```
    /// use nimblock_app::TaskGraphBuilder;
    /// use nimblock_sim::SimDuration;
    ///
    /// let graph = TaskGraphBuilder::chain([
    ///     ("load", SimDuration::from_millis(10)),
    ///     ("compute", SimDuration::from_millis(50)),
    /// ]);
    /// assert!(graph.is_chain());
    /// ```
    pub fn chain<N: Into<String>>(
        stages: impl IntoIterator<Item = (N, SimDuration)>,
    ) -> TaskGraph {
        let mut builder = TaskGraphBuilder::new();
        let ids: Vec<TaskId> = stages
            .into_iter()
            .map(|(name, latency)| builder.add_task(crate::TaskSpec::new(name, latency)))
            .collect();
        assert!(!ids.is_empty(), "a chain needs at least one stage");
        builder.add_chain(&ids).expect("fresh chain edges are valid");
        builder.build().expect("a non-empty chain is a valid DAG")
    }

    /// Builds a layered graph: layer `i` contains `widths[i]` identical
    /// tasks of latency `latencies[i]`, with consecutive layers fully
    /// connected (the AlexNet shape of the paper's Figure 4).
    ///
    /// # Panics
    ///
    /// Panics if the inputs are empty, have different lengths, or contain a
    /// zero width.
    pub fn layered(widths: &[usize], latencies: &[SimDuration]) -> TaskGraph {
        assert!(!widths.is_empty(), "a layered graph needs at least one layer");
        assert_eq!(widths.len(), latencies.len(), "one latency per layer");
        assert!(widths.iter().all(|&w| w > 0), "layer widths must be positive");
        let mut builder = TaskGraphBuilder::new();
        let mut previous: Vec<TaskId> = Vec::new();
        for (layer, (&width, &latency)) in widths.iter().zip(latencies).enumerate() {
            let ids: Vec<TaskId> = (0..width)
                .map(|part| {
                    builder.add_task(crate::TaskSpec::new(
                        format!("layer{layer}_{part}"),
                        latency,
                    ))
                })
                .collect();
            for &from in &previous {
                for &to in &ids {
                    builder.add_edge(from, to).expect("bipartite edges are valid");
                }
            }
            previous = ids;
        }
        builder.build().expect("layered graphs are valid DAGs")
    }

    /// Validates the accumulated tasks and edges into a [`TaskGraph`].
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::Empty`] for a graph with no tasks or
    /// [`GraphError::Cycle`] if the dependencies admit no execution order.
    pub fn build(self) -> Result<TaskGraph, GraphError> {
        TaskGraph::from_parts(self.tasks, self.edges)
    }
}

/// A validated DAG of slot-sized tasks.
///
/// Construction (via [`TaskGraphBuilder`]) guarantees the graph is non-empty
/// and acyclic, so every analysis here is total. The precomputed analyses
/// are exactly what the schedulers and the saturation analysis consume:
/// topological order (preemption picks the topologically-latest running
/// task, paper Algorithm 2), per-task levels and widths (parallelism
/// available to slot allocation), and latency aggregates (token
/// accumulation, deadlines).
#[derive(Debug, Clone, PartialEq)]
pub struct TaskGraph {
    tasks: Vec<TaskSpec>,
    edges: Vec<(TaskId, TaskId)>,
    preds: Vec<Vec<TaskId>>,
    succs: Vec<Vec<TaskId>>,
    topo: Vec<TaskId>,
    levels: Vec<u32>,
    /// Σ task latencies (saturating): one batch item on a single slot.
    item_latency: SimDuration,
}

// Only `tasks` and `edges` are written. Decoding rebuilds every derived
// field from them and ignores any a file carries, so a file cannot hand
// the estimator a cyclic graph or a `topo` that is not topological.
impl_to_json_struct!(TaskGraph { tasks, edges });

impl FromJson for TaskGraph {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let pairs = v
            .as_object()
            .ok_or_else(|| JsonError::expected("object for TaskGraph", v))?;
        let invalid = |e: GraphError| JsonError::new(format!("invalid task graph: {e}"));
        let mut builder = TaskGraphBuilder::new();
        for task in field_from_json::<Vec<TaskSpec>>(pairs, "tasks")? {
            builder.add_task(task);
        }
        for (from, to) in field_from_json::<Vec<(TaskId, TaskId)>>(pairs, "edges")? {
            builder.add_edge(from, to).map_err(invalid)?;
        }
        builder.build().map_err(invalid)
    }
}

impl TaskGraph {
    fn from_parts(
        tasks: Vec<TaskSpec>,
        edges: Vec<(TaskId, TaskId)>,
    ) -> Result<TaskGraph, GraphError> {
        if tasks.is_empty() {
            return Err(GraphError::Empty);
        }
        let n = tasks.len();
        let mut preds: Vec<Vec<TaskId>> = vec![Vec::new(); n];
        let mut succs: Vec<Vec<TaskId>> = vec![Vec::new(); n];
        for &(from, to) in &edges {
            succs[from.index()].push(to);
            preds[to.index()].push(from);
        }

        // Kahn's algorithm: topological order + cycle detection, with the
        // lowest-id-first tie break so the order is deterministic.
        let mut indegree: Vec<usize> = preds.iter().map(Vec::len).collect();
        let mut ready: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
        let mut topo = Vec::with_capacity(n);
        let mut levels = vec![0u32; n];
        while let Some(i) = ready.first().copied() {
            ready.remove(0);
            topo.push(TaskId::new(i as u32));
            for &succ in &succs[i] {
                let s = succ.index();
                levels[s] = levels[s].max(levels[i] + 1);
                indegree[s] -= 1;
                if indegree[s] == 0 {
                    // Insert keeping `ready` sorted for determinism.
                    let pos = ready.partition_point(|&r| r < s);
                    ready.insert(pos, s);
                }
            }
        }
        if topo.len() != n {
            return Err(GraphError::Cycle);
        }
        // Saturating, so an untrusted graph cannot overflow here.
        let item_latency = tasks
            .iter()
            .fold(SimDuration::ZERO, |sum, t| sum.saturating_add(t.latency()));
        Ok(TaskGraph {
            tasks,
            edges,
            preds,
            succs,
            topo,
            levels,
            item_latency,
        })
    }

    /// Returns the number of tasks.
    pub fn task_count(&self) -> usize {
        self.tasks.len()
    }

    /// Returns the number of dependency edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Returns the specification of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this graph.
    pub fn task(&self, id: TaskId) -> &TaskSpec {
        &self.tasks[id.index()]
    }

    /// Returns an iterator over `(id, spec)` pairs in insertion order.
    pub fn tasks(&self) -> impl Iterator<Item = (TaskId, &TaskSpec)> {
        self.tasks
            .iter()
            .enumerate()
            .map(|(i, t)| (TaskId::new(i as u32), t))
    }

    /// Returns the identifiers of every task, in insertion order.
    pub fn task_ids(&self) -> impl Iterator<Item = TaskId> + '_ {
        (0..self.tasks.len()).map(|i| TaskId::new(i as u32))
    }

    /// Returns the dependency edges.
    pub fn edges(&self) -> &[(TaskId, TaskId)] {
        &self.edges
    }

    /// Returns the direct predecessors of `id`.
    pub fn predecessors(&self, id: TaskId) -> &[TaskId] {
        &self.preds[id.index()]
    }

    /// Returns the direct successors of `id`.
    pub fn successors(&self, id: TaskId) -> &[TaskId] {
        &self.succs[id.index()]
    }

    /// Returns a topological order of the tasks (deterministic: lowest
    /// identifier first among ready tasks).
    pub fn topological_order(&self) -> &[TaskId] {
        &self.topo
    }

    /// Returns the ASAP level of `id`: the length of the longest dependency
    /// chain ending at `id`.
    pub fn level(&self, id: TaskId) -> u32 {
        self.levels[id.index()]
    }

    /// Returns the number of levels (depth of the graph).
    pub fn depth(&self) -> u32 {
        self.levels.iter().copied().max().unwrap_or(0) + 1
    }

    /// Returns, for each level, how many tasks sit at that level.
    pub fn level_widths(&self) -> Vec<usize> {
        let mut widths = vec![0usize; self.depth() as usize];
        for &level in &self.levels {
            widths[level as usize] += 1;
        }
        widths
    }

    /// Returns the maximum number of tasks that share a level — the
    /// task-level parallelism available to slot allocation.
    ///
    /// Alloc-free on purpose: this sits on the scheduler's slot-allocation
    /// path (`usable_cap`) once per reconfiguration decision, and paper
    /// task graphs are small enough that the O(depth · tasks) scan beats
    /// materializing [`TaskGraph::level_widths`].
    pub fn max_width(&self) -> usize {
        let mut max = 1;
        for level in 0..self.depth() {
            let width = self.levels.iter().filter(|&&l| l == level).count();
            max = max.max(width);
        }
        max
    }

    /// Returns `true` if the graph is a simple chain.
    pub fn is_chain(&self) -> bool {
        self.max_width() == 1 && self.edge_count() + 1 == self.task_count()
    }

    /// Returns the tasks with no predecessors.
    pub fn sources(&self) -> Vec<TaskId> {
        self.task_ids()
            .filter(|&id| self.predecessors(id).is_empty())
            .collect()
    }

    /// Returns the tasks with no successors.
    pub fn sinks(&self) -> Vec<TaskId> {
        self.task_ids()
            .filter(|&id| self.successors(id).is_empty())
            .collect()
    }

    /// Returns the sum of all task latency estimates — the application
    /// latency estimate the hypervisor derives from HLS output (paper §4.1).
    /// Computed once, at construction; it saturates at `SimDuration::MAX`.
    pub fn total_latency(&self) -> SimDuration {
        self.item_latency
    }

    /// Returns the latency of the longest dependency path (per batch item).
    pub fn critical_path_latency(&self) -> SimDuration {
        let mut finish = vec![SimDuration::ZERO; self.tasks.len()];
        for &id in &self.topo {
            let start = self
                .predecessors(id)
                .iter()
                .map(|p| finish[p.index()])
                .max()
                .unwrap_or(SimDuration::ZERO);
            finish[id.index()] = start + self.task(id).latency();
        }
        finish.into_iter().max().unwrap_or(SimDuration::ZERO)
    }

    /// Returns every transitive ancestor of `id` (tasks whose output
    /// `id`'s computation depends on, directly or not).
    pub fn ancestors(&self, id: TaskId) -> Vec<TaskId> {
        let mut seen = vec![false; self.tasks.len()];
        let mut stack = vec![id];
        while let Some(t) = stack.pop() {
            for &p in self.predecessors(t) {
                if !seen[p.index()] {
                    seen[p.index()] = true;
                    stack.push(p);
                }
            }
        }
        self.task_ids().filter(|t| seen[t.index()]).collect()
    }

    /// Returns every transitive descendant of `id`.
    pub fn descendants(&self, id: TaskId) -> Vec<TaskId> {
        let mut seen = vec![false; self.tasks.len()];
        let mut stack = vec![id];
        while let Some(t) = stack.pop() {
            for &s in self.successors(t) {
                if !seen[s.index()] {
                    seen[s.index()] = true;
                    stack.push(s);
                }
            }
        }
        self.task_ids().filter(|t| seen[t.index()]).collect()
    }

    /// Renders the graph in Graphviz DOT format (for debugging and docs).
    pub fn to_dot(&self, name: &str) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "digraph \"{name}\" {{");
        for (id, task) in self.tasks() {
            let _ = writeln!(
                out,
                "  t{} [label=\"{} ({}ms)\"];",
                id.index(),
                task.name(),
                task.latency().as_millis()
            );
        }
        for &(from, to) in &self.edges {
            let _ = writeln!(out, "  t{} -> t{};", from.index(), to.index());
        }
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(name: &str, ms: u64) -> TaskSpec {
        TaskSpec::new(name, SimDuration::from_millis(ms))
    }

    fn chain(n: usize) -> TaskGraph {
        let mut builder = TaskGraphBuilder::new();
        let ids: Vec<TaskId> = (0..n).map(|i| builder.add_task(spec(&format!("t{i}"), 10))).collect();
        builder.add_chain(&ids).unwrap();
        builder.build().unwrap()
    }

    /// A diamond: a -> {b, c} -> d.
    fn diamond() -> TaskGraph {
        let mut builder = TaskGraphBuilder::new();
        let a = builder.add_task(spec("a", 10));
        let b = builder.add_task(spec("b", 20));
        let c = builder.add_task(spec("c", 30));
        let d = builder.add_task(spec("d", 40));
        builder.add_edge(a, b).unwrap();
        builder.add_edge(a, c).unwrap();
        builder.add_edge(b, d).unwrap();
        builder.add_edge(c, d).unwrap();
        builder.build().unwrap()
    }

    #[test]
    fn empty_graph_is_rejected() {
        assert_eq!(TaskGraphBuilder::new().build().unwrap_err(), GraphError::Empty);
    }

    #[test]
    fn invalid_edges_are_rejected() {
        let mut builder = TaskGraphBuilder::new();
        let a = builder.add_task(spec("a", 1));
        let ghost = TaskId::new(9);
        assert!(matches!(
            builder.add_edge(a, ghost),
            Err(GraphError::InvalidEdge { .. })
        ));
        assert_eq!(builder.add_edge(a, a), Err(GraphError::SelfLoop(a)));
    }

    #[test]
    fn duplicate_edges_are_rejected() {
        let mut builder = TaskGraphBuilder::new();
        let a = builder.add_task(spec("a", 1));
        let b = builder.add_task(spec("b", 1));
        builder.add_edge(a, b).unwrap();
        assert!(matches!(
            builder.add_edge(a, b),
            Err(GraphError::DuplicateEdge { .. })
        ));
    }

    #[test]
    fn cycles_are_rejected_at_build() {
        let mut builder = TaskGraphBuilder::new();
        let a = builder.add_task(spec("a", 1));
        let b = builder.add_task(spec("b", 1));
        builder.add_edge(a, b).unwrap();
        builder.add_edge(b, a).unwrap();
        assert_eq!(builder.build().unwrap_err(), GraphError::Cycle);
    }

    #[test]
    fn topological_order_respects_edges() {
        let graph = diamond();
        let topo = graph.topological_order();
        let pos = |id: TaskId| topo.iter().position(|&t| t == id).unwrap();
        for &(from, to) in graph.edges() {
            assert!(pos(from) < pos(to), "{from} must precede {to}");
        }
    }

    #[test]
    fn levels_and_width_of_diamond() {
        let graph = diamond();
        assert_eq!(graph.depth(), 3);
        assert_eq!(graph.level_widths(), vec![1, 2, 1]);
        assert_eq!(graph.max_width(), 2);
        assert!(!graph.is_chain());
    }

    #[test]
    fn chain_analyses() {
        let graph = chain(5);
        assert!(graph.is_chain());
        assert_eq!(graph.max_width(), 1);
        assert_eq!(graph.depth(), 5);
        assert_eq!(graph.sources(), vec![TaskId::new(0)]);
        assert_eq!(graph.sinks(), vec![TaskId::new(4)]);
    }

    #[test]
    fn critical_path_of_diamond_takes_slow_branch() {
        // a(10) -> c(30) -> d(40) = 80 ms.
        assert_eq!(
            diamond().critical_path_latency(),
            SimDuration::from_millis(80)
        );
    }

    #[test]
    fn total_latency_sums_all_tasks() {
        assert_eq!(diamond().total_latency(), SimDuration::from_millis(100));
        assert_eq!(chain(3).total_latency(), SimDuration::from_millis(30));
        // A decoded graph is untrusted: its sum saturates, never overflows.
        let huge = TaskGraphBuilder::chain([("a", SimDuration::MAX), ("b", SimDuration::MAX)]);
        assert_eq!(huge.total_latency(), SimDuration::MAX);
    }

    #[test]
    fn dot_output_mentions_every_task_and_edge() {
        let dot = diamond().to_dot("diamond");
        assert!(dot.contains("digraph"));
        assert!(dot.contains("t0 -> t1"));
        assert!(dot.contains("t2 -> t3"));
    }

    #[test]
    fn chain_constructor_builds_chains() {
        let graph = TaskGraphBuilder::chain([
            ("a", SimDuration::from_millis(1)),
            ("b", SimDuration::from_millis(2)),
            ("c", SimDuration::from_millis(3)),
        ]);
        assert!(graph.is_chain());
        assert_eq!(graph.task_count(), 3);
        assert_eq!(graph.total_latency(), SimDuration::from_millis(6));
    }

    #[test]
    fn layered_constructor_matches_manual_structure() {
        let graph = TaskGraphBuilder::layered(
            &[1, 3, 2],
            &[
                SimDuration::from_millis(5),
                SimDuration::from_millis(7),
                SimDuration::from_millis(9),
            ],
        );
        assert_eq!(graph.task_count(), 6);
        assert_eq!(graph.edge_count(), 3 + 6); // 1x3 + 3x2 bipartite layers
        assert_eq!(graph.level_widths(), vec![1, 3, 2]);
    }

    #[test]
    #[should_panic(expected = "one latency per layer")]
    fn layered_rejects_mismatched_inputs() {
        TaskGraphBuilder::layered(&[1, 2], &[SimDuration::ZERO]);
    }

    #[test]
    fn ancestors_and_descendants_are_transitive() {
        let graph = diamond();
        let d = TaskId::new(3);
        let a = TaskId::new(0);
        let mut anc = graph.ancestors(d);
        anc.sort();
        assert_eq!(anc, vec![TaskId::new(0), TaskId::new(1), TaskId::new(2)]);
        let mut desc = graph.descendants(a);
        desc.sort();
        assert_eq!(desc, vec![TaskId::new(1), TaskId::new(2), TaskId::new(3)]);
        assert!(graph.ancestors(a).is_empty());
        assert!(graph.descendants(d).is_empty());
    }

    #[test]
    fn single_task_graph_is_valid() {
        let mut builder = TaskGraphBuilder::new();
        builder.add_task(spec("only", 5));
        let graph = builder.build().unwrap();
        assert_eq!(graph.depth(), 1);
        assert!(graph.is_chain());
        assert_eq!(graph.critical_path_latency(), SimDuration::from_millis(5));
    }
}
