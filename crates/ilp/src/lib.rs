//! Goal-number saturation analysis and the exact slot split.
//!
//! Nimblock's slot-allocation step relies on per-application *goal numbers*:
//! the number of slots beyond which additional allocation yields little or
//! no performance improvement (the *saturation point*, paper §4.2). The
//! paper derives these with the ILP formulation of DML, solved with Gurobi.
//! Gurobi is proprietary, so this crate supplies the substitution described
//! in DESIGN.md §2:
//!
//! * [`PipelineEstimator`] — a fast list-scheduled makespan estimator for a
//!   task graph on `k` slots, modelling serialized reconfiguration and
//!   cross-batch pipelining (the two effects the DML formulation captures),
//! * [`saturation`] — the slot-count sweep that turns makespan curves into
//!   goal numbers, and [`saturation::optimal_slot_split`], an exact dynamic
//!   program that splits a board among applications to minimize their
//!   summed makespan (the DML-style static planner's allocation).
//!
//! As in the paper, this analysis runs off the scheduling critical path:
//! the hypervisor consumes precomputed goal numbers.
//!
//! # Example
//!
//! ```
//! use nimblock_app::benchmarks;
//! use nimblock_ilp::saturation;
//! use nimblock_sim::SimDuration;
//!
//! let analysis = saturation::analyze(
//!     &benchmarks::lenet(),
//!     8,                              // batch size
//!     10,                             // slots available on the device
//!     SimDuration::from_millis(80),   // reconfiguration latency
//! );
//! // A second slot always helps a batched chain; many more rarely do.
//! assert!(analysis.goal_number() >= 2);
//! assert!(analysis.goal_number() <= 10);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod estimator;
pub mod saturation;

pub use estimator::{EstimatorConfig, PipelineEstimator};
pub use saturation::SaturationAnalysis;
