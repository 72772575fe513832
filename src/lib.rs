//! Nimblock: fine-grained FPGA sharing through virtualization.
//!
//! This is the facade crate for the Nimblock reproduction. It re-exports
//! every sub-crate of the workspace under one roof so downstream users can
//! depend on a single crate:
//!
//! * [`sim`] — deterministic discrete-event simulation engine,
//! * [`fpga`] — slot-based FPGA overlay device model (ZCU106 defaults),
//! * [`app`] — task graphs, applications, and the six-benchmark suite,
//! * [`ilp`] — makespan estimator, saturation analysis, exact slot split,
//! * [`core`] — the hypervisor runtime, the `Scheduler` trait, and the five
//!   scheduling policies the paper evaluates,
//! * [`cluster`] — multi-FPGA scale-out: dispatch policies over per-board
//!   hypervisors,
//! * [`faas`] — a serverless layer: function registry, SLO classes,
//!   invocation workloads,
//! * [`workload`] — arrival-event sequences and scenario generators,
//! * [`metrics`] — response-time statistics, deadline analysis, reports,
//! * [`obs`] — observability: metrics registry (Prometheus/JSON), leveled
//!   logging facade, Chrome trace-event export, ASCII Gantt rendering,
//! * [`analyze`] — correctness tooling: in-repo source lint and the
//!   schedule-trace invariant verifier (see `DESIGN.md` §11),
//! * [`plan`] — trace-driven capacity planning: what-if SLO forecasting
//!   from recorded serving traces (see `DESIGN.md` §18).
//!
//! # Quickstart
//!
//! ```
//! use nimblock::app::benchmarks;
//! use nimblock::app::Priority;
//! use nimblock::core::{NimblockScheduler, Testbed};
//! use nimblock::workload::{ArrivalEvent, EventSequence};
//! use nimblock::sim::SimTime;
//!
//! // One LeNet application with batch size 4, medium priority, arriving at t=0.
//! let events = EventSequence::new(vec![ArrivalEvent::new(
//!     benchmarks::lenet(),
//!     4,
//!     Priority::Medium,
//!     SimTime::ZERO,
//! )]);
//!
//! let report = Testbed::new(NimblockScheduler::default()).run(&events);
//! assert_eq!(report.records().len(), 1);
//! ```

#![forbid(unsafe_code)]

pub use nimblock_analyze as analyze;
pub use nimblock_app as app;
pub use nimblock_cluster as cluster;
pub use nimblock_faas as faas;
pub use nimblock_core as core;
pub use nimblock_fpga as fpga;
pub use nimblock_ilp as ilp;
pub use nimblock_metrics as metrics;
pub use nimblock_obs as obs;
pub use nimblock_plan as plan;
pub use nimblock_sim as sim;
pub use nimblock_workload as workload;
