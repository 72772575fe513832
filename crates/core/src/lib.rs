//! The Nimblock hypervisor and scheduling policies.
//!
//! This crate is the paper's primary contribution: a hypervisor for
//! fine-grained FPGA sharing on a slot-based overlay, and the scheduling
//! algorithms evaluated on it.
//!
//! # Architecture
//!
//! The crate separates *mechanism* from *policy*:
//!
//! * [`Hypervisor`] is the mechanism. It owns the device model, moves
//!   applications through the arrival → pending → running → retired
//!   lifecycle, drives reconfiguration through the single configuration
//!   port, feeds batch items to configured tasks (respecting task-graph
//!   dependencies), allocates data buffers, and records metrics. It mirrors
//!   the bare-metal ARM hypervisor of the paper (§2.2).
//! * [`Scheduler`] is the policy. At every scheduling point the hypervisor
//!   offers the policy a read-only [`SchedView`] and asks for at most one
//!   [`Reconfig`] directive — which slot to reconfigure with which task,
//!   possibly *batch-preempting* the idle task currently holding the slot.
//!   Periodic ticks and item boundaries (see [`HvEvent`]) reach the policy
//!   only where [`Scheduler::next_decision_change`] says its answer can
//!   change.
//!
//! Five policies reproduce the paper's evaluation (§5.1):
//!
//! * [`NoSharingScheduler`] — the baseline: one application at a time owns
//!   the whole board,
//! * [`FcfsScheduler`] — ready tasks from all applications, oldest first,
//! * [`PremaScheduler`] — PREMA token accumulation, shortest candidate
//!   first, no pipelining or preemption,
//! * [`RoundRobinScheduler`] — Coyote-style per-slot priority queues,
//! * [`NimblockScheduler`] — the paper's algorithm: tokens, goal-number
//!   slot allocation, oldest-first task selection, cross-batch pipelining,
//!   and batch-preemption ([`NimblockConfig`] switches the ablations).
//!
//! [`Testbed`] wires a stimulus from `nimblock-workload` to a hypervisor and
//! returns a `nimblock-metrics` report, reproducing the paper's testbed.
//!
//! # Example
//!
//! ```
//! use nimblock_core::{NimblockScheduler, Testbed};
//! use nimblock_workload::{generate, Scenario};
//!
//! let events = generate(1, 5, Scenario::Stress);
//! let report = Testbed::new(NimblockScheduler::default()).run(&events);
//! assert_eq!(report.records().len(), 5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arena;
pub mod attribution;
mod dense;
mod hv_metrics;
mod hypervisor;
pub mod invariants;
pub mod monitor;
mod runtime;
mod scheduler;
mod testbed;
mod tick_grid;
pub mod trace;
mod view;

pub use arena::AppArena;
pub use attribution::{attribute_trace, span_trees};
pub use hv_metrics::HvMetrics;
pub use hypervisor::{Hypervisor, HvEvent};
pub use invariants::{
    verify_hardware, verify_trace, InvariantConfig, InvariantReport, InvariantRule, Violation,
};
pub use monitor::{derive_monitor, post_mortem};
pub use runtime::{AppId, AppRuntime, TaskPhase};
pub use scheduler::{
    DmlStaticScheduler, EdfScheduler, FcfsScheduler, NimblockConfig, NimblockScheduler,
    NoSharingScheduler, PremaScheduler, RoundRobinScheduler, Scheduler, SjfScheduler,
};
pub use testbed::{Testbed, LIVELOCK_HORIZON};
pub use trace::{Trace, TraceEvent};
pub use view::{Reconfig, SchedView, SlotBinding};
