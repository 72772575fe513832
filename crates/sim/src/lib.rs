//! Deterministic discrete-event simulation engine.
//!
//! This crate is the virtual-clock and event-queue substrate for the
//! Nimblock FPGA virtualization stack. The paper evaluates Nimblock on a
//! physical ZCU106 board, timing applications with the CPU clock of the
//! embedded ARM core; this reproduction replaces the physical clock with a
//! virtual one so that every experiment is exactly reproducible.
//!
//! The crate deliberately knows nothing about FPGAs or schedulers. It
//! provides three things:
//!
//! * [`SimTime`] and [`SimDuration`] — microsecond-resolution newtypes for
//!   points in and spans of virtual time,
//! * [`EventQueue`] — a priority queue of timestamped events with
//!   deterministic FIFO ordering among same-timestamp events, and
//! * [`Simulation`] — a driver that pops events in order and hands them to a
//!   [`Handler`], which may push further events.
//!
//! # Example
//!
//! ```
//! use nimblock_sim::{EventQueue, Handler, SimDuration, SimTime, Simulation};
//!
//! struct Counter {
//!     fired: u32,
//! }
//!
//! impl Handler<&'static str> for Counter {
//!     fn handle(&mut self, now: SimTime, event: &'static str, queue: &mut EventQueue<&'static str>) {
//!         self.fired += 1;
//!         if event == "tick" && now < SimTime::from_millis(5) {
//!             queue.push(now + SimDuration::from_millis(1), "tick");
//!         }
//!     }
//! }
//!
//! let mut sim = Simulation::new(Counter { fired: 0 });
//! sim.queue_mut().push(SimTime::ZERO, "tick");
//! sim.run();
//! assert_eq!(sim.handler().fired, 6);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod queue;
mod time;

pub use engine::{Handler, Simulation};
pub use queue::EventQueue;
pub use time::{SimDuration, SimTime};
