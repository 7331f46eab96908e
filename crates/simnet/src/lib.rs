//! # leo-simnet
//!
//! A flow-level discrete-event simulator for a shared satellite beam —
//! the EXT-QOE experiment (DESIGN.md §5).
//!
//! The paper's Finding 1 asserts that a 35:1 oversubscription ratio
//! "would likely result in many users in this particular cell not
//! receiving 100/20 service from Starlink." This crate quantifies that
//! claim: a service cell's downlink behaves as a processor-sharing
//! queue — every active flow gets an equal share of the cell's
//! capacity, capped at the subscriber's 100 Mbps plan rate. Flows
//! arrive as a time-inhomogeneous Poisson process driven by a diurnal
//! demand profile whose intensity scales with the number of subscribers
//! (i.e., with the oversubscription ratio), and flow sizes are heavy
//! tailed.
//!
//! Modules:
//!
//! * [`diurnal`] — the 24-hour residential demand profile;
//! * [`sim`] — the event-driven processor-sharing engine;
//! * [`qoe`] — the oversubscription → service-quality experiment.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diurnal;
pub mod qoe;
pub mod sim;
pub mod workload;

pub use qoe::{busy_hour_experiment, QoeReport};
pub use sim::{CellSim, SimConfig};
