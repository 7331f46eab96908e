//! # leo-capacity
//!
//! The Starlink single-satellite capacity model: spectrum allocations
//! from the FCC Schedule S filings, spot-beam arithmetic,
//! oversubscription, and beamspread — Table 1 of the paper and every
//! derived per-cell feasibility rule.
//!
//! The model's chain of reasoning:
//!
//! 1. Starlink may use **3850 MHz** of downlink spectrum toward user
//!    terminals ([`spectrum`]), delivered through **24** UT-capable spot
//!    beams per satellite, of which **4** beams serve one cell with the
//!    full spectrum (≈ **17.3 Gbps** at ~4.5 bits/Hz).
//! 2. A cell with `L` un(der)served locations demands `L × 100 Mbps`
//!    of "reliable broadband" downlink; providers bridge the gap between
//!    demand and capacity with **oversubscription** ([`oversub`]).
//! 3. A satellite may **spread** one beam over `b` cells, dividing its
//!    capacity, to cover more cells than it has beams ([`beamspread`]).
//! 4. Combining these yields the per-satellite cell budget that drives
//!    constellation sizing ([`beamspread`]), under a deployment policy
//!    that either serves every location or caps oversubscription
//!    ([`scenario`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod beamspread;
pub mod oversub;
pub mod scenario;
pub mod spectrum;
pub mod uplink;

pub use oversub::{required_capacity_gbps, required_oversubscription, Oversubscription};
pub use scenario::DeploymentPolicy;
pub use spectrum::SatelliteCapacityModel;

/// FCC "reliable broadband" downlink requirement, Mbps per location.
pub const BROADBAND_DL_MBPS: f64 = 100.0;

/// FCC "reliable broadband" uplink requirement, Mbps per location.
pub const BROADBAND_UL_MBPS: f64 = 20.0;

/// The FCC's maximum oversubscription ratio for terrestrial unlicensed
/// fixed wireless providers — the paper's benchmark for "acceptable"
/// oversubscription.
pub const FCC_MAX_OVERSUBSCRIPTION: f64 = 20.0;
