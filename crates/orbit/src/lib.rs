//! # leo-orbit
//!
//! LEO constellation geometry: circular-orbit propagation, Walker-Delta
//! shells, ground visibility, and the latitude-density model that powers
//! the paper's constellation-sizing lower bound.
//!
//! The paper's key geometric step (§3.0.2) "works backwards from the
//! satellite density at the geographical location of the peak demand
//! cell to determine the overall constellation size". That mapping is a
//! property of inclined circular constellations: a Walker shell with `N`
//! satellites at inclination `i` maintains a time-averaged sub-satellite
//! density at latitude `φ` of
//!
//! ```text
//! σ(φ) = N · d(φ, i) / A_earth,     d(φ, i) = 2 / (π √(sin²i − sin²φ))
//! ```
//!
//! — uniform in longitude, but growing toward the inclination limit
//! (satellites "linger" at the top of their ground tracks). The
//! [`density`] module provides both the analytic factor and a
//! Monte-Carlo validation harness; [`walker`] generates the shells;
//! [`propagate`] and [`frames`] supply the underlying mechanics, and
//! [`ephemeris`] hoists them across a whole shell for the Monte-Carlo
//! kernels;
//! [`visibility`] computes elevation-constrained coverage footprints
//! used to sanity-check that beam count (not footprint area) is the
//! binding constraint in the capacity model.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coverage;
pub mod density;
pub mod doppler;
pub mod ephemeris;
pub mod frames;
pub mod gateway;
pub mod isl;
pub mod passes;
pub mod propagate;
pub mod visibility;
pub mod walker;

pub use density::{constellation_size_for_density, constellation_size_for_factor, density_factor};
pub use propagate::CircularOrbit;
pub use walker::WalkerShell;
