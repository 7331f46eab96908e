//! # leo-hexgrid
//!
//! A multi-resolution hexagonal discrete global grid (DGGS) — the
//! service cell substrate for the Starlink capacity model.
//!
//! Prior work identified that Starlink's terrestrial planning cells are
//! taken from Uber's H3 geospatial indexing system at resolution 5
//! (average cell area ≈ 252.9 km²). This crate reimplements the parts of
//! such a system that the paper's analysis actually exercises, from
//! scratch:
//!
//! * **Axial hex coordinates** ([`coord`]) indexing the cells of one
//!   resolution, with cube rounding of fractional coordinates.
//! * **Aperture-7 resolutions**: each resolution's cells cover one
//!   seventh of the area of the next coarser one, as in H3.
//! * **Plane layout** ([`layout`]) mapping hex coordinates to planar
//!   centers/corners and back (fractional hex rounding).
//! * **Geographic binding** ([`grid`]): cells are laid out on a Lambert
//!   azimuthal **equal-area** projection, so — unlike real H3, whose
//!   cell areas vary ±30 % — every cell of a given resolution covers
//!   exactly the same ground area. The constellation-sizing arithmetic
//!   (surface area ÷ per-satellite service area) is therefore exact.
//!   DESIGN.md records this as a behaviour-preserving substitution.
//! * **Region fill** ([`grid::GeoHexGrid::polyfill`]): all cells whose
//!   centers fall inside a polygon, used to enumerate US service cells.
//!   [`grid::GeoHexGrid::polyfill_rows`] exposes the same scan as
//!   independent lattice rows, so a caller can spread them over threads.
//!
//! Identifiers pack (resolution, q, r) into a `u64` ([`cell::CellId`]),
//! mirroring H3's 64-bit index ergonomics.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cell;
pub mod coord;
pub mod grid;
pub mod layout;

pub use cell::CellId;
pub use grid::{GeoHexGrid, PolyfillRows};

/// Average area of an H3 resolution-5 cell, km² — the paper's service
/// cell size. Our equal-area construction makes every cell exactly this
/// size at resolution [`STARLINK_RESOLUTION`].
pub const STARLINK_CELL_AREA_KM2: f64 = 252.903_364_5;

/// The grid resolution used for Starlink service cells throughout the
/// reproduction (H3 resolution 5).
pub const STARLINK_RESOLUTION: u8 = 5;
