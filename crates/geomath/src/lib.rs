//! # leo-geomath
//!
//! Geodesy and spherical-geometry primitives used throughout the
//! Starlink digital-divide reproduction.
//!
//! The paper's analysis lives at the intersection of three geometric
//! domains:
//!
//! 1. **Terrestrial demand geography** — broadband serviceable locations
//!    scattered over the continental United States, binned into hexagonal
//!    service cells (see the `leo-hexgrid` crate, which builds on the
//!    projections defined here).
//! 2. **Orbital geometry** — sub-satellite points, visibility cones and
//!    coverage caps of a Walker constellation (see `leo-orbit`).
//! 3. **Areal accounting** — the constellation-sizing lower bound divides
//!    the Earth's surface area by per-satellite service areas, so every
//!    area computation must be consistent and equal-area projections must
//!    actually preserve area.
//!
//! This crate provides the shared vocabulary: angle normalization,
//! geodetic coordinates, unit vectors on the sphere, great-circle math,
//! spherical caps, the Lambert azimuthal equal-area projection, polygons
//! with point-in-polygon tests, and bounding boxes.
//!
//! ## Design notes
//!
//! * A **spherical Earth** of authalic radius `EARTH_RADIUS_KM` is used
//!   everywhere, matching the paper's own back-of-envelope treatment
//!   (cell areas quoted from H3 are themselves spherical).
//! * All angles at API boundaries are **degrees** (the unit of the
//!   underlying datasets); internal trigonometry converts to radians.
//! * No `unsafe`, no panics on valid inputs, and deterministic `f64`
//!   arithmetic only — results must be bit-stable across runs so the
//!   calibrated synthetic datasets are reproducible.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod angle;
pub mod bbox;
pub mod constants;
pub mod fastpoint;
pub mod latlng;
pub mod polygon;
pub mod projection;
pub mod sphere;
pub mod vec3;

pub use bbox::GeoBBox;
pub use constants::{EARTH_RADIUS_KM, EARTH_SURFACE_AREA_KM2};
pub use fastpoint::{
    dot_for_radius_km, pre_central_angle_rad, pre_distance_km, PrePoint, UnitPoint,
    DOT_RERANK_MARGIN,
};
pub use latlng::LatLng;
pub use polygon::GeoPolygon;
pub use projection::{AzimuthalEqualArea, PlanePoint};
pub use sphere::{destination, great_circle_distance_km};
pub use vec3::Vec3;
