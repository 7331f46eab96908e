//! # starlink-divide-repro
//!
//! Root facade crate for the full reproduction of *"Anyone, Anywhere,
//! not Everyone, Everywhere: Starlink Doesn't End the Digital Divide"*
//! (HotNets 2025).
//!
//! This crate re-exports every workspace crate under one roof so that
//! examples, integration tests, and downstream users can depend on a
//! single package:
//!
//! * [`geomath`] — geodesy and spherical geometry primitives
//! * [`hexgrid`] — multi-resolution hexagonal service-cell grid (H3-like)
//! * [`orbit`] — Walker constellations, propagation, coverage, density
//! * [`demand`] — synthetic broadband-map and income datasets
//! * [`capacity`] — Starlink spectrum/beam capacity model
//! * [`parallel`] — deterministic worker pool and memoization layer
//! * [`model`] — the paper's analytical model (findings F1–F4)
//! * [`simnet`] — flow-level oversubscription QoE simulator
//! * [`report`] — tables, CSV, and SVG figure rendering
//! * [`obs`] — spans, metrics, the trace timeline, run manifests,
//!   leveled logging
//! * [`trace`] — Chrome-trace/flamegraph export of the `obs` timeline
//! * [`cache`] — content-addressed dataset snapshots for warm runs
//! * [`alloc_track`] — tracking global-allocator wrapper (heap telemetry)

#![forbid(unsafe_code)]

pub use leo_alloc as alloc_track;
pub use leo_cache as cache;
pub use leo_capacity as capacity;
pub use leo_demand as demand;
pub use leo_geomath as geomath;
pub use leo_hexgrid as hexgrid;
pub use leo_obs as obs;
pub use leo_orbit as orbit;
pub use leo_parallel as parallel;
pub use leo_report as report;
pub use leo_simnet as simnet;
pub use leo_trace as trace;
pub use starlink_divide as model;
