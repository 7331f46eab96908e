//! # leo-demand
//!
//! Synthetic United States broadband-demand and income datasets,
//! calibrated to the statistics the paper publishes.
//!
//! The paper's inputs are (1) the FCC National Broadband Map — the
//! per-location record of broadband availability from which it derives
//! un(der)served location counts per Starlink service cell — and (2)
//! US Census county median household incomes. Neither dataset ships
//! with this reproduction, so this crate builds deterministic synthetic
//! equivalents whose *published statistics match the paper* (the
//! substitution rule in DESIGN.md §2):
//!
//! | statistic | paper value | enforced by |
//! |---|---|---|
//! | total un(der)served locations | ≈ 4.67 M | [`counts`] calibration |
//! | peak cell | 5,998 locations | anchor cell at 37.0° N |
//! | 99th percentile cell | 1,437 | count quantile anchor |
//! | 90th percentile cell | 552 | count quantile anchor |
//! | locations in cells above the 20:1 cap | 22,428 (5 cells) | anchor cells |
//! | excess beyond the cap in those cells | ≈ 5,103 | anchor cells |
//! | locations priced out at $120/mo (2 % rule) | ≈ 3.5 M / 74.5 % | [`income`] calibration |
//! | locations priced out at $110.75/mo | ≈ 3.0 M | [`income`] calibration |
//! | locations priced out at $40–50/mo | < 0.01 % | income floor |
//!
//! Around those pins, the generator produces *realistic structure*: a
//! CONUS boundary polygon, a smooth "remoteness" random field that
//! clusters demand spatially, ~3,100 synthetic counties with
//! Voronoi-by-seat geography, and per-location point scatter inside
//! each hex cell — so every downstream component exercises real
//! geospatial code paths rather than abstract histograms.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod counties;
pub mod counts;
pub mod dataset;
pub mod export;
pub mod field;
pub mod geography;
pub mod income;
pub mod plans;
pub mod scenario;
pub mod stats;

pub use dataset::{BroadbandDataset, CellDemand, SynthConfig};
pub use plans::{IspPlan, AFFORDABILITY_THRESHOLD};
