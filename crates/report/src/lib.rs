//! # leo-report
//!
//! Rendering for the reproduction's artifacts: aligned text tables for
//! terminal output, CSV for downstream analysis, and self-contained SVG
//! charts (line/step plots, CDFs, heatmaps, point maps) — all
//! hand-rolled so the workspace carries no plotting dependencies.
//!
//! Every table and figure of the paper is regenerated through this
//! crate by `divide-cli` and the Criterion benches; the SVGs land in
//! `results/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chart;
pub mod csv;
pub mod error;
pub mod num;
pub mod spark;
pub mod svg;
pub mod table;

pub use chart::{Heatmap, LineChart, PointMap, Series};
pub use csv::CsvWriter;
pub use spark::sparkline;
pub use table::TextTable;
