//! # leo-trace
//!
//! Exporters of a run's timeline, which `leo_obs::trace` records into
//! the current `ObsScope`: [`export`] renders its lanes as Chrome Trace
//! Event JSON (Perfetto / `chrome://tracing`) and folded flamegraph
//! stacks. They only read what was recorded, so artifacts stay
//! byte-identical with tracing on or off (`tests/determinism.rs`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod export;
