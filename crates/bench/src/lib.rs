//! # leo-bench
//!
//! Criterion benchmarks of the pipeline's hot kernels, each against
//! its reference twin (`benches/bench_kernels.rs`; `scripts/bench.sh`
//! records their medians). The crate's library is a thin shared
//! harness: dataset caching so the benches measure the kernel, not
//! dataset synthesis.

#![forbid(unsafe_code)]

use starlink_divide::PaperModel;
use std::sync::OnceLock;

/// A process-wide cached test-scale model (dataset generation takes
/// seconds; the benches reuse one instance).
pub fn shared_model() -> &'static PaperModel {
    static MODEL: OnceLock<PaperModel> = OnceLock::new();
    MODEL.get_or_init(PaperModel::test_scale)
}
