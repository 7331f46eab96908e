//! The parallelism determinism contract (DESIGN.md §3): every result
//! in the pipeline is a pure function of the seed, never of the thread
//! count. These tests regenerate the dataset under different worker
//! counts and demand *bit-identical* outputs — the same contract the
//! serial seed satisfied before `leo-parallel` existed.

use starlink_divide_repro::demand::dataset::{BroadbandDataset, SynthConfig};
use starlink_divide_repro::model::{coverage_sweep, demand_stats, sizing, PaperModel};
use starlink_divide_repro::parallel::with_threads;
use starlink_divide_repro::report::{CsvWriter, Heatmap};

/// The same tracking allocator the CLI installs, so the resource
/// telemetry tests below exercise the real alloc-count/peak path.
#[global_allocator]
static ALLOC: starlink_divide_repro::alloc_track::TrackingAlloc =
    starlink_divide_repro::alloc_track::TrackingAlloc::new();

/// Everything the figures consume, regenerated from scratch at a given
/// worker count.
struct PipelineOutputs {
    stats: demand_stats::DemandStats,
    table2: Vec<sizing::SizingRow>,
    fig2: Vec<Vec<f64>>,
    cell_counts: Vec<(u64, u64)>,
    scatter_head: Vec<(f64, f64)>,
}

fn run_pipeline(threads: usize) -> PipelineOutputs {
    with_threads(threads, || {
        let ds = BroadbandDataset::generate(&SynthConfig::small());
        let scatter_head: Vec<(f64, f64)> = ds
            .scatter_locations(2024)
            .iter()
            .take(500)
            .map(|l| (l.position.lat_deg(), l.position.lng_deg()))
            .collect();
        let cell_counts = ds.rows().map(|c| (c.cell.as_u64(), c.locations)).collect();
        let model = PaperModel::new(ds);
        PipelineOutputs {
            stats: demand_stats::demand_stats(&model),
            table2: sizing::table2(&model),
            fig2: coverage_sweep::sweep(&model).fraction,
            cell_counts,
            scatter_head,
        }
    })
}

#[test]
fn parallel_pipeline_is_bit_identical_to_serial() {
    let serial = run_pipeline(1);
    let parallel = run_pipeline(4);

    // The raw dataset: same cells, same counts, in the same order.
    assert_eq!(serial.cell_counts, parallel.cell_counts);
    // Fig 1 summary statistics (includes f64 mean — compared exactly).
    assert_eq!(serial.stats, parallel.stats);
    // Table 2 constellation sizes, row by row.
    assert_eq!(serial.table2, parallel.table2);
    // The full Fig 2 fraction grid, compared bit-for-bit.
    assert_eq!(serial.fig2.len(), parallel.fig2.len());
    for (row_s, row_p) in serial.fig2.iter().zip(parallel.fig2.iter()) {
        for (a, b) in row_s.iter().zip(row_p.iter()) {
            assert_eq!(a.to_bits(), b.to_bits(), "fig2 fraction differs");
        }
    }
    // Location scatter (per-cell RNG streams, order-stable concat).
    assert_eq!(serial.scatter_head, parallel.scatter_head);
}

#[test]
fn oversubscribed_thread_counts_also_agree() {
    // More workers than rows/cells exercises the chunking edge cases
    // (empty chunks, one-element chunks).
    let few = run_pipeline(2);
    let many = run_pipeline(32);
    assert_eq!(few.stats, many.stats);
    assert_eq!(few.table2, many.table2);
    assert_eq!(few.cell_counts, many.cell_counts);
}

/// The exact bytes of representative artifacts (Fig 1 CDF CSV, Fig 2
/// sweep CSV, Fig 2 heatmap SVG), rendered in-process the same way the
/// CLI renders them.
fn artifact_bytes(threads: usize) -> (String, String, String) {
    with_threads(threads, || {
        let model = PaperModel::new(BroadbandDataset::generate(&SynthConfig::small()));
        let mut fig1 = CsvWriter::new();
        fig1.record(&["locations_per_cell", "cumulative_probability"]);
        for &(x, p) in &demand_stats::cdf_series(&model, 400) {
            fig1.record_display(&[x as f64, p]);
        }
        let s = coverage_sweep::sweep(&model);
        let mut fig2 = CsvWriter::new();
        fig2.record(&["beamspread", "oversubscription", "fraction_served"]);
        for (bi, &b) in s.beamspreads.iter().enumerate() {
            for (ri, &r) in s.oversubs.iter().enumerate() {
                fig2.record_display(&[b as f64, r as f64, s.fraction[bi][ri]]);
            }
        }
        let heatmap = Heatmap {
            title: "Fig 2: fraction of US cells served".into(),
            x_label: "oversubscription factor".into(),
            y_label: "beamspread factor".into(),
            xs: s.oversubs.clone(),
            ys: s.beamspreads.clone(),
            values: s.fraction.clone(),
        };
        (
            fig1.finish().to_string(),
            fig2.finish().to_string(),
            heatmap.render(760.0, 460.0),
        )
    })
}

/// The resource-telemetry determinism contract (DESIGN.md §12): the
/// tracking allocator, the span high-water-mark hook, and RSS sampling
/// only *count* — with the hook installed (as the CLI installs it),
/// artifact bytes must match a run without it at every thread count.
#[test]
fn resource_telemetry_does_not_perturb_artifact_bytes() {
    use starlink_divide_repro::alloc_track;
    use starlink_divide_repro::obs::resource::{self, AllocHook, AllocReading};

    fn reading(s: alloc_track::AllocStats) -> AllocReading {
        AllocReading {
            alloc_calls: s.alloc_calls,
            dealloc_calls: s.dealloc_calls,
            allocated_bytes: s.allocated_bytes,
            current_bytes: s.current_bytes,
            peak_bytes: s.peak_bytes,
        }
    }

    resource::set_alloc_hook(Some(AllocHook {
        read: || reading(alloc_track::stats()),
        read_lane: || reading(alloc_track::lane_stats()),
        rebase_span_peak: alloc_track::rebase_span_peak,
        span_peak: alloc_track::span_peak_bytes,
    }));
    let on_1 = artifact_bytes(1);
    let on_4 = artifact_bytes(4);
    assert!(
        alloc_track::stats().alloc_calls > 0,
        "tracking allocator saw no allocations — the hooked leg measured nothing"
    );

    resource::set_alloc_hook(None);
    let off_1 = artifact_bytes(1);
    let off_4 = artifact_bytes(4);

    assert_eq!(on_1, off_1, "alloc hook on/off differ at 1 thread");
    assert_eq!(on_4, off_4, "alloc hook on/off differ at 4 threads");
    assert_eq!(on_1, on_4, "thread count leaked into artifacts");
}

/// The timeline recorder shares the observability contract (DESIGN.md
/// §10): recording worker-chunk events and span begin/ends must never
/// change a single artifact byte, at any thread count.
#[test]
fn tracing_does_not_perturb_artifact_bytes() {
    use starlink_divide_repro::obs::{self, scope::ObsScope};

    let scope = ObsScope::new();
    let (traced_1, traced_4) = {
        let _g = scope.enter();
        obs::trace::start();
        (artifact_bytes(1), artifact_bytes(4))
    };
    let plain_1 = artifact_bytes(1);
    let plain_4 = artifact_bytes(4);

    assert_eq!(traced_1, plain_1, "tracing on/off differ at 1 thread");
    assert_eq!(traced_4, plain_4, "tracing on/off differ at 4 threads");
    assert_eq!(traced_1, traced_4, "thread count leaked into artifacts");
}

/// The persistent worker pool must uphold the same contract as the
/// scoped-thread implementation it replaced: artifacts bit-identical
/// at any worker count. Every fan-out of two or more items goes
/// through the pool at 2 and 8 threads.
#[test]
fn worker_pool_artifacts_are_bit_identical_at_1_2_8_threads() {
    let one = artifact_bytes(1);
    let two = artifact_bytes(2);
    let eight = artifact_bytes(8);
    assert_eq!(one, two, "pool at 2 threads diverged from serial");
    assert_eq!(one, eight, "pool at 8 threads diverged from serial");
}

/// The snapshot-cache determinism contract (DESIGN.md §9): an artifact
/// rendered from a warm snapshot must be byte-equal to one rendered
/// from a cold generation — at every thread count. This is the
/// in-process twin of `scripts/tier1.sh`'s cold/warm `diff -r`.
#[test]
fn warm_snapshot_artifacts_are_bit_identical_to_cold() {
    use starlink_divide_repro::cache::DatasetCache;

    let dir = std::env::temp_dir().join(format!("divide_determinism_cache_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = SynthConfig::small();

    // A cached render stages its new snapshots and commits them after.
    let render = |threads: usize, cached: bool| {
        with_threads(threads, || {
            let cache = DatasetCache::new(&dir);
            let ds = if cached {
                cache.load_or_generate(&cfg)
            } else {
                BroadbandDataset::generate(&cfg)
            };
            let model = PaperModel::new(ds);
            let s = if cached {
                cache.sweep(&cfg, &model)
            } else {
                coverage_sweep::sweep(&model)
            };
            let mut fig2 = CsvWriter::new();
            fig2.record(&["beamspread", "oversubscription", "fraction_served"]);
            for (bi, &b) in s.beamspreads.iter().enumerate() {
                for (ri, &r) in s.oversubs.iter().enumerate() {
                    fig2.record_display(&[b as f64, r as f64, s.fraction[bi][ri]]);
                }
            }
            let mut fig1 = CsvWriter::new();
            fig1.record(&["locations_per_cell", "cumulative_probability"]);
            for &(x, p) in &demand_stats::cdf_series(&model, 400) {
                fig1.record_display(&[x as f64, p]);
            }
            cache.commit().expect("commit the staged snapshots");
            (fig1.finish().to_string(), fig2.finish().to_string())
        })
    };

    let cold_1 = render(1, false);
    let warm_1 = render(1, true); // first cached call seeds the store
    let warm_again_1 = render(1, true); // this one decodes the snapshot
    let warm_4 = render(4, true);
    let cold_4 = render(4, false);
    let warm_8 = render(8, true);
    let cold_8 = render(8, false);

    assert_eq!(cold_1, warm_1, "cache write path changed artifacts");
    assert_eq!(
        cold_1, warm_again_1,
        "warm decode differs from cold at 1 thread"
    );
    assert_eq!(cold_4, warm_4, "warm decode differs from cold at 4 threads");
    assert_eq!(cold_8, warm_8, "warm decode differs from cold at 8 threads");
    assert_eq!(cold_1, cold_4, "thread count leaked into artifacts");
    assert_eq!(cold_1, cold_8, "thread count leaked into artifacts at 8");

    let _ = std::fs::remove_dir_all(&dir);
}

/// The columnar-layout contract (DESIGN.md §14): the cell columns are
/// the same at any thread count, and whether the dataset was generated
/// cold or decoded from a schema-v2 snapshot. The hot kernels (the
/// sensitivity fold) must agree with a scalar walk over the rows.
#[test]
fn columnar_views_mirror_rows_cold_warm_and_across_threads() {
    use starlink_divide_repro::cache::DatasetCache;

    let dir = std::env::temp_dir().join(format!("divide_determinism_cols_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = SynthConfig::small();

    let check_kernels = |ds: &BroadbandDataset, label: &str| {
        for limit in [0u64, 61, 3_465, u64::MAX] {
            let scalar: u64 = ds.rows().map(|c| c.locations.saturating_sub(limit)).sum();
            assert_eq!(
                ds.cols.unserved_above(limit),
                scalar,
                "{label}: unserved_above({limit})"
            );
        }
    };
    let check_same = |a: &BroadbandDataset, b: &BroadbandDataset, label: &str| {
        assert_eq!(a.cells, b.cells, "{label}: cell column diverged");
        assert_eq!(
            a.cols.locations, b.cols.locations,
            "{label}: count column diverged"
        );
        assert_eq!(
            a.cols.county, b.cols.county,
            "{label}: county column diverged"
        );
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&a.cols.lat_deg),
            bits(&b.cols.lat_deg),
            "{label}: lat column diverged"
        );
        assert_eq!(
            bits(&a.cols.lng_deg),
            bits(&b.cols.lng_deg),
            "{label}: lng column diverged"
        );
    };

    let cold = with_threads(1, || BroadbandDataset::generate(&cfg));
    check_kernels(&cold, "cold serial");
    let cold_8 = with_threads(8, || BroadbandDataset::generate(&cfg));
    check_kernels(&cold_8, "cold 8-thread");
    let seeding = DatasetCache::new(&dir);
    let _seed = seeding.load_or_generate(&cfg); // seeds the snapshot
    seeding.commit().expect("commit the snapshot");
    let warm = DatasetCache::new(&dir).load_or_generate(&cfg); // decodes schema v2
    check_kernels(&warm, "warm decode");
    check_same(&cold, &warm, "warm");
    check_same(&cold, &cold_8, "8 threads");

    let _ = std::fs::remove_dir_all(&dir);
}

/// Replays the checked-in proptest regression
/// (`crates/demand/tests/proptests.proptest-regressions`, shrunk to
/// `price = 295.70471053041905`) as a plain test so the historical
/// failure stays covered even if the regression file is pruned.
#[test]
fn affordability_threshold_regression_price_295_70() {
    use starlink_divide_repro::demand::plans::IspPlan;

    let price = 295.70471053041905_f64;
    let plan = IspPlan {
        name: "regression",
        monthly_usd: price,
        dl_mbps: 100.0,
        reliable_broadband: true,
    };
    let threshold = plan.min_affordable_income_usd();
    // The boundary itself is float-rounding sensitive; probe both sides.
    assert!(plan.affordable_for(threshold * 1.000_001));
    assert!(!plan.affordable_for(threshold * 0.999));
    // The threshold is exactly monthly×12/0.02.
    assert!((threshold - price * 600.0).abs() < 1e-6);
}
