//! Hot-kernel benchmarks: the geometry paths rewritten for the
//! snapshot-cache PR (hoisted-trig Gaussian field, tile-pruned metro
//! distance, bucket-grid county-seat lookup) plus the data-oriented
//! kernels of the columnar-layout PR (Fig 2 row scan, the contiguous
//! unserved fold, monotone stratified sampling), the cell centers
//! `polyfill` carries, and snapshot encode/decode throughput. Each
//! rewritten kernel runs against an inline replica of the pre-rewrite
//! code, and the regression gates assert the pair is *bit-identical* —
//! the speedups must come for free.
//!
//! The orbit-validate and latency kernels (hoisted Walker ephemeris with
//! exact-preserving prefilters) run against the reference twins shared
//! with `leo-orbit`'s property tests, on the `divide` CLI's own inputs.
//! So do the paper-scale Fig 1 map render (the exact fixed-precision
//! number writer against `write!`), the one-pass strict bound (against
//! the per-spread loop shared with `starlink-divide`'s tests) and the
//! certified demand-cell order (against the exact scoring loop shared
//! with `leo-demand`'s tests).
//!
//! The run ends with a machine-readable `KERNELS_JSON: {...}` line of
//! per-kernel medians; `scripts/bench.sh` copies it into
//! `BENCH_tier1.json` so kernel regressions are tracked numbers.

#[path = "../../orbit/tests/naive/mod.rs"]
mod naive;
#[path = "../../demand/tests/naive/mod.rs"]
mod naive_rank;
#[path = "../../core/tests/naive/mod.rs"]
mod naive_strict;

use criterion::{criterion_group, criterion_main, Criterion};
use leo_bench::shared_model;
use leo_cache::{decode_dataset, encode_dataset};
use leo_demand::counties::SeatIndex;
use leo_demand::counts::CountCalibration;
use leo_demand::dataset::{rank_candidates, CellDemand};
use leo_demand::field::SmoothField;
use leo_demand::geography::{self, distance_to_nearest_metro_km, METRO_CENTERS};
use leo_geomath::{great_circle_distance_km, pre_distance_km, GeoBBox, LatLng, PrePoint};
use leo_hexgrid::STARLINK_RESOLUTION;
use leo_orbit::coverage::{coverage, CoverageConfig};
use leo_orbit::density::empirical_density_factor;
use leo_orbit::gateway::{conus_gateways, Gateway};
use leo_orbit::isl::{user_gateway_path, GatewayPath, IslTopology, PathMode};
use leo_orbit::WalkerShell;
use leo_report::svg::ramp_color_into;
use leo_report::PointMap;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use starlink_divide::coverage_sweep::served_fractions_row;
use starlink_divide::{demand_stats, strict, PaperModel};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// Median wall-clock of `reps` evaluations of `f`, in milliseconds —
/// the summary statistic `KERNELS_JSON` reports (the vendored
/// criterion shim prints means only).
fn median_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut times: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    times[times.len() / 2]
}

/// The pre-rewrite Fig 2 inner loop: an independent binary search per
/// `(beamspread, oversubscription)` cell.
fn per_point_fractions(sorted: &[u64], limits: &[u64], out: &mut Vec<f64>) {
    for &limit in limits {
        let served = sorted.partition_point(|&c| c <= limit);
        out.push(if sorted.is_empty() {
            1.0
        } else {
            served as f64 / sorted.len() as f64
        });
    }
}

/// CONUS-ish probe batch shared by every kernel bench.
fn probes(n: usize) -> Vec<LatLng> {
    let mut rng = StdRng::seed_from_u64(0x5eed);
    (0..n)
        .map(|_| LatLng::new(rng.gen_range(24.0..50.0), rng.gen_range(-125.0..-66.0)))
        .collect()
}

/// The pre-rewrite field kernel: raw haversine per bump, nothing
/// hoisted. Bumps are drawn exactly as `SmoothField::new` draws them,
/// so the two fields agree bit for bit.
struct NaiveField {
    bumps: Vec<(LatLng, f64, f64)>,
}

impl NaiveField {
    fn new(seed: u64, bbox: &GeoBBox, n_bumps: usize, scale_km: (f64, f64)) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let bumps = (0..n_bumps)
            .map(|_| {
                let center = LatLng::new(
                    rng.gen_range(bbox.lat_min..bbox.lat_max),
                    rng.gen_range(bbox.lng_min..bbox.lng_max),
                );
                let scale = rng.gen_range(scale_km.0..=scale_km.1);
                let amplitude = rng.gen_range(0.0..1.0f64);
                (center, scale, amplitude)
            })
            .collect();
        NaiveField { bumps }
    }

    fn value(&self, p: &LatLng) -> f64 {
        self.bumps
            .iter()
            .map(|(center, scale, amplitude)| {
                let d = great_circle_distance_km(p, center);
                amplitude * (-0.5 * (d / scale).powi(2)).exp()
            })
            .sum()
    }

    /// The rewritten kernel over the *same* bumps, for the bit-identity
    /// gate (the real `SmoothField` draws its own bumps from its seed).
    fn hoisted(&self) -> Vec<(PrePoint, f64, f64)> {
        self.bumps
            .iter()
            .map(|(c, s, a)| (PrePoint::new(c), *s, *a))
            .collect()
    }
}

fn hoisted_value(bumps: &[(PrePoint, f64, f64)], p: &LatLng) -> f64 {
    let q = PrePoint::new(p);
    bumps
        .iter()
        .map(|(center, scale, amplitude)| {
            let d = pre_distance_km(&q, center);
            amplitude * (-0.5 * (d / scale).powi(2)).exp()
        })
        .sum()
}

/// The pre-rewrite metro kernel: full haversine scan over all anchors.
fn naive_metro_km(p: &LatLng) -> f64 {
    METRO_CENTERS
        .iter()
        .map(|&(lat, lng)| great_circle_distance_km(p, &LatLng::new(lat, lng)))
        .fold(f64::INFINITY, f64::min)
}

/// The pre-rewrite seat kernel: brute-force haversine argmin.
fn brute_seat(seats: &[LatLng], p: &LatLng) -> u32 {
    seats
        .iter()
        .enumerate()
        .fold((f64::INFINITY, 0u32), |(best, id), (i, s)| {
            let d = great_circle_distance_km(p, s);
            if d < best {
                (d, i as u32)
            } else {
                (best, id)
            }
        })
        .1
}

/// `divide orbit-validate`'s density inputs: the 53°, 720-satellite
/// shell at seven latitudes, 2° bands, 257 time samples.
const DENSITY_LATS: [f64; 7] = [0.0, 10.0, 20.0, 30.0, 37.0, 45.0, 50.0];

fn density_shell() -> WalkerShell {
    WalkerShell::new(550.0, 53.0, 36, 20, 11)
}

/// `divide orbit-validate`'s coverage points.
fn coverage_points() -> [LatLng; 4] {
    [
        LatLng::new(39.5, -98.35),
        LatLng::new(25.8, -80.2),
        LatLng::new(47.6, -122.3),
        LatLng::new(37.0, -89.5),
    ]
}

/// `divide latency`'s queries: five users, eight epochs, both modes.
fn path_queries() -> Vec<(LatLng, f64, PathMode)> {
    let users = [
        (47.0, -109.0),
        (37.0, -89.5),
        (37.5, -81.5),
        (38.0, -60.0),
        (35.0, -38.0),
    ];
    let mut out = Vec::new();
    for &(lat, lng) in &users {
        for k in 0..8 {
            for mode in [PathMode::BentPipe, PathMode::IslRelay] {
                out.push((LatLng::new(lat, lng), k as f64 * 731.0, mode));
            }
        }
    }
    out
}

fn all_paths(
    topo: &IslTopology,
    gws: &[Gateway],
    queries: &[(LatLng, f64, PathMode)],
    f: impl Fn(&IslTopology, &[Gateway], &LatLng, f64, PathMode) -> Option<GatewayPath>,
) -> Vec<Option<GatewayPath>> {
    queries
        .iter()
        .map(|(u, t, m)| f(topo, gws, u, *t, *m))
        .collect()
}

/// `divide fig1`'s map size.
const MAP_SIZE: (f64, f64) = (900.0, 560.0);

/// The pre-rewrite Fig 1 map writer: the document `PointMap::render`
/// builds, with every coordinate through `write!`'s `{:.2}` and the
/// colors from the same ramp.
fn write_fmt_point_map(map: &PointMap, (width, height): (f64, f64)) -> String {
    let mut body = format!(
        "<rect x=\"0.00\" y=\"0.00\" width=\"{width:.2}\" height=\"{height:.2}\" fill=\"#ffffff\"/>\n\
         <text x=\"{:.2}\" y=\"18.00\" font-size=\"14\" font-family=\"sans-serif\" text-anchor=\"middle\">{}</text>\n",
        width / 2.0,
        map.title
    );
    let (mut lat0, mut lat1) = (f64::INFINITY, f64::NEG_INFINITY);
    let (mut lng0, mut lng1) = (f64::INFINITY, f64::NEG_INFINITY);
    let mut wmax = 1u64;
    for &(lat, lng, w) in &map.points {
        lat0 = lat0.min(lat);
        lat1 = lat1.max(lat);
        lng0 = lng0.min(lng);
        lng1 = lng1.max(lng);
        wmax = wmax.max(w);
    }
    let (pw, ph) = (width - 40.0, height - 60.0);
    let lmax = (wmax as f64).ln().max(1e-9);
    let mut color = String::new();
    for &(lat, lng, w) in &map.points {
        let t = (w.max(1) as f64).ln() / lmax;
        color.clear();
        ramp_color_into(t, &mut color);
        let cx = 20.0 + (lng - lng0) / (lng1 - lng0).max(1e-9) * pw;
        let cy = 30.0 + (1.0 - (lat - lat0) / (lat1 - lat0).max(1e-9)) * ph;
        let r = 1.1 + 2.2 * t;
        let _ = writeln!(
            body,
            "<circle cx=\"{cx:.2}\" cy=\"{cy:.2}\" r=\"{r:.2}\" fill=\"{color}\"/>"
        );
    }
    format!(
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{width:.0}\" height=\"{height:.0}\" viewBox=\"0 0 {width:.0} {height:.0}\">\n{body}</svg>\n"
    )
}

fn bench_kernels(c: &mut Criterion) {
    let batch = probes(512);
    let bbox = GeoBBox::new(24.0, 50.0, -125.0, -66.0);

    // Kernel 1: Gaussian field evaluation (hot inside score_cells).
    let naive_field = NaiveField::new(99, &bbox, 600, (40.0, 220.0));
    let hoisted = naive_field.hoisted();
    let real_field = SmoothField::new(99, &bbox, 600, (40.0, 220.0));
    c.bench_function("kernels/field_value/naive", |b| {
        b.iter(|| {
            for p in &batch[..32] {
                black_box(naive_field.value(p));
            }
        })
    });
    c.bench_function("kernels/field_value/hoisted", |b| {
        b.iter(|| {
            for p in &batch[..32] {
                black_box(hoisted_value(&hoisted, p));
            }
        })
    });
    c.bench_function("kernels/field_value/smooth_field", |b| {
        b.iter(|| {
            for p in &batch[..32] {
                black_box(real_field.value(p));
            }
        })
    });

    // Kernel 2: distance to the nearest metro (hot inside remoteness).
    c.bench_function("kernels/nearest_metro/full_scan", |b| {
        b.iter(|| {
            for p in &batch {
                black_box(naive_metro_km(p));
            }
        })
    });
    c.bench_function("kernels/nearest_metro/indexed", |b| {
        b.iter(|| {
            for p in &batch {
                black_box(distance_to_nearest_metro_km(p));
            }
        })
    });

    // Kernel 3: nearest county seat (hot inside county assignment).
    let mut rng = StdRng::seed_from_u64(0xc0ffee);
    let seats: Vec<LatLng> = (0..3108)
        .map(|_| LatLng::new(rng.gen_range(24.0..50.0), rng.gen_range(-125.0..-66.0)))
        .collect();
    let index = SeatIndex::new(seats.clone());
    c.bench_function("kernels/seat_nearest/brute", |b| {
        b.iter(|| {
            for p in &batch[..64] {
                black_box(brute_seat(&seats, p));
            }
        })
    });
    c.bench_function("kernels/seat_nearest/indexed", |b| {
        b.iter(|| {
            for p in &batch[..64] {
                black_box(index.nearest(p));
            }
        })
    });

    // Kernel 4: the Fig 2 row scan — one monotone two-pointer walk per
    // beamspread row versus the per-cell binary search it replaced.
    let ds = &shared_model().dataset;
    let sorted = ds.sorted_counts();
    let max_count = sorted.last().copied().unwrap_or(0);
    let limits: Vec<u64> = (0..48).map(|i| i * (max_count / 40 + 1)).collect();
    let mut row = Vec::with_capacity(limits.len());
    c.bench_function("kernels/sweep_row/per_point", |b| {
        b.iter(|| {
            row.clear();
            per_point_fractions(black_box(sorted), black_box(&limits), &mut row);
            black_box(&row);
        })
    });
    c.bench_function("kernels/sweep_row/two_pointer", |b| {
        b.iter(|| {
            row.clear();
            served_fractions_row(black_box(sorted), black_box(&limits), &mut row);
            black_box(&row);
        })
    });

    // Kernel 5: the sensitivity/tail unserved fold — a branch-free
    // saturating fold over the contiguous counts column versus a walk
    // over a row-major copy of the cells.
    let fold_limits = [0u64, 61, 1_733, 3_465];
    let rows: Vec<CellDemand> = ds.rows().collect();
    c.bench_function("kernels/unserved_fold/row_major", |b| {
        b.iter(|| {
            for &limit in &fold_limits {
                let v: u64 = rows
                    .iter()
                    .map(|cell| cell.locations.saturating_sub(limit))
                    .sum();
                black_box(v);
            }
        })
    });
    c.bench_function("kernels/unserved_fold/columnar", |b| {
        b.iter(|| {
            for &limit in &fold_limits {
                black_box(ds.cols.unserved_above(black_box(limit)));
            }
        })
    });

    // Kernel 6: stratified inverse-CDF sampling — the monotone
    // two-pointer walk versus a per-sample segment search.
    let curve = CountCalibration::paper().curve;
    let n_samples = 20_000usize;
    c.bench_function("kernels/stratified/per_point", |b| {
        b.iter(|| {
            for i in 0..n_samples {
                black_box(curve.value((i as f64 + 0.5) / n_samples as f64));
            }
        })
    });
    c.bench_function("kernels/stratified/two_pointer", |b| {
        b.iter(|| black_box(curve.stratified_values(black_box(n_samples))))
    });

    // Kernel 7: cell centers carried by `polyfill` — the paper-scale
    // CONUS fill, whose centers are the points its containment test
    // was made at — versus the same fill followed by a `cell_center`
    // call per id, the path a cold generate took before it carried
    // them. Checked bit-identical before any timing.
    let conus = geography::conus_polygon();
    let fill = || ds.grid.polyfill(&conus, STARLINK_RESOLUTION);
    for (id, center) in fill() {
        let c = ds.grid.cell_center(id);
        assert_eq!(center.lat_deg().to_bits(), c.lat_deg().to_bits(), "{id}");
        assert_eq!(center.lng_deg().to_bits(), c.lng_deg().to_bits(), "{id}");
    }
    let mut group = c.benchmark_group("kernels/cell_centers");
    group.sample_size(10);
    group.bench_function("per_id", |b| {
        b.iter(|| {
            for (id, _) in fill() {
                black_box(ds.grid.cell_center(id));
            }
        })
    });
    group.bench_function("polyfill", |b| b.iter(|| black_box(fill())));
    group.finish();

    // Kernel 8: the Monte-Carlo density estimator — hoisted ephemeris
    // with the sin-latitude prefilter versus full propagation of every
    // sample.
    let shell = density_shell();
    let mut group = c.benchmark_group("kernels/orbit");
    group.sample_size(10);
    group.bench_function("density/naive", |b| {
        b.iter(|| {
            for lat in DENSITY_LATS {
                black_box(naive::naive_density(&shell, lat, 2.0, 257));
            }
        })
    });
    group.bench_function("density/ephemeris", |b| {
        b.iter(|| {
            for lat in DENSITY_LATS {
                black_box(empirical_density_factor(&shell, lat, 2.0, 257));
            }
        })
    });

    // Kernel 9: constellation coverage — band, dot and haversine
    // stages versus the haversine test on every pair.
    let shells = WalkerShell::starlink_current_2025();
    let points = coverage_points();
    let cov_cfg = CoverageConfig::default();
    group.bench_function("coverage/naive", |b| {
        b.iter(|| black_box(naive::naive_coverage(&shells, &points, &cov_cfg)))
    });
    group.bench_function("coverage/ephemeris", |b| {
        b.iter(|| black_box(coverage(&shells, &points, &cov_cfg)))
    });

    // Kernel 10: user→gateway paths — lazy positions and prefiltered
    // serving and gateway searches versus propagating the whole shell.
    let topo = IslTopology::plus_grid(WalkerShell::starlink_gen1_shell1());
    let gws = conus_gateways();
    let queries = path_queries();
    group.bench_function("path/naive", |b| {
        b.iter(|| black_box(all_paths(&topo, &gws, &queries, naive::naive_path)))
    });
    group.bench_function("path/ephemeris", |b| {
        b.iter(|| black_box(all_paths(&topo, &gws, &queries, user_gateway_path)))
    });
    group.finish();

    // Kernel 11: the paper-scale Fig 1 map and the strict bound, each
    // checked against its reference twin before any timing.
    let paper = PaperModel::paper_scale();
    let map = PointMap {
        title: "Fig 1: un(der)served locations per Starlink service cell".into(),
        points: demand_stats::map_series(&paper),
    };
    assert_eq!(
        map.render(MAP_SIZE.0, MAP_SIZE.1),
        write_fmt_point_map(&map, MAP_SIZE),
        "point map diverged from its write! twin"
    );
    assert!(
        naive_strict::same_table(
            &strict::strict_table(&paper),
            &naive_strict::naive_strict_table(&paper)
        ),
        "strict table diverged from the per-spread loop"
    );
    let mut group = c.benchmark_group("kernels/render");
    group.sample_size(10);
    group.bench_function("point_map/write_fmt", |b| {
        b.iter(|| black_box(write_fmt_point_map(black_box(&map), MAP_SIZE)))
    });
    group.bench_function("point_map/fixed", |b| {
        b.iter(|| black_box(black_box(&map).render(MAP_SIZE.0, MAP_SIZE.1)))
    });
    group.bench_function("strict/per_spread", |b| {
        b.iter(|| black_box(naive_strict::naive_strict_table(black_box(&paper))))
    });
    group.bench_function("strict/one_pass", |b| {
        b.iter(|| black_box(strict::strict_table(black_box(&paper))))
    });
    group.finish();

    // Kernel 12: the paper-scale demand-cell order — approximate scores
    // with exact re-scoring of near-ties versus the exact score of
    // every cell, checked equal before any timing. One thread, as the
    // twin is serial.
    let (grid, conus_bbox, us_cells, candidates) = naive_rank::paper_candidates();
    let certified_order = || {
        leo_parallel::with_threads(1, || {
            rank_candidates(7, &conus_bbox, &us_cells, &candidates)
        })
    };
    let exact_order = || naive_rank::naive_rank(7, &conus_bbox, &grid, &us_cells, &candidates);
    assert!(
        naive_rank::same_ranking(&us_cells, &certified_order(), &exact_order()),
        "certified order diverged from the exact scoring loop"
    );
    let mut group = c.benchmark_group("kernels/score_order");
    group.sample_size(10);
    group.bench_function("exact", |b| b.iter(|| black_box(exact_order())));
    group.bench_function("certified", |b| b.iter(|| black_box(certified_order())));
    group.finish();

    // Snapshot codec throughput over the shared test-scale dataset.
    let payload = encode_dataset(ds);
    let mut group = c.benchmark_group("cache");
    group.sample_size(20);
    group.bench_function("snapshot_encode", |b| {
        b.iter(|| black_box(encode_dataset(black_box(ds))))
    });
    group.bench_function("snapshot_decode", |b| {
        b.iter(|| black_box(decode_dataset(black_box(&payload)).expect("valid payload")))
    });
    group.finish();

    // Regression gates: the rewrites must agree with the baselines to
    // the last bit, and the codec must round-trip.
    for p in &batch {
        assert_eq!(
            hoisted_value(&hoisted, p).to_bits(),
            naive_field.value(p).to_bits(),
            "hoisted field diverged at {p}"
        );
        assert_eq!(
            real_field.value(p).to_bits(),
            naive_field.value(p).to_bits(),
            "SmoothField diverged from the raw-haversine field at {p}"
        );
        assert_eq!(
            distance_to_nearest_metro_km(p).to_bits(),
            naive_metro_km(p).to_bits(),
            "indexed metro distance diverged at {p}"
        );
        assert_eq!(
            index.nearest(p),
            brute_seat(&seats, p),
            "seat diverged at {p}"
        );
    }
    let decoded = decode_dataset(&payload).expect("round trip");
    assert_eq!(decoded.cells.len(), ds.cells.len());
    assert_eq!(decoded.total_locations, ds.total_locations);

    // Columnar-kernel gates: every data-oriented rewrite must agree
    // with its scalar baseline to the last bit.
    let mut scalar_row = Vec::new();
    per_point_fractions(sorted, &limits, &mut scalar_row);
    let mut vector_row = Vec::new();
    served_fractions_row(sorted, &limits, &mut vector_row);
    assert_eq!(scalar_row.len(), vector_row.len());
    for (i, (a, b)) in scalar_row.iter().zip(vector_row.iter()).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "row scan diverged at limit {i}");
    }
    for &limit in &fold_limits {
        let scalar: u64 = rows
            .iter()
            .map(|cell| cell.locations.saturating_sub(limit))
            .sum();
        assert_eq!(
            ds.cols.unserved_above(limit),
            scalar,
            "unserved fold diverged at limit {limit}"
        );
    }
    let bulk = curve.stratified_values(n_samples);
    for (i, v) in bulk.iter().enumerate() {
        let per_point = curve.value((i as f64 + 0.5) / n_samples as f64);
        assert_eq!(
            v.to_bits(),
            per_point.to_bits(),
            "stratified diverged at {i}"
        );
    }
    // Orbit-kernel gates: same bits as the reference twins on the
    // inputs `divide orbit-validate` and `divide latency` use.
    for lat in DENSITY_LATS {
        assert_eq!(
            empirical_density_factor(&shell, lat, 2.0, 257).to_bits(),
            naive::naive_density(&shell, lat, 2.0, 257).to_bits(),
            "density diverged at {lat}"
        );
    }
    assert!(
        naive::same_coverage(
            &coverage(&shells, &points, &cov_cfg),
            &naive::naive_coverage(&shells, &points, &cov_cfg)
        ),
        "coverage diverged"
    );
    let fast = all_paths(&topo, &gws, &queries, user_gateway_path);
    let slow = all_paths(&topo, &gws, &queries, naive::naive_path);
    for (i, (a, b)) in fast.iter().zip(&slow).enumerate() {
        assert!(naive::same_path(a, b), "path {i} diverged: {a:?} vs {b:?}");
    }

    // Codec throughput in engineering units for EXPERIMENTS.md.
    let mb = payload.len() as f64 / (1024.0 * 1024.0);
    let reps = 50;
    let t0 = Instant::now();
    for _ in 0..reps {
        black_box(encode_dataset(black_box(ds)));
    }
    let enc_s = t0.elapsed().as_secs_f64() / reps as f64;
    let t0 = Instant::now();
    for _ in 0..reps {
        black_box(decode_dataset(black_box(&payload)).expect("valid"));
    }
    let dec_s = t0.elapsed().as_secs_f64() / reps as f64;
    println!(
        "KERNELS: snapshot payload {:.2} MiB; encode {:.0} MiB/s; decode {:.0} MiB/s",
        mb,
        mb / enc_s,
        mb / dec_s
    );

    // Machine-readable medians for BENCH_tier1.json (31 reps each; the
    // shim above prints means, trend gating wants medians).
    let sweep_ms = median_ms(31, || {
        let mut out = Vec::with_capacity(limits.len());
        served_fractions_row(black_box(sorted), black_box(&limits), &mut out);
        black_box(out);
    });
    let fold_ms = median_ms(31, || {
        for &limit in &fold_limits {
            black_box(ds.cols.unserved_above(black_box(limit)));
        }
    });
    let stratified_ms = median_ms(31, || {
        black_box(curve.stratified_values(black_box(n_samples)));
    });
    let centers_ms = median_ms(11, || {
        black_box(fill());
    });
    let encode_ms = median_ms(31, || {
        black_box(encode_dataset(black_box(ds)));
    });
    let decode_ms = median_ms(31, || {
        black_box(decode_dataset(black_box(&payload)).expect("valid"));
    });
    let density_ms = median_ms(11, || {
        for lat in DENSITY_LATS {
            black_box(empirical_density_factor(&shell, lat, 2.0, 257));
        }
    });
    let coverage_ms = median_ms(11, || {
        black_box(coverage(&shells, &points, &cov_cfg));
    });
    let path_ms = median_ms(11, || {
        black_box(all_paths(&topo, &gws, &queries, user_gateway_path));
    });
    let map_ms = median_ms(11, || {
        black_box(black_box(&map).render(MAP_SIZE.0, MAP_SIZE.1));
    });
    let strict_ms = median_ms(11, || {
        black_box(strict::strict_table(black_box(&paper)));
    });
    let score_order_ms = median_ms(11, || {
        black_box(certified_order());
    });
    println!(
        "KERNELS_JSON: {{\"sweep_row_scan_ms\":{sweep_ms:.6},\
         \"unserved_fold_ms\":{fold_ms:.6},\
         \"stratified_sample_ms\":{stratified_ms:.6},\
         \"polyfill_centers_ms\":{centers_ms:.6},\
         \"snapshot_encode_ms\":{encode_ms:.6},\
         \"snapshot_decode_ms\":{decode_ms:.6},\
         \"decode_mib_per_s\":{:.3},\
         \"empirical_density_factor_ms\":{density_ms:.6},\
         \"coverage_ms\":{coverage_ms:.6},\
         \"user_gateway_path_ms\":{path_ms:.6},\
         \"point_map_render_ms\":{map_ms:.6},\
         \"strict_table_ms\":{strict_ms:.6},\
         \"score_order_ms\":{score_order_ms:.6}}}",
        mb / (decode_ms / 1e3)
    );
}

criterion_group!(benches, bench_kernels);
criterion_main!(benches);
