//! Substrate micro-benchmarks: the hex grid, geodesy, and fair-share
//! primitives on the hot paths of the experiment pipeline.

use criterion::{criterion_group, criterion_main, Criterion};
use leo_geomath::{great_circle_distance_km, AzimuthalEqualArea, LatLng};
use leo_hexgrid::{GeoHexGrid, STARLINK_RESOLUTION};
use leo_simnet::max_min_fair;
use std::hint::black_box;

fn bench_substrates(c: &mut Criterion) {
    let grid = GeoHexGrid::starlink();
    let p = LatLng::new(39.5, -98.35);
    let q = LatLng::new(37.0, -89.5);

    c.bench_function("geomath/great_circle_distance", |b| {
        b.iter(|| black_box(great_circle_distance_km(black_box(&p), black_box(&q))))
    });

    c.bench_function("geomath/azimuthal_forward_inverse", |b| {
        let proj = AzimuthalEqualArea::new(p);
        b.iter(|| {
            let fw = proj.forward(black_box(&q));
            black_box(proj.inverse(&fw))
        })
    });

    c.bench_function("hexgrid/cell_for", |b| {
        b.iter(|| black_box(grid.cell_for(black_box(&q), STARLINK_RESOLUTION)))
    });

    c.bench_function("hexgrid/disk_radius_5", |b| {
        let id = grid.cell_for(&q, STARLINK_RESOLUTION);
        b.iter(|| black_box(grid.disk(id, 5)))
    });

    let mut group = c.benchmark_group("hexgrid/polyfill");
    group.sample_size(10);
    group.bench_function("kansas_2x2_deg", |b| {
        let poly = leo_geomath::GeoPolygon::from_degrees(&[
            (38.0, -100.0),
            (38.0, -98.0),
            (40.0, -98.0),
            (40.0, -100.0),
        ])
        .unwrap();
        b.iter(|| black_box(grid.polyfill(&poly, STARLINK_RESOLUTION)))
    });
    group.finish();

    c.bench_function("simnet/max_min_fair_1000_flows", |b| {
        let caps: Vec<f64> = (0..1000).map(|i| 10.0 + (i % 90) as f64).collect();
        b.iter(|| black_box(max_min_fair(black_box(5000.0), &caps)))
    });

    // Observability overhead: what one span enter/drop and one counter
    // bump cost while enabled vs disabled. These bound the perturbation
    // the instrumentation could ever introduce (the determinism tests
    // prove the *bytes* are identical; this quantifies the time).
    leo_obs::set_enabled(true);
    c.bench_function("obs/span_enter_drop_enabled", |b| {
        b.iter(|| {
            let _span = leo_obs::span!("bench.span_overhead");
        })
    });
    c.bench_function("obs/counter_add_enabled", |b| {
        b.iter(|| leo_obs::metrics::counter_add("bench.counter_overhead", 1))
    });
    leo_obs::set_enabled(false);
    c.bench_function("obs/span_enter_drop_disabled", |b| {
        b.iter(|| {
            let _span = leo_obs::span!("bench.span_overhead");
        })
    });
    c.bench_function("obs/counter_add_disabled", |b| {
        b.iter(|| leo_obs::metrics::counter_add("bench.counter_overhead", 1))
    });
    leo_obs::set_enabled(true);
}

criterion_group!(benches, bench_substrates);
criterion_main!(benches);
