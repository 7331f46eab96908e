//! Cross-crate pipeline consistency: the synthetic dataset, the hex
//! grid, the geography, and the capacity model must agree with each
//! other, not just individually pass their unit tests.

mod common;

use common::model;
use starlink_divide_repro::demand::geography;
use starlink_divide_repro::geomath::great_circle_distance_km;
use starlink_divide_repro::hexgrid::{STARLINK_CELL_AREA_KM2, STARLINK_RESOLUTION};

#[test]
fn every_demand_cell_center_is_inside_conus() {
    let m = model();
    let poly = geography::conus_polygon();
    for c in m.dataset.rows() {
        assert!(
            poly.contains(&c.center),
            "cell {} center {} outside CONUS",
            c.cell,
            c.center
        );
    }
}

#[test]
fn us_cell_count_matches_conus_area() {
    let m = model();
    let poly = geography::conus_polygon();
    let expect = poly.area_km2() / STARLINK_CELL_AREA_KM2;
    let got = m.dataset.us_cell_count as f64;
    let rel = (got - expect).abs() / expect;
    assert!(rel < 0.02, "{got} cells vs area-implied {expect:.0}");
}

#[test]
fn scattered_locations_rebin_exactly() {
    // The location scatter and the hex binning are inverse operations:
    // re-binning every point reproduces the per-cell counts exactly.
    let m = model();
    let locations = m.dataset.scatter_locations(2024);
    let mut counts = std::collections::HashMap::new();
    for loc in &locations {
        let cell = m.dataset.grid.cell_for(&loc.position, STARLINK_RESOLUTION);
        *counts.entry(cell).or_insert(0u64) += 1;
    }
    assert_eq!(counts.len(), m.dataset.cells.len());
    for c in m.dataset.rows() {
        assert_eq!(counts.get(&c.cell), Some(&c.locations), "cell {}", c.cell);
    }
}

#[test]
fn county_assignment_is_nearest_seat() {
    let m = model();
    for c in m.dataset.rows().step_by(37) {
        let assigned = &m.dataset.counties[c.county as usize];
        let d_assigned = great_circle_distance_km(&c.center, &assigned.seat);
        // No other county seat may be closer.
        for county in &m.dataset.counties {
            let d = great_circle_distance_km(&c.center, &county.seat);
            assert!(
                d >= d_assigned - 1e-9,
                "cell {} assigned county {} ({d_assigned:.1} km) but county {} is at {d:.1} km",
                c.cell,
                assigned.id,
                county.id
            );
        }
    }
}

#[test]
fn county_location_totals_are_consistent() {
    let m = model();
    let total: u64 = m.dataset.counties.iter().map(|c| c.locations).sum();
    assert_eq!(total, m.dataset.total_locations);
    let per_cell: u64 = m.dataset.rows().map(|c| c.locations).sum();
    assert_eq!(per_cell, m.dataset.total_locations);
}

#[test]
fn multi_beam_cells_respect_latitude_bands() {
    // The calibration routes multi-beam-class cells to mid latitudes
    // (DESIGN.md §4); the sizing model's correctness depends on it.
    let m = model();
    for c in m.dataset.rows() {
        if c.locations >= 1733 {
            assert!(
                c.center.lat_deg() >= 35.4,
                "3-beam-class cell at {}",
                c.center
            );
        } else if c.locations >= 867 {
            assert!(
                c.center.lat_deg() >= 33.6,
                "2-beam-class cell at {}",
                c.center
            );
        }
    }
}

#[test]
fn anchor_cells_are_present_and_unique() {
    let m = model();
    let mut over_cap: Vec<u64> = m
        .dataset
        .rows()
        .map(|c| c.locations)
        .filter(|&l| l > 3465)
        .collect();
    over_cap.sort_unstable();
    assert_eq!(over_cap, vec![3825, 3950, 4205, 4450, 5998]);
}

#[test]
fn incomes_are_positive_and_bounded() {
    let m = model();
    for county in &m.dataset.counties {
        assert!(
            (20_000.0..200_000.0).contains(&county.median_income_usd),
            "county {} income {}",
            county.id,
            county.median_income_usd
        );
    }
}

#[test]
fn grid_cells_have_uniform_area() {
    // The equal-area construction: boundary polygons of far-apart cells
    // enclose the same area.
    let m = model();
    let cells = &m.dataset.cells;
    let ids = [cells[0], cells[cells.len() / 2], cells[cells.len() - 1]];
    for id in ids {
        let boundary = m.dataset.grid.cell_boundary(id);
        let poly = starlink_divide_repro::geomath::GeoPolygon::new(boundary.to_vec()).unwrap();
        let rel = (poly.area_km2() - STARLINK_CELL_AREA_KM2).abs() / STARLINK_CELL_AREA_KM2;
        assert!(
            rel < 5e-3,
            "cell {id}: area {} (rel {rel})",
            poly.area_km2()
        );
    }
}
