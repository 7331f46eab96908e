//! Property-based tests for the hex grid substrate.

use leo_geomath::LatLng;
use leo_hexgrid::{cell::CellId, coord::Axial, GeoHexGrid};
use proptest::prelude::*;

fn axial() -> impl Strategy<Value = Axial> {
    (-2000..2000i32, -2000..2000i32).prop_map(|(q, r)| Axial::new(q, r))
}

fn conus_point() -> impl Strategy<Value = LatLng> {
    (25.0..49.0f64, -124.0..-67.0f64).prop_map(|(a, o)| LatLng::new(a, o))
}

proptest! {
    #[test]
    fn cell_id_round_trip(res in 0u8..=15, a in axial()) {
        let id = CellId::new(res, a).unwrap();
        prop_assert_eq!(id.resolution(), res);
        prop_assert_eq!(id.coord(), a);
        prop_assert_eq!(CellId::from_u64(id.as_u64()), Some(id));
    }

    #[test]
    fn geo_binning_round_trip(p in conus_point(), res in 3u8..=7) {
        let g = GeoHexGrid::starlink();
        let id = g.cell_for(&p, res);
        // The point must be within the cell's circumradius of the
        // cell center (on the projection plane both are exact; on the
        // sphere allow slack for the inverse projection).
        let center = g.cell_center(id);
        let d = leo_geomath::great_circle_distance_km(&p, &center);
        let circumradius = g.center_spacing_km(res) / 3f64.sqrt();
        prop_assert!(d <= circumradius * 1.001, "point {d} km from center");
        // And re-binning the center yields the same cell.
        prop_assert_eq!(g.cell_for(&center, res), id);
    }
}
