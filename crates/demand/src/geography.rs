//! Synthetic US geography: the CONUS boundary and metro anchor points.
//!
//! The boundary is a coarse (~40-vertex) trace of the contiguous United
//! States — coarse is fine: the paper's statistics depend on the cell
//! count and demand distribution, not on coastline detail. Alaska and
//! Hawaii are omitted (DESIGN.md records this; the binding peak-demand
//! cells in the paper's data are in the CONUS mid-latitudes, and the
//! constellation-sizing model only consumes the peak cell's latitude).

use leo_geomath::{pre_distance_km, GeoPolygon, LatLng, PrePoint, UnitPoint};
use std::sync::OnceLock;

/// Vertices of the contiguous-US boundary (lat, lng), counterclockwise
/// from the northwest corner.
pub const CONUS_OUTLINE: &[(f64, f64)] = &[
    (48.40, -124.70), // NW corner (Olympic peninsula)
    (46.20, -124.00),
    (43.00, -124.40),
    (40.40, -124.40), // Cape Mendocino
    (38.00, -123.00),
    (36.30, -121.90),
    (34.50, -120.50),
    (34.00, -118.50),
    (32.50, -117.10), // San Diego
    (32.50, -114.80),
    (31.30, -111.00),
    (31.80, -106.50), // El Paso
    (29.50, -101.00),
    (25.90, -97.10), // south tip of Texas
    (28.00, -96.80),
    (29.70, -93.80),
    (29.20, -89.40), // Mississippi delta
    (30.40, -86.50),
    (29.70, -83.90),
    (26.90, -82.30),
    (25.10, -81.10), // Florida tip (west)
    (25.10, -80.10), // Florida tip (east)
    (26.80, -79.95), // West Palm Beach
    (28.00, -80.50),
    (30.70, -81.40),
    (32.00, -80.90),
    (33.80, -78.00),
    (35.20, -75.50), // Cape Hatteras
    (36.90, -75.90),
    (38.90, -74.90),
    (40.50, -73.90), // New York
    (41.50, -70.00), // Cape Cod
    (43.00, -70.50),
    (44.80, -66.90), // eastern Maine
    (47.30, -68.00), // northern Maine
    (45.00, -74.70), // St. Lawrence
    (42.90, -78.90), // Buffalo
    (45.00, -82.50),
    (46.50, -84.50), // Sault Ste. Marie
    (48.20, -89.50),
    (49.00, -95.00),  // Lake of the Woods
    (49.00, -123.00), // 49th parallel to the Pacific
];

/// The contiguous-US boundary polygon.
pub fn conus_polygon() -> GeoPolygon {
    GeoPolygon::from_degrees(CONUS_OUTLINE).expect("CONUS outline is a valid ring")
}

/// Major metropolitan anchor points (lat, lng). Demand *clusters away*
/// from these in the synthetic model: un- and underserved locations are
/// predominantly rural, so the remoteness field scores distance from
/// the nearest metro.
pub const METRO_CENTERS: &[(f64, f64)] = &[
    (40.71, -74.01),  // New York
    (34.05, -118.24), // Los Angeles
    (41.88, -87.63),  // Chicago
    (29.76, -95.37),  // Houston
    (33.45, -112.07), // Phoenix
    (39.95, -75.17),  // Philadelphia
    (29.42, -98.49),  // San Antonio
    (32.72, -117.16), // San Diego
    (32.78, -96.80),  // Dallas
    (37.34, -121.89), // San Jose
    (30.27, -97.74),  // Austin
    (30.33, -81.66),  // Jacksonville
    (39.96, -82.99),  // Columbus
    (35.23, -80.84),  // Charlotte
    (37.77, -122.42), // San Francisco
    (39.77, -86.16),  // Indianapolis
    (47.61, -122.33), // Seattle
    (39.74, -104.99), // Denver
    (38.91, -77.04),  // Washington DC
    (42.36, -71.06),  // Boston
    (36.16, -86.78),  // Nashville
    (35.15, -90.05),  // Memphis
    (45.52, -122.68), // Portland
    (36.17, -115.14), // Las Vegas
    (38.63, -90.20),  // St. Louis
    (39.10, -94.58),  // Kansas City
    (33.75, -84.39),  // Atlanta
    (25.76, -80.19),  // Miami
    (44.98, -93.27),  // Minneapolis
    (40.44, -79.99),  // Pittsburgh
    (29.95, -90.07),  // New Orleans
    (40.76, -111.89), // Salt Lake City
];

/// Coarse bucket grid over the CONUS neighborhood for
/// [`distance_to_nearest_metro_km`]. Metro anchors are fixed, so each
/// tile precomputes (a) the anchors' hoisted trigonometry and unit
/// vectors ([`UnitPoint`]) and (b) a candidate subset guaranteed to
/// contain the nearest metro of *every* point in the tile. A query then
/// evaluates a handful of hoisted haversines instead of 32 full ones.
struct MetroIndex {
    metros: Vec<UnitPoint>,
    /// Per tile (row-major `ti * METRO_NLNG + tj`), the metro indices
    /// that can be nearest for some point in the tile.
    candidates: Vec<Vec<u16>>,
}

const METRO_TILE_DEG: f64 = 2.0;
const METRO_LAT_MIN: f64 = 20.0;
const METRO_LAT_MAX: f64 = 56.0;
const METRO_LNG_MIN: f64 = -130.0;
const METRO_LNG_MAX: f64 = -60.0;
const METRO_NLAT: usize = 18;
const METRO_NLNG: usize = 35;

impl MetroIndex {
    fn build() -> MetroIndex {
        let metros: Vec<UnitPoint> = METRO_CENTERS
            .iter()
            .map(|&(lat, lng)| UnitPoint::new(&LatLng::new(lat, lng)))
            .collect();
        let mut candidates = Vec::with_capacity(METRO_NLAT * METRO_NLNG);
        for ti in 0..METRO_NLAT {
            for tj in 0..METRO_NLNG {
                let lat_lo = METRO_LAT_MIN + ti as f64 * METRO_TILE_DEG;
                let lng_lo = METRO_LNG_MIN + tj as f64 * METRO_TILE_DEG;
                let center =
                    LatLng::new(lat_lo + METRO_TILE_DEG / 2.0, lng_lo + METRO_TILE_DEG / 2.0);
                // Circumradius of the tile: center to farthest corner.
                let radius_km = [
                    (lat_lo, lng_lo),
                    (lat_lo, lng_lo + METRO_TILE_DEG),
                    (lat_lo + METRO_TILE_DEG, lng_lo),
                    (lat_lo + METRO_TILE_DEG, lng_lo + METRO_TILE_DEG),
                ]
                .into_iter()
                .map(|(lat, lng)| {
                    leo_geomath::great_circle_distance_km(&center, &LatLng::new(lat, lng))
                })
                .fold(0.0, f64::max);
                let cq = PrePoint::new(&center);
                let dists: Vec<f64> = metros
                    .iter()
                    .map(|m| pre_distance_km(&cq, m.pre()))
                    .collect();
                let nearest = dists.iter().copied().fold(f64::INFINITY, f64::min);
                // For any p in the tile and its true nearest metro m*:
                //   d(center, m*) ≤ d(center, p) + d(p, m*)
                //                 ≤ r + d(p, m_nearest(center))
                //                 ≤ r + r + d(center, m_nearest(center)),
                // so every possible argmin lies within `nearest + 2r` of
                // the tile center; +1 km absorbs haversine rounding.
                // The candidate set therefore always contains the full
                // scan's FP argmin, making the min over candidates equal
                // (bit-for-bit) to the min over all metros.
                let cutoff = nearest + 2.0 * radius_km + 1.0;
                let tile: Vec<u16> = dists
                    .iter()
                    .enumerate()
                    .filter(|&(_, &d)| d <= cutoff)
                    .map(|(i, _)| i as u16)
                    .collect();
                candidates.push(tile);
            }
        }
        MetroIndex { metros, candidates }
    }

    /// The candidate subset for `p`, or `None` when `p` falls outside
    /// the gridded neighborhood (callers fall back to the full scan).
    fn tile_candidates(&self, p: &LatLng) -> Option<&[u16]> {
        let (lat, lng) = (p.lat_deg(), p.lng_deg());
        if !(METRO_LAT_MIN..METRO_LAT_MAX).contains(&lat)
            || !(METRO_LNG_MIN..METRO_LNG_MAX).contains(&lng)
        {
            return None;
        }
        let ti = (((lat - METRO_LAT_MIN) / METRO_TILE_DEG) as usize).min(METRO_NLAT - 1);
        let tj = (((lng - METRO_LNG_MIN) / METRO_TILE_DEG) as usize).min(METRO_NLNG - 1);
        Some(&self.candidates[ti * METRO_NLNG + tj])
    }
}

fn metro_index() -> &'static MetroIndex {
    static INDEX: OnceLock<MetroIndex> = OnceLock::new();
    INDEX.get_or_init(MetroIndex::build)
}

/// Distance (km) from a point to the nearest metro anchor.
///
/// Bit-identical to the full linear scan it replaces (the bucket grid
/// only prunes metros that provably cannot be the argmin; the surviving
/// distances are produced by the same floating-point operations).
pub fn distance_to_nearest_metro_km(p: &LatLng) -> f64 {
    let idx = metro_index();
    let q = PrePoint::new(p);
    match idx.tile_candidates(p) {
        Some(tile) => tile
            .iter()
            .map(|&i| pre_distance_km(&q, idx.metros[i as usize].pre()))
            .fold(f64::INFINITY, f64::min),
        None => idx
            .metros
            .iter()
            .map(|m| pre_distance_km(&q, m.pre()))
            .fold(f64::INFINITY, f64::min),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use leo_geomath::{AzimuthalEqualArea, PlanePoint};

    #[test]
    fn conus_polygon_is_valid_and_plausibly_sized() {
        let poly = conus_polygon();
        // CONUS is ~8.08e6 km²; the coarse trace should be within ~10%.
        let area = poly.area_km2();
        assert!(
            (7.0e6..9.0e6).contains(&area),
            "CONUS area {area:.3e} km² out of range"
        );
    }

    #[test]
    fn containment_matches_the_full_edge_scan_on_a_dense_sweep() {
        // The scan `GeoPolygon::contains` replaced, rebuilt from the
        // polygon's public parts: its bbox, the equal-area projection
        // tangent at the bbox center, and every edge of the ring.
        let poly = conus_polygon();
        let proj = AzimuthalEqualArea::new(poly.bbox().center());
        let ring: Vec<PlanePoint> = poly.ring().iter().map(|v| proj.forward(v)).collect();
        let full_scan = |p: &LatLng| {
            if !poly.bbox().contains(p) {
                return false;
            }
            let q = proj.forward(p);
            let mut inside = false;
            let mut j = ring.len() - 1;
            for i in 0..ring.len() {
                let (pi, pj) = (ring[i], ring[j]);
                if (pi.y > q.y) != (pj.y > q.y) {
                    let x_int = pj.x + (q.y - pj.y) / (pi.y - pj.y) * (pi.x - pj.x);
                    if q.x < x_int {
                        inside = !inside;
                    }
                }
                j = i;
            }
            inside
        };
        let mut probes: Vec<LatLng> = poly.ring().to_vec();
        for i in 0..=300 {
            for j in 0..=700 {
                probes.push(LatLng::new(
                    24.0 + 26.0 * i as f64 / 300.0,
                    -126.0 + 60.0 * j as f64 / 700.0,
                ));
            }
        }
        let mut inside = 0;
        for p in &probes {
            assert_eq!(poly.contains(p), full_scan(p), "{p}");
            inside += usize::from(poly.contains(p));
        }
        assert!(
            inside > probes.len() / 3,
            "{inside} of {} inside",
            probes.len()
        );
    }

    #[test]
    fn interior_points_are_inside() {
        let poly = conus_polygon();
        for &(lat, lng) in &[
            (39.5, -98.35), // Kansas
            (44.0, -120.5), // Oregon
            (32.7, -83.0),  // Georgia
            (35.0, -106.0), // New Mexico
            (41.0, -75.0),  // Pennsylvania
            (37.0, -89.5),  // the peak-demand anchor (SE Missouri)
        ] {
            assert!(poly.contains(&LatLng::new(lat, lng)), "({lat},{lng})");
        }
    }

    #[test]
    fn exterior_points_are_outside() {
        let poly = conus_polygon();
        for &(lat, lng) in &[
            (23.0, -98.0),  // Gulf of Mexico
            (51.0, -100.0), // Canada
            (36.0, -60.0),  // Atlantic
            (30.0, -125.0), // Pacific
            (19.7, -155.5), // Hawaii
            (64.8, -147.7), // Alaska
        ] {
            assert!(!poly.contains(&LatLng::new(lat, lng)), "({lat},{lng})");
        }
    }

    #[test]
    fn metro_anchors_are_inside_conus() {
        let poly = conus_polygon();
        for &(lat, lng) in METRO_CENTERS {
            assert!(poly.contains(&LatLng::new(lat, lng)), "metro ({lat},{lng})");
        }
    }

    #[test]
    fn indexed_metro_distance_is_bit_identical_to_full_scan() {
        // Dense sweep over the gridded neighborhood plus out-of-bounds
        // points (which take the fallback path). The bucket grid must
        // reproduce the naive scan's result to the last bit — the
        // remoteness rankings and goldens depend on it.
        let mut lat = 18.5;
        while lat < 58.0 {
            let mut lng = -132.5;
            while lng < -57.0 {
                let p = LatLng::new(lat, lng);
                let brute = METRO_CENTERS
                    .iter()
                    .map(|&(mlat, mlng)| {
                        leo_geomath::great_circle_distance_km(&p, &LatLng::new(mlat, mlng))
                    })
                    .fold(f64::INFINITY, f64::min);
                assert_eq!(
                    distance_to_nearest_metro_km(&p).to_bits(),
                    brute.to_bits(),
                    "mismatch at ({lat},{lng})"
                );
                lng += 0.73;
            }
            lat += 0.61;
        }
    }

    #[test]
    fn tile_edges_and_metro_coincident_points_agree_with_full_scan() {
        // Exact tile boundaries and points sitting on a metro anchor.
        let mut probes: Vec<LatLng> = vec![
            LatLng::new(20.0, -130.0),
            LatLng::new(55.999, -60.001),
            LatLng::new(40.0, -98.0),
            LatLng::new(38.0, -100.0),
        ];
        probes.extend(
            METRO_CENTERS
                .iter()
                .map(|&(lat, lng)| LatLng::new(lat, lng)),
        );
        for p in probes {
            let brute = METRO_CENTERS
                .iter()
                .map(|&(mlat, mlng)| {
                    leo_geomath::great_circle_distance_km(&p, &LatLng::new(mlat, mlng))
                })
                .fold(f64::INFINITY, f64::min);
            assert_eq!(distance_to_nearest_metro_km(&p).to_bits(), brute.to_bits());
        }
    }

    #[test]
    fn remoteness_orders_rural_above_urban() {
        let rural = LatLng::new(43.0, -107.5); // central Wyoming
        let urban = LatLng::new(40.7, -74.0); // Manhattan
        assert!(distance_to_nearest_metro_km(&rural) > 300.0);
        assert!(distance_to_nearest_metro_km(&urban) < 10.0);
    }
}
