//! Ground gateways and satellite↔gateway connectivity.
//!
//! Starlink's second key task (paper §2.2) is "ensuring that each
//! satellite is connected to a ground station at all times, either
//! directly via wireless channel (i.e., in a bent-pipe configuration)
//! or indirectly via inter-satellite link". This module provides the
//! gateway side: a synthetic CONUS gateway fleet (SpaceX operates
//! dozens of US gateway sites), visibility between satellites and
//! gateways, and per-satellite bent-pipe feasibility at an instant.

use crate::visibility;
use leo_geomath::{pre_central_angle_rad, LatLng, PrePoint, Vec3};

/// Minimum elevation for gateway links (gateways use steerable dishes
/// and a lower mask than user terminals).
pub const GATEWAY_MIN_ELEVATION_DEG: f64 = 10.0;

/// A ground gateway site.
#[derive(Debug, Clone, Copy)]
pub struct Gateway {
    /// Site location.
    pub location: LatLng,
}

/// A synthetic CONUS gateway fleet: a coarse grid of sites across the
/// country, matching the rough density of SpaceX's published US gateway
/// footprint (~40 sites).
pub fn conus_gateways() -> Vec<Gateway> {
    const SITES: &[(f64, f64)] = &[
        (47.3, -119.5),
        (45.6, -122.9),
        (40.6, -122.4),
        (37.4, -121.9),
        (34.9, -117.0),
        (33.6, -112.4),
        (32.3, -106.8),
        (31.8, -99.3),
        (35.2, -101.7),
        (39.1, -108.3),
        (41.2, -112.0),
        (43.6, -116.2),
        (46.8, -110.9),
        (44.1, -103.2),
        (41.1, -100.7),
        (38.0, -97.3),
        (35.5, -97.5),
        (32.5, -93.7),
        (30.4, -91.1),
        (34.7, -86.6),
        (33.4, -82.1),
        (28.1, -81.8),
        (30.5, -84.3),
        (35.8, -78.6),
        (37.5, -77.4),
        (39.0, -76.8),
        (41.6, -72.7),
        (43.1, -70.8),
        (44.5, -69.7),
        (42.7, -77.6),
        (41.0, -81.4),
        (39.9, -86.3),
        (38.3, -85.8),
        (36.2, -86.7),
        (37.2, -93.3),
        (40.8, -96.7),
        (43.5, -96.7),
        (46.9, -96.8),
        (45.1, -93.5),
        (42.0, -93.6),
    ];
    SITES
        .iter()
        .map(|&(lat, lng)| Gateway {
            location: LatLng::new(lat, lng),
        })
        .collect()
}

/// A gateway fleet prepared for repeated visibility queries from one
/// shell altitude: the gateway cap angle is evaluated once, and each
/// site carries its unit vector and hoisted haversine trigonometry.
#[derive(Debug, Clone)]
pub(crate) struct GatewayView {
    lambda: f64,
    /// [`visibility::cap_dot_floor`] on the unit sphere.
    dot_floor: f64,
    altitude_km: f64,
    sites: Vec<(Vec3, PrePoint)>,
}

impl GatewayView {
    /// Prepares `gateways` for satellites at `altitude_km`.
    pub(crate) fn new(gateways: &[Gateway], altitude_km: f64) -> Self {
        let lambda = visibility::coverage_cap_angle_rad(altitude_km, GATEWAY_MIN_ELEVATION_DEG);
        GatewayView {
            lambda,
            dot_floor: visibility::cap_dot_floor(1.0, lambda),
            altitude_km,
            sites: gateways
                .iter()
                .map(|g| (g.location.to_unit_vec(), PrePoint::new(&g.location)))
                .collect(),
        }
    }

    /// Gateways visible from a satellite with sub-satellite point
    /// `ssp`, with the slant range (km) to each, in fleet order. Sites
    /// the dot prefilter puts certainly outside the cap skip the exact
    /// central-angle test.
    pub(crate) fn visible<'a>(&'a self, ssp: &LatLng) -> impl Iterator<Item = (usize, f64)> + 'a {
        let unit = ssp.to_unit_vec();
        let pre = PrePoint::new(ssp);
        let r = leo_geomath::EARTH_RADIUS_KM;
        let a = r + self.altitude_km;
        self.sites
            .iter()
            .enumerate()
            .filter_map(move |(i, (site_unit, site))| {
                if unit.dot(*site_unit) < self.dot_floor {
                    return None;
                }
                let angle = pre_central_angle_rad(&pre, site);
                if angle > self.lambda {
                    return None;
                }
                // Slant range via the law of cosines on the central angle.
                let range = (r * r + a * a - 2.0 * r * a * angle.cos()).sqrt();
                Some((i, range))
            })
    }

    /// The nearest visible gateway, if any (the first on ties).
    pub(crate) fn nearest(&self, ssp: &LatLng) -> Option<(usize, f64)> {
        self.visible(ssp)
            .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
    }
}

/// The nearest visible gateway, if any.
pub fn nearest_gateway(
    gateways: &[Gateway],
    ssp: &LatLng,
    altitude_km: f64,
) -> Option<(usize, f64)> {
    GatewayView::new(gateways, altitude_km).nearest(ssp)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_size_is_realistic() {
        assert_eq!(conus_gateways().len(), 40);
    }

    #[test]
    fn satellite_over_kansas_sees_gateways() {
        let gws = conus_gateways();
        let vis: Vec<_> = GatewayView::new(&gws, 550.0)
            .visible(&LatLng::new(39.0, -98.0))
            .collect();
        assert!(vis.len() >= 3, "only {} gateways visible", vis.len());
        // All ranges are between the altitude and the horizon range.
        for (_, range) in &vis {
            assert!(*range >= 550.0 && *range < 2600.0, "range {range}");
        }
    }

    #[test]
    fn satellite_over_mid_atlantic_sees_none() {
        let gws = conus_gateways();
        let view = GatewayView::new(&gws, 550.0);
        assert!(view.visible(&LatLng::new(35.0, -50.0)).next().is_none());
    }

    #[test]
    fn nearest_is_minimal() {
        let gws = conus_gateways();
        let ssp = LatLng::new(40.0, -100.0);
        let view = GatewayView::new(&gws, 550.0);
        let nearest = view.nearest(&ssp).unwrap();
        let all = view.visible(&ssp);
        for (_, range) in all {
            assert!(nearest.1 <= range + 1e-9);
        }
    }

    #[test]
    fn overhead_gateway_range_is_altitude() {
        let gws = vec![Gateway {
            location: LatLng::new(40.0, -100.0),
        }];
        let (_, range) = nearest_gateway(&gws, &LatLng::new(40.0, -100.0), 550.0).unwrap();
        assert!((range - 550.0).abs() < 1e-6);
    }
}
