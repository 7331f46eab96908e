//! Geographic bounding boxes.

use crate::latlng::LatLng;

/// An axis-aligned latitude/longitude bounding box.
///
/// Boxes never cross the antimeridian: the US geography model operates
/// in western longitudes only, so `lng_min <= lng_max` always holds.
/// (Alaska's Aleutian tail crossing 180° is clipped by the synthetic
/// geography, which DESIGN.md documents as an accepted simplification —
/// no un(der)served-location statistics in the paper depend on it.)
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeoBBox {
    /// Southern edge, degrees.
    pub lat_min: f64,
    /// Northern edge, degrees.
    pub lat_max: f64,
    /// Western edge, degrees.
    pub lng_min: f64,
    /// Eastern edge, degrees.
    pub lng_max: f64,
}

impl GeoBBox {
    /// Creates a bounding box; panics in debug builds if inverted.
    pub fn new(lat_min: f64, lat_max: f64, lng_min: f64, lng_max: f64) -> Self {
        debug_assert!(lat_min <= lat_max && lng_min <= lng_max);
        GeoBBox {
            lat_min,
            lat_max,
            lng_min,
            lng_max,
        }
    }

    /// The empty box (inverted bounds); use with [`GeoBBox::expand`].
    pub fn empty() -> Self {
        GeoBBox {
            lat_min: f64::INFINITY,
            lat_max: f64::NEG_INFINITY,
            lng_min: f64::INFINITY,
            lng_max: f64::NEG_INFINITY,
        }
    }

    /// Grows the box to include `p`.
    pub fn expand(&mut self, p: &LatLng) {
        self.lat_min = self.lat_min.min(p.lat_deg());
        self.lat_max = self.lat_max.max(p.lat_deg());
        self.lng_min = self.lng_min.min(p.lng_deg());
        self.lng_max = self.lng_max.max(p.lng_deg());
    }

    /// Whether `p` lies inside (inclusive of edges).
    pub fn contains(&self, p: &LatLng) -> bool {
        p.lat_deg() >= self.lat_min
            && p.lat_deg() <= self.lat_max
            && p.lng_deg() >= self.lng_min
            && p.lng_deg() <= self.lng_max
    }

    /// Center point of the box.
    pub fn center(&self) -> LatLng {
        LatLng::new(
            (self.lat_min + self.lat_max) / 2.0,
            (self.lng_min + self.lng_max) / 2.0,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contains_and_edges() {
        let b = GeoBBox::new(30.0, 40.0, -100.0, -90.0);
        assert!(b.contains(&LatLng::new(35.0, -95.0)));
        assert!(b.contains(&LatLng::new(30.0, -100.0)));
        assert!(b.contains(&LatLng::new(40.0, -90.0)));
        assert!(!b.contains(&LatLng::new(29.999, -95.0)));
        assert!(!b.contains(&LatLng::new(35.0, -89.999)));
    }

    #[test]
    fn expand_from_empty() {
        let mut b = GeoBBox::empty();
        b.expand(&LatLng::new(10.0, 20.0));
        b.expand(&LatLng::new(-5.0, 30.0));
        assert_eq!(b.lat_min, -5.0);
        assert_eq!(b.lat_max, 10.0);
        assert_eq!(b.lng_min, 20.0);
        assert_eq!(b.lng_max, 30.0);
    }

    #[test]
    fn center_is_the_midpoint() {
        let c = GeoBBox::new(0.0, 30.0, 0.0, 30.0).center();
        assert_eq!(c.lat_deg(), 15.0);
        assert_eq!(c.lng_deg(), 15.0);
    }
}
