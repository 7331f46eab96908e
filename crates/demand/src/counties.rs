//! Synthetic counties: seats, Voronoi-by-seat geography, incomes.
//!
//! The US has ~3,100 counties; the paper assigns every location the
//! median household income of its county. We generate county **seats**
//! by seeded rejection sampling inside the CONUS polygon and define a
//! county as the Voronoi region of its seat — every demand cell joins
//! the county whose seat is nearest to the cell center. County median
//! incomes come from the location-weighted calibration in
//! [`crate::income`], ordered by remoteness so rural counties skew
//! poor, as in the Census data the paper uses.

use leo_geomath::{
    dot_for_radius_km, pre_distance_km, GeoPolygon, LatLng, PrePoint, UnitPoint, Vec3,
    DOT_RERANK_MARGIN,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A synthetic county.
#[derive(Debug, Clone)]
pub struct County {
    /// Index into the dataset's county table.
    pub id: u32,
    /// The county seat (Voronoi site).
    pub seat: LatLng,
    /// Median annual household income, USD.
    pub median_income_usd: f64,
    /// Total un(der)served locations in the county.
    pub locations: u64,
    /// Distance from the seat to the nearest metro anchor, km.
    pub remoteness_km: f64,
}

/// Generates `n` county seats uniformly inside `poly` (seeded rejection
/// sampling from the polygon's bounding box).
pub fn generate_seats(seed: u64, n: usize, poly: &GeoPolygon) -> Vec<LatLng> {
    let bbox = *poly.bbox();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(n);
    // Rejection sampling: CONUS fills ~55% of its bbox, so this
    // terminates quickly; the attempt cap guards degenerate polygons.
    let mut attempts = 0usize;
    while out.len() < n && attempts < n * 1000 {
        attempts += 1;
        let p = LatLng::new(
            rng.gen_range(bbox.lat_min..bbox.lat_max),
            rng.gen_range(bbox.lng_min..bbox.lng_max),
        );
        if poly.contains(&p) {
            out.push(p);
        }
    }
    assert_eq!(out.len(), n, "rejection sampling failed to fill {n} seats");
    out
}

/// Tile size of the seat bucket grid, degrees.
const SEAT_TILE_DEG: f64 = 1.0;
/// Conservative km-per-degree used for window padding (slightly below
/// the true ~111.195, so pads are generous).
const KM_PER_DEG: f64 = 111.19;
/// The expanding search rings, km.
const SEAT_RINGS: [f64; 7] = [80.0, 160.0, 320.0, 640.0, 1280.0, 2560.0, 5120.0];

/// Nearest-seat lookup structure (the Voronoi assignment).
///
/// Seats are fixed at construction, so the index precomputes each
/// seat's geocentric unit vector and hoisted haversine trigonometry
/// and stores the seats in a flat lat/lng bucket grid (compressed
/// rows: one id and unit-vector array in tile order, plus each tile's
/// start). A query walks the grid window in expanding rings, *selects*
/// by dot product (five flops per candidate, no trig), then re-ranks
/// the near-best candidates with the exact haversine so the returned
/// id matches the one the full trig scan would have picked.
#[derive(Debug)]
pub struct SeatIndex {
    seats: Vec<LatLng>,
    pres: Vec<PrePoint>,
    lat_min: f64,
    lng_min: f64,
    nlat: usize,
    nlng: usize,
    /// Tile `t` (row-major `ti * nlng + tj`) holds
    /// `tile_ids[tile_start[t]..tile_start[t + 1]]`, in seat order.
    tile_start: Vec<u32>,
    tile_ids: Vec<u32>,
    /// Unit vector of the seat at the same slot of `tile_ids`.
    tile_units: Vec<Vec3>,
}

impl SeatIndex {
    /// Builds the lookup over `seats`.
    pub fn new(seats: Vec<LatLng>) -> Self {
        let pres: Vec<PrePoint> = seats.iter().map(PrePoint::new).collect();
        let mut lat_lo = f64::INFINITY;
        let mut lat_hi = f64::NEG_INFINITY;
        let mut lng_lo = f64::INFINITY;
        let mut lng_hi = f64::NEG_INFINITY;
        for s in &seats {
            lat_lo = lat_lo.min(s.lat_deg());
            lat_hi = lat_hi.max(s.lat_deg());
            lng_lo = lng_lo.min(s.lng_deg());
            lng_hi = lng_hi.max(s.lng_deg());
        }
        if seats.is_empty() {
            lat_lo = 0.0;
            lat_hi = 0.0;
            lng_lo = 0.0;
            lng_hi = 0.0;
        }
        let lat_min = lat_lo.floor();
        let lng_min = lng_lo.floor();
        let nlat = (((lat_hi - lat_min) / SEAT_TILE_DEG) as usize) + 1;
        let nlng = (((lng_hi - lng_min) / SEAT_TILE_DEG) as usize) + 1;
        let mut buckets = vec![Vec::new(); nlat * nlng];
        for (i, s) in seats.iter().enumerate() {
            let ti = (((s.lat_deg() - lat_min) / SEAT_TILE_DEG) as usize).min(nlat - 1);
            let tj = (((s.lng_deg() - lng_min) / SEAT_TILE_DEG) as usize).min(nlng - 1);
            buckets[ti * nlng + tj].push(i as u32);
        }
        // Flatten the buckets, keeping tile order and, within a tile,
        // seat order: the order a window scan visits them in.
        let mut tile_start = vec![0u32];
        let mut tile_ids = Vec::with_capacity(seats.len());
        for bucket in buckets {
            tile_ids.extend(bucket);
            tile_start.push(tile_ids.len() as u32);
        }
        let tile_units = tile_ids
            .iter()
            .map(|&i| seats[i as usize].to_unit_vec())
            .collect();
        SeatIndex {
            seats,
            pres,
            lat_min,
            lng_min,
            nlat,
            nlng,
            tile_start,
            tile_ids,
            tile_units,
        }
    }

    /// Visits, as `(dot, id)`, every seat whose tile intersects the
    /// window of `radius_km` around `p` (conservatively padded), with
    /// the dot product of its unit vector and `qu`. Tiles are visited
    /// row by row, each row's tiles as one contiguous slot range.
    fn for_each_in_window(
        &self,
        p: &LatLng,
        qu: Vec3,
        radius_km: f64,
        f: &mut impl FnMut(f64, u32),
    ) {
        let lat_pad = radius_km / KM_PER_DEG;
        let cos_lat = p.lat_rad().cos().max(0.05);
        let lng_pad = radius_km / (KM_PER_DEG * cos_lat);
        let clamp_ti = |v: f64, n: usize| (v.floor() as i64).clamp(0, n as i64 - 1) as usize;
        let ti_lo = clamp_ti(
            (p.lat_deg() - lat_pad - self.lat_min) / SEAT_TILE_DEG,
            self.nlat,
        );
        let ti_hi = clamp_ti(
            (p.lat_deg() + lat_pad - self.lat_min) / SEAT_TILE_DEG,
            self.nlat,
        );
        let tj_lo = clamp_ti(
            (p.lng_deg() - lng_pad - self.lng_min) / SEAT_TILE_DEG,
            self.nlng,
        );
        let tj_hi = clamp_ti(
            (p.lng_deg() + lng_pad - self.lng_min) / SEAT_TILE_DEG,
            self.nlng,
        );
        for ti in ti_lo..=ti_hi {
            let row = ti * self.nlng;
            let slots =
                self.tile_start[row + tj_lo] as usize..self.tile_start[row + tj_hi + 1] as usize;
            for (&id, &u) in self.tile_ids[slots.clone()]
                .iter()
                .zip(&self.tile_units[slots])
            {
                f(qu.dot(u), id);
            }
        }
    }

    /// The id of the seat nearest to `p`.
    ///
    /// Expanding-radius search: with ~3,100 seats over CONUS the mean
    /// seat spacing is ~50 km, so the first ring nearly always hits.
    ///
    /// The re-rank takes every scanned candidate whose dot product is
    /// within [`DOT_RERANK_MARGIN`] of the best, in scan order, and
    /// returns the one with the least exact haversine distance (strict
    /// `<`, so the first in scan order wins a tie). Instead of keeping
    /// the scanned candidates, it re-scans the same windows in the
    /// same order once the best dot product is known.
    pub fn nearest(&self, p: &LatLng) -> u32 {
        let q = UnitPoint::new(p);
        let qu = q.unit();
        let mut best: Option<f64> = None;
        for (ring, &radius) in SEAT_RINGS.iter().enumerate() {
            self.for_each_in_window(p, qu, radius, &mut |d, _| {
                if best.is_none_or(|bd| d > bd) {
                    best = Some(d);
                }
            });
            // A hit is only conclusive if it's closer than the scanned
            // radius (a nearer seat could lie just outside otherwise).
            if let Some(bd) = best {
                if bd >= dot_for_radius_km(radius) {
                    return self.rerank(p, &q, bd, &SEAT_RINGS[..=ring]);
                }
            }
        }
        // Fall back to brute force (unreachable for CONUS-scale data).
        let (_, id) = self
            .pres
            .iter()
            .enumerate()
            .map(|(i, s)| (pre_distance_km(q.pre(), s), i))
            .fold(
                (f64::INFINITY, 0),
                |acc, x| if x.0 < acc.0 { x } else { acc },
            );
        id as u32
    }

    /// Exact-haversine re-rank over the windows of `rings`, scanned in
    /// order: of the seats whose dot product came within
    /// [`DOT_RERANK_MARGIN`] of `best_dot`, the one the full haversine
    /// scan would have returned, at the cost of a handful of trig
    /// evaluations.
    fn rerank(&self, p: &LatLng, q: &UnitPoint, best_dot: f64, rings: &[f64]) -> u32 {
        let mut best: Option<(f64, u32)> = None;
        for &radius in rings {
            self.for_each_in_window(p, q.unit(), radius, &mut |dot, id| {
                if dot > best_dot - DOT_RERANK_MARGIN {
                    let d = pre_distance_km(q.pre(), &self.pres[id as usize]);
                    if best.is_none_or(|(bd, _)| d < bd) {
                        best = Some((d, id));
                    }
                }
            });
        }
        best.map_or(0, |(_, id)| id)
    }

    /// The seats.
    pub fn seats(&self) -> &[LatLng] {
        &self.seats
    }
}

/// Orders county ids from most to least remote, with seeded jitter so
/// the income gradient isn't a perfect function of metro distance.
/// The `i`-th distance is county `i`'s: from its seat to the nearest
/// metro anchor ([`crate::geography::distance_to_nearest_metro_km`]).
pub fn remoteness_ranking(seed: u64, remoteness_km: impl IntoIterator<Item = f64>) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed ^ RANK_SEED_SALT);
    let mut scored: Vec<(f64, usize)> = remoteness_km
        .into_iter()
        .enumerate()
        .map(|(i, remote)| {
            // ±15% multiplicative jitter.
            let jitter = 1.0 + rng.gen_range(-0.15..0.15);
            (-remote * jitter, i)
        })
        .collect();
    scored.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
    scored.into_iter().map(|(_, i)| i).collect()
}

/// Salt decorrelating the ranking jitter from other seeded streams.
const RANK_SEED_SALT: u64 = 0x5eed_c0de;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geography::{conus_polygon, distance_to_nearest_metro_km};

    #[test]
    fn seats_fall_inside_the_polygon() {
        let poly = conus_polygon();
        let seats = generate_seats(11, 300, &poly);
        assert_eq!(seats.len(), 300);
        for s in &seats {
            assert!(poly.contains(s));
        }
    }

    #[test]
    fn seat_generation_is_deterministic() {
        let poly = conus_polygon();
        let a = generate_seats(5, 50, &poly);
        let b = generate_seats(5, 50, &poly);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.lat_deg(), y.lat_deg());
            assert_eq!(x.lng_deg(), y.lng_deg());
        }
    }

    fn brute_nearest(seats: &[LatLng], p: &LatLng) -> u32 {
        seats
            .iter()
            .enumerate()
            .min_by(|a, b| {
                let da = leo_geomath::great_circle_distance_km(p, a.1);
                let db = leo_geomath::great_circle_distance_km(p, b.1);
                da.partial_cmp(&db).unwrap()
            })
            .unwrap()
            .0 as u32
    }

    #[test]
    fn nearest_matches_brute_force() {
        let poly = conus_polygon();
        let seats = generate_seats(23, 500, &poly);
        let idx = SeatIndex::new(seats.clone());
        for &(lat, lng) in &[(39.5, -98.3), (45.0, -69.0), (31.0, -84.0), (47.0, -120.0)] {
            let p = LatLng::new(lat, lng);
            assert_eq!(idx.nearest(&p), brute_nearest(&seats, &p), "({lat},{lng})");
        }
    }

    #[test]
    fn nearest_matches_brute_force_on_dense_sweep() {
        // A dense sweep over CONUS plus far-outside probes (fallback
        // path). The dot-product selection with haversine re-rank must
        // agree with the naive trig scan everywhere.
        let poly = conus_polygon();
        let seats = generate_seats(41, 700, &poly);
        let idx = SeatIndex::new(seats.clone());
        let mut lat = 24.0;
        while lat < 50.0 {
            let mut lng = -126.0;
            while lng < -65.0 {
                let p = LatLng::new(lat, lng);
                assert_eq!(idx.nearest(&p), brute_nearest(&seats, &p), "({lat},{lng})");
                lng += 2.3;
            }
            lat += 1.7;
        }
        for &(lat, lng) in &[(70.0, -150.0), (-10.0, -98.0), (39.0, 20.0)] {
            let p = LatLng::new(lat, lng);
            assert_eq!(idx.nearest(&p), brute_nearest(&seats, &p), "({lat},{lng})");
        }
    }

    /// The query `SeatIndex::nearest` replaced: one scan that keeps
    /// every candidate within the re-rank margin of the best so far in
    /// a list, then re-ranks the list.
    fn nearest_with_candidate_list(idx: &SeatIndex, p: &LatLng) -> u32 {
        let q = UnitPoint::new(p);
        let mut best: Option<(f64, u32)> = None;
        let mut near: Vec<(f64, u32)> = Vec::new();
        for radius in SEAT_RINGS {
            idx.for_each_in_window(p, q.unit(), radius, &mut |d, id| {
                if best.is_none_or(|(bd, _)| d > bd - DOT_RERANK_MARGIN) {
                    near.push((d, id));
                }
                if best.is_none_or(|(bd, _)| d > bd) {
                    best = Some((d, id));
                }
            });
            if let Some((bd, _)) = best {
                if bd >= dot_for_radius_km(radius) {
                    let mut pick: Option<(f64, u32)> = None;
                    for &(dot, id) in &near {
                        if dot > bd - DOT_RERANK_MARGIN {
                            let d = pre_distance_km(q.pre(), &idx.pres[id as usize]);
                            if pick.is_none_or(|(pd, _)| d < pd) {
                                pick = Some((d, id));
                            }
                        }
                    }
                    return pick.map_or(0, |(_, id)| id);
                }
            }
        }
        brute_nearest(idx.seats(), p)
    }

    #[test]
    fn rescanning_rerank_matches_the_candidate_list_including_ties() {
        // Every seventh seat appears twice, so some queries tie exactly
        // between two ids; the lower id must win, as in the brute scan.
        let poly = conus_polygon();
        let mut seats = generate_seats(17, 400, &poly);
        let copies: Vec<LatLng> = seats.iter().step_by(7).copied().collect();
        seats.extend(copies);
        let idx = SeatIndex::new(seats.clone());
        let mut probes = seats.clone();
        let mut lat = 24.5;
        while lat < 49.5 {
            let mut lng = -125.0;
            while lng < -66.0 {
                probes.push(LatLng::new(lat, lng));
                lng += 0.9;
            }
            lat += 0.7;
        }
        for p in &probes {
            let got = idx.nearest(p);
            assert_eq!(got, nearest_with_candidate_list(&idx, p), "{p}");
            assert_eq!(got, brute_nearest(&seats, p), "{p}");
        }
    }

    #[test]
    fn rerank_takes_the_haversine_winner_of_a_dot_near_tie() {
        // Two seats about 30 m from the query that the two kernels
        // order differently: A has the larger dot product (by one ulp),
        // B the smaller haversine distance (by about 0.7 nm). Only the
        // re-rank margin admits B to the exact re-rank.
        let p = LatLng::new(39.5, -98.35);
        let a = LatLng::new(39.50021475810587, -98.34978836015279);
        let b = LatLng::new(39.49999293703613, -98.34965047290655);
        let qu = UnitPoint::new(&p).unit();
        assert!(
            qu.dot(a.to_unit_vec()) > qu.dot(b.to_unit_vec()),
            "A wins on dot"
        );
        let seats = vec![a, b];
        assert_eq!(brute_nearest(&seats, &p), 1, "B wins on haversine");
        assert_eq!(SeatIndex::new(seats).nearest(&p), 1);
    }

    #[test]
    fn nearest_of_a_seat_is_itself() {
        // Querying exactly at a seat exercises the re-rank margin (dot
        // ≈ 1.0 admits km-scale neighbors; the exact haversine must
        // still pick the zero-distance seat).
        let poly = conus_polygon();
        let seats = generate_seats(5, 400, &poly);
        let idx = SeatIndex::new(seats.clone());
        for (i, s) in seats.iter().enumerate() {
            assert_eq!(idx.nearest(s), i as u32, "seat {i}");
        }
    }

    fn remoteness(seats: &[LatLng]) -> Vec<f64> {
        seats.iter().map(distance_to_nearest_metro_km).collect()
    }

    #[test]
    fn remoteness_ranking_is_a_permutation() {
        let poly = conus_polygon();
        let seats = generate_seats(3, 200, &poly);
        let rank = remoteness_ranking(3, remoteness(&seats));
        let mut sorted = rank.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..200).collect::<Vec<_>>());
    }

    #[test]
    fn remote_counties_rank_before_metro_counties() {
        // Construct two synthetic seats: one in Wyoming, one in Manhattan.
        let seats = vec![LatLng::new(41.0, -108.5), LatLng::new(40.7, -74.0)];
        let rank = remoteness_ranking(1, remoteness(&seats));
        assert_eq!(rank[0], 0, "Wyoming should rank most remote");
    }
}
