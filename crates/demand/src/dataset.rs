//! Assembly of the full synthetic broadband dataset.
//!
//! [`BroadbandDataset::generate`] ties the pieces together:
//!
//! 1. polyfill the CONUS polygon with resolution-5 service cells;
//! 2. pin the six anchor cells at their calibrated locations;
//! 3. draw the remaining per-cell counts from the calibrated quantile
//!    curve and place them spatially via the remoteness-plus-noise
//!    score (big counts land in rural clusters);
//! 4. generate county seats, assign each demand cell to its nearest
//!    seat (Voronoi), and calibrate county incomes;
//! 5. optionally scatter individual location points inside each cell.
//!
//! The dataset keeps its demand cells once, as columns: the ascending
//! id column [`BroadbandDataset::cells`] and the value columns
//! [`DatasetColumns`] parallel to it. A [`CellDemand`] row is built on
//! demand ([`BroadbandDataset::cell`], [`BroadbandDataset::rows`]) and
//! never stored (DESIGN.md §14).
//!
//! Everything is deterministic in the seed **and in the thread count**:
//! two runs of the same config produce identical datasets, which the
//! statistical pins and benches rely on. The expensive stages (the
//! polyfill's lattice rows, cell scoring, county assignment, location
//! scatter) fan out through `leo-parallel`, and every random draw comes
//! from a per-cell stream derived with [`leo_parallel::mix64`] — the
//! value drawn for a cell depends only on `(seed, cell id)`, never on
//! which worker visited it or in what order.

use crate::counties::{generate_seats, remoteness_ranking, County, SeatIndex};
use crate::counts::CountCalibration;
use crate::field::{SmoothField, SCORE_EPS, SCORE_EPS_MAX_BUMPS, SCORE_EPS_MIN_SCALE_KM};
use crate::geography;
use crate::income::assign_county_incomes;
use leo_geomath::{GeoBBox, GeoPolygon, LatLng};
use leo_hexgrid::{CellId, GeoHexGrid, STARLINK_RESOLUTION};
use leo_parallel::{mix64, par_append, par_map};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::sync::OnceLock;

/// Configuration for dataset synthesis.
#[derive(Debug, Clone)]
pub struct SynthConfig {
    /// Seed for every random stream in the generator.
    pub seed: u64,
    /// Demand calibration targets.
    pub calibration: CountCalibration,
    /// Number of synthetic counties.
    pub n_counties: usize,
}

impl SynthConfig {
    /// Full paper-scale configuration (~4.67 M locations, ~20 k demand
    /// cells, 3,108 counties).
    pub fn paper() -> Self {
        SynthConfig {
            seed: 7,
            calibration: CountCalibration::paper(),
            n_counties: 3108,
        }
    }

    /// Reduced configuration for fast tests (~120 k locations); anchors
    /// and shape are preserved, so findings stay qualitatively
    /// identical.
    pub fn small() -> Self {
        SynthConfig {
            seed: 7,
            calibration: CountCalibration::small(),
            n_counties: 600,
        }
    }
}

/// One demand cell as a row: its id, center, count and county. The
/// dataset stores its cells as columns; [`BroadbandDataset::cell`] and
/// [`BroadbandDataset::rows`] build rows from them on demand.
#[derive(Debug, Clone, Copy)]
pub struct CellDemand {
    /// The hex cell.
    pub cell: CellId,
    /// Cell center.
    pub center: LatLng,
    /// Un(der)served locations in the cell.
    pub locations: u64,
    /// County id of the cell (by nearest seat to the center).
    pub county: u32,
}

/// One broadband serviceable location.
#[derive(Debug, Clone, Copy)]
pub struct Location {
    /// Position.
    pub position: LatLng,
    /// Containing service cell.
    pub cell: CellId,
    /// County id (inherited from the cell).
    pub county: u32,
}

/// The value columns of the demand cells (struct-of-arrays).
///
/// Every vector is parallel to [`BroadbandDataset::cells`]: index `i`
/// of each column belongs to cell `cells[i]`, so the columns are in
/// ascending cell-id order. The hot scans — the Fig 2 served-fraction
/// sweep, the sensitivity unserved folds, the Fig 1 CDF/map series —
/// run over these contiguous `u64`/`f64` slices, which LLVM can
/// autovectorize. The columnar snapshot container (`leo-cache` LEOSNAP
/// v2) persists exactly these vectors, so warm decode is a handful of
/// bulk reads.
#[derive(Debug, Clone, Default)]
pub struct DatasetColumns {
    /// Cell-center latitudes, degrees.
    pub lat_deg: Vec<f64>,
    /// Cell-center longitudes, degrees.
    pub lng_deg: Vec<f64>,
    /// Un(der)served locations per cell.
    pub locations: Vec<u64>,
    /// County id per cell.
    pub county: Vec<u32>,
}

impl DatasetColumns {
    /// Σ max(locations − limit, 0): locations left unserved when every
    /// cell can serve at most `limit`. This is the sensitivity / tail
    /// hot fold — one branch-free pass over the contiguous counts
    /// column.
    pub fn unserved_above(&self, limit: u64) -> u64 {
        self.locations
            .iter()
            .map(|&c| c.saturating_sub(limit))
            .sum()
    }
}

/// The synthetic national broadband dataset.
#[derive(Debug)]
pub struct BroadbandDataset {
    /// The service-cell grid.
    pub grid: GeoHexGrid,
    /// Ids of the demand cells (≥ 1 un(der)served location), strictly
    /// ascending.
    pub cells: Vec<CellId>,
    /// The cells' centers, counts and counties, parallel to `cells`.
    pub cols: DatasetColumns,
    /// Total number of US service cells (including zero-demand cells,
    /// which still require coverage beams).
    pub us_cell_count: usize,
    /// Counties, indexed by id.
    pub counties: Vec<County>,
    /// Total un(der)served locations (Σ over cells).
    pub total_locations: u64,
    /// Cached ascending per-cell counts (the Fig 1 CDF view), built on
    /// first use. The Fig 2 sweep binary-searches this vector at every
    /// grid point; recomputing the 20k-element sort per call dominated
    /// the sweep's profile.
    sorted: OnceLock<Vec<u64>>,
}

impl BroadbandDataset {
    /// Assembles a dataset from its cell ids and the value columns
    /// parallel to them. This is the one constructor: generation,
    /// snapshot decode and the buildout scenario all end here. The ids
    /// must be strictly ascending. The total location count and the
    /// lazy sorted-counts cache are derived here.
    pub fn from_columns(
        grid: GeoHexGrid,
        cells: Vec<CellId>,
        cols: DatasetColumns,
        us_cell_count: usize,
        counties: Vec<County>,
    ) -> Self {
        let n = cells.len();
        debug_assert!(
            cols.lat_deg.len() == n
                && cols.lng_deg.len() == n
                && cols.locations.len() == n
                && cols.county.len() == n,
            "columns are not parallel to the cell ids"
        );
        debug_assert!(cells.windows(2).all(|w| w[0] < w[1]));
        let total_locations = cols.locations.iter().sum();
        BroadbandDataset {
            grid,
            cells,
            cols,
            us_cell_count,
            counties,
            total_locations,
            sorted: OnceLock::new(),
        }
    }

    /// Generates the dataset for `config`. Deterministic in the seed.
    /// Each internal stage reports a `demand.*` span and counters to
    /// `leo-obs`; the instrumentation only feeds the run manifest and
    /// never touches the generated data.
    pub fn generate(config: &SynthConfig) -> Self {
        let _span = leo_obs::span!("demand.generate");
        let grid = GeoHexGrid::starlink();
        let poly = geography::conus_polygon();
        // Every US cell with its center, sorted by id. A cell is named
        // by its position in this list from here on: the center is
        // computed once, here, and every later step reads it.
        let us_cells = {
            let _span = leo_obs::span!("demand.polyfill");
            polyfill_on_pool(&grid, &poly)
        };
        let us_cell_count = us_cells.len();
        // Locations per US cell, by position; 0 marks a cell without
        // demand.
        let mut counts = vec![0u64; us_cell_count];

        // -- Anchor cells -------------------------------------------------
        for a in &config.calibration.anchors {
            let id = grid.cell_for(&LatLng::new(a.lat, a.lng), STARLINK_RESOLUTION);
            let pos = us_cells
                .binary_search_by_key(&id, |&(cell, _)| cell)
                .unwrap_or_else(|_| panic!("anchor {a:?} lies outside the CONUS polygon"));
            assert!(a.count > 0, "anchor {a:?} has no locations");
            assert!(counts[pos] == 0, "anchor cells collide at {id}");
            counts[pos] = a.count;
        }

        // -- Regular cells ------------------------------------------------
        // Rank every candidate cell; demand concentrates at the top.
        let candidates: Vec<u32> = (0..us_cell_count as u32)
            .filter(|&pos| counts[pos as usize] == 0)
            .collect();
        let ranked = {
            let _span = leo_obs::span!("demand.score_cells");
            rank_candidates(config.seed, poly.bbox(), &us_cells, &candidates)
        };

        let regular = config.calibration.regular_counts(); // ascending
        assert!(
            regular.len() <= ranked.len(),
            "calibration demands {} cells but only {} are available",
            regular.len(),
            ranked.len()
        );
        // Latitude-banded assignment. The un(der)served long tail in
        // the paper's data lives in the mid-latitude rural-poverty belt
        // (Appalachia, the Ozarks, the northern plains): cells dense
        // enough to need multiple dedicated beams do not occur in the
        // far south. Encoding that keeps the constellation-sizing
        // bound anchored at the calibrated peak cells (DESIGN.md §4):
        // a multi-beam cell at a low latitude (where a 53° shell is
        // sparse) would otherwise out-bind them.
        //   ≥ 1,733 locations (3-beam class at 20:1) → 35.5° N and up;
        //   ≥   867 locations (2-beam class)         → 33.7° N and up;
        //   1-beam cells                              → anywhere.
        // The thresholds are exactly where a multi-beam cell's sizing
        // bound would overtake the calibrated anchors' (the 36.43° N
        // capped peak and the 37.0° N full-service peak), preserving
        // Fig 3's clean first step.
        let _assign_span = leo_obs::span!("demand.assign_counts");
        let band_for_count = |count: u64| -> usize {
            if count >= 1733 {
                0
            } else if count >= 867 {
                1
            } else {
                2
            }
        };
        let min_lat = [35.5, 33.7, f64::NEG_INFINITY];
        let mut band_cells: [VecDeque<u32>; 3] = Default::default();
        for &pos in &ranked {
            let lat = us_cells[pos as usize].1.lat_deg();
            // Each cell is eligible for the *narrowest* band it
            // satisfies, keeping northern cells available for big
            // counts: walk bands from most to least restrictive.
            let band = if lat >= min_lat[0] {
                0
            } else if lat >= min_lat[1] {
                1
            } else {
                2
            };
            band_cells[band].push_back(pos);
        }
        // Largest counts first, each drawing from its band, falling
        // back to stricter (more northern) bands when its own runs dry.
        for &count in regular.iter().rev() {
            let want = band_for_count(count);
            // A southern-band count may use a northern cell, never the
            // reverse.
            let pos = (0..=want)
                .rev()
                .find_map(|band| band_cells[band].pop_front())
                .unwrap_or_else(|| panic!("ran out of cells for count {count}"));
            counts[pos as usize] = count;
        }

        // -- Counties -----------------------------------------------------
        drop(_assign_span);
        let _county_span = leo_obs::span!("demand.counties");
        let seats = generate_seats(config.seed ^ 0xC0FFEE, config.n_counties, &poly);
        let seat_index = SeatIndex::new(seats);
        // The demand columns in one pass over the US cells, already in
        // id order; only the Voronoi county lookup (the expensive part)
        // fans out. Its `par_map` output is the county column, so that
        // column is not reserved here.
        let n_cells = counts.iter().filter(|&&n| n > 0).count();
        let mut cells = Vec::with_capacity(n_cells);
        let mut cols = DatasetColumns {
            lat_deg: Vec::with_capacity(n_cells),
            lng_deg: Vec::with_capacity(n_cells),
            locations: Vec::with_capacity(n_cells),
            county: Vec::new(),
        };
        for (&(cell, center), &n) in us_cells.iter().zip(&counts) {
            if n > 0 {
                cells.push(cell);
                cols.lat_deg.push(center.lat_deg());
                cols.lng_deg.push(center.lng_deg());
                cols.locations.push(n);
            }
        }
        cols.county = par_map(&cells, |i, _| {
            seat_index.nearest(&LatLng::from_canonical_degrees(
                cols.lat_deg[i],
                cols.lng_deg[i],
            ))
        });

        let mut county_weights = vec![0u64; config.n_counties];
        for (&c, &n) in cols.county.iter().zip(&cols.locations) {
            county_weights[c as usize] += n;
        }
        // The county table first, each seat's metro distance computed
        // once in it: the remoteness ranking that orders the incomes
        // reads the distances from the table, and the incomes fill it.
        let mut counties: Vec<County> = seat_index
            .seats()
            .iter()
            .enumerate()
            .map(|(i, seat)| County {
                id: i as u32,
                seat: *seat,
                median_income_usd: 0.0,
                locations: county_weights[i],
                remoteness_km: geography::distance_to_nearest_metro_km(seat),
            })
            .collect();
        let ranking = remoteness_ranking(config.seed, counties.iter().map(|c| c.remoteness_km));
        let incomes = assign_county_incomes(&county_weights, &ranking);
        for (county, income) in counties.iter_mut().zip(incomes) {
            county.median_income_usd = income;
        }
        drop(_county_span);

        let ds = Self::from_columns(grid, cells, cols, us_cell_count, counties);
        leo_obs::metrics::counter_add("demand.us_cells", ds.us_cell_count as u64);
        leo_obs::metrics::counter_add("demand.cells", ds.cells.len() as u64);
        leo_obs::metrics::counter_add("demand.locations", ds.total_locations);
        ds
    }

    /// Per-cell location counts, ascending (the Fig 1 distribution).
    /// Computed once and cached; every caller (coverage sweep, tail
    /// curves, demand stats) borrows the one copy.
    pub fn sorted_counts(&self) -> &[u64] {
        self.sorted.get_or_init(|| {
            let mut v = self.cols.locations.clone();
            v.sort_unstable();
            v
        })
    }

    /// Seeds the sorted-counts cache with an already-sorted vector
    /// (snapshot decode paths, which persist the sorted view so a warm
    /// run skips even the 20k-element sort). No-op if the cache is
    /// already built. The vector must be exactly what `sorted_counts`
    /// would compute — ascending, one entry per demand cell.
    pub fn prime_sorted_counts(&self, sorted: Vec<u64>) {
        debug_assert_eq!(sorted.len(), self.cells.len());
        debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
        let _ = self.sorted.set(sorted);
    }

    /// Demand cell `i` as a row. The center is reconstituted from the
    /// stored canonical degrees bit-for-bit.
    pub fn cell(&self, i: usize) -> CellDemand {
        CellDemand {
            cell: self.cells[i],
            center: LatLng::from_canonical_degrees(self.cols.lat_deg[i], self.cols.lng_deg[i]),
            locations: self.cols.locations[i],
            county: self.cols.county[i],
        }
    }

    /// The demand cells as rows, in ascending id order.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = CellDemand> + '_ {
        (0..self.cells.len()).map(move |i| self.cell(i))
    }

    /// The cell with the most un(der)served locations.
    pub fn peak_cell(&self) -> CellDemand {
        self.peak_cell_at_most(u64::MAX)
            .expect("dataset has at least one cell")
    }

    /// The cell with the most locations at or below `limit` — the
    /// binding cell of a capped deployment scenario. Ties go to the
    /// larger cell id, which is the later position.
    pub fn peak_cell_at_most(&self, limit: u64) -> Option<CellDemand> {
        let (i, _) = self
            .cols
            .locations
            .iter()
            .enumerate()
            .filter(|&(_, &n)| n <= limit)
            .max_by_key(|&(i, &n)| (n, i))?;
        Some(self.cell(i))
    }

    /// Scatters individual location points inside each cell
    /// (deterministic in `seed` and thread count: each cell draws from
    /// its own `mix64(seed, cell)` stream). Points are placed uniformly
    /// within ~95 % of the cell's in-radius so that re-binning through
    /// the grid provably recovers the per-cell counts.
    pub fn scatter_locations(&self, seed: u64) -> Vec<Location> {
        let _span = leo_obs::span!("demand.scatter");
        let inradius = self.grid.center_spacing_km(STARLINK_RESOLUTION) / 2.0 * 0.95;
        let per_cell = par_map(&self.cells, |i, _| {
            let c = self.cell(i);
            let mut rng = StdRng::seed_from_u64(mix64(seed, c.cell.as_u64()));
            (0..c.locations)
                .map(|_| {
                    let bearing = rng.gen_range(0.0..360.0);
                    let radius = inradius * rng.gen_range(0.0f64..1.0).sqrt();
                    Location {
                        position: leo_geomath::destination(&c.center, bearing, radius),
                        cell: c.cell,
                        county: c.county,
                    }
                })
                .collect::<Vec<Location>>()
        });
        let mut out = Vec::with_capacity(self.total_locations as usize);
        for chunk in per_cell {
            out.extend(chunk);
        }
        out
    }
}

/// [`GeoHexGrid::polyfill`] of `poly` at the Starlink resolution, with
/// its lattice rows fanned out over the worker pool. Each chunk of rows
/// appends its cells to one buffer, and the buffers join in row order,
/// so the sort by id gets the serial scan's sequence and the result is
/// `polyfill`'s bit for bit at any thread count.
pub fn polyfill_on_pool(grid: &GeoHexGrid, poly: &GeoPolygon) -> Vec<(CellId, LatLng)> {
    let rows = grid.polyfill_rows(poly, STARLINK_RESOLUTION);
    let mut cells = par_append(rows.count(), |row, out| rows.scan(row, out));
    cells.sort_unstable_by_key(|&(id, _)| id);
    cells
}

/// Bump count and radius range (km) of the demand field. [`SCORE_EPS`]
/// is derived for fields inside these limits.
const FIELD_BUMPS: usize = 80;
const FIELD_SCALE_KM: (f64, f64) = (80.0, 450.0);
const _: () =
    assert!(FIELD_BUMPS <= SCORE_EPS_MAX_BUMPS && FIELD_SCALE_KM.0 >= SCORE_EPS_MIN_SCALE_KM);

/// Ranks candidate cells for demand: highest score first, ties broken
/// by cell id. `cells` holds cells with their centers (the output of
/// [`GeoHexGrid::polyfill`]), `candidates` the positions in `cells` to
/// rank, and the result is those positions in rank order. A cell's
/// score is a smooth rural-cluster field over `bbox` plus a remoteness
/// ramp plus seeded jitter. The jitter comes from a per-cell stream
/// (`mix64` of the seed and the cell id) rather than one sequential
/// RNG, so the scoring fans out across workers and the order is the
/// same at any thread count.
///
/// The order is exactly that of sorting the exact scores
/// ([`SmoothField::value`]). Each cell is scored with
/// [`SmoothField::approx_value`], within [`SCORE_EPS`] of its exact
/// score, and [`certify_order`] re-scores exactly only the cells whose
/// neighbours in the order are too close to call (DESIGN.md §18).
pub fn rank_candidates(
    seed: u64,
    bbox: &GeoBBox,
    cells: &[(CellId, LatLng)],
    candidates: &[u32],
) -> Vec<u32> {
    let field = SmoothField::new(seed, bbox, FIELD_BUMPS, FIELD_SCALE_KM);
    let jitter_seed = seed.wrapping_mul(0x9E37_79B9);
    let score = |id: CellId, c: &LatLng, field_value: f64| {
        let remote = geography::distance_to_nearest_metro_km(c);
        let mut rng = StdRng::seed_from_u64(mix64(jitter_seed, id.as_u64()));
        field_value + 0.6 * (remote / 400.0).min(2.0) + rng.gen_range(0.0..0.35)
    };
    let mut scored = par_map(candidates, |_, &pos| {
        let (id, c) = cells[pos as usize];
        (score(id, &c, field.approx_value(c.to_unit_vec())), id, pos)
    });
    sort_by_score(&mut scored);
    let exact = certify_order(&mut scored, SCORE_EPS, |id, &pos| {
        let c = &cells[pos as usize].1;
        score(id, c, field.value(c))
    });
    leo_obs::metrics::counter_add("demand.cells_scored", candidates.len() as u64);
    leo_obs::metrics::counter_add("demand.score_exact", exact);
    scored.into_iter().map(|(_, _, pos)| pos).collect()
}

/// Sorts highest score first, ties broken by cell id: the order of
/// `partial_cmp` on the scores, then the ids.
///
/// The sort is by one `u128` key per item ([`score_key`]). It is
/// unstable, which gives the same order because no two items share
/// both score and id. Every score must be finite and non-negative, as
/// demand scores are.
fn sort_by_score<T>(scored: &mut [(f64, CellId, T)]) {
    assert!(
        scored.iter().all(|s| s.0.is_finite() && s.0 >= 0.0),
        "a demand score is negative or not finite"
    );
    scored.sort_unstable_by_key(|&(score, id, _)| score_key(score, id));
}

/// The sort key of a finite, non-negative score and its id: ascending
/// keys are descending scores, then ascending ids. The bits of such a
/// score grow with its value, so the key puts their complement above
/// the id.
fn score_key(score: f64, id: CellId) -> u128 {
    // `partial_cmp` calls −0.0 and +0.0 equal, and an empty field sum
    // is −0.0: give both the key of +0.0.
    let bits = if score == 0.0 { 0 } else { score.to_bits() };
    (u128::from(!bits) << 64) | u128::from(id.as_u64())
}

/// Turns an order by approximate scores into the order by exact ones.
///
/// `scored` must be sorted highest score first, ties by id, and each
/// score must be within `eps` of what `exact` returns for its item.
/// Every maximal run of neighbours whose adjacent gaps are at most
/// `2·eps` is re-scored with `exact` and re-sorted. Across a wider gap
/// the exact scores already differ in the same direction, so the
/// result is the order a sort by `(exact score desc, id asc)` gives.
/// Ids must be distinct and scores finite and non-negative. Returns the
/// number of exact evaluations.
pub fn certify_order<T>(
    scored: &mut [(f64, CellId, T)],
    eps: f64,
    mut exact: impl FnMut(CellId, &T) -> f64,
) -> u64 {
    let mut rescored = 0;
    let mut start = 0;
    for end in 1..=scored.len() {
        if end < scored.len() && scored[end - 1].0 - scored[end].0 <= 2.0 * eps {
            continue;
        }
        let run = &mut scored[start..end];
        if run.len() > 1 {
            for item in run.iter_mut() {
                item.0 = exact(item.1, &item.2);
            }
            sort_by_score(run);
            rescored += run.len() as u64;
        }
        start = end;
    }
    rescored
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::quantile_sorted;

    fn small() -> BroadbandDataset {
        BroadbandDataset::generate(&SynthConfig::small())
    }

    #[test]
    fn small_dataset_totals() {
        let ds = small();
        assert_eq!(ds.total_locations, 120_000);
        assert_eq!(
            ds.rows().map(|c| c.locations).sum::<u64>(),
            ds.total_locations
        );
        assert!(ds.us_cell_count > ds.cells.len());
    }

    #[test]
    fn peak_cell_is_the_anchor() {
        let ds = small();
        let peak = ds.peak_cell();
        assert_eq!(peak.locations, 5998);
        assert!(
            (peak.center.lat_deg() - 37.0).abs() < 0.2,
            "{}",
            peak.center
        );
    }

    #[test]
    fn capped_peak_is_the_servable_anchor() {
        let ds = small();
        let p = ds.peak_cell_at_most(3465).unwrap();
        assert_eq!(p.locations, 3460);
        assert!((p.center.lat_deg() - 36.43).abs() < 0.2, "{}", p.center);
    }

    #[test]
    fn cells_are_sorted_and_unique() {
        let ds = small();
        for w in ds.cells.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn counties_cover_all_cells() {
        let ds = small();
        for &county in &ds.cols.county {
            assert!((county as usize) < ds.counties.len());
        }
        let assigned: u64 = ds.counties.iter().map(|c| c.locations).sum();
        assert_eq!(assigned, ds.total_locations);
    }

    #[test]
    fn incomes_are_calibrated_by_weight() {
        let ds = small();
        let below: u64 = ds
            .rows()
            .filter(|c| ds.counties[c.county as usize].median_income_usd < 72_000.0)
            .map(|c| c.locations)
            .sum();
        let frac = below as f64 / ds.total_locations as f64;
        // County granularity quantizes the CDF; allow a few points.
        assert!((frac - 0.745).abs() < 0.05, "below-72k fraction {frac}");
    }

    #[test]
    fn generation_is_deterministic() {
        let a = small();
        let b = small();
        assert_eq!(a.cells, b.cells);
        assert_eq!(a.cols.locations, b.cols.locations);
        assert_eq!(a.cols.county, b.cols.county);
    }

    #[test]
    fn scattered_locations_rebin_to_their_cells() {
        let ds = small();
        let locations = ds.scatter_locations(99);
        assert_eq!(locations.len() as u64, ds.total_locations);
        // Every 500th point (for speed): binning through the grid
        // recovers the assigned cell.
        for loc in locations.iter().step_by(500) {
            let rebinned = ds.grid.cell_for(&loc.position, STARLINK_RESOLUTION);
            assert_eq!(rebinned, loc.cell);
        }
    }

    #[test]
    fn center_columns_equal_cell_center_bit_for_bit() {
        let ds = small();
        for (i, &cell) in ds.cells.iter().enumerate() {
            let c = ds.grid.cell_center(cell);
            assert_eq!(ds.cols.lat_deg[i].to_bits(), c.lat_deg().to_bits(), "{i}");
            assert_eq!(ds.cols.lng_deg[i].to_bits(), c.lng_deg().to_bits(), "{i}");
        }
    }

    #[test]
    fn pooled_row_fan_out_equals_polyfill_bit_for_bit() {
        use leo_parallel::with_threads;
        let grid = GeoHexGrid::starlink();
        let poly = geography::conus_polygon();
        let bits = |cells: &[(CellId, LatLng)]| -> Vec<(CellId, u64, u64)> {
            cells
                .iter()
                .map(|&(id, c)| (id, c.lat_deg().to_bits(), c.lng_deg().to_bits()))
                .collect()
        };
        let serial = bits(&grid.polyfill(&poly, STARLINK_RESOLUTION));
        for threads in [1, 2, 4] {
            let pooled = with_threads(threads, || polyfill_on_pool(&grid, &poly));
            assert_eq!(bits(&pooled), serial, "threads {threads}");
        }
    }

    #[test]
    #[should_panic(expected = "lies outside the CONUS polygon")]
    fn an_anchor_outside_the_polygon_fails_fast() {
        let mut config = SynthConfig::small();
        // The Atlantic, 500 km east of Cape Hatteras.
        config.calibration.anchors[2].lat = 35.0;
        config.calibration.anchors[2].lng = -70.0;
        BroadbandDataset::generate(&config);
    }

    #[test]
    fn the_score_key_orders_like_partial_cmp_then_id() {
        let id = |v: u64| CellId::from_u64(v).unwrap();
        let up = |x: f64| f64::from_bits(x.to_bits() + 1);
        let cases: [&[(f64, u64)]; 5] = [
            // Equal scores, different ids.
            &[(1.5, 9), (1.5, 3), (1.5, 7), (2.0, 8)],
            // +0.0 against −0.0: equal, so the id decides.
            &[
                (0.0, 4),
                (-0.0, 2),
                (0.0, 1),
                (-0.0, 3),
                (f64::MIN_POSITIVE, 5),
            ],
            // Adjacent floats, a subnormal and the extremes.
            &[(1.0, 1), (up(1.0), 2), (up(up(1.0)), 3), (up(1.0), 0)],
            &[(f64::MAX, 3), (5e-324, 5), (0.0, 6), (f64::MIN_POSITIVE, 1)],
            &[],
        ];
        for case in cases {
            let mut keyed: Vec<(f64, CellId, ())> =
                case.iter().map(|&(s, i)| (s, id(i), ())).collect();
            let mut compared = keyed.clone();
            sort_by_score(&mut keyed);
            compared.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap().then(a.1.cmp(&b.1)));
            let ids = |v: &[(f64, CellId, ())]| v.iter().map(|x| x.1).collect::<Vec<_>>();
            assert_eq!(ids(&keyed), ids(&compared), "{case:?}");
        }
    }

    #[test]
    #[should_panic(expected = "negative or not finite")]
    fn a_non_finite_score_fails_the_sort() {
        let mut scored = vec![
            (1.0, CellId::from_u64(1).unwrap(), ()),
            (f64::NAN, CellId::from_u64(2).unwrap(), ()),
        ];
        sort_by_score(&mut scored);
    }

    #[test]
    fn columnar_peak_scans_match_row_major_scans() {
        let ds = small();
        let peak = ds.peak_cell();
        let naive = ds.rows().max_by_key(|c| (c.locations, c.cell)).unwrap();
        assert_eq!(peak.cell, naive.cell);
        for limit in [0, 100, 3465, 5000, u64::MAX] {
            let a = ds.peak_cell_at_most(limit).map(|c| c.cell);
            let b = ds
                .rows()
                .filter(|c| c.locations <= limit)
                .max_by_key(|c| (c.locations, c.cell))
                .map(|c| c.cell);
            assert_eq!(a, b, "limit {limit}");
        }
    }

    #[test]
    fn columnar_unserved_fold_matches_row_major_fold() {
        let ds = small();
        for limit in [0u64, 1, 61, 552, 1437, 5998, u64::MAX] {
            let naive: u64 = ds.rows().map(|c| c.locations.saturating_sub(limit)).sum();
            assert_eq!(ds.cols.unserved_above(limit), naive, "limit {limit}");
        }
    }

    #[test]
    fn small_quantiles_keep_the_shape() {
        // The small config scales volume, not shape: p90/p99 of regular
        // cells still follow the curve.
        let ds = small();
        let counts = ds.sorted_counts();
        let p90 = quantile_sorted(counts, 0.90);
        // Anchors are a larger share at small scale; allow wide bands.
        assert!((300..900).contains(&p90), "p90 {p90}");
        // The cached view is the per-cell counts sorted ascending, and
        // every call borrows the same copy.
        let mut fresh: Vec<u64> = ds.rows().map(|c| c.locations).collect();
        fresh.sort_unstable();
        assert_eq!(counts, &fresh[..]);
        assert!(std::ptr::eq(counts, ds.sorted_counts()));
    }
}
