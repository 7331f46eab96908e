//! Dataset digests: one structural digest per generated demand dataset.
//!
//! Generates the demand dataset at small and paper scale for seeds 7, 2
//! and 2024 and prints one FNV-1a digest line per dataset. Each digest
//! covers every demand cell's id, center bits, count and county id,
//! the US cell count, and the whole county table. Seed 7 at paper scale
//! backs the committed artifacts; the other five datasets appear in no
//! artifact, so `results/dataset_digests.txt` pins them instead.
//!
//! ```sh
//! cargo run --release --example dataset_digest | diff - results/dataset_digests.txt
//! ```

use starlink_divide_repro::cache::KeyHasher;
use starlink_divide_repro::demand::{BroadbandDataset, SynthConfig};

fn digest(ds: &BroadbandDataset) -> u64 {
    let mut h = KeyHasher::new();
    let cols = &ds.cols;
    h.write_u64(ds.cells.len() as u64);
    for (i, cell) in ds.cells.iter().enumerate() {
        h.write_u64(cell.as_u64());
        h.write_f64(cols.lat_deg[i]);
        h.write_f64(cols.lng_deg[i]);
        h.write_u64(cols.locations[i]);
        h.write_u32(cols.county[i]);
    }
    h.write_u64(ds.us_cell_count as u64);
    h.write_u64(ds.counties.len() as u64);
    for c in &ds.counties {
        h.write_u32(c.id);
        h.write_f64(c.seat.lat_deg());
        h.write_f64(c.seat.lng_deg());
        h.write_f64(c.median_income_usd);
        h.write_u64(c.locations);
        h.write_f64(c.remoteness_km);
    }
    h.finish()
}

fn main() {
    for (scale, base) in [
        ("small", SynthConfig::small()),
        ("paper", SynthConfig::paper()),
    ] {
        for seed in [7, 2, 2024] {
            let config = SynthConfig {
                seed,
                ..base.clone()
            };
            let ds = BroadbandDataset::generate(&config);
            println!(
                "{scale} seed={seed} cells={} locations={} digest={:016x}",
                ds.cells.len(),
                ds.total_locations,
                digest(&ds)
            );
        }
    }
}
