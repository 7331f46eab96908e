//! Starlink spectrum allocations and the single-satellite capacity
//! model (Table 1 of the paper).
//!
//! Band data comes from SpaceX's amended Schedule S filing
//! (SAT-AMD-20210818-00105); the ~4.5 bits/Hz spectral-efficiency
//! estimate follows Rozenvasser & Shulakova's Starlink capacity study.

/// How a downlink band may be used.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BandUse {
    /// Downlink to user terminals only.
    UserTerminals,
    /// Flexibly assignable to user terminals or gateways.
    UserTerminalsOrGateways,
    /// Downlink to gateways only.
    Gateways,
}

/// One spectrum band of the Schedule S filing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpectrumBand {
    /// Band lower edge, GHz.
    pub lo_ghz: f64,
    /// Band upper edge, GHz.
    pub hi_ghz: f64,
    /// Number of spot beams operating in this band per satellite.
    pub beams: u32,
    /// Permitted use.
    pub usage: BandUse,
}

impl SpectrumBand {
    /// Bandwidth of this allocation, MHz.
    pub fn width_mhz(&self) -> f64 {
        (self.hi_ghz - self.lo_ghz) * 1000.0
    }
}

/// The per-satellite capacity model of Table 1.
#[derive(Debug, Clone)]
pub struct SatelliteCapacityModel {
    bands: Vec<SpectrumBand>,
    /// Spectral efficiency, bits per second per Hz.
    pub spectral_efficiency_bps_hz: f64,
    /// Beams required to deliver the full UT spectrum to one cell.
    pub beams_per_full_cell: u32,
}

impl SatelliteCapacityModel {
    /// The Schedule S band plan used throughout the paper.
    pub fn starlink() -> Self {
        SatelliteCapacityModel {
            bands: vec![
                SpectrumBand {
                    lo_ghz: 10.7,
                    hi_ghz: 12.75,
                    beams: 4,
                    usage: BandUse::UserTerminals,
                },
                SpectrumBand {
                    lo_ghz: 19.7,
                    hi_ghz: 20.2,
                    beams: 8,
                    usage: BandUse::UserTerminals,
                },
                SpectrumBand {
                    lo_ghz: 17.8,
                    hi_ghz: 18.6,
                    beams: 8,
                    usage: BandUse::UserTerminalsOrGateways,
                },
                SpectrumBand {
                    lo_ghz: 18.8,
                    hi_ghz: 19.3,
                    beams: 4,
                    usage: BandUse::UserTerminalsOrGateways,
                },
                SpectrumBand {
                    lo_ghz: 71.0,
                    hi_ghz: 76.0,
                    beams: 4,
                    usage: BandUse::Gateways,
                },
            ],
            spectral_efficiency_bps_hz: 4.5,
            beams_per_full_cell: 4,
        }
    }

    /// All bands.
    pub fn bands(&self) -> &[SpectrumBand] {
        &self.bands
    }

    /// Total downlink spectrum usable toward user terminals, MHz
    /// (3850 MHz for the Starlink plan).
    pub fn ut_downlink_mhz(&self) -> f64 {
        self.bands
            .iter()
            .filter(|b| b.usage != BandUse::Gateways)
            .map(SpectrumBand::width_mhz)
            .sum()
    }

    /// Number of beams that can carry user-terminal traffic (24).
    pub fn ut_beams(&self) -> u32 {
        self.bands
            .iter()
            .filter(|b| b.usage != BandUse::Gateways)
            .map(|b| b.beams)
            .sum()
    }

    /// Total beams per satellite (28).
    pub fn total_beams(&self) -> u32 {
        self.bands.iter().map(|b| b.beams).sum()
    }

    /// Maximum downlink capacity deliverable to one cell, Gbps —
    /// the full UT spectrum at the model's spectral efficiency
    /// (≈ 17.3 Gbps; we carry full precision, 17.325).
    pub fn max_cell_capacity_gbps(&self) -> f64 {
        self.ut_downlink_mhz() * self.spectral_efficiency_bps_hz / 1000.0
    }

    /// Capacity of a single (unspread) beam, Gbps — the full-cell
    /// capacity split across the four beams that deliver it.
    pub fn beam_capacity_gbps(&self) -> f64 {
        self.max_cell_capacity_gbps() / self.beams_per_full_cell as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_ut_spectrum_is_3850_mhz() {
        let m = SatelliteCapacityModel::starlink();
        assert!((m.ut_downlink_mhz() - 3850.0).abs() < 1e-9);
    }

    #[test]
    fn table1_total_spectrum_is_8850_mhz() {
        let m = SatelliteCapacityModel::starlink();
        let total: f64 = m.bands().iter().map(SpectrumBand::width_mhz).sum();
        assert!((total - 8850.0).abs() < 1e-9);
    }

    #[test]
    fn table1_beam_counts() {
        let m = SatelliteCapacityModel::starlink();
        assert_eq!(m.ut_beams(), 24);
        assert_eq!(m.total_beams(), 28);
    }

    #[test]
    fn table1_max_cell_capacity_is_17_3_gbps() {
        let m = SatelliteCapacityModel::starlink();
        let c = m.max_cell_capacity_gbps();
        assert!((c - 17.325).abs() < 1e-9, "capacity {c}");
        // The paper rounds to 17.3.
        assert!((c - 17.3).abs() < 0.05);
    }

    #[test]
    fn beam_capacity_is_quarter_cell() {
        let m = SatelliteCapacityModel::starlink();
        assert!((m.beam_capacity_gbps() * 4.0 - m.max_cell_capacity_gbps()).abs() < 1e-12);
    }

    #[test]
    fn band_widths_match_filing() {
        let m = SatelliteCapacityModel::starlink();
        let widths: Vec<f64> = m.bands().iter().map(SpectrumBand::width_mhz).collect();
        let expect = [2050.0, 500.0, 800.0, 500.0, 5000.0];
        for (w, e) in widths.iter().zip(expect.iter()) {
            assert!((w - e).abs() < 1e-9, "{w} vs {e}");
        }
    }

    #[test]
    fn gateway_only_band_excluded_from_ut_capacity() {
        let m = SatelliteCapacityModel::starlink();
        // 8850 total − 5000 gateway-only = 3850 UT-capable.
        let total: f64 = m.bands().iter().map(SpectrumBand::width_mhz).sum();
        assert!((total - m.ut_downlink_mhz() - 5000.0).abs() < 1e-9);
    }
}
