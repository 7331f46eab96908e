//! Chart types for the paper's figures.
//!
//! [`LineChart`] renders Figs 1 (CDF), 3 (step curves), and 4 (CDFs);
//! [`Heatmap`] renders Fig 2; [`PointMap`] renders Fig 1's national
//! map. Everything produces standalone SVG via [`crate::svg`].

use crate::error::ReportError;
use crate::svg::{ramp_color_into, SvgDoc, PALETTE};

const MARGIN_L: f64 = 70.0;
const MARGIN_R: f64 = 20.0;
const MARGIN_T: f64 = 36.0;
const MARGIN_B: f64 = 52.0;

/// "Nice" tick positions covering `[lo, hi]` with about `n` ticks.
fn ticks(lo: f64, hi: f64, n: usize) -> Vec<f64> {
    // `partial_cmp` keeps the NaN-tolerant behaviour of `!(hi > lo)`.
    if hi.partial_cmp(&lo) != Some(std::cmp::Ordering::Greater) || n == 0 {
        return vec![lo];
    }
    let raw = (hi - lo) / n as f64;
    let mag = 10f64.powf(raw.log10().floor());
    let norm = raw / mag;
    let step = if norm < 1.5 {
        1.0
    } else if norm < 3.0 {
        2.0
    } else if norm < 7.0 {
        5.0
    } else {
        10.0
    } * mag;
    let first = (lo / step).ceil() * step;
    let mut out = Vec::new();
    let mut t = first;
    while t <= hi + step * 1e-9 {
        out.push(t);
        t += step;
    }
    out
}

fn fmt_tick(v: f64) -> String {
    if v.abs() >= 1e6 {
        format!("{:.1}M", v / 1e6)
    } else if v.abs() >= 1e4 {
        format!("{:.0}k", v / 1e3)
    } else if v.fract().abs() < 1e-9 {
        format!("{v:.0}")
    } else {
        format!("{v:.2}")
    }
}

/// One plotted series.
#[derive(Debug, Clone)]
pub struct Series {
    /// Legend label.
    pub label: String,
    /// Data points.
    pub points: Vec<(f64, f64)>,
    /// Render as a step function (horizontal-then-vertical).
    pub step: bool,
}

impl Series {
    /// A plain line series.
    pub fn line(label: impl Into<String>, points: Vec<(f64, f64)>) -> Self {
        Series {
            label: label.into(),
            points,
            step: false,
        }
    }

    /// A step series.
    pub fn steps(label: impl Into<String>, points: Vec<(f64, f64)>) -> Self {
        Series {
            label: label.into(),
            points,
            step: true,
        }
    }
}

/// A multi-series XY chart.
#[derive(Debug, Clone)]
pub struct LineChart {
    /// Chart title.
    pub title: String,
    /// X-axis label.
    pub x_label: String,
    /// Y-axis label.
    pub y_label: String,
    /// Series to draw.
    pub series: Vec<Series>,
    /// Reverse the x axis (Fig 3 counts unserved locations downward).
    pub reverse_x: bool,
}

impl LineChart {
    /// Creates an empty chart.
    pub fn new(
        title: impl Into<String>,
        x_label: impl Into<String>,
        y_label: impl Into<String>,
    ) -> Self {
        LineChart {
            title: title.into(),
            x_label: x_label.into(),
            y_label: y_label.into(),
            series: Vec::new(),
            reverse_x: false,
        }
    }

    /// Adds a series.
    pub fn push(&mut self, s: Series) -> &mut Self {
        self.series.push(s);
        self
    }

    fn bounds(&self) -> (f64, f64, f64, f64) {
        let mut xmin = f64::INFINITY;
        let mut xmax = f64::NEG_INFINITY;
        let mut ymin = f64::INFINITY;
        let mut ymax = f64::NEG_INFINITY;
        for s in &self.series {
            for &(x, y) in &s.points {
                xmin = xmin.min(x);
                xmax = xmax.max(x);
                ymin = ymin.min(y);
                ymax = ymax.max(y);
            }
        }
        if !xmin.is_finite() {
            return (0.0, 1.0, 0.0, 1.0);
        }
        if xmin == xmax {
            xmax = xmin + 1.0;
        }
        if ymin == ymax {
            ymax = ymin + 1.0;
        }
        // Pad y range 5%.
        let pad = (ymax - ymin) * 0.05;
        (xmin, xmax, (ymin - pad).min(ymin), ymax + pad)
    }

    /// Renders to SVG text.
    pub fn render(&self, width: f64, height: f64) -> String {
        let mut doc = SvgDoc::new(width, height);
        let (xmin, xmax, ymin, ymax) = self.bounds();
        let pw = width - MARGIN_L - MARGIN_R;
        let ph = height - MARGIN_T - MARGIN_B;
        let sx = |x: f64| {
            let t = (x - xmin) / (xmax - xmin);
            let t = if self.reverse_x { 1.0 - t } else { t };
            MARGIN_L + t * pw
        };
        let sy = |y: f64| MARGIN_T + (1.0 - (y - ymin) / (ymax - ymin)) * ph;

        // Frame and grid.
        doc.rect(MARGIN_L, MARGIN_T, pw, ph, "#fbfbfb", Some("#444444"));
        for t in ticks(xmin, xmax, 6) {
            let x = sx(t);
            doc.line(x, MARGIN_T, x, MARGIN_T + ph, "#dddddd", 0.5);
            doc.line(x, MARGIN_T + ph, x, MARGIN_T + ph + 4.0, "#444444", 1.0);
            doc.text(x, MARGIN_T + ph + 16.0, &fmt_tick(t), 11.0, "middle");
        }
        for t in ticks(ymin, ymax, 6) {
            let y = sy(t);
            doc.line(MARGIN_L, y, MARGIN_L + pw, y, "#dddddd", 0.5);
            doc.line(MARGIN_L - 4.0, y, MARGIN_L, y, "#444444", 1.0);
            doc.text(MARGIN_L - 7.0, y + 4.0, &fmt_tick(t), 11.0, "end");
        }
        doc.text(width / 2.0, 18.0, &self.title, 14.0, "middle");
        doc.text(
            MARGIN_L + pw / 2.0,
            height - 14.0,
            &self.x_label,
            12.0,
            "middle",
        );
        doc.vtext(18.0, MARGIN_T + ph / 2.0, &self.y_label, 12.0);

        // Series.
        for (i, s) in self.series.iter().enumerate() {
            let color = PALETTE[i % PALETTE.len()];
            let mut pts: Vec<(f64, f64)> = Vec::new();
            let mut sorted = s.points.clone();
            sorted.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
            for (k, &(x, y)) in sorted.iter().enumerate() {
                if s.step && k > 0 {
                    // Horizontal segment at the previous level first.
                    let prev_y = sorted[k - 1].1;
                    pts.push((sx(x), sy(prev_y)));
                }
                pts.push((sx(x), sy(y)));
            }
            doc.polyline(&pts, color, 1.8);
            // Legend swatch.
            let ly = MARGIN_T + 14.0 + 16.0 * i as f64;
            doc.line(
                MARGIN_L + pw - 120.0,
                ly,
                MARGIN_L + pw - 100.0,
                ly,
                color,
                2.5,
            );
            doc.text(MARGIN_L + pw - 95.0, ly + 4.0, &s.label, 11.0, "start");
        }
        doc.finish()
    }
}

/// A grid heatmap over integer axes (Fig 2).
#[derive(Debug, Clone)]
pub struct Heatmap {
    /// Chart title.
    pub title: String,
    /// X-axis label.
    pub x_label: String,
    /// Y-axis label.
    pub y_label: String,
    /// X axis values (columns).
    pub xs: Vec<u32>,
    /// Y axis values (rows).
    pub ys: Vec<u32>,
    /// `values[yi][xi]` in `[vmin, vmax]`.
    pub values: Vec<Vec<f64>>,
}

impl Heatmap {
    /// Renders to SVG text with a color ramp legend. Panics on
    /// malformed data; use [`Heatmap::try_render`] to get an error
    /// instead.
    pub fn render(&self, width: f64, height: f64) -> String {
        self.try_render(width, height)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Renders to SVG text, rejecting empty or mis-shaped grids with a
    /// [`ReportError`] instead of panicking or emitting NaN geometry.
    pub fn try_render(&self, width: f64, height: f64) -> Result<String, ReportError> {
        if self.ys.is_empty() || self.values.is_empty() {
            return Err(ReportError::EmptyData {
                what: "heatmap rows",
            });
        }
        if self.xs.is_empty() {
            return Err(ReportError::EmptyData {
                what: "heatmap columns",
            });
        }
        if self.values.len() != self.ys.len() {
            return Err(ReportError::ShapeMismatch {
                what: "row count mismatch",
                expected: self.ys.len(),
                got: self.values.len(),
            });
        }
        for row in &self.values {
            if row.len() != self.xs.len() {
                return Err(ReportError::ShapeMismatch {
                    what: "column count mismatch",
                    expected: self.xs.len(),
                    got: row.len(),
                });
            }
        }
        let mut doc = SvgDoc::new(width, height);
        let legend_w = 56.0;
        let pw = width - MARGIN_L - MARGIN_R - legend_w;
        let ph = height - MARGIN_T - MARGIN_B;
        let vmin = self
            .values
            .iter()
            .flatten()
            .cloned()
            .fold(f64::INFINITY, f64::min);
        let vmax = self
            .values
            .iter()
            .flatten()
            .cloned()
            .fold(f64::NEG_INFINITY, f64::max);
        let span = (vmax - vmin).max(1e-12);
        let cw = pw / self.xs.len() as f64;
        let ch = ph / self.ys.len() as f64;
        let mut color = String::with_capacity(7);
        for (yi, row) in self.values.iter().enumerate() {
            for (xi, &v) in row.iter().enumerate() {
                let t = (v - vmin) / span;
                color.clear();
                ramp_color_into(t, &mut color);
                // Row 0 at the bottom (y axis increases upward).
                let y = MARGIN_T + ph - (yi as f64 + 1.0) * ch;
                doc.rect(
                    MARGIN_L + xi as f64 * cw,
                    y,
                    cw + 0.5,
                    ch + 0.5,
                    &color,
                    None,
                );
            }
        }
        // Axis labels at a readable density.
        let xstep = (self.xs.len() / 10).max(1);
        for (xi, &x) in self.xs.iter().enumerate().step_by(xstep) {
            doc.text(
                MARGIN_L + (xi as f64 + 0.5) * cw,
                MARGIN_T + ph + 16.0,
                &x.to_string(),
                11.0,
                "middle",
            );
        }
        let ystep = (self.ys.len() / 10).max(1);
        for (yi, &y) in self.ys.iter().enumerate().step_by(ystep) {
            doc.text(
                MARGIN_L - 7.0,
                MARGIN_T + ph - (yi as f64 + 0.5) * ch + 4.0,
                &y.to_string(),
                11.0,
                "end",
            );
        }
        doc.text(width / 2.0, 18.0, &self.title, 14.0, "middle");
        doc.text(
            MARGIN_L + pw / 2.0,
            height - 14.0,
            &self.x_label,
            12.0,
            "middle",
        );
        doc.vtext(18.0, MARGIN_T + ph / 2.0, &self.y_label, 12.0);
        // Color legend.
        let lx = MARGIN_L + pw + 16.0;
        let bands = 48;
        for k in 0..bands {
            let t = k as f64 / (bands - 1) as f64;
            let y = MARGIN_T + ph * (1.0 - t);
            color.clear();
            ramp_color_into(t, &mut color);
            doc.rect(
                lx,
                y - ph / bands as f64,
                16.0,
                ph / bands as f64 + 0.5,
                &color,
                None,
            );
        }
        doc.text(
            lx + 20.0,
            MARGIN_T + 10.0,
            &format!("{vmax:.2}"),
            10.0,
            "start",
        );
        doc.text(
            lx + 20.0,
            MARGIN_T + ph,
            &format!("{vmin:.2}"),
            10.0,
            "start",
        );
        Ok(doc.finish())
    }
}

/// A geographic point map (Fig 1): points sized/colored by weight over
/// a lat/lng extent.
#[derive(Debug, Clone)]
pub struct PointMap {
    /// Chart title.
    pub title: String,
    /// `(lat, lng, weight)` points.
    pub points: Vec<(f64, f64, u64)>,
}

impl PointMap {
    /// Renders an equirectangular scatter of the points, color ramped
    /// by `log(weight)`.
    pub fn render(&self, width: f64, height: f64) -> String {
        let mut doc = SvgDoc::new(width, height);
        doc.text(width / 2.0, 18.0, &self.title, 14.0, "middle");
        if self.points.is_empty() {
            return doc.finish();
        }
        let (mut lat0, mut lat1) = (f64::INFINITY, f64::NEG_INFINITY);
        let (mut lng0, mut lng1) = (f64::INFINITY, f64::NEG_INFINITY);
        let mut wmax = 1u64;
        for &(lat, lng, w) in &self.points {
            lat0 = lat0.min(lat);
            lat1 = lat1.max(lat);
            lng0 = lng0.min(lng);
            lng1 = lng1.max(lng);
            wmax = wmax.max(w);
        }
        let pw = width - 40.0;
        let ph = height - 60.0;
        let sx = |lng: f64| 20.0 + (lng - lng0) / (lng1 - lng0).max(1e-9) * pw;
        let sy = |lat: f64| 30.0 + (1.0 - (lat - lat0) / (lat1 - lat0).max(1e-9)) * ph;
        let lmax = (wmax as f64).ln().max(1e-9);
        // One reused color buffer for the ~20k-point paper-scale map,
        // and one up-front body reservation (a circle element runs
        // ~58 bytes; 64 leaves headroom so the body never reallocates).
        doc.reserve(self.points.len() * 64);
        let mut color = String::with_capacity(7);
        for &(lat, lng, w) in &self.points {
            let t = (w.max(1) as f64).ln() / lmax;
            color.clear();
            ramp_color_into(t, &mut color);
            doc.circle(sx(lng), sy(lat), 1.1 + 2.2 * t, &color);
        }
        doc.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ticks_are_nice_and_cover_range() {
        let t = ticks(0.0, 100.0, 5);
        assert!(t.contains(&0.0) && t.contains(&100.0), "{t:?}");
        for w in t.windows(2) {
            assert!((w[1] - w[0] - 20.0).abs() < 1e-9);
        }
        let t2 = ticks(0.37, 0.94, 5);
        assert!(t2.len() >= 3);
        assert!(t2.iter().all(|&v| (0.37..=0.94001).contains(&v)));
    }

    #[test]
    fn tick_formatting() {
        assert_eq!(fmt_tick(5.0), "5");
        assert_eq!(fmt_tick(50_000.0), "50k");
        assert_eq!(fmt_tick(3_500_000.0), "3.5M");
        assert_eq!(fmt_tick(0.75), "0.75");
    }

    #[test]
    fn line_chart_renders_all_series() {
        let mut c = LineChart::new("T", "x", "y");
        c.push(Series::line("a", vec![(0.0, 0.0), (1.0, 1.0)]));
        c.push(Series::steps("b", vec![(0.0, 2.0), (1.0, 1.0)]));
        let svg = c.render(640.0, 400.0);
        assert!(svg.contains("<svg"));
        assert_eq!(svg.matches("polyline").count(), 2);
        assert!(svg.contains(">a<") && svg.contains(">b<"));
    }

    #[test]
    fn empty_chart_does_not_panic() {
        let c = LineChart::new("empty", "x", "y");
        let svg = c.render(300.0, 200.0);
        assert!(svg.contains("</svg>"));
    }

    #[test]
    fn heatmap_renders_cells() {
        let h = Heatmap {
            title: "H".into(),
            x_label: "x".into(),
            y_label: "y".into(),
            xs: vec![1, 2, 3],
            ys: vec![1, 2],
            values: vec![vec![0.0, 0.5, 1.0], vec![1.0, 0.5, 0.0]],
        };
        let svg = h.render(500.0, 300.0);
        // 6 data cells + background + legend bands.
        assert!(svg.matches("<rect").count() >= 7);
        assert!(svg.contains("1.00") && svg.contains("0.00"));
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn heatmap_validates_shape() {
        let h = Heatmap {
            title: String::new(),
            x_label: String::new(),
            y_label: String::new(),
            xs: vec![1, 2],
            ys: vec![1],
            values: vec![vec![0.0]],
        };
        let _ = h.render(100.0, 100.0);
    }

    #[test]
    fn heatmap_zero_rows_errors_gracefully() {
        let h = Heatmap {
            title: String::new(),
            x_label: String::new(),
            y_label: String::new(),
            xs: vec![1, 2],
            ys: vec![],
            values: vec![],
        };
        let err = h.try_render(100.0, 100.0).unwrap_err();
        assert_eq!(
            err,
            ReportError::EmptyData {
                what: "heatmap rows"
            }
        );
    }

    #[test]
    fn heatmap_try_render_matches_render() {
        let h = Heatmap {
            title: "H".into(),
            x_label: "x".into(),
            y_label: "y".into(),
            xs: vec![1, 2],
            ys: vec![1],
            values: vec![vec![0.25, 0.75]],
        };
        assert_eq!(h.try_render(300.0, 200.0).unwrap(), h.render(300.0, 200.0));
    }

    #[test]
    fn point_map_scales_points() {
        let m = PointMap {
            title: "map".into(),
            points: vec![(30.0, -100.0, 1), (45.0, -80.0, 1000)],
        };
        let svg = m.render(600.0, 400.0);
        assert_eq!(svg.matches("<circle").count(), 2);
    }

    #[test]
    fn reversed_x_flips_coordinates() {
        let mut a = LineChart::new("", "", "");
        a.push(Series::line("s", vec![(0.0, 0.0), (10.0, 1.0)]));
        let normal = a.render(400.0, 300.0);
        a.reverse_x = true;
        let reversed = a.render(400.0, 300.0);
        assert_ne!(normal, reversed);
    }
}
