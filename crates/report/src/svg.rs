//! A tiny SVG document builder.
//!
//! Just enough of SVG to draw the paper's figures: rectangles, lines,
//! polylines, circles, and text, with a fixed coordinate system. All
//! attribute values are numeric or from internal palettes, so no
//! escaping machinery is needed beyond text content.

use crate::num::{push_fixed, push_hex_byte};
use std::fmt::Write as _;

/// An SVG document under construction: the whole document so far, from
/// its `<svg>` header on, in one buffer that [`SvgDoc::finish`] closes
/// and hands over without a copy.
#[derive(Debug, Clone)]
pub struct SvgDoc {
    body: String,
}

/// Escapes text content.
fn esc(text: &str) -> String {
    text.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

impl SvgDoc {
    /// Creates a document of the given pixel size with a white
    /// background.
    pub fn new(width: f64, height: f64) -> Self {
        let mut doc = SvgDoc {
            body: String::new(),
        };
        let _ = writeln!(
            doc.body,
            "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{width:.0}\" height=\"{height:.0}\" viewBox=\"0 0 {width:.0} {height:.0}\">"
        );
        doc.rect(0.0, 0.0, width, height, "#ffffff", None);
        doc
    }

    /// Pre-reserves body capacity; element-heavy renders (the ~20k-dot
    /// point map) call this once instead of doubling a megabyte string.
    pub fn reserve(&mut self, bytes: usize) {
        self.body.reserve(bytes);
    }

    /// Appends `lead` and then `v` at two decimals: every coordinate
    /// and size an element carries.
    fn coord(&mut self, lead: &str, v: f64) {
        self.body.push_str(lead);
        push_fixed(&mut self.body, v, 2);
    }

    /// A filled (and optionally stroked) rectangle.
    pub fn rect(&mut self, x: f64, y: f64, w: f64, h: f64, fill: &str, stroke: Option<&str>) {
        self.coord("<rect x=\"", x);
        self.coord("\" y=\"", y);
        self.coord("\" width=\"", w);
        self.coord("\" height=\"", h);
        self.body.push_str("\" fill=\"");
        self.body.push_str(fill);
        self.body.push('"');
        if let Some(s) = stroke {
            self.body.push_str(" stroke=\"");
            self.body.push_str(s);
            self.body.push_str("\" stroke-width=\"1\"");
        }
        self.body.push_str("/>\n");
    }

    /// A line segment.
    pub fn line(&mut self, x1: f64, y1: f64, x2: f64, y2: f64, stroke: &str, width: f64) {
        self.coord("<line x1=\"", x1);
        self.coord("\" y1=\"", y1);
        self.coord("\" x2=\"", x2);
        self.coord("\" y2=\"", y2);
        let _ = writeln!(
            self.body,
            "\" stroke=\"{stroke}\" stroke-width=\"{width}\"/>"
        );
    }

    /// An unfilled polyline through the given points, streamed into the
    /// body without a per-point string.
    pub fn polyline(&mut self, points: &[(f64, f64)], stroke: &str, width: f64) {
        if points.len() < 2 {
            return;
        }
        self.body.push_str("<polyline points=\"");
        for (i, &(x, y)) in points.iter().enumerate() {
            self.coord(if i > 0 { " " } else { "" }, x);
            self.coord(",", y);
        }
        let _ = writeln!(
            self.body,
            "\" fill=\"none\" stroke=\"{stroke}\" stroke-width=\"{width}\"/>"
        );
    }

    /// A filled circle.
    pub fn circle(&mut self, cx: f64, cy: f64, r: f64, fill: &str) {
        self.coord("<circle cx=\"", cx);
        self.coord("\" cy=\"", cy);
        self.coord("\" r=\"", r);
        self.body.push_str("\" fill=\"");
        self.body.push_str(fill);
        self.body.push_str("\"/>\n");
    }

    /// Text with an anchor of `start`, `middle`, or `end`.
    pub fn text(&mut self, x: f64, y: f64, content: &str, size: f64, anchor: &str) {
        self.coord("<text x=\"", x);
        self.coord("\" y=\"", y);
        let _ = writeln!(
            self.body,
            "\" font-size=\"{size}\" font-family=\"sans-serif\" text-anchor=\"{anchor}\">{}</text>",
            esc(content)
        );
    }

    /// Vertical text (rotated −90°), for y-axis labels.
    pub fn vtext(&mut self, x: f64, y: f64, content: &str, size: f64) {
        self.coord("<text x=\"", x);
        self.coord("\" y=\"", y);
        let _ = write!(
            self.body,
            "\" font-size=\"{size}\" font-family=\"sans-serif\" text-anchor=\"middle\""
        );
        self.coord(" transform=\"rotate(-90 ", x);
        self.coord(" ", y);
        let _ = writeln!(self.body, ")\">{}</text>", esc(content));
    }

    /// Closes the document and returns it.
    pub fn finish(mut self) -> String {
        self.body.push_str("</svg>\n");
        self.body
    }
}

/// The default series palette (color-blind-safe Okabe–Ito subset).
pub const PALETTE: [&str; 6] = [
    "#0072B2", "#D55E00", "#009E73", "#CC79A7", "#E69F00", "#56B4E9",
];

/// Appends the `#rrggbb` color of `t ∈ [0,1]` on a perceptually
/// reasonable blue→yellow ramp (a compact viridis-like approximation)
/// to a caller-owned buffer, so per-cell and per-point loops reuse one.
pub fn ramp_color_into(t: f64, out: &mut String) {
    let t = t.clamp(0.0, 1.0);
    // Piecewise-linear through viridis anchor colors.
    const ANCHORS: [(f64, (u8, u8, u8)); 5] = [
        (0.00, (68, 1, 84)),
        (0.25, (59, 82, 139)),
        (0.50, (33, 145, 140)),
        (0.75, (94, 201, 98)),
        (1.00, (253, 231, 37)),
    ];
    let mut lo = ANCHORS[0];
    let mut hi = ANCHORS[4];
    for w in ANCHORS.windows(2) {
        if t >= w[0].0 && t <= w[1].0 {
            lo = w[0];
            hi = w[1];
            break;
        }
    }
    let f = if hi.0 > lo.0 {
        (t - lo.0) / (hi.0 - lo.0)
    } else {
        0.0
    };
    let mix = |a: u8, b: u8| -> u8 { (a as f64 + f * (b as f64 - a as f64)).round() as u8 };
    out.push('#');
    push_hex_byte(out, mix(lo.1 .0, hi.1 .0));
    push_hex_byte(out, mix(lo.1 .1, hi.1 .1));
    push_hex_byte(out, mix(lo.1 .2, hi.1 .2));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn document_structure() {
        let mut d = SvgDoc::new(100.0, 50.0);
        d.line(0.0, 0.0, 10.0, 10.0, "#000000", 1.0);
        d.text(5.0, 5.0, "hi <&>", 10.0, "middle");
        let s = d.finish();
        assert!(s.starts_with("<svg"));
        assert!(s.trim_end().ends_with("</svg>"));
        assert!(s.contains("hi &lt;&amp;&gt;"));
        assert!(s.contains("viewBox=\"0 0 100 50\""));
    }

    #[test]
    fn polyline_requires_two_points() {
        let mut d = SvgDoc::new(10.0, 10.0);
        d.polyline(&[(1.0, 1.0)], "#000", 1.0);
        assert!(!d.clone().finish().contains("polyline"));
        d.polyline(&[(1.0, 1.0), (2.0, 2.0)], "#000", 1.0);
        assert!(d.finish().contains("polyline"));
    }

    #[test]
    fn elements_match_their_core_fmt_templates() {
        // Awkward values: a tie, a negative zero, a negative rounding to
        // zero, a large coordinate, and a NaN that takes the fallback.
        let (a, b, c, d) = (0.125, -0.0, -0.004, 1.0e7 + 0.005);
        let mut doc = SvgDoc::new(640.0, 480.5);
        doc.rect(a, b, c, d, "#fff", Some("#000"));
        doc.line(a, b, c, f64::NAN, "#111", 0.5);
        doc.polyline(&[(a, b), (c, d)], "#222", 1.8);
        doc.circle(a, c, d, "#333");
        doc.text(b, d, "t", 11.0, "end");
        doc.vtext(c, a, "v", 12.0);
        let n = f64::NAN;
        let want = format!(
            "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{:.0}\" height=\"{:.0}\" viewBox=\"0 0 {:.0} {:.0}\">\n\
             <rect x=\"0.00\" y=\"0.00\" width=\"640.00\" height=\"480.50\" fill=\"#ffffff\"/>\n\
             <rect x=\"{a:.2}\" y=\"{b:.2}\" width=\"{c:.2}\" height=\"{d:.2}\" fill=\"#fff\" stroke=\"#000\" stroke-width=\"1\"/>\n\
             <line x1=\"{a:.2}\" y1=\"{b:.2}\" x2=\"{c:.2}\" y2=\"{n:.2}\" stroke=\"#111\" stroke-width=\"0.5\"/>\n\
             <polyline points=\"{a:.2},{b:.2} {c:.2},{d:.2}\" fill=\"none\" stroke=\"#222\" stroke-width=\"1.8\"/>\n\
             <circle cx=\"{a:.2}\" cy=\"{c:.2}\" r=\"{d:.2}\" fill=\"#333\"/>\n\
             <text x=\"{b:.2}\" y=\"{d:.2}\" font-size=\"11\" font-family=\"sans-serif\" text-anchor=\"end\">t</text>\n\
             <text x=\"{c:.2}\" y=\"{a:.2}\" font-size=\"12\" font-family=\"sans-serif\" text-anchor=\"middle\" transform=\"rotate(-90 {c:.2} {a:.2})\">v</text>\n\
             </svg>\n",
            640.0, 480.5, 640.0, 480.5
        );
        assert_eq!(doc.finish(), want);
    }

    #[test]
    fn a_whole_document_matches_the_old_finish_template() {
        // `finish` used to wrap the body in one `format!` of this
        // template, copying the whole body; `new` now writes the header
        // and `finish` the trailer, with the bytes unchanged. Ties,
        // a negative zero and a NaN exercise the header's rounding.
        for (w, h) in [
            (640.0, 480.0),
            (0.5, 2.5),
            (-0.0, 1.0e7 + 0.5),
            (f64::NAN, 3.4999),
        ] {
            let mut doc = SvgDoc::new(w, h);
            doc.circle(1.0, 2.0, 3.0, "#333");
            doc.text(4.0, 5.0, "a < b", 10.0, "start");
            let body = format!(
                "<rect x=\"0.00\" y=\"0.00\" width=\"{w:.2}\" height=\"{h:.2}\" fill=\"#ffffff\"/>\n\
                 <circle cx=\"1.00\" cy=\"2.00\" r=\"3.00\" fill=\"#333\"/>\n\
                 <text x=\"4.00\" y=\"5.00\" font-size=\"10\" font-family=\"sans-serif\" text-anchor=\"start\">a &lt; b</text>\n"
            );
            let old = format!(
                "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{:.0}\" height=\"{:.0}\" viewBox=\"0 0 {:.0} {:.0}\">\n{}</svg>\n",
                w, h, w, h, body
            );
            assert_eq!(doc.finish(), old, "{w} x {h}");
        }
    }

    fn ramp_color(t: f64) -> String {
        let mut out = String::new();
        ramp_color_into(t, &mut out);
        out
    }

    #[test]
    fn ramp_endpoints_and_monotone_green() {
        assert_eq!(ramp_color(0.0), "#440154");
        assert_eq!(ramp_color(1.0), "#fde725");
        // Green channel increases along the ramp.
        let g = |t: f64| u8::from_str_radix(&ramp_color(t)[3..5], 16).unwrap();
        assert!(g(0.0) < g(0.5) && g(0.5) < g(1.0));
        // Out-of-range clamps.
        assert_eq!(ramp_color(-1.0), ramp_color(0.0));
        assert_eq!(ramp_color(2.0), ramp_color(1.0));
    }
}
