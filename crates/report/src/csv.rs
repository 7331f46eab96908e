//! Minimal RFC-4180 CSV writing.

use crate::num::push_fixed;
use std::fmt::Write as _;

/// Builds CSV text in memory; callers persist it with `std::fs`.
///
/// Every record path streams straight into the output buffer — the
/// only steady-state allocation is the buffer's own growth, so
/// artifact stages can emit tens of thousands of records without
/// churning the allocator.
#[derive(Debug, Clone, Default)]
pub struct CsvWriter {
    buf: String,
    width: Option<usize>,
    /// Reused per-field formatting scratch (`record_display` and
    /// [`CsvRow::field`] render values here before escaping).
    scratch: String,
}

impl CsvWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one RFC-4180-escaped field to the buffer. A bare CR is
    /// quoted too: readers treat it as a line break.
    fn push_escaped(&mut self, field: &str) {
        if field.contains([',', '"', '\n', '\r']) {
            self.buf.push('"');
            for ch in field.chars() {
                if ch == '"' {
                    self.buf.push('"');
                }
                self.buf.push(ch);
            }
            self.buf.push('"');
        } else {
            self.buf.push_str(field);
        }
    }

    fn end_record(&mut self, fields: usize) {
        match self.width {
            None => self.width = Some(fields),
            Some(w) => assert_eq!(w, fields, "inconsistent CSV record width"),
        }
        self.buf.push('\n');
    }

    /// Writes one record; all records must have the same field count.
    pub fn record<S: AsRef<str>>(&mut self, fields: &[S]) -> &mut Self {
        for (i, f) in fields.iter().enumerate() {
            if i > 0 {
                self.buf.push(',');
            }
            self.push_escaped(f.as_ref());
        }
        self.end_record(fields.len());
        self
    }

    /// Writes a record of displayable values.
    pub fn record_display<T: std::fmt::Display>(&mut self, fields: &[T]) -> &mut Self {
        let mut row = CsvRow { w: self, n: 0 };
        for f in fields {
            row.field(f);
        }
        let n = row.n;
        self.end_record(n);
        self
    }

    /// Streams one record field by field; `row.field` takes anything
    /// `Display`, including a zero-allocation `format_args!`.
    pub fn record_with(&mut self, build: impl FnOnce(&mut CsvRow)) -> &mut Self {
        let mut row = CsvRow { w: self, n: 0 };
        build(&mut row);
        let n = row.n;
        self.end_record(n);
        self
    }

    /// The CSV text so far.
    pub fn finish(&self) -> &str {
        &self.buf
    }

    /// The CSV text, moved out of the writer.
    pub fn into_string(self) -> String {
        self.buf
    }
}

/// One in-flight record of a [`CsvWriter::record_with`] call.
pub struct CsvRow<'a> {
    w: &'a mut CsvWriter,
    n: usize,
}

impl CsvRow<'_> {
    fn separate(&mut self) {
        if self.n > 0 {
            self.w.buf.push(',');
        }
        self.n += 1;
    }

    /// Appends one field, rendered through the writer's reused scratch.
    pub fn field(&mut self, value: impl std::fmt::Display) -> &mut Self {
        self.separate();
        let mut scratch = std::mem::take(&mut self.w.scratch);
        scratch.clear();
        let _ = write!(scratch, "{value}");
        self.w.push_escaped(&scratch);
        self.w.scratch = scratch;
        self
    }

    /// Appends `x` with `p` decimals, the same bytes as
    /// `field(format_args!("{x:.p$}"))` through [`crate::num::push_fixed`];
    /// a number never needs quoting.
    pub fn fixed(&mut self, x: f64, p: usize) -> &mut Self {
        self.separate();
        push_fixed(&mut self.w.buf, x, p);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_records() {
        let mut w = CsvWriter::new();
        w.record(&["a", "b"]).record(&["1", "2"]);
        assert_eq!(w.finish(), "a,b\n1,2\n");
        assert_eq!(w.into_string(), "a,b\n1,2\n");
    }

    #[test]
    fn escapes_commas_quotes_newlines() {
        let mut w = CsvWriter::new();
        w.record(&["x,y", "he said \"hi\"", "line\nbreak", "bare\rreturn"]);
        assert_eq!(
            w.finish(),
            "\"x,y\",\"he said \"\"hi\"\"\",\"line\nbreak\",\"bare\rreturn\"\n"
        );
    }

    #[test]
    #[should_panic(expected = "inconsistent CSV record width")]
    fn width_mismatch_panics() {
        let mut w = CsvWriter::new();
        w.record(&["a", "b"]).record(&["only"]);
    }

    #[test]
    fn display_records() {
        let mut w = CsvWriter::new();
        w.record_display(&[1.5, 2.0]);
        assert_eq!(w.finish(), "1.5,2\n");
    }

    #[test]
    fn streamed_records_match_slice_records() {
        let mut w = CsvWriter::new();
        w.record_with(|r| {
            r.field("plan, basic")
                .field(format_args!("{:.2}", 9.5))
                .field(42u64);
        });
        assert_eq!(w.finish(), "\"plan, basic\",9.50,42\n");
    }

    #[test]
    fn fixed_fields_match_formatted_fields() {
        let (mut a, mut b) = (CsvWriter::new(), CsvWriter::new());
        for x in [0.000_005, -0.0, 2.5, 1.0e30, f64::NAN] {
            a.record_with(|r| {
                r.field("p").fixed(x, 5).fixed(x, 0);
            });
            b.record_with(|r| {
                r.field("p")
                    .field(format_args!("{x:.5}"))
                    .field(format_args!("{x:.0}"));
            });
        }
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    #[should_panic(expected = "inconsistent CSV record width")]
    fn streamed_width_mismatch_panics() {
        let mut w = CsvWriter::new();
        w.record(&["a", "b"]);
        w.record_with(|r| {
            r.field("only");
        });
    }
}
