//! Aligned plain-text tables.

/// A simple text table with a header row and aligned columns.
#[derive(Debug, Clone, Default)]
pub struct TextTable {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with a title and column headers.
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        TextTable {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row; the cell count must match the header.
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.header.len(),
            "row width {} != header width {}",
            cells.len(),
            self.header.len()
        );
        self.rows.push(cells.to_vec());
        self
    }

    /// Renders the table: title, rule, header, rule, rows. Numeric-
    /// looking cells are right-aligned, text left-aligned.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let numericish = |s: &str| {
            !s.is_empty()
                && s.chars()
                    .all(|c| c.is_ascii_digit() || ".,%-+:eE".contains(c))
        };
        let mut out = String::new();
        if !self.title.is_empty() {
            out.push_str(&self.title);
            out.push('\n');
        }
        let rule: String = widths
            .iter()
            .map(|w| "-".repeat(w + 2))
            .collect::<Vec<_>>()
            .join("+");
        out.push_str(&rule);
        out.push('\n');
        let fmt_row = |cells: &[String], out: &mut String| {
            let parts: Vec<String> = (0..cols)
                .map(|i| {
                    let cell = &cells[i];
                    if numericish(cell) {
                        format!(" {:>width$} ", cell, width = widths[i])
                    } else {
                        format!(" {:<width$} ", cell, width = widths[i])
                    }
                })
                .collect();
            out.push_str(&parts.join("|"));
            out.push('\n');
        };
        fmt_row(&self.header, &mut out);
        out.push_str(&rule);
        out.push('\n');
        for row in &self.rows {
            fmt_row(row, &mut out);
        }
        out.push_str(&rule);
        out.push('\n');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_header_and_rows() {
        let mut t = TextTable::new("Demo", &["name", "value"]);
        t.row(&["alpha".into(), "1".into()]);
        t.row(&["beta".into(), "22".into()]);
        let s = t.render();
        assert!(s.contains("Demo"));
        assert!(s.contains("alpha"));
        assert!(s.contains("22"));
        // Header appears before rows.
        assert!(s.find("name").unwrap() < s.find("alpha").unwrap());
    }

    #[test]
    fn columns_are_aligned() {
        let mut t = TextTable::new("", &["k", "v"]);
        t.row(&["aa".into(), "1".into()]);
        t.row(&["b".into(), "100".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        // All rendered lines have equal width.
        let w = lines[0].len();
        for l in &lines {
            assert_eq!(l.len(), w, "line {l:?}");
        }
    }

    #[test]
    fn numeric_cells_right_align() {
        let mut t = TextTable::new("", &["n"]);
        t.row(&["5".into()]);
        t.row(&["50000".into()]);
        let s = t.render();
        assert!(s.contains("     5 "), "got {s}");
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        let mut t = TextTable::new("", &["a", "b"]);
        t.row(&["only-one".into()]);
    }
}
