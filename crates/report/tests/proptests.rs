//! Property-based tests for the rendering layer.

use leo_report::{CsvWriter, TextTable};
use proptest::prelude::*;

/// A tiny RFC-4180 parser used only to verify the writer round-trips.
fn parse_csv(text: &str) -> Vec<Vec<String>> {
    let mut rows = Vec::new();
    let mut row = Vec::new();
    let mut field = String::new();
    let mut chars = text.chars().peekable();
    let mut quoted = false;
    while let Some(c) = chars.next() {
        if quoted {
            match c {
                '"' if chars.peek() == Some(&'"') => {
                    chars.next();
                    field.push('"');
                }
                '"' => quoted = false,
                _ => field.push(c),
            }
        } else {
            match c {
                '"' => quoted = true,
                ',' => row.push(std::mem::take(&mut field)),
                '\n' => {
                    row.push(std::mem::take(&mut field));
                    rows.push(std::mem::take(&mut row));
                }
                _ => field.push(c),
            }
        }
    }
    if !field.is_empty() || !row.is_empty() {
        row.push(field);
        rows.push(row);
    }
    rows
}

fn field_strategy() -> impl Strategy<Value = String> {
    // Printable text including the characters that need escaping.
    proptest::string::string_regex("[ -~\n\"]{0,24}").expect("valid regex")
}

proptest! {
    #[test]
    fn csv_round_trips_through_a_parser(
        rows in proptest::collection::vec(
            proptest::collection::vec(field_strategy(), 3), 1..20)
    ) {
        let mut w = CsvWriter::new();
        for r in &rows {
            w.record(r);
        }
        let parsed = parse_csv(w.finish());
        prop_assert_eq!(parsed.len(), rows.len());
        for (a, b) in parsed.iter().zip(rows.iter()) {
            prop_assert_eq!(a, b);
        }
    }

    #[test]
    fn text_table_lines_are_uniform_width(
        cells in proptest::collection::vec(
            proptest::collection::vec("[ -~]{0,16}", 2), 1..10)
    ) {
        let mut t = TextTable::new("T", &["a", "b"]);
        for row in &cells {
            t.row(&[row[0].clone(), row[1].clone()]);
        }
        let rendered = t.render();
        let widths: Vec<usize> = rendered.lines().skip(1).map(str::len).collect();
        for w in &widths {
            prop_assert_eq!(*w, widths[0]);
        }
    }
}
