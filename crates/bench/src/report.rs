//! Plain-text table rendering and CSV output for experiment results.

use std::fmt::Write as _;

/// A simple column-aligned text table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        Table { header: header.into_iter().map(Into::into).collect(), rows: Vec::new() }
    }

    /// Appends a row (must match the header width).
    pub fn push_row<S: Into<String>>(&mut self, row: Vec<S>) {
        let row: Vec<String> = row.into_iter().map(Into::into).collect();
        assert_eq!(
            row.len(),
            self.header.len(),
            "row width mismatch: header {:?} has {} columns but row {:?} has {}",
            self.header,
            self.header.len(),
            row,
            row.len()
        );
        self.rows.push(row);
    }

    /// Number of data rows.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Renders as an aligned text table.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for c in 0..cols {
                widths[c] = widths[c].max(row[c].len());
            }
        }
        let mut out = String::new();
        let write_row = |out: &mut String, row: &[String]| {
            for (c, cell) in row.iter().enumerate() {
                let _ = write!(out, "{:<width$}", cell, width = widths[c] + 2);
            }
            out.push('\n');
        };
        write_row(&mut out, &self.header);
        let total: usize = widths.iter().map(|w| w + 2).sum();
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            write_row(&mut out, row);
        }
        out
    }

    /// Renders as CSV (RFC-4180 quoting: cells containing commas, quotes,
    /// or line breaks are quoted, with embedded quotes doubled).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let esc = |cell: &str| {
            if cell.contains([',', '"', '\n', '\r']) {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        };
        let line = |row: &[String]| row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(",");
        out.push_str(&line(&self.header));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&line(row));
            out.push('\n');
        }
        out
    }
}

/// Formats a fraction as a percentage with two decimals.
pub fn pct(v: f64) -> String {
    format!("{:.2}%", v * 100.0)
}

/// Formats a float compactly.
pub fn num(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(vec!["a", "long-header"]);
        t.push_row(vec!["1", "2"]);
        t.push_row(vec!["wide-cell", "3"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("a"));
        assert!(lines[2].starts_with("1"));
        assert_eq!(t.num_rows(), 2);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn rejects_ragged_rows() {
        let mut t = Table::new(vec!["a", "b"]);
        t.push_row(vec!["only-one"]);
    }

    #[test]
    fn csv_escapes_commas_and_quotes() {
        let mut t = Table::new(vec!["x", "y"]);
        t.push_row(vec!["a,b", "he said \"hi\""]);
        let csv = t.to_csv();
        assert!(csv.contains("\"a,b\""));
        assert!(csv.contains("\"he said \"\"hi\"\"\""));
    }

    #[test]
    fn csv_quotes_newlines_and_carriage_returns() {
        let mut t = Table::new(vec!["x", "y"]);
        t.push_row(vec!["line1\nline2", "cr\rcell"]);
        let csv = t.to_csv();
        assert!(csv.contains("\"line1\nline2\""), "{csv:?}");
        assert!(csv.contains("\"cr\rcell\""), "{csv:?}");
        // The quoted line break must not produce an unbalanced record: the
        // number of quote characters stays even.
        assert_eq!(csv.matches('"').count() % 2, 0);
    }

    #[test]
    fn csv_leaves_plain_cells_unquoted() {
        let mut t = Table::new(vec!["a", "b"]);
        t.push_row(vec!["1.5", "plain text"]);
        assert_eq!(t.to_csv(), "a,b\n1.5,plain text\n");
    }

    #[test]
    fn render_pads_every_column_to_its_widest_cell() {
        let mut t = Table::new(vec!["id", "name"]);
        t.push_row(vec!["1", "abc"]);
        t.push_row(vec!["23456", "x"]);
        let lines: Vec<String> = t.render().lines().map(String::from).collect();
        // Each column is padded to max(cell) + 2, so the second column
        // starts at the same offset in every row.
        let offset = lines[0].find("name").unwrap();
        assert_eq!(lines[2].find("abc").unwrap(), offset);
        assert_eq!(lines[3].find('x').unwrap(), offset);
        // Separator spans the full table width.
        assert_eq!(lines[1].len(), ("23456".len() + 2) + ("name".len() + 2));
        assert!(lines[1].chars().all(|c| c == '-'));
    }

    #[test]
    fn ragged_row_panic_names_header_and_row() {
        let err = std::panic::catch_unwind(|| {
            let mut t = Table::new(vec!["alpha", "beta"]);
            t.push_row(vec!["lonely-cell"]);
        })
        .expect_err("ragged row must panic");
        let message = err.downcast_ref::<String>().expect("string payload");
        assert!(message.contains("row width mismatch"), "{message}");
        assert!(message.contains("alpha") && message.contains("beta"), "{message}");
        assert!(message.contains("lonely-cell"), "{message}");
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(pct(0.1234), "12.34%");
        assert_eq!(num(3.0), "3");
        assert_eq!(num(1.23456), "1.235");
    }
}
