//! # uparc-bench — shared reporting helpers for the experiment harnesses
//!
//! Each table/figure of the paper is regenerated by one binary in
//! `src/bin/` (see DESIGN.md §4 for the experiment index). This library
//! holds the shared report formatting: aligned tables and paper-vs-measured
//! comparison rows, the byte-stable JSON writer ([`report`]) and the
//! [`harness`] every `bench_*` regression binary runs through.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;
pub mod report;

/// A simple fixed-width table printer for harness output.
#[derive(Debug, Clone)]
pub struct Report {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Report {
    /// Creates a report with the given title and column headers.
    #[must_use]
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Report {
            title: title.to_owned(),
            headers: headers.iter().map(|s| (*s).to_owned()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header count).
    ///
    /// # Panics
    ///
    /// Panics if the column count differs from the headers.
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Renders the report.
    #[must_use]
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("\n=== {} ===\n", self.title));
        let fmt_row = |cells: &[String]| -> String {
            let mut line = String::new();
            for (i, c) in cells.iter().enumerate() {
                line.push_str(&format!("{:<width$}  ", c, width = widths[i]));
            }
            line.trim_end().to_owned()
        };
        out.push_str(&fmt_row(&self.headers));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + widths.len() * 2));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }

    /// Renders and prints to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Formats a paper-vs-measured pair with relative deviation.
#[must_use]
pub fn vs_paper(measured: f64, paper: f64) -> String {
    let dev = (measured - paper) / paper * 100.0;
    format!("{measured:.1} (paper {paper:.1}, {dev:+.1}%)")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_renders_aligned_columns() {
        let mut r = Report::new("T", &["a", "long-header"]);
        r.row(&["x".to_owned(), "1".to_owned()]);
        r.row(&["longer-cell".to_owned(), "2".to_owned()]);
        let s = r.render();
        assert!(s.contains("=== T ==="));
        assert!(s.contains("long-header"));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 6); // blank, title, header, rule, 2 rows
    }

    #[test]
    #[should_panic(expected = "column count")]
    fn mismatched_row_panics() {
        let mut r = Report::new("T", &["a", "b"]);
        r.row(&["only-one".to_owned()]);
    }

    #[test]
    fn vs_paper_formats_deviation() {
        let s = vs_paper(63.5, 63.0);
        assert!(s.contains("63.5"));
        assert!(s.contains("+0.8%"));
    }
}
