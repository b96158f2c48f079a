//! Result tables: aligned text rendering, Markdown, and JSON persistence.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::path::Path;

/// One regenerated table or figure, as rows of formatted cells.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Table {
    /// Experiment id, e.g. `"fig5"` or `"table1"`.
    pub id: String,
    /// Human-readable title (matches the paper's caption).
    pub(crate) title: String,
    /// Column headers.
    pub header: Vec<String>,
    /// Data rows; each must have `header.len()` cells.
    pub rows: Vec<Vec<String>>,
    /// Free-form notes (workload parameters, caveats, paper expectations).
    pub notes: Vec<String>,
}

impl Table {
    /// Creates an empty table.
    #[must_use]
    pub(crate) fn new(
        id: impl Into<String>,
        title: impl Into<String>,
        header: Vec<impl Into<String>>,
    ) -> Self {
        Table {
            id: id.into(),
            title: title.into(),
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends a data row.
    ///
    /// # Panics
    ///
    /// Panics if the row width does not match the header.
    pub(crate) fn push_row(&mut self, row: Vec<String>) {
        assert_eq!(
            row.len(),
            self.header.len(),
            "row width must match header width"
        );
        self.rows.push(row);
    }

    /// Appends a note line.
    pub(crate) fn push_note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    /// Saves the table as pretty JSON into `dir/<id>.json`.
    ///
    /// # Errors
    ///
    /// Returns any I/O or serialization error.
    pub fn save_json(&self, dir: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.json", self.id));
        let json = serde_json::to_string_pretty(self).map_err(std::io::Error::other)?;
        std::fs::write(path, json)
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Column widths over header + rows.
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        writeln!(f, "== {} — {} ==", self.id, self.title)?;
        let fmt_row = |row: &[String]| -> String {
            row.iter()
                .zip(&widths)
                .map(|(cell, w)| format!("{cell:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        writeln!(f, "{}", fmt_row(&self.header))?;
        writeln!(
            f,
            "{}",
            "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
        )?;
        for row in &self.rows {
            writeln!(f, "{}", fmt_row(row))?;
        }
        for note in &self.notes {
            writeln!(f, "  note: {note}")?;
        }
        Ok(())
    }
}

/// Formats a float with `digits` decimal places.
#[must_use]
pub(crate) fn num(value: f64, digits: usize) -> String {
    format!("{value:.digits$}")
}

/// Read only by the tests.
#[cfg(test)]
impl Table {
    /// Renders the table as GitHub-flavoured Markdown.
    #[must_use]
    pub(crate) fn to_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("### {} — {}\n\n", self.id, self.title));
        out.push_str(&format!("| {} |\n", self.header.join(" | ")));
        out.push_str(&format!(
            "|{}\n",
            self.header.iter().map(|_| "---|").collect::<String>()
        ));
        for row in &self.rows {
            out.push_str(&format!("| {} |\n", row.join(" | ")));
        }
        if !self.notes.is_empty() {
            out.push('\n');
            for note in &self.notes {
                out.push_str(&format!("> {note}\n"));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> Table {
        let mut t = Table::new("figX", "A test figure", vec!["x", "y"]);
        t.push_row(vec!["1".into(), "2.0".into()]);
        t.push_row(vec!["10".into(), "20.5".into()]);
        t.push_note("synthetic");
        t
    }

    #[test]
    fn display_alignment() {
        let text = table().to_string();
        assert!(text.contains("figX"));
        assert!(text.contains("A test figure"));
        assert!(text.contains("20.5"));
        assert!(text.contains("note: synthetic"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        let mut t = Table::new("t", "t", vec!["a"]);
        t.push_row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn markdown_shape() {
        let md = table().to_markdown();
        assert!(md.contains("| x | y |"));
        assert!(md.contains("|---|---|"));
        assert!(md.contains("| 10 | 20.5 |"));
        assert!(md.contains("> synthetic"));
    }

    #[test]
    fn json_roundtrip() {
        let dir = std::env::temp_dir().join("ev-bench-test-report");
        let t = table();
        t.save_json(&dir).unwrap();
        let loaded: Table =
            serde_json::from_str(&std::fs::read_to_string(dir.join("figX.json")).unwrap()).unwrap();
        assert_eq!(loaded, t);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn num_formats() {
        assert_eq!(num(1.23456, 2), "1.23");
        assert_eq!(num(10.0, 0), "10");
    }
}
