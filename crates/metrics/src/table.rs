//! Fixed-width text tables for the figure reports.
//!
//! Every `morph figures` report prints the rows/series of one paper table
//! or figure; this module keeps that output aligned and uniform.

/// A simple left-header, right-aligned-numbers text table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    title: String,
    columns: Vec<String>,
    rows: Vec<(String, Vec<String>)>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: impl Into<String>, columns: &[&str]) -> Self {
        Self {
            title: title.into(),
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row of already-formatted cells.
    pub fn row(&mut self, label: impl Into<String>, cells: Vec<String>) -> &mut Self {
        self.rows.push((label.into(), cells));
        self
    }

    /// Appends a row of `f64` cells rendered with `prec` decimals.
    pub fn row_f64(&mut self, label: impl Into<String>, cells: &[f64], prec: usize) -> &mut Self {
        self.row(label, cells.iter().map(|v| format!("{v:.prec$}")).collect())
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let label_w = self
            .rows
            .iter()
            .map(|(l, _)| l.len())
            .chain(std::iter::once(4))
            .max()
            .unwrap_or(4)
            .max(self.title.len().min(24));
        let mut col_w: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        for (_, cells) in &self.rows {
            for (i, c) in cells.iter().enumerate() {
                if i < col_w.len() {
                    col_w[i] = col_w[i].max(c.len());
                } else {
                    col_w.push(c.len());
                }
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        out.push_str(&format!("{:label_w$}", ""));
        for (i, c) in self.columns.iter().enumerate() {
            out.push_str(&format!("  {:>w$}", c, w = col_w[i]));
        }
        out.push('\n');
        for (label, cells) in &self.rows {
            out.push_str(&format!("{label:label_w$}"));
            for (i, c) in cells.iter().enumerate() {
                let w = col_w.get(i).copied().unwrap_or(c.len());
                out.push_str(&format!("  {c:>w$}"));
            }
            out.push('\n');
        }
        out
    }

    /// Prints the rendered table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

impl std::fmt::Display for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new("demo", &["a", "bbbb"]);
        t.row_f64("first", &[1.0, 2.345], 2);
        t.row_f64("second-longer", &[10.0, 0.1], 2);
        let s = t.render();
        assert!(s.contains("== demo =="));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        // Header and rows end aligned (same length).
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    fn display_matches_render() {
        let mut t = Table::new("x", &["c"]);
        t.row("r", vec!["1".into()]);
        assert_eq!(format!("{t}"), t.render());
    }
}
