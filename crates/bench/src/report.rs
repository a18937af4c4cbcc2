//! Output formatting: aligned text tables, CSV files and ASCII scatter
//! plots for the figure data, and the [`Report`] every experiment
//! returns.

use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;

use dhdl_obs::json::Json;

/// A simple aligned text table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        Table {
            header: header.iter().map(ToString::to_string).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header width).
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells.to_vec());
        self
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let line = |cells: &[String], out: &mut String| {
            for (i, (cell, w)) in cells.iter().zip(&widths).enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                let _ = write!(out, "{cell:<w$}", w = *w);
            }
            out.push('\n');
        };
        line(&self.header, &mut out);
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            line(row, &mut out);
        }
        out
    }

    /// Render as CSV.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let esc = |s: &str| {
            if s.contains(',') || s.contains('"') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        out.push_str(
            &self
                .header
                .iter()
                .map(|h| esc(h))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }
}

/// What an experiment prints and leaves under `results/`, gathered so
/// that tests can read it and only the `dhdl` binary [`Report::emit`]s.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// The text for stdout.
    pub text: String,
    /// The `results/` files as `(name, contents)`.
    pub files: Vec<(String, String)>,
    /// Why the experiment's acceptance gate failed; empty for a pass or
    /// an experiment without a gate.
    pub failures: Vec<String>,
}

impl Report {
    /// Append one line of output.
    pub fn say(&mut self, line: impl std::fmt::Display) {
        let _ = writeln!(self.text, "{line}");
    }

    /// Add `results/<name>`, returning the path [`Report::emit`] writes.
    pub fn file(&mut self, name: &str, contents: String) -> PathBuf {
        self.files.push((name.to_string(), contents));
        dhdl_obs::results_dir().join(name)
    }

    /// [`Report::file`], announced with a `wrote <path>` line.
    pub fn wrote(&mut self, name: &str, contents: String) {
        let path = self.file(name, contents);
        self.say(format_args!("wrote {}", path.display()));
    }

    /// Write the files (a failure warns and carries on), then print the
    /// text.
    pub fn emit(&self) {
        let dir = dhdl_obs::results_dir();
        for (name, contents) in &self.files {
            let path = dir.join(name);
            if let Err(e) = fs::create_dir_all(&dir).and_then(|()| fs::write(&path, contents)) {
                eprintln!("warning: could not write {}: {e}", path.display());
            }
        }
        print!("{}", self.text);
    }
}

/// Render an ASCII scatter plot of `(x, y, class)` points, where class 0
/// is drawn as `·` (invalid), 1 as `o` (valid) and 2 as `#` (Pareto).
/// `x` is expected in `[0, 1]` (utilization); `y` is plotted in log10.
pub fn ascii_scatter(points: &[(f64, f64, u8)], width: usize, height: usize) -> String {
    if points.is_empty() {
        return "(no points)\n".to_string();
    }
    let ys: Vec<f64> = points.iter().map(|p| p.1.max(1.0).log10()).collect();
    let ymin = ys.iter().cloned().fold(f64::INFINITY, f64::min);
    let ymax = ys.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let yspan = (ymax - ymin).max(1e-9);
    let mut grid = vec![vec![b' '; width]; height];
    for (p, y) in points.iter().zip(&ys) {
        let xi = ((p.0.clamp(0.0, 1.2) / 1.2) * (width - 1) as f64).round() as usize;
        let yi = (((ymax - y) / yspan) * (height - 1) as f64).round() as usize;
        let ch = match p.2 {
            0 => b'.',
            1 => b'o',
            _ => b'#',
        };
        let cell = &mut grid[yi.min(height - 1)][xi.min(width - 1)];
        // Pareto marks win over valid, valid over invalid.
        if ch > *cell || *cell == b' ' {
            *cell = ch;
        }
    }
    let mut out = String::new();
    let _ = writeln!(out, "log10(cycles) {ymax:.1} .. {ymin:.1} (top to bottom)");
    for row in grid {
        out.push('|');
        out.push_str(std::str::from_utf8(&row).expect("ascii"));
        out.push('\n');
    }
    out.push('+');
    out.push_str(&"-".repeat(width));
    out.push('\n');
    let _ = writeln!(out, " utilization 0%..120%   . invalid  o valid  # pareto");
    out
}

/// Format a ratio as `N.NNx`.
pub fn times(x: f64) -> String {
    format!("{x:.2}x")
}

/// Format a fraction as a percentage.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// `x` rounded to `digits` decimals as a JSON number: the value
/// `format!("{x:.digits$}")` prints.
pub fn fixed(x: f64, digits: usize) -> Json {
    Json::Num(
        format!("{x:.digits$}")
            .parse()
            .expect("a formatted f64 parses"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["name", "value"]);
        t.row(&["alpha".into(), "1".into()]);
        t.row(&["b".into(), "22222".into()]);
        let s = t.render();
        assert!(s.contains("alpha"));
        assert!(s.lines().count() >= 4);
        let csv = t.to_csv();
        assert!(csv.starts_with("name,value\n"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn table_rejects_ragged_rows() {
        Table::new(&["a"]).row(&["1".into(), "2".into()]);
    }

    #[test]
    fn csv_escapes_commas() {
        let mut t = Table::new(&["a,b"]);
        t.row(&["x\"y".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"a,b\""));
        assert!(csv.contains("\"x\"\"y\""));
    }

    #[test]
    fn scatter_draws_classes() {
        let pts = vec![(0.1, 100.0, 0), (0.5, 1_000.0, 1), (0.9, 10_000.0, 2)];
        let s = ascii_scatter(&pts, 40, 10);
        assert!(s.contains('.'));
        assert!(s.contains('o'));
        assert!(s.contains('#'));
        assert_eq!(ascii_scatter(&[], 10, 5), "(no points)\n");
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(times(2.415), "2.42x");
        assert_eq!(pct(0.048), "4.8%");
    }
}
