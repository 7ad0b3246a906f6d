//! Fixed-width table printing for the experiment harness — each bench
//! target prints the same rows/series its paper counterpart reports.

/// A simple fixed-width text table.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(headers: I) -> Self {
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    pub fn row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, cells: I) {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Render to a string (column-aligned, markdown-ish separators).
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.chars().count());
            }
        }
        let fmt_row = |cells: &[String]| -> String {
            let mut line = String::from("|");
            for (cell, w) in cells.iter().zip(&widths) {
                let pad = w - cell.chars().count();
                line.push(' ');
                line.push_str(cell);
                line.extend(std::iter::repeat_n(' ', pad + 1));
                line.push('|');
            }
            line
        };
        let mut out = fmt_row(&self.headers);
        out.push('\n');
        let mut sep = String::from("|");
        for w in &widths {
            sep.extend(std::iter::repeat_n('-', w + 2));
            sep.push('|');
        }
        out.push_str(&sep);
        for row in &self.rows {
            out.push('\n');
            out.push_str(&fmt_row(row));
        }
        out
    }

    /// Print with a title banner.
    pub fn print(&self, title: &str) {
        println!("\n=== {title} ===");
        println!("{}", self.render());
    }
}

/// Format seconds with adaptive precision (as in the paper's Time(s)
/// columns).
pub fn fmt_secs(secs: f64) -> String {
    if secs >= 100.0 {
        format!("{secs:.0}")
    } else if secs >= 1.0 {
        format!("{secs:.2}")
    } else {
        format!("{secs:.4}")
    }
}

/// Format a relative error (the paper's Error(l2) columns); exact methods
/// pass `None` and print "-".
pub fn fmt_err(err: Option<f64>) -> String {
    match err {
        None => "-".to_string(),
        Some(e) if !e.is_finite() => "inf".to_string(),
        Some(e) if e >= 100.0 => format!("{e:.0}"),
        Some(e) => format!("{e:.4}"),
    }
}

/// Format "not applicable" cells (Table V's "\\" for gradient methods on
/// XGB).
pub fn not_applicable() -> String {
    "\\".to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_table() {
        let mut t = Table::new(["Alg", "Time(s)", "Error(l2)"]);
        t.row(["IPSS", "0.12", "0.0210"]);
        t.row(["MC-Shapley", "93.00", "-"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        // All lines equal width.
        let w = lines[0].chars().count();
        assert!(lines.iter().all(|l| l.chars().count() == w), "{s}");
        assert!(s.contains("| IPSS"));
    }

    #[test]
    #[should_panic]
    fn row_width_mismatch_panics() {
        let mut t = Table::new(["a", "b"]);
        t.row(["only-one"]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_secs(0.01234), "0.0123");
        assert_eq!(fmt_secs(12.345), "12.35");
        assert_eq!(fmt_secs(1234.5), "1234");
        assert_eq!(fmt_err(None), "-");
        assert_eq!(fmt_err(Some(0.02)), "0.0200");
        assert_eq!(fmt_err(Some(123.0)), "123");
        assert_eq!(fmt_err(Some(f64::INFINITY)), "inf");
        assert_eq!(not_applicable(), "\\");
    }
}
