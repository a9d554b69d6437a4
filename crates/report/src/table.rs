//! Aligned plain-text table rendering.

use metasim_units::Percent;

/// Column alignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Align {
    /// Left-aligned (labels).
    Left,
    /// Right-aligned (numbers).
    Right,
}

/// A simple text table builder.
#[derive(Debug, Clone)]
pub struct Table {
    title: Option<String>,
    header: Vec<String>,
    aligns: Vec<Align>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with column headers; all columns right-aligned except
    /// the first.
    #[must_use]
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        let header: Vec<String> = header.into_iter().map(Into::into).collect();
        let mut aligns = vec![Align::Right; header.len()];
        if let Some(first) = aligns.first_mut() {
            *first = Align::Left;
        }
        Self {
            title: None,
            header,
            aligns,
            rows: Vec::new(),
        }
    }

    /// Set a title printed above the table.
    #[must_use]
    pub fn with_title<S: Into<String>>(mut self, title: S) -> Self {
        self.title = Some(title.into());
        self
    }

    /// Append a row; panics if the arity differs from the header.
    pub fn push_row<S: Into<String>>(&mut self, row: Vec<S>) {
        let row: Vec<String> = row.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.header.len(), "row arity");
        self.rows.push(row);
    }

    /// Render to a string with a separator under the header.
    #[must_use]
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }

        let mut out = String::new();
        if let Some(t) = &self.title {
            out.push_str(t);
            out.push('\n');
        }
        let fmt_row = |cells: &[String], out: &mut String| {
            for i in 0..cols {
                if i > 0 {
                    out.push_str("  ");
                }
                let cell = &cells[i];
                let pad = widths[i] - cell.len();
                match self.aligns[i] {
                    Align::Left => {
                        out.push_str(cell);
                        if i + 1 < cols {
                            out.push_str(&" ".repeat(pad));
                        }
                    }
                    Align::Right => {
                        out.push_str(&" ".repeat(pad));
                        out.push_str(cell);
                    }
                }
            }
            out.push('\n');
        };
        fmt_row(&self.header, &mut out);
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            fmt_row(row, &mut out);
        }
        out
    }
}

/// Format a value with one decimal (the paper's §4 composite precision).
///
/// Accepts anything convertible to `f64` — bare floats, [`Percent`],
/// `Seconds`, … — and delegates to [`Percent::one_decimal`], the single
/// definition of this precision, so tables, CSVs, and charts cannot
/// drift apart.
#[must_use]
pub fn f1(x: impl Into<f64>) -> String {
    Percent::new(x.into()).one_decimal()
}

/// Format a value as a whole number (the paper's error-table precision);
/// delegates to [`Percent::paper`].
#[must_use]
pub fn f0(x: impl Into<f64>) -> String {
    Percent::new(x.into()).paper()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(vec!["name", "value"]);
        t.push_row(vec!["alpha".to_string(), "1.0".to_string()]);
        t.push_row(vec!["b".to_string(), "123.4".to_string()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[1].chars().all(|c| c == '-'));
        // Numbers right-aligned: both rows end at the same column.
        assert_eq!(lines[2].len(), lines[3].len());
        assert!(lines[2].ends_with("1.0"));
        assert!(lines[3].ends_with("123.4"));
    }

    #[test]
    fn title_is_printed_first() {
        let mut t = Table::new(vec!["a"]).with_title("Table 4");
        t.push_row(vec!["x"]);
        assert!(t.render().starts_with("Table 4\n"));
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn arity_mismatch_panics() {
        let mut t = Table::new(vec!["a", "b"]);
        t.push_row(vec!["only one"]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(f1(1.26), "1.3");
        assert_eq!(f0(63.4), "63");
        assert_eq!(f0(62.5), "62"); // round-half-even
    }
}
