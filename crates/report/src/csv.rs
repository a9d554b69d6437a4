//! Minimal CSV emission (RFC-4180 quoting) for experiment outputs.

/// A CSV document builder.
#[derive(Debug, Clone, Default)]
pub struct CsvWriter {
    buf: String,
    columns: Option<usize>,
}

fn escape(field: &str) -> String {
    if field.contains(',') || field.contains('"') || field.contains('\n') {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

impl CsvWriter {
    /// Fresh, empty document.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Append one row; the first row fixes the arity.
    pub fn row<S: AsRef<str>>(&mut self, cells: &[S]) {
        match self.columns {
            None => self.columns = Some(cells.len()),
            Some(n) => assert_eq!(n, cells.len(), "CSV row arity"),
        }
        let line: Vec<String> = cells.iter().map(|c| escape(c.as_ref())).collect();
        self.buf.push_str(&line.join(","));
        self.buf.push('\n');
    }

    /// The finished document.
    #[must_use]
    pub fn finish(self) -> String {
        self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_rows() {
        let mut w = CsvWriter::new();
        w.row(&["a", "b"]);
        w.row(&["1", "2"]);
        assert_eq!(w.finish(), "a,b\n1,2\n");
    }

    #[test]
    fn quoting_rules() {
        assert_eq!(escape("plain"), "plain");
        assert_eq!(escape("has,comma"), "\"has,comma\"");
        assert_eq!(escape("has\"quote"), "\"has\"\"quote\"");
        assert_eq!(escape("multi\nline"), "\"multi\nline\"");
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_is_enforced() {
        let mut w = CsvWriter::new();
        w.row(&["a", "b"]);
        w.row(&["only"]);
    }
}
