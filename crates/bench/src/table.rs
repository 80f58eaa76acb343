//! Minimal fixed-width table printer for the experiment binaries.

/// Prints aligned rows for the table/figure regeneration binaries.
#[derive(Debug, Default)]
pub struct TableWriter {
    widths: Vec<usize>,
}

impl TableWriter {
    /// Creates a writer with explicit column widths.
    pub fn new(widths: &[usize]) -> Self {
        TableWriter {
            widths: widths.to_vec(),
        }
    }

    /// Formats one row.
    pub fn row(&self, cells: &[String]) -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let w = self.widths.get(i).copied().unwrap_or(12);
                format!("{c:>w$}")
            })
            .collect::<Vec<_>>()
            .join("  ")
    }
}

/// Convenience: formats a float with the given precision.
pub fn fmt(v: f64, prec: usize) -> String {
    format!("{v:.prec$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_are_aligned() {
        let t = TableWriter::new(&[6, 8]);
        let r = t.row(&["a".into(), "b".into()]);
        assert_eq!(r.len(), 6 + 2 + 8);
        assert!(r.ends_with('b'));
    }

    #[test]
    fn fmt_precision() {
        assert_eq!(fmt(1.23456, 2), "1.23");
    }
}
