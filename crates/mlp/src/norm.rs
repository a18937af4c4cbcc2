//! Feature normalization for network inputs and outputs.

/// Per-column min-max normalizer mapping observed ranges to `[0, 1]`.
///
/// Neural regression over raw resource counts (which span several orders of
/// magnitude) requires normalization; the normalizer is fitted on the
/// training set and stored alongside the network.
#[derive(Debug, Clone, PartialEq)]
pub struct Normalizer {
    mins: Vec<f64>,
    maxs: Vec<f64>,
}

impl Normalizer {
    /// Fit a normalizer to a set of sample rows.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty or rows have inconsistent widths.
    pub fn fit(rows: &[Vec<f64>]) -> Self {
        assert!(!rows.is_empty(), "cannot fit a normalizer to no data");
        let width = rows[0].len();
        let mut mins = vec![f64::INFINITY; width];
        let mut maxs = vec![f64::NEG_INFINITY; width];
        for row in rows {
            assert_eq!(row.len(), width, "ragged rows");
            for (i, &v) in row.iter().enumerate() {
                mins[i] = mins[i].min(v);
                maxs[i] = maxs[i].max(v);
            }
        }
        Normalizer { mins, maxs }
    }

    /// Number of columns.
    pub fn width(&self) -> usize {
        self.mins.len()
    }

    /// Normalize one row into `[0, 1]` per column (constant columns map to
    /// 0.5; out-of-range values extrapolate linearly).
    pub fn apply(&self, row: &[f64]) -> Vec<f64> {
        let mut out = Vec::new();
        self.apply_into(row, &mut out);
        out
    }

    /// [`Normalizer::apply`] into a caller-owned buffer, which is cleared
    /// first.
    pub(crate) fn apply_into(&self, row: &[f64], out: &mut Vec<f64>) {
        assert_eq!(row.len(), self.width(), "row width mismatch");
        out.clear();
        out.extend(row.iter().enumerate().map(|(i, &v)| {
            let span = self.maxs[i] - self.mins[i];
            if span <= 0.0 {
                0.5
            } else {
                (v - self.mins[i]) / span
            }
        }));
    }

    /// Invert [`Normalizer::apply`] for one column.
    pub fn invert(&self, col: usize, v: f64) -> f64 {
        let span = self.maxs[col] - self.mins[col];
        if span <= 0.0 {
            self.mins[col]
        } else {
            self.mins[col] + v * span
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fit_apply_invert() {
        let rows = vec![vec![0.0, 10.0], vec![5.0, 20.0], vec![10.0, 30.0]];
        let n = Normalizer::fit(&rows);
        assert_eq!(n.apply(&[5.0, 20.0]), vec![0.5, 0.5]);
        assert_eq!(n.apply(&[0.0, 30.0]), vec![0.0, 1.0]);
        assert!((n.invert(0, 0.5) - 5.0).abs() < 1e-12);
        assert!((n.invert(1, 1.0) - 30.0).abs() < 1e-12);
    }

    #[test]
    fn constant_column_maps_to_half() {
        let rows = vec![vec![7.0], vec![7.0]];
        let n = Normalizer::fit(&rows);
        assert_eq!(n.apply(&[7.0]), vec![0.5]);
        assert_eq!(n.invert(0, 0.3), 7.0);
    }

    #[test]
    #[should_panic(expected = "cannot fit")]
    fn fit_rejects_empty() {
        Normalizer::fit(&[]);
    }
}
