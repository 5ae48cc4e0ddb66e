use crate::TensorError;

/// A dense, row-major `f32` matrix.
///
/// `Tensor2` is the feature-embedding container of the reproduction: vertex
/// embedding tensors are `(#vertices, feature_dim)` and edge embedding
/// tensors are `(#edges, feature_dim)`, matching the paper's `X[V][F]` /
/// `E[F]` notation (paper §3.1).
///
/// # Example
///
/// ```
/// use ugrapher_tensor::Tensor2;
///
/// let t = Tensor2::from_fn(2, 2, |r, c| (r + c) as f32);
/// assert_eq!(t[(1, 1)], 2.0);
/// assert_eq!(t.row(0), &[0.0, 1.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor2 {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Tensor2 {
    /// Creates a tensor of the given shape filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a tensor of the given shape filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut t = Self::zeros(n, n);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// Creates a tensor whose element at `(r, c)` is `f(r, c)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// Wraps an existing row-major buffer.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::BadBuffer`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Result<Self, TensorError> {
        if data.len() != rows * cols {
            return Err(TensorError::BadBuffer {
                shape: (rows, cols),
                len: data.len(),
            });
        }
        Ok(Self { rows, cols, data })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (the feature dimension for embedding tensors).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Shape as `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Checks that every element is finite (no NaN, no ±inf).
    ///
    /// Graph aggregations propagate a single poisoned element to every
    /// vertex reachable from it, so the runtime validates operand tensors
    /// up front instead of producing a silently-NaN output.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::NonFinite`] locating the first offending
    /// element.
    pub fn validate_finite(&self) -> Result<(), TensorError> {
        // The common all-finite case scans fixed-size chunks without an
        // early exit inside a chunk, so the check vectorises; only a
        // failing tensor pays for locating its first bad element. A value
        // is NaN or ±Inf exactly when its exponent bits are all ones, and
        // then adding one to the exponent field carries into the sign bit;
        // OR-ing that bit over a chunk is integer work with no float
        // compare, which vectorises on every target's baseline.
        const CHUNK: usize = 256;
        const EXP: u32 = 0x7f80_0000;
        const EXP_ONE: u32 = 0x0080_0000;
        let all_finite = self.data.chunks(CHUNK).all(|c| {
            let carry = c
                .iter()
                .fold(0, |acc, v| acc | (v.to_bits() & EXP).wrapping_add(EXP_ONE));
            carry & 0x8000_0000 == 0
        });
        if all_finite {
            return Ok(());
        }
        match self.data.iter().position(|v| !v.is_finite()) {
            None => Ok(()),
            Some(i) => Err(TensorError::NonFinite {
                row: i.checked_div(self.cols).unwrap_or(0),
                col: i.checked_rem(self.cols).unwrap_or(0),
                value: self.data[i],
            }),
        }
    }

    /// Borrows the backing row-major buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutably borrows the backing row-major buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and returns the backing buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Borrows row `r` as a feature slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(r < self.rows, "row {r} out of bounds ({} rows)", self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrows row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(r < self.rows, "row {r} out of bounds ({} rows)", self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Returns an iterator over rows.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f32]> {
        self.data.chunks_exact(self.cols.max(1))
    }

    /// Returns the transpose of `self`.
    pub fn transpose(&self) -> Self {
        Self::from_fn(self.cols, self.rows, |r, c| self[(c, r)])
    }

    /// Applies `f` to every element, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Self {
        Self {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Element-wise ReLU (`max(x, 0)`).
    pub fn relu(&self) -> Self {
        self.map(|x| x.max(0.0))
    }

    /// Maximum absolute difference against another tensor of the same shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn max_abs_diff(&self, other: &Self) -> Result<f32, TensorError> {
        self.check_same_shape("max_abs_diff", other)?;
        Ok(self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max))
    }

    /// Checks approximate equality within `tol`, element-wise.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn approx_eq(&self, other: &Self, tol: f32) -> Result<bool, TensorError> {
        Ok(self.max_abs_diff(other)? <= tol)
    }

    pub(crate) fn check_same_shape(
        &self,
        op: &'static str,
        other: &Self,
    ) -> Result<(), TensorError> {
        if self.shape() != other.shape() {
            return Err(TensorError::ShapeMismatch {
                op,
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        Ok(())
    }
}

impl std::ops::Index<(usize, usize)> for Tensor2 {
    type Output = f32;

    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Tensor2 {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        &mut self.data[r * self.cols + c]
    }
}

impl Default for Tensor2 {
    fn default() -> Self {
        Self::zeros(0, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_finite_locates_the_poison() {
        let mut t = Tensor2::zeros(3, 4);
        t.validate_finite().unwrap();
        t.as_mut_slice()[6] = f32::NAN; // row 1, col 2
        match t.validate_finite().unwrap_err() {
            TensorError::NonFinite { row, col, value } => {
                assert_eq!((row, col), (1, 2));
                assert!(value.is_nan());
            }
            other => panic!("unexpected error {other:?}"),
        }
        t.as_mut_slice()[6] = f32::INFINITY;
        assert!(t.validate_finite().is_err());
        // Degenerate shapes never divide by zero.
        Tensor2::zeros(0, 0).validate_finite().unwrap();
        Tensor2::zeros(5, 0).validate_finite().unwrap();
    }

    /// The exponent-carry scan accepts every finite class and rejects
    /// every non-finite one, at any position of a chunk.
    #[test]
    fn validate_finite_classifies_every_float_class() {
        let finite = [
            0.0,
            -0.0,
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE / 2.0, // subnormal
            f32::from_bits(1),
            f32::MAX,
            f32::MIN,
            1.5,
        ];
        let non_finite = [
            f32::NAN,
            -f32::NAN,
            f32::from_bits(0x7f80_0001), // signalling-NaN payload
            f32::from_bits(0xffff_ffff),
            f32::INFINITY,
            f32::NEG_INFINITY,
        ];
        let mut t = Tensor2::from_fn(300, 1, |r, _| finite[r % finite.len()]);
        t.validate_finite().unwrap();
        for (k, &bad) in non_finite.iter().enumerate() {
            let at = [0, 255, 256, 299][k % 4];
            let keep = t.as_slice()[at];
            t.as_mut_slice()[at] = bad;
            match t.validate_finite() {
                Err(TensorError::NonFinite { row, .. }) => assert_eq!(row, at, "{bad:?}"),
                other => panic!("{bad:?} at {at}: {other:?}"),
            }
            t.as_mut_slice()[at] = keep;
        }
    }

    #[test]
    fn zeros_and_shape() {
        let t = Tensor2::zeros(3, 4);
        assert_eq!(t.shape(), (3, 4));
        assert_eq!(t.len(), 12);
        assert!(t.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Tensor2::from_vec(2, 2, vec![1.0; 4]).is_ok());
        let err = Tensor2::from_vec(2, 2, vec![1.0; 5]).unwrap_err();
        assert_eq!(
            err,
            TensorError::BadBuffer {
                shape: (2, 2),
                len: 5
            }
        );
    }

    #[test]
    fn eye_is_identity() {
        let i = Tensor2::eye(3);
        for r in 0..3 {
            for c in 0..3 {
                assert_eq!(i[(r, c)], if r == c { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn indexing_round_trips() {
        let mut t = Tensor2::zeros(2, 3);
        t[(1, 2)] = 7.0;
        assert_eq!(t[(1, 2)], 7.0);
        assert_eq!(t.row(1), &[0.0, 0.0, 7.0]);
    }

    #[test]
    fn transpose_involution() {
        let t = Tensor2::from_fn(3, 5, |r, c| (r * 10 + c) as f32);
        assert_eq!(t.transpose().transpose(), t);
        assert_eq!(t.transpose()[(4, 2)], t[(2, 4)]);
    }

    #[test]
    fn relu_clamps_negatives() {
        let t = Tensor2::from_vec(1, 4, vec![-1.0, 0.0, 2.0, -0.5]).unwrap();
        assert_eq!(t.relu().as_slice(), &[0.0, 0.0, 2.0, 0.0]);
    }

    #[test]
    fn max_abs_diff_detects_difference() {
        let a = Tensor2::full(2, 2, 1.0);
        let mut b = a.clone();
        b[(0, 1)] = 1.5;
        assert_eq!(a.max_abs_diff(&b).unwrap(), 0.5);
        assert!(a.approx_eq(&b, 0.5).unwrap());
        assert!(!a.approx_eq(&b, 0.4).unwrap());
    }

    #[test]
    fn shape_mismatch_reported() {
        let a = Tensor2::zeros(2, 2);
        let b = Tensor2::zeros(2, 3);
        assert!(matches!(
            a.max_abs_diff(&b),
            Err(TensorError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn iter_rows_yields_all_rows() {
        let t = Tensor2::from_fn(3, 2, |r, _| r as f32);
        let rows: Vec<_> = t.iter_rows().collect();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[2], &[2.0, 2.0]);
    }

    #[test]
    fn row_panics_out_of_bounds() {
        let t = Tensor2::zeros(1, 1);
        let result = std::panic::catch_unwind(|| t.row(1));
        assert!(result.is_err());
    }
}
