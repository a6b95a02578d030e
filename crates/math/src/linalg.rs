//! Dense vector and matrix helpers over `F_p`.
//!
//! PASTA's affine layer multiplies a `t × t` matrix by the state vector and
//! adds a round constant; the invertible matrices are generated row-by-row
//! from a single seed row via a companion-matrix recurrence (paper Eq. 1).
//! These helpers are shared by the software cipher, the hardware model
//! (which checks its datapath against them) and the homomorphic evaluator.

use crate::zp::Zp;
use crate::MathError;

/// A dense row-major matrix over `F_p` with `u64` residues.
///
/// # Examples
///
/// ```
/// use pasta_math::{linalg::Matrix, Zp, Modulus};
/// let zp = Zp::new(Modulus::PASTA_17_BIT)?;
/// let m = Matrix::identity(3);
/// let v = vec![7u64, 8, 9];
/// assert_eq!(m.mul_vec(&zp, &v)?, v);
/// # Ok::<(), pasta_math::MathError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<u64>,
}

impl Matrix {
    /// Creates a matrix from row-major data.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::DimensionMismatch`] if `data.len() != rows * cols`.
    pub fn from_rows(rows: usize, cols: usize, data: Vec<u64>) -> Result<Self, MathError> {
        if data.len() != rows * cols {
            return Err(MathError::DimensionMismatch {
                expected: rows * cols,
                found: data.len(),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// The `n × n` identity matrix.
    #[must_use]
    pub fn identity(n: usize) -> Self {
        let mut data = vec![0u64; n * n];
        for i in 0..n {
            data[i * n + i] = 1;
        }
        Matrix {
            rows: n,
            cols: n,
            data,
        }
    }

    /// An all-zero matrix.
    #[must_use]
    pub fn zero(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0; rows * cols],
        }
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element accessor.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows` or `c >= cols`.
    #[must_use]
    pub fn get(&self, r: usize, c: usize) -> u64 {
        assert!(r < self.rows && c < self.cols, "matrix index out of bounds");
        self.data[r * self.cols + c]
    }

    /// Mutable element accessor.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows` or `c >= cols`.
    pub fn set(&mut self, r: usize, c: usize, v: u64) {
        assert!(r < self.rows && c < self.cols, "matrix index out of bounds");
        self.data[r * self.cols + c] = v;
    }

    /// Borrow row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    #[must_use]
    pub fn row(&self, r: usize) -> &[u64] {
        assert!(r < self.rows, "row index out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Borrow every entry as one row-major slice: entry `(r, c)` is at
    /// index `r · cols + c`.
    #[must_use]
    pub fn as_slice(&self) -> &[u64] {
        &self.data
    }

    /// Matrix–vector product `M · x`.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::DimensionMismatch`] if `x.len() != cols`.
    pub fn mul_vec(&self, zp: &Zp, x: &[u64]) -> Result<Vec<u64>, MathError> {
        if x.len() != self.cols {
            return Err(MathError::DimensionMismatch {
                expected: self.cols,
                found: x.len(),
            });
        }
        Ok((0..self.rows).map(|r| dot(zp, self.row(r), x)).collect())
    }

    /// Matrix–matrix product `self · other`.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::DimensionMismatch`] if inner dimensions differ.
    pub fn mul_mat(&self, zp: &Zp, other: &Matrix) -> Result<Matrix, MathError> {
        if self.cols != other.rows {
            return Err(MathError::DimensionMismatch {
                expected: self.cols,
                found: other.rows,
            });
        }
        let mut out = Matrix::zero(self.rows, other.cols);
        for r in 0..self.rows {
            for k in 0..self.cols {
                let a = self.get(r, k);
                if a == 0 {
                    continue;
                }
                for c in 0..other.cols {
                    let v = zp.mac(a, other.get(k, c), out.get(r, c));
                    out.set(r, c, v);
                }
            }
        }
        Ok(out)
    }

    /// Rank over `F_p` by Gaussian elimination (used to verify the Eq. 1
    /// construction really yields invertible matrices).
    #[must_use]
    pub fn rank(&self, zp: &Zp) -> usize {
        let mut m = self.data.clone();
        let (rows, cols) = (self.rows, self.cols);
        let mut rank = 0;
        let mut pivot_col = 0;
        while rank < rows && pivot_col < cols {
            // Find pivot.
            let pivot_row = (rank..rows).find(|&r| m[r * cols + pivot_col] != 0);
            let Some(pr) = pivot_row else {
                pivot_col += 1;
                continue;
            };
            m.swap_chunks(rank, pr, cols);
            let inv = zp
                .inv(m[rank * cols + pivot_col])
                // audit: allow(panic, reason = "the pivot row was selected by find(element != 0), and every nonzero residue is invertible modulo a prime")
                .expect("pivot is nonzero by construction");
            for c in pivot_col..cols {
                m[rank * cols + c] = zp.mul(m[rank * cols + c], inv);
            }
            for r in 0..rows {
                if r != rank && m[r * cols + pivot_col] != 0 {
                    let factor = m[r * cols + pivot_col];
                    for c in pivot_col..cols {
                        let sub = zp.mul(factor, m[rank * cols + c]);
                        m[r * cols + c] = zp.sub(m[r * cols + c], sub);
                    }
                }
            }
            rank += 1;
            pivot_col += 1;
        }
        rank
    }

    /// Whether the matrix is square and full-rank over `F_p`.
    #[must_use]
    pub fn is_invertible(&self, zp: &Zp) -> bool {
        self.rows == self.cols && self.rank(zp) == self.rows
    }
}

trait SwapChunks {
    fn swap_chunks(&mut self, a: usize, b: usize, chunk: usize);
}

impl SwapChunks for Vec<u64> {
    fn swap_chunks(&mut self, a: usize, b: usize, chunk: usize) {
        if a == b {
            return;
        }
        for i in 0..chunk {
            self.swap(a * chunk + i, b * chunk + i);
        }
    }
}

/// Dot product of two equal-length slices over `F_p`.
///
/// Accumulates in `u128` batches to amortize reductions, matching the
/// adder-tree-then-reduce structure of the MatMul unit.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[must_use]
pub fn dot(zp: &Zp, a: &[u64], b: &[u64]) -> u64 {
    assert_eq!(a.len(), b.len(), "dot product requires equal lengths");
    let p2 = u128::from(zp.p()) * u128::from(zp.p());
    // How many products fit in u128 alongside the running sum:
    // products are < p^2 <= 2^124; keep headroom of a factor 8.
    let mut acc: u128 = 0;
    let mut out: u64 = 0;
    let limit = u128::MAX - p2;
    for (&x, &y) in a.iter().zip(b.iter()) {
        let prod = u128::from(x) * u128::from(y);
        if acc > limit - prod {
            out = zp.add(out, zp.from_u128(acc));
            acc = 0;
        }
        acc += prod;
    }
    zp.add(out, zp.from_u128(acc))
}

/// Element-wise vector addition over `F_p`.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[must_use]
pub fn vec_add(zp: &Zp, a: &[u64], b: &[u64]) -> Vec<u64> {
    assert_eq!(a.len(), b.len(), "vector addition requires equal lengths");
    a.iter()
        .zip(b.iter())
        .map(|(&x, &y)| zp.add(x, y))
        .collect()
}

/// Element-wise vector subtraction over `F_p`.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[must_use]
pub fn vec_sub(zp: &Zp, a: &[u64], b: &[u64]) -> Vec<u64> {
    assert_eq!(
        a.len(),
        b.len(),
        "vector subtraction requires equal lengths"
    );
    a.iter()
        .zip(b.iter())
        .map(|(&x, &y)| zp.sub(x, y))
        .collect()
}

/// Scales a vector by a scalar over `F_p`.
#[must_use]
pub fn vec_scale(zp: &Zp, a: &[u64], s: u64) -> Vec<u64> {
    a.iter().map(|&x| zp.mul(x, s)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prime::Modulus;
    use proptest::prelude::*;

    fn zp17() -> Zp {
        Zp::new(Modulus::PASTA_17_BIT).unwrap()
    }

    #[test]
    fn identity_preserves_vectors() {
        let zp = zp17();
        let v = vec![1u64, 2, 3, 4, 5];
        assert_eq!(Matrix::identity(5).mul_vec(&zp, &v).unwrap(), v);
    }

    #[test]
    fn dimension_mismatch_reported() {
        let zp = zp17();
        let m = Matrix::identity(4);
        assert_eq!(
            m.mul_vec(&zp, &[1, 2, 3]).unwrap_err(),
            MathError::DimensionMismatch {
                expected: 4,
                found: 3
            }
        );
        assert!(Matrix::from_rows(2, 2, vec![1, 2, 3]).is_err());
    }

    #[test]
    fn mat_mul_associates_with_vec_mul() {
        let zp = zp17();
        let a = Matrix::from_rows(2, 2, vec![1, 2, 3, 4]).unwrap();
        let b = Matrix::from_rows(2, 2, vec![5, 6, 7, 8]).unwrap();
        let x = vec![9u64, 10];
        let lhs = a.mul_mat(&zp, &b).unwrap().mul_vec(&zp, &x).unwrap();
        let rhs = a.mul_vec(&zp, &b.mul_vec(&zp, &x).unwrap()).unwrap();
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn rank_of_identity_and_singular() {
        let zp = zp17();
        assert_eq!(Matrix::identity(6).rank(&zp), 6);
        let singular = Matrix::from_rows(2, 2, vec![1, 2, 2, 4]).unwrap();
        assert_eq!(singular.rank(&zp), 1);
        assert!(!singular.is_invertible(&zp));
        assert!(Matrix::identity(3).is_invertible(&zp));
        assert_eq!(Matrix::zero(3, 3).rank(&zp), 0);
    }

    #[test]
    fn dot_handles_extremes() {
        let zp = zp17();
        let p = zp.p();
        let a = vec![p - 1; 128];
        let b = vec![p - 1; 128];
        let expect = zp.mul(zp.from_u64(128 % p), zp.mul(p - 1, p - 1));
        assert_eq!(dot(&zp, &a, &b), expect);
    }

    #[test]
    fn dot_batching_matches_naive_for_wide_modulus() {
        // 60-bit modulus: products are ~2^120, so the accumulator must
        // flush; cross-check against a per-term reduction.
        let zp = Zp::new(Modulus::NTT_60_BIT).unwrap();
        let p = zp.p();
        let a: Vec<u64> = (0..500).map(|i| (p - 1).wrapping_sub(i) % p).collect();
        let b: Vec<u64> = (0..500).map(|i| p - 1 - (i * 7) % p).collect();
        let mut naive = 0u64;
        for (&x, &y) in a.iter().zip(b.iter()) {
            naive = zp.add(naive, zp.mul(x, y));
        }
        assert_eq!(dot(&zp, &a, &b), naive);
    }

    #[test]
    fn vec_ops_roundtrip() {
        let zp = zp17();
        let a = vec![1u64, 65_536, 30_000];
        let b = vec![65_536u64, 65_536, 12];
        assert_eq!(vec_sub(&zp, &vec_add(&zp, &a, &b), &b), a);
        assert_eq!(vec_scale(&zp, &a, 1), a);
        assert_eq!(vec_scale(&zp, &a, 0), vec![0, 0, 0]);
    }

    proptest! {
        #[test]
        fn prop_dot_commutative(a in proptest::collection::vec(0u64..65_537, 1..64),
                                seed in 0u64..65_537) {
            let zp = zp17();
            let b: Vec<u64> = a.iter().map(|&x| zp.mul(x, seed)).collect();
            prop_assert_eq!(dot(&zp, &a, &b), dot(&zp, &b, &a));
        }

        #[test]
        fn prop_matvec_linear(x in proptest::collection::vec(0u64..65_537, 8),
                              y in proptest::collection::vec(0u64..65_537, 8),
                              rows in proptest::collection::vec(0u64..65_537, 64)) {
            let zp = zp17();
            let m = Matrix::from_rows(8, 8, rows).unwrap();
            let lhs = m.mul_vec(&zp, &vec_add(&zp, &x, &y)).unwrap();
            let rhs = vec_add(&zp, &m.mul_vec(&zp, &x).unwrap(), &m.mul_vec(&zp, &y).unwrap());
            prop_assert_eq!(lhs, rhs);
        }
    }
}
