//! Dense row-major real matrices.
//!
//! The collisional constant tensor is a stack of dense `nv × nv` *real*
//! matrices, one per (configuration point, toroidal mode). This module
//! provides the storage type plus the small set of operations the collision
//! pipeline needs: construction, element access, transpose, addition of
//! scaled identity, row/column extraction.

use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Sub};

/// Dense row-major matrix of `f64`.
#[derive(Clone, PartialEq)]
pub struct RealMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl RealMatrix {
    /// Allocate a `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// The `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Build from a closure evaluated at every `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Self { rows, cols, data }
    }

    /// Build from an existing row-major buffer. Panics if the length does not
    /// match `rows × cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length {} does not match {rows}x{cols}",
            data.len()
        );
        Self { rows, cols, data }
    }

    /// Diagonal matrix from a slice of diagonal entries.
    pub fn from_diagonal(diag: &[f64]) -> Self {
        let n = diag.len();
        let mut m = Self::zeros(n, n);
        for (i, &d) in diag.iter().enumerate() {
            m[(i, i)] = d;
        }
        m
    }

    /// Number of rows.
    #[inline(always)]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline(always)]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// True for square matrices.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Row-major backing slice.
    #[inline(always)]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable row-major backing slice.
    #[inline(always)]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Borrow row `i` as a contiguous slice.
    #[inline(always)]
    pub fn row(&self, i: usize) -> &[f64] {
        debug_assert!(i < self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrow row `i`.
    #[inline(always)]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        debug_assert!(i < self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copy column `j` out into a new vector.
    pub fn col(&self, j: usize) -> Vec<f64> {
        assert!(j < self.cols);
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// Transposed copy.
    pub fn transposed(&self) -> Self {
        Self::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
    }

    /// `self += s·I` (square only). Used to form `I ∓ Δt/2·C`.
    pub fn add_scaled_identity(&mut self, s: f64) {
        assert!(self.is_square(), "add_scaled_identity needs a square matrix");
        for i in 0..self.rows {
            self.data[i * self.cols + i] += s;
        }
    }

    /// In-place scale by `s`.
    pub fn scale_inplace(&mut self, s: f64) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// `self += s · other`, shapes must match.
    pub fn axpy(&mut self, s: f64, other: &Self) {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += s * b;
        }
    }

    /// Maximum absolute entry (∞-norm of the entries, not the operator norm).
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, &v| m.max(v.abs()))
    }

    /// Trace (square only).
    pub fn trace(&self) -> f64 {
        assert!(self.is_square());
        (0..self.rows).map(|i| self[(i, i)]).sum()
    }
}

impl Index<(usize, usize)> for RealMatrix {
    type Output = f64;
    #[inline(always)]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for RealMatrix {
    #[inline(always)]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

impl Add<&RealMatrix> for &RealMatrix {
    type Output = RealMatrix;
    fn add(self, rhs: &RealMatrix) -> RealMatrix {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols));
        let data = self.data.iter().zip(&rhs.data).map(|(a, b)| a + b).collect();
        RealMatrix { rows: self.rows, cols: self.cols, data }
    }
}

impl Sub<&RealMatrix> for &RealMatrix {
    type Output = RealMatrix;
    fn sub(self, rhs: &RealMatrix) -> RealMatrix {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols));
        let data = self.data.iter().zip(&rhs.data).map(|(a, b)| a - b).collect();
        RealMatrix { rows: self.rows, cols: self.cols, data }
    }
}

impl Mul<&RealMatrix> for &RealMatrix {
    type Output = RealMatrix;
    fn mul(self, rhs: &RealMatrix) -> RealMatrix {
        crate::gemm::matmul(self, rhs)
    }
}

impl fmt::Debug for RealMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "RealMatrix {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows.min(8) {
            write!(f, "  ")?;
            for j in 0..self.cols.min(8) {
                write!(f, "{:>12.5e} ", self[(i, j)])?;
            }
            writeln!(f, "{}", if self.cols > 8 { "..." } else { "" })?;
        }
        if self.rows > 8 {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_identity() {
        let z = RealMatrix::zeros(2, 3);
        assert_eq!(z.rows(), 2);
        assert_eq!(z.cols(), 3);
        assert!(z.as_slice().iter().all(|&v| v == 0.0));
        let i = RealMatrix::identity(3);
        assert_eq!(i.trace(), 3.0);
        assert_eq!(i[(0, 1)], 0.0);
        assert_eq!(i[(2, 2)], 1.0);
    }

    #[test]
    fn from_fn_row_major_layout() {
        let m = RealMatrix::from_fn(2, 3, |i, j| (i * 10 + j) as f64);
        assert_eq!(m.as_slice(), &[0.0, 1.0, 2.0, 10.0, 11.0, 12.0]);
        assert_eq!(m.row(1), &[10.0, 11.0, 12.0]);
        assert_eq!(m.col(2), vec![2.0, 12.0]);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn from_vec_length_mismatch_panics() {
        let _ = RealMatrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn transpose_involution() {
        let m = RealMatrix::from_fn(3, 4, |i, j| (i + 2 * j) as f64);
        assert_eq!(m.transposed().transposed(), m);
        assert_eq!(m.transposed()[(2, 1)], m[(1, 2)]);
    }

    #[test]
    fn scaled_identity_and_axpy() {
        let mut m = RealMatrix::zeros(3, 3);
        m.add_scaled_identity(2.5);
        assert_eq!(m.trace(), 7.5);
        let id = RealMatrix::identity(3);
        m.axpy(-2.5, &id);
        assert_eq!(m.max_abs(), 0.0);
    }

    #[test]
    fn diagonal_and_trace() {
        let d = RealMatrix::from_diagonal(&[1.0, 2.0, 3.0]);
        assert_eq!(d.row(1), &[0.0, 2.0, 0.0]);
        assert_eq!(d.trace(), 6.0);
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = RealMatrix::from_fn(2, 2, |i, j| (i + j) as f64);
        let b = RealMatrix::from_fn(2, 2, |i, j| (i * j) as f64 + 1.0);
        let c = &(&a + &b) - &b;
        assert_eq!(c, a);
    }

    #[test]
    fn scale_inplace_scales_everything() {
        let mut m = RealMatrix::from_fn(2, 2, |_, _| 2.0);
        m.scale_inplace(0.5);
        assert!(m.as_slice().iter().all(|&v| v == 1.0));
    }
}
