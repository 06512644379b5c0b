//! Dense row-major 2/3/4-dimensional tensors.
//!
//! CGYRO-class state lives in 3D complex tensors over (configuration,
//! velocity, toroidal); the collisional constant tensor is 4D. These types
//! are deliberately simple: contiguous row-major storage, checked
//! constructors, debug-checked hot-path indexing.

use std::ops::{Index, IndexMut};

/// Dense row-major 2-D tensor.
#[derive(Clone, Debug, PartialEq)]
pub struct Tensor2<T> {
    d0: usize,
    d1: usize,
    data: Vec<T>,
}

impl<T: Copy + Default> Tensor2<T> {
    /// Allocate filled with `T::default()`.
    pub fn new(d0: usize, d1: usize) -> Self {
        Self { d0, d1, data: vec![T::default(); d0 * d1] }
    }
}

impl<T: Copy> Tensor2<T> {
    /// Build from a closure over `(i0, i1)`.
    pub fn from_fn(d0: usize, d1: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        let mut data = Vec::with_capacity(d0 * d1);
        for i0 in 0..d0 {
            for i1 in 0..d1 {
                data.push(f(i0, i1));
            }
        }
        Self { d0, d1, data }
    }

    /// Shape as `(d0, d1)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.d0, self.d1)
    }

    /// Total element count.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Contiguous backing slice.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable backing slice.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Row `i0` as a contiguous slice.
    #[inline(always)]
    pub fn row(&self, i0: usize) -> &[T] {
        debug_assert!(i0 < self.d0);
        &self.data[i0 * self.d1..(i0 + 1) * self.d1]
    }

    /// Mutable row `i0`.
    #[inline(always)]
    pub fn row_mut(&mut self, i0: usize) -> &mut [T] {
        debug_assert!(i0 < self.d0);
        &mut self.data[i0 * self.d1..(i0 + 1) * self.d1]
    }

    /// Fill every element with `v`.
    pub fn fill(&mut self, v: T) {
        self.data.iter_mut().for_each(|x| *x = v);
    }
}

impl<T: Copy> Index<(usize, usize)> for Tensor2<T> {
    type Output = T;
    #[inline(always)]
    fn index(&self, (i0, i1): (usize, usize)) -> &T {
        debug_assert!(i0 < self.d0 && i1 < self.d1);
        &self.data[i0 * self.d1 + i1]
    }
}

impl<T: Copy> IndexMut<(usize, usize)> for Tensor2<T> {
    #[inline(always)]
    fn index_mut(&mut self, (i0, i1): (usize, usize)) -> &mut T {
        debug_assert!(i0 < self.d0 && i1 < self.d1);
        &mut self.data[i0 * self.d1 + i1]
    }
}

/// Dense row-major 3-D tensor, index order `[i0][i1][i2]` with `i2` fastest.
#[derive(Clone, Debug, PartialEq)]
pub struct Tensor3<T> {
    d0: usize,
    d1: usize,
    d2: usize,
    data: Vec<T>,
}

impl<T: Copy + Default> Tensor3<T> {
    /// Allocate filled with `T::default()`.
    pub fn new(d0: usize, d1: usize, d2: usize) -> Self {
        Self { d0, d1, d2, data: vec![T::default(); d0 * d1 * d2] }
    }
}

impl<T: Copy> Tensor3<T> {
    /// Build from a closure over `(i0, i1, i2)`.
    pub fn from_fn(
        d0: usize,
        d1: usize,
        d2: usize,
        mut f: impl FnMut(usize, usize, usize) -> T,
    ) -> Self {
        let mut data = Vec::with_capacity(d0 * d1 * d2);
        for i0 in 0..d0 {
            for i1 in 0..d1 {
                for i2 in 0..d2 {
                    data.push(f(i0, i1, i2));
                }
            }
        }
        Self { d0, d1, d2, data }
    }

    /// Shape as `(d0, d1, d2)`.
    pub fn shape(&self) -> (usize, usize, usize) {
        (self.d0, self.d1, self.d2)
    }

    /// Total element count.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Flat offset of `(i0, i1, i2)`.
    #[inline(always)]
    pub fn offset(&self, i0: usize, i1: usize, i2: usize) -> usize {
        debug_assert!(i0 < self.d0 && i1 < self.d1 && i2 < self.d2);
        (i0 * self.d1 + i1) * self.d2 + i2
    }

    /// Contiguous backing slice.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable backing slice.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// The contiguous innermost line at `(i0, i1, ..)`.
    #[inline(always)]
    pub fn line(&self, i0: usize, i1: usize) -> &[T] {
        let o = self.offset(i0, i1, 0);
        &self.data[o..o + self.d2]
    }

    /// Mutable innermost line.
    #[inline(always)]
    pub fn line_mut(&mut self, i0: usize, i1: usize) -> &mut [T] {
        let o = self.offset(i0, i1, 0);
        &mut self.data[o..o + self.d2]
    }

    /// Fill every element with `v`.
    pub fn fill(&mut self, v: T) {
        self.data.iter_mut().for_each(|x| *x = v);
    }
}

impl<T: Copy> Index<(usize, usize, usize)> for Tensor3<T> {
    type Output = T;
    #[inline(always)]
    fn index(&self, (i0, i1, i2): (usize, usize, usize)) -> &T {
        let o = self.offset(i0, i1, i2);
        &self.data[o]
    }
}

impl<T: Copy> IndexMut<(usize, usize, usize)> for Tensor3<T> {
    #[inline(always)]
    fn index_mut(&mut self, (i0, i1, i2): (usize, usize, usize)) -> &mut T {
        let o = self.offset(i0, i1, i2);
        &mut self.data[o]
    }
}

/// Dense row-major 4-D tensor, index order `[i0][i1][i2][i3]`, `i3` fastest.
#[derive(Clone, Debug, PartialEq)]
pub struct Tensor4<T> {
    d0: usize,
    d1: usize,
    d2: usize,
    d3: usize,
    data: Vec<T>,
}

impl<T: Copy + Default> Tensor4<T> {
    /// Allocate filled with `T::default()`.
    pub fn new(d0: usize, d1: usize, d2: usize, d3: usize) -> Self {
        Self { d0, d1, d2, d3, data: vec![T::default(); d0 * d1 * d2 * d3] }
    }
}

impl<T: Copy> Tensor4<T> {
    /// Shape as `(d0, d1, d2, d3)`.
    pub fn shape(&self) -> (usize, usize, usize, usize) {
        (self.d0, self.d1, self.d2, self.d3)
    }

    /// Total element count.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Flat offset of `(i0, i1, i2, i3)`.
    #[inline(always)]
    pub fn offset(&self, i0: usize, i1: usize, i2: usize, i3: usize) -> usize {
        debug_assert!(i0 < self.d0 && i1 < self.d1 && i2 < self.d2 && i3 < self.d3);
        ((i0 * self.d1 + i1) * self.d2 + i2) * self.d3 + i3
    }

    /// Contiguous backing slice.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable backing slice.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Contiguous `(d2 × d3)` panel at `(i0, i1)` — e.g. one `nv×nv`
    /// collision matrix inside a `(nc_loc, nt_loc, nv, nv)` constant tensor.
    #[inline(always)]
    pub fn panel(&self, i0: usize, i1: usize) -> &[T] {
        let o = self.offset(i0, i1, 0, 0);
        &self.data[o..o + self.d2 * self.d3]
    }

    /// Mutable panel.
    #[inline(always)]
    pub fn panel_mut(&mut self, i0: usize, i1: usize) -> &mut [T] {
        let o = self.offset(i0, i1, 0, 0);
        &mut self.data[o..o + self.d2 * self.d3]
    }
}

impl<T: Copy> Index<(usize, usize, usize, usize)> for Tensor4<T> {
    type Output = T;
    #[inline(always)]
    fn index(&self, (i0, i1, i2, i3): (usize, usize, usize, usize)) -> &T {
        let o = self.offset(i0, i1, i2, i3);
        &self.data[o]
    }
}

impl<T: Copy> IndexMut<(usize, usize, usize, usize)> for Tensor4<T> {
    #[inline(always)]
    fn index_mut(&mut self, (i0, i1, i2, i3): (usize, usize, usize, usize)) -> &mut T {
        let o = self.offset(i0, i1, i2, i3);
        &mut self.data[o]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tensor2_layout() {
        let t = Tensor2::from_fn(2, 3, |i, j| i * 10 + j);
        assert_eq!(t.shape(), (2, 3));
        assert_eq!(t.as_slice(), &[0, 1, 2, 10, 11, 12]);
        assert_eq!(t.row(1), &[10, 11, 12]);
        assert_eq!(t[(1, 2)], 12);
    }

    #[test]
    fn tensor2_fill_and_mut() {
        let mut t: Tensor2<f64> = Tensor2::new(2, 2);
        t.fill(3.0);
        t[(0, 1)] = 5.0;
        assert_eq!(t.as_slice(), &[3.0, 5.0, 3.0, 3.0]);
        t.row_mut(1)[0] = 7.0;
        assert_eq!(t[(1, 0)], 7.0);
    }

    #[test]
    fn tensor3_layout_innermost_fastest() {
        let t = Tensor3::from_fn(2, 2, 3, |a, b, c| a * 100 + b * 10 + c);
        assert_eq!(
            t.as_slice(),
            &[0, 1, 2, 10, 11, 12, 100, 101, 102, 110, 111, 112]
        );
        assert_eq!(t.line(1, 0), &[100, 101, 102]);
        assert_eq!(t[(1, 1, 2)], 112);
        assert_eq!(t.offset(1, 1, 2), 11);
    }

    #[test]
    fn tensor4_panels_are_contiguous() {
        let mut t: Tensor4<u32> = Tensor4::new(2, 2, 2, 2);
        t[(1, 0, 1, 1)] = 9;
        let p = t.panel(1, 0);
        assert_eq!(p, &[0, 0, 0, 9]);
        t.panel_mut(0, 1).copy_from_slice(&[1, 2, 3, 4]);
        assert_eq!(t[(0, 1, 1, 0)], 3);
    }

    #[test]
    fn tensor4_offset_math() {
        let t: Tensor4<u8> = Tensor4::new(3, 4, 5, 6);
        assert_eq!(t.offset(0, 0, 0, 0), 0);
        assert_eq!(t.offset(2, 3, 4, 5), 3 * 4 * 5 * 6 - 1);
        assert_eq!(t.len(), 360);
    }

    #[test]
    fn empty_tensors() {
        let t: Tensor3<f64> = Tensor3::new(0, 5, 5);
        assert!(t.is_empty());
        let t2: Tensor2<f64> = Tensor2::new(1, 1);
        assert!(!t2.is_empty());
    }
}
