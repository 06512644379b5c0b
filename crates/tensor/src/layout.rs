//! Phase layouts and process grids.
//!
//! CGYRO runs on a 2-D process grid `N = n1 × n2`. The `n2` communicator
//! splits the toroidal dimension `nt` in every phase; the `n1` communicator
//! splits `nv` in the *str* phase and `nc` in the *coll* phase (paper §2,
//! Figure 1). Each phase keeps exactly one dimension complete:
//!
//! * **str**  — full `nc`, local shape `(nc, nv/n1, nt/n2)`
//! * **coll** — full `nv`, local shape `(nv, nc/n1, nt/n2)` (CGYRO) or
//!   `(nv, nc/(k·n1), nt/n2)` (XGYRO ensemble of `k` simulations)
//! * **nl**   — full `nt`, local shape `(nc/n2', nv/n1, nt)`
//!
//! This module owns the index bookkeeping: rank ↔ grid coordinates and the
//! per-rank local shapes/ranges for each phase.

use crate::decomp::Decomp1D;
use std::ops::Range;

/// Global per-simulation tensor dimensions (configuration, velocity,
/// toroidal).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SimDims {
    /// Configuration points (`n_radial × n_theta` flattened).
    pub nc: usize,
    /// Velocity points (`n_species × n_xi × n_energy` flattened).
    pub nv: usize,
    /// Toroidal modes.
    pub nt: usize,
}

impl SimDims {
    /// Construct; all dimensions must be nonzero.
    pub fn new(nc: usize, nv: usize, nt: usize) -> Self {
        assert!(nc > 0 && nv > 0 && nt > 0, "dimensions must be nonzero");
        Self { nc, nv, nt }
    }

    /// Total state size `nc·nv·nt` (complex elements).
    pub fn state_len(&self) -> usize {
        self.nc * self.nv * self.nt
    }
}

/// A 2-D process grid for one simulation: `n1` splits `nv`(str)/`nc`(coll),
/// `n2` splits `nt`. Rank layout is `rank = i1·n2 + i2` (**i2 fastest**):
/// with block placement onto nodes, the toroidal communicator is
/// node-local while the `nv` communicator — whose AllReduce cost is the
/// paper's target — spans nodes, which is what makes its cost grow with
/// participant count.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProcGrid {
    /// Ranks splitting `nv`/`nc`.
    pub n1: usize,
    /// Ranks splitting `nt`.
    pub n2: usize,
}

impl ProcGrid {
    /// Construct; both extents must be nonzero.
    pub fn new(n1: usize, n2: usize) -> Self {
        assert!(n1 > 0 && n2 > 0, "process grid extents must be nonzero");
        Self { n1, n2 }
    }

    /// Total ranks `n1·n2`.
    pub fn size(&self) -> usize {
        self.n1 * self.n2
    }

    /// Grid coordinates `(i1, i2)` of `rank`.
    pub fn coords(&self, rank: usize) -> (usize, usize) {
        assert!(rank < self.size(), "rank {rank} outside grid of {}", self.size());
        (rank / self.n2, rank % self.n2)
    }

    /// Rank at grid coordinates `(i1, i2)`.
    pub fn rank(&self, i1: usize, i2: usize) -> usize {
        assert!(i1 < self.n1 && i2 < self.n2, "grid coords out of range");
        i1 * self.n2 + i2
    }
}

/// Per-rank view of one simulation's decompositions in every phase.
#[derive(Clone, Copy, Debug)]
pub struct PhaseLayout {
    dims: SimDims,
    grid: ProcGrid,
    i1: usize,
    i2: usize,
}

impl PhaseLayout {
    /// Layout for `rank` of a simulation with `dims` on `grid`.
    pub fn new(dims: SimDims, grid: ProcGrid, rank: usize) -> Self {
        let (i1, i2) = grid.coords(rank);
        Self { dims, grid, i1, i2 }
    }

    /// Global dims.
    pub fn dims(&self) -> SimDims {
        self.dims
    }

    /// Process grid.
    pub fn grid(&self) -> ProcGrid {
        self.grid
    }

    /// This rank's `(i1, i2)` coordinates.
    pub fn coords(&self) -> (usize, usize) {
        (self.i1, self.i2)
    }

    /// Decomposition of `nv` over the `n1` ranks (str phase).
    pub fn nv_decomp(&self) -> Decomp1D {
        Decomp1D::new(self.dims.nv, self.grid.n1)
    }

    /// Decomposition of `nc` over the `n1` ranks (coll phase, CGYRO mode).
    pub fn nc_decomp(&self) -> Decomp1D {
        Decomp1D::new(self.dims.nc, self.grid.n1)
    }

    /// Decomposition of `nt` over the `n2` ranks (all phases).
    pub fn nt_decomp(&self) -> Decomp1D {
        Decomp1D::new(self.dims.nt, self.grid.n2)
    }

    /// This rank's `nv` range in the str phase.
    pub fn nv_range(&self) -> Range<usize> {
        self.nv_decomp().range(self.i1)
    }

    /// This rank's `nc` range in the coll phase (CGYRO mode).
    pub fn nc_range(&self) -> Range<usize> {
        self.nc_decomp().range(self.i1)
    }

    /// This rank's `nt` range.
    pub fn nt_range(&self) -> Range<usize> {
        self.nt_decomp().range(self.i2)
    }

    /// Local str-phase shape `(nc, nv_loc, nt_loc)`.
    pub fn str_shape(&self) -> (usize, usize, usize) {
        (self.dims.nc, self.nv_range().len(), self.nt_range().len())
    }

    /// Local coll-phase shape `(nv, nc_loc, nt_loc)` (CGYRO mode).
    pub fn coll_shape(&self) -> (usize, usize, usize) {
        (self.dims.nv, self.nc_range().len(), self.nt_range().len())
    }

    /// Local nl-phase shape `(nc_loc2, nv_loc, nt)`: the nl transpose
    /// redistributes `nc` over the `n2` communicator to complete `nt`.
    pub fn nl_shape(&self) -> (usize, usize, usize) {
        let nc2 = Decomp1D::new(self.dims.nc, self.grid.n2);
        (nc2.count(self.i2), self.nv_range().len(), self.dims.nt)
    }

    /// Complex elements held in the str phase.
    pub fn str_len(&self) -> usize {
        let (a, b, c) = self.str_shape();
        a * b * c
    }

    /// Complex elements held in the coll phase (CGYRO mode).
    pub fn coll_len(&self) -> usize {
        let (a, b, c) = self.coll_shape();
        a * b * c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_rank_coord_roundtrip() {
        let g = ProcGrid::new(4, 3);
        assert_eq!(g.size(), 12);
        for r in 0..12 {
            let (i1, i2) = g.coords(r);
            assert_eq!(g.rank(i1, i2), r);
        }
        assert_eq!(g.coords(5), (1, 2)); // i2-fastest: 5 = 1*3 + 2
    }

    #[test]
    fn str_and_coll_shapes_preserve_volume() {
        let dims = SimDims::new(24, 16, 8);
        let g = ProcGrid::new(4, 2);
        let mut str_total = 0;
        let mut coll_total = 0;
        for r in 0..g.size() {
            let l = PhaseLayout::new(dims, g, r);
            let (a, b, c) = l.str_shape();
            assert_eq!(a, 24); // full nc in str
            str_total += a * b * c;
            let (d, e, f) = l.coll_shape();
            assert_eq!(d, 16); // full nv in coll
            coll_total += d * e * f;
        }
        assert_eq!(str_total, dims.state_len());
        assert_eq!(coll_total, dims.state_len());
    }

    #[test]
    fn nl_shape_completes_nt() {
        let dims = SimDims::new(24, 16, 8);
        let g = ProcGrid::new(4, 2);
        let l = PhaseLayout::new(dims, g, 5);
        let (nc2, nvl, nt) = l.nl_shape();
        assert_eq!(nt, 8);
        assert_eq!(nvl, 4);
        assert_eq!(nc2, 12);
    }

    #[test]
    fn uneven_dims_still_cover() {
        let dims = SimDims::new(10, 7, 5);
        let g = ProcGrid::new(3, 2);
        let mut total = 0;
        for r in 0..g.size() {
            let l = PhaseLayout::new(dims, g, r);
            total += l.str_len();
        }
        assert_eq!(total, dims.state_len());
    }

    #[test]
    fn ranges_consistent_with_shapes() {
        let dims = SimDims::new(12, 8, 6);
        let g = ProcGrid::new(2, 3);
        let l = PhaseLayout::new(dims, g, 4);
        assert_eq!(l.coords(), (1, 1)); // i2-fastest: 4 = 1*3 + 1
        assert_eq!(l.nv_range().len(), l.str_shape().1);
        assert_eq!(l.nc_range().len(), l.coll_shape().1);
        assert_eq!(l.nt_range().len(), l.str_shape().2);
    }

    #[test]
    #[should_panic(expected = "outside grid")]
    fn bad_rank_panics() {
        ProcGrid::new(2, 2).coords(4);
    }
}
