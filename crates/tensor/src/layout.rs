//! Phase layouts and process grids.
//!
//! CGYRO runs on a 2-D process grid `N = n1 × n2`. The `n2` communicator
//! splits the toroidal dimension `nt` in every phase; the `n1` communicator
//! splits `nv` in the *str* phase and `nc` in the *coll* phase (paper §2,
//! Figure 1). Each phase keeps exactly one dimension complete:
//!
//! * **str**  — full `nc`, local shape `(nc, nv/n1, nt/n2)`; at a
//!   power-of-two `n1` the `nv` blocks follow the summation tree
//!   ([`crate::tree`])
//! * **coll** — full `nv`, local shape `(nv, nc/n1, nt/n2)` (CGYRO) or
//!   `(nv, nc/(k·n1), nt/n2)` (XGYRO ensemble of `k` simulations)
//! * **nl**   — full `nt`, local shape `(nc/n2', nv/n1, nt)`
//!
//! This module owns the index bookkeeping: rank ↔ grid coordinates and the
//! per-rank local shapes/ranges for each phase.

use crate::decomp::{Decomp1D, RaggedDecomp};
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

/// `n1xn2`, the form `--grid` takes.
impl std::fmt::Display for ProcGrid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}x{}", self.n1, self.n2)
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

    /// Decomposition of `nv` over the `n1` ranks (str phase). At a
    /// power-of-two `n1` it follows the summation tree, so each rank owns
    /// one subtree of every velocity moment and the moments' bits do not
    /// depend on the grid; otherwise it is the balanced split.
    pub fn nv_decomp(&self) -> RaggedDecomp {
        if self.grid.n1.is_power_of_two() {
            RaggedDecomp::tree(self.dims.nv, self.grid.n1)
        } else {
            RaggedDecomp::balanced(self.dims.nv, self.grid.n1)
        }
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

    /// Complex elements held in the str phase.
    pub fn str_len(&self) -> usize {
        let (a, b, c) = self.str_shape();
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
    fn str_shapes_preserve_volume() {
        let dims = SimDims::new(24, 16, 8);
        let g = ProcGrid::new(4, 2);
        let mut str_total = 0;
        for r in 0..g.size() {
            let l = PhaseLayout::new(dims, g, r);
            let (a, b, c) = l.str_shape();
            assert_eq!(a, 24); // full nc in str
            str_total += a * b * c;
        }
        assert_eq!(str_total, dims.state_len());
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
        assert_eq!(l.nt_range().len(), l.str_shape().2);
    }

    #[test]
    #[should_panic(expected = "outside grid")]
    fn bad_rank_panics() {
        ProcGrid::new(2, 2).coords(4);
    }
}
