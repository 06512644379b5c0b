//! xg-tensor: the pack/unpack kernels on either side of the str↔coll
//! exchange, at the workload's local shapes.

use super::{filler, secs_per_call, Ctx};
use crate::metrics::Outcome;
use std::hint::black_box;
use xg_linalg::Complex64;
use xg_tensor::{pack_str_block, unpack_into_coll, Decomp1D, Tensor3};

pub fn measure(ctx: &Ctx, out: &mut Outcome) {
    let dims = ctx.deck.dims();
    let peers = ctx.k * ctx.grid.n1;
    let (nv_split, nc_split) = (
        Decomp1D::new(dims.nv, ctx.grid.n1),
        Decomp1D::new(dims.nc, peers),
    );
    let (nv_loc, nt_loc, nc_loc) = (
        nv_split.count(0),
        Decomp1D::new(dims.nt, ctx.grid.n2).count(0),
        nc_split.count(0),
    );

    let mut h_str = Tensor3::new(dims.nc, nv_loc, nt_loc);
    for (i, z) in h_str.as_mut_slice().iter_mut().enumerate() {
        *z = Complex64::new(filler(i), filler(i + 1));
    }
    let mut h_coll = Tensor3::new(dims.nv, nc_loc, nt_loc);
    let mut block = Vec::new();
    // One round trip per peer, all of the first peer's size (on a deck that
    // does not divide evenly the later peers own one row fewer): pack the
    // rows a peer owns, unpack a block into a sender's velocity range.
    let secs = secs_per_call(15, 8, || {
        for _ in 0..peers {
            block.clear();
            pack_str_block(black_box(&h_str), nc_split.range(0), &mut block);
            unpack_into_coll(&block, nv_split.range(0), &mut h_coll);
        }
    });
    black_box(&h_coll);
    // Computed: each of pack and unpack reads and writes the block once.
    let bytes = (peers * 4 * nc_loc * nv_loc * nt_loc * 16) as f64;
    out.push("tensor.pack_gbps", bytes / secs / 1e9, 15);
}
