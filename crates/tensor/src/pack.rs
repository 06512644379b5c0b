//! Pack/unpack kernels for the str ↔ coll transposes.
//!
//! The transpose between the str layout `(nc, nv_loc, nt_loc)` and the coll
//! layout `(nv, nc_loc, nt_loc)` is performed with an AllToAll over the
//! communicator that splits `nv`/`nc` (the `n1` ranks in CGYRO mode, the
//! `k·n1` ensemble row in XGYRO mode). These kernels produce the contiguous
//! per-peer send blocks and scatter received blocks into place; they are the
//! only place where the wire format of the transpose is defined:
//!
//! * **str → coll**, block for peer `j`: `[ic ∈ nc_range(j)][iv_loc][it_loc]`
//! * **coll → str**, block for peer `j`: `[iv ∈ nv_range(j)][ic_loc][it_loc]`
//!
//! Both directions are exact inverses, which the property tests assert for
//! arbitrary (including uneven) decompositions.

use crate::tensor::Tensor3;
use std::ops::Range;

/// Pack the str-layout block destined for the peer owning `nc_range`.
///
/// `h_str` has shape `(nc, nv_loc, nt_loc)`. The output block is ordered
/// `[ic][iv_loc][it_loc]` and appended to `buf`.
pub fn pack_str_block<T: Copy>(h_str: &Tensor3<T>, nc_range: Range<usize>, buf: &mut Vec<T>) {
    let (nc, nv_loc, nt_loc) = h_str.shape();
    assert!(nc_range.end <= nc, "nc_range {nc_range:?} outside nc={nc}");
    // Rows of the str tensor are contiguous (nv_loc × nt_loc panels).
    let row_len = nv_loc * nt_loc;
    for ic in nc_range {
        let row_start = ic * row_len;
        buf.extend_from_slice(&h_str.as_slice()[row_start..row_start + row_len]);
    }
}

/// Unpack a block received from the str-side peer owning `nv_range` into the
/// coll-layout tensor `h_coll` of shape `(nv, nc_loc, nt_loc)`.
///
/// The block is ordered `[ic_loc][iv ∈ nv_range][it_loc]` (the sender's str
/// row order restricted to this rank's `nc` slice).
pub fn unpack_into_coll<T: Copy>(block: &[T], nv_range: Range<usize>, h_coll: &mut Tensor3<T>) {
    let (nv, nc_loc, nt_loc) = h_coll.shape();
    assert!(nv_range.end <= nv, "nv_range {nv_range:?} outside nv={nv}");
    let nv_blk = nv_range.len();
    assert_eq!(
        block.len(),
        nv_blk * nc_loc * nt_loc,
        "block size mismatch: got {}, expected {}",
        block.len(),
        nv_blk * nc_loc * nt_loc
    );
    let mut src = 0;
    for ic_loc in 0..nc_loc {
        for iv in nv_range.clone() {
            let dst = (iv * nc_loc + ic_loc) * nt_loc;
            h_coll.as_mut_slice()[dst..dst + nt_loc].copy_from_slice(&block[src..src + nt_loc]);
            src += nt_loc;
        }
    }
}

/// Pack the coll-layout block destined for the peer owning `nv_range`.
///
/// `h_coll` has shape `(nv, nc_loc, nt_loc)`; the block is the contiguous
/// rows `nv_range`, ordered `[iv][ic_loc][it_loc]`.
pub fn pack_coll_block<T: Copy>(h_coll: &Tensor3<T>, nv_range: Range<usize>, buf: &mut Vec<T>) {
    let (nv, nc_loc, nt_loc) = h_coll.shape();
    assert!(nv_range.end <= nv, "nv_range {nv_range:?} outside nv={nv}");
    let start = nv_range.start * nc_loc * nt_loc;
    let len = nv_range.len() * nc_loc * nt_loc;
    buf.extend_from_slice(&h_coll.as_slice()[start..start + len]);
}

/// Unpack a block received from the coll-side peer owning `nc_range` into
/// the str-layout tensor `h_str` of shape `(nc, nv_loc, nt_loc)`.
///
/// The block is ordered `[iv_loc][ic ∈ nc_range][it_loc]` (the sender's coll
/// row order restricted to this rank's `nv` slice).
pub fn unpack_into_str<T: Copy>(block: &[T], nc_range: Range<usize>, h_str: &mut Tensor3<T>) {
    let (nc, nv_loc, nt_loc) = h_str.shape();
    assert!(nc_range.end <= nc, "nc_range {nc_range:?} outside nc={nc}");
    let nc_blk = nc_range.len();
    assert_eq!(
        block.len(),
        nv_loc * nc_blk * nt_loc,
        "block size mismatch: got {}, expected {}",
        block.len(),
        nv_loc * nc_blk * nt_loc
    );
    let mut src = 0;
    for iv_loc in 0..nv_loc {
        for ic in nc_range.clone() {
            let dst = (ic * nv_loc + iv_loc) * nt_loc;
            h_str.as_mut_slice()[dst..dst + nt_loc].copy_from_slice(&block[src..src + nt_loc]);
            src += nt_loc;
        }
    }
}

/// Unpack a block received from the str-side peer owning `nv_range` into a
/// *profile-contiguous* coll tensor `h_cp` of shape
/// `(nc_loc, nt_loc, lanes)`, writing velocity index `iv` into lane
/// `lane + iv`.
///
/// Same wire format as [`unpack_into_coll`] (`[ic_loc][iv ∈ nv_range]
/// [it_loc]`), but the destination layout keeps the whole velocity profile
/// at one `(ic, it)` contiguous: `h_cp.line(ic, it)[lane + iv]`. With
/// `lanes = k·nv` the k ensemble members' profiles stack into one
/// multi-RHS block per `(ic, it)`; `lane = s·nv` selects member `s`.
/// Lane-for-lane this is the exact permutation of the legacy coll layout:
/// `h_coll[(iv, ic, it)] == h_cp[(ic, it, lane + iv)]`.
pub fn unpack_into_coll_profiles<T: Copy>(
    block: &[T],
    nv_range: Range<usize>,
    lane: usize,
    h_cp: &mut Tensor3<T>,
) {
    let (nc_loc, nt_loc, lanes) = h_cp.shape();
    assert!(
        lane + nv_range.end <= lanes,
        "lane {lane} + nv_range {nv_range:?} outside lanes={lanes}"
    );
    let nv_blk = nv_range.len();
    assert_eq!(
        block.len(),
        nv_blk * nc_loc * nt_loc,
        "block size mismatch: got {}, expected {}",
        block.len(),
        nv_blk * nc_loc * nt_loc
    );
    let dst = h_cp.as_mut_slice();
    let mut src = 0;
    for ic in 0..nc_loc {
        for iv in nv_range.clone() {
            let base = ic * nt_loc * lanes + lane + iv;
            for it in 0..nt_loc {
                dst[base + it * lanes] = block[src];
                src += 1;
            }
        }
    }
}

/// Pack the coll-side block destined for the str peer owning `nv_range`
/// from a profile-contiguous tensor `h_cp` of shape `(nc_loc, nt_loc,
/// lanes)`, reading velocity index `iv` from lane `lane + iv`.
///
/// Produces the same wire format as [`pack_coll_block`]
/// (`[iv ∈ nv_range][ic_loc][it_loc]`), so receivers keep using
/// [`unpack_into_str`] unchanged.
pub fn pack_coll_profiles_block<T: Copy>(
    h_cp: &Tensor3<T>,
    nv_range: Range<usize>,
    lane: usize,
    buf: &mut Vec<T>,
) {
    let (nc_loc, nt_loc, lanes) = h_cp.shape();
    assert!(
        lane + nv_range.end <= lanes,
        "lane {lane} + nv_range {nv_range:?} outside lanes={lanes}"
    );
    let src = h_cp.as_slice();
    buf.reserve(nv_range.len() * nc_loc * nt_loc);
    for iv in nv_range {
        for ic in 0..nc_loc {
            let base = ic * nt_loc * lanes + lane + iv;
            for it in 0..nt_loc {
                buf.push(src[base + it * lanes]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decomp::Decomp1D;

    /// Reference serial transpose: str (nc, nv, nt) -> coll (nv, nc, nt).
    fn serial_transpose(h: &Tensor3<u64>) -> Tensor3<u64> {
        let (nc, nv, nt) = h.shape();
        Tensor3::from_fn(nv, nc, nt, |iv, ic, it| h[(ic, iv, it)])
    }

    /// Run the full distributed transpose for every (n1_str_parts,
    /// nc_parts) pair and check it matches the serial transpose.
    fn roundtrip(nc: usize, nv: usize, nt: usize, nv_parts: usize, nc_parts: usize) {
        let nv_d = Decomp1D::new(nv, nv_parts);
        let nc_d = Decomp1D::new(nc, nc_parts);
        // Global str state distributed over nv_parts "ranks".
        let global = Tensor3::from_fn(nc, nv, nt, |a, b, c| (a * 10_000 + b * 100 + c) as u64);
        let str_bufs: Vec<Tensor3<u64>> = (0..nv_parts)
            .map(|p| {
                let r = nv_d.range(p);
                Tensor3::from_fn(nc, r.len(), nt, |ic, ivl, it| global[(ic, r.start + ivl, it)])
            })
            .collect();

        // "AllToAll": every str rank packs a block per coll rank.
        let mut coll_bufs: Vec<Tensor3<u64>> = (0..nc_parts)
            .map(|q| Tensor3::new(nv, nc_d.count(q), nt))
            .collect();
        for (p, hstr) in str_bufs.iter().enumerate() {
            for (q, hcoll) in coll_bufs.iter_mut().enumerate() {
                let mut block = Vec::new();
                pack_str_block(hstr, nc_d.range(q), &mut block);
                unpack_into_coll(&block, nv_d.range(p), hcoll);
            }
        }

        // Check against the serial transpose.
        let want = serial_transpose(&global);
        for (q, hcoll) in coll_bufs.iter().enumerate() {
            let r = nc_d.range(q);
            for iv in 0..nv {
                for (icl, ic) in r.clone().enumerate() {
                    for it in 0..nt {
                        assert_eq!(hcoll[(iv, icl, it)], want[(iv, ic, it)]);
                    }
                }
            }
        }

        // Reverse transpose: coll -> str, must reproduce the originals.
        let mut str_back: Vec<Tensor3<u64>> = (0..nv_parts)
            .map(|p| Tensor3::new(nc, nv_d.count(p), nt))
            .collect();
        for (q, hcoll) in coll_bufs.iter().enumerate() {
            for (p, hstr) in str_back.iter_mut().enumerate() {
                let mut block = Vec::new();
                pack_coll_block(hcoll, nv_d.range(p), &mut block);
                unpack_into_str(&block, nc_d.range(q), hstr);
            }
        }
        for (orig, back) in str_bufs.iter().zip(&str_back) {
            assert_eq!(orig, back);
        }
    }

    #[test]
    fn transpose_even_square_parts() {
        roundtrip(8, 8, 4, 4, 4);
    }

    #[test]
    fn transpose_uneven_dims() {
        roundtrip(10, 7, 3, 3, 3);
    }

    #[test]
    fn transpose_mismatched_part_counts() {
        // XGYRO case: nc split finer (ensemble-wide) than nv (per-sim).
        roundtrip(12, 6, 2, 2, 6);
        roundtrip(12, 6, 2, 3, 12);
    }

    #[test]
    fn transpose_single_part() {
        roundtrip(5, 4, 3, 1, 1);
    }

    #[test]
    #[should_panic(expected = "block size mismatch")]
    fn unpack_wrong_size_panics() {
        let mut h: Tensor3<u64> = Tensor3::new(4, 2, 2);
        unpack_into_coll(&[0, 1, 2], 0..2, &mut h);
    }

    #[test]
    #[should_panic(expected = "outside nc")]
    fn pack_out_of_range_panics() {
        let h: Tensor3<u64> = Tensor3::new(4, 2, 2);
        let mut buf = Vec::new();
        pack_str_block(&h, 2..5, &mut buf);
    }

    #[test]
    fn profile_layout_is_exact_permutation_of_coll_layout() {
        // Unpacking the same wire block into the legacy (nv, nc, nt) layout
        // and the profile-contiguous (nc, nt, nv) layout must agree
        // element-for-element under the documented permutation.
        let (nc, nv, nt) = (5usize, 7usize, 3usize);
        let hstr = Tensor3::from_fn(nc, nv, nt, |a, b, c| (a * 1000 + b * 10 + c) as u64);
        let mut block = Vec::new();
        pack_str_block(&hstr, 0..nc, &mut block);
        let mut h_coll: Tensor3<u64> = Tensor3::new(nv, nc, nt);
        let mut h_cp: Tensor3<u64> = Tensor3::new(nc, nt, nv);
        unpack_into_coll(&block, 0..nv, &mut h_coll);
        unpack_into_coll_profiles(&block, 0..nv, 0, &mut h_cp);
        for iv in 0..nv {
            for ic in 0..nc {
                for it in 0..nt {
                    assert_eq!(h_coll[(iv, ic, it)], h_cp[(ic, it, iv)]);
                }
            }
        }
        // And the profile line is the contiguous velocity profile.
        assert_eq!(h_cp.line(2, 1), (0..nv).map(|iv| 2001 + 10 * iv as u64).collect::<Vec<_>>());
    }

    #[test]
    fn profile_pack_matches_coll_pack_wire_format() {
        let (nc, nv, nt) = (4usize, 6usize, 2usize);
        let h_coll = Tensor3::from_fn(nv, nc, nt, |a, b, c| (a * 100 + b * 10 + c) as u64);
        let h_cp = Tensor3::from_fn(nc, nt, nv, |ic, it, iv| h_coll[(iv, ic, it)]);
        for range in [0..nv, 1..4, 2..2, 5..6] {
            let mut b1 = Vec::new();
            let mut b2 = Vec::new();
            pack_coll_block(&h_coll, range.clone(), &mut b1);
            pack_coll_profiles_block(&h_cp, range, 0, &mut b2);
            assert_eq!(b1, b2);
        }
    }

    #[test]
    fn profile_lanes_stack_members() {
        // Two members' profiles interleave into one (nc, nt, 2*nv) tensor;
        // lane = s*nv selects member s, and round-trips per member.
        let (nc, nv, nt, k) = (3usize, 4usize, 2usize, 2usize);
        let members: Vec<Tensor3<u64>> = (0..k)
            .map(|s| {
                Tensor3::from_fn(nc, nv, nt, |a, b, c| {
                    (s * 100_000 + a * 1000 + b * 10 + c) as u64
                })
            })
            .collect();
        let mut h_cp: Tensor3<u64> = Tensor3::new(nc, nt, k * nv);
        for (s, m) in members.iter().enumerate() {
            let mut block = Vec::new();
            pack_str_block(m, 0..nc, &mut block);
            unpack_into_coll_profiles(&block, 0..nv, s * nv, &mut h_cp);
        }
        for (s, m) in members.iter().enumerate() {
            // Reverse: pack member s back out and scatter into a str tensor.
            let mut block = Vec::new();
            pack_coll_profiles_block(&h_cp, 0..nv, s * nv, &mut block);
            let mut back: Tensor3<u64> = Tensor3::new(nc, nv, nt);
            unpack_into_str(&block, 0..nc, &mut back);
            assert_eq!(&back, m);
        }
    }

    #[test]
    #[should_panic(expected = "outside lanes")]
    fn profile_unpack_lane_overflow_panics() {
        let mut h: Tensor3<u64> = Tensor3::new(2, 2, 4);
        unpack_into_coll_profiles(&[0u64; 8], 0..2, 3, &mut h);
    }
}
