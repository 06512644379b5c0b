//! Property-based tests: the decomposition is a partition, the transpose
//! pack/unpack pair is a bijection for arbitrary shapes and part counts.

use proptest::prelude::*;
use xg_tensor::{
    pack_coll_block, pack_str_block, unpack_into_coll, unpack_into_str, Decomp1D, Tensor3,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn decomp_is_partition(total in 0usize..200, parts in 1usize..17) {
        let d = Decomp1D::new(total, parts);
        let mut covered = 0usize;
        let mut next = 0usize;
        for p in 0..parts {
            let r = d.range(p);
            prop_assert_eq!(r.start, next, "blocks must be contiguous");
            next = r.end;
            covered += r.len();
            prop_assert_eq!(r.len(), d.count(p));
            // Block sizes differ by at most one and are non-increasing.
            if p > 0 {
                prop_assert!(d.count(p) <= d.count(p - 1));
                prop_assert!(d.count(p - 1) - d.count(p) <= 1);
            }
        }
        prop_assert_eq!(covered, total);
        prop_assert_eq!(next, total);
        for g in 0..total {
            let o = d.owner(g);
            prop_assert!(d.range(o).contains(&g));
        }
    }

    #[test]
    fn transpose_roundtrip_bijection(
        nc in 1usize..12,
        nv in 1usize..12,
        nt in 1usize..5,
        nv_parts in 1usize..5,
        nc_parts in 1usize..9,
    ) {
        let nv_d = Decomp1D::new(nv, nv_parts);
        let nc_d = Decomp1D::new(nc, nc_parts);

        // Distribute a tagged global tensor into str-layout shards.
        let str_shards: Vec<Tensor3<u32>> = (0..nv_parts)
            .map(|p| {
                let r = nv_d.range(p);
                Tensor3::from_fn(nc, r.len(), nt, |ic, ivl, it| {
                    (ic * 10_000 + (r.start + ivl) * 100 + it) as u32
                })
            })
            .collect();

        // Forward transpose into coll-layout shards.
        let mut coll_shards: Vec<Tensor3<u32>> = (0..nc_parts)
            .map(|q| Tensor3::new(nv, nc_d.count(q), nt))
            .collect();
        for (p, s) in str_shards.iter().enumerate() {
            for (q, c) in coll_shards.iter_mut().enumerate() {
                let mut blk = Vec::new();
                pack_str_block(s, nc_d.range(q), &mut blk);
                unpack_into_coll(&blk, nv_d.range(p), c);
            }
        }

        // Every coll entry carries the tag of its global index.
        for (q, c) in coll_shards.iter().enumerate() {
            let r = nc_d.range(q);
            for iv in 0..nv {
                for (icl, ic) in r.clone().enumerate() {
                    for it in 0..nt {
                        prop_assert_eq!(c[(iv, icl, it)], (ic * 10_000 + iv * 100 + it) as u32);
                    }
                }
            }
        }

        // Reverse transpose restores the str shards exactly.
        let mut back: Vec<Tensor3<u32>> = (0..nv_parts)
            .map(|p| Tensor3::new(nc, nv_d.count(p), nt))
            .collect();
        for (q, c) in coll_shards.iter().enumerate() {
            for (p, s) in back.iter_mut().enumerate() {
                let mut blk = Vec::new();
                pack_coll_block(c, nv_d.range(p), &mut blk);
                unpack_into_str(&blk, nc_d.range(q), s);
            }
        }
        for (orig, b) in str_shards.iter().zip(&back) {
            prop_assert_eq!(orig, b);
        }
    }

    #[test]
    fn profile_layout_matches_legacy_coll_permutation(
        nc in 1usize..12,
        nv in 1usize..12,
        nt in 1usize..5,
        nv_parts in 1usize..5,
        nc_parts in 1usize..9,
        k in 1usize..4,
    ) {
        use xg_tensor::{pack_coll_profiles_block, unpack_into_coll_profiles};
        let nv_d = Decomp1D::new(nv, nv_parts);
        let nc_d = Decomp1D::new(nc, nc_parts);

        // k members' str shards, tagged by (member, global indices).
        let tag = |s: usize, ic: usize, iv: usize, it: usize| {
            (s * 1_000_000 + ic * 10_000 + iv * 100 + it) as u32
        };
        let str_shards: Vec<Vec<Tensor3<u32>>> = (0..k)
            .map(|s| {
                (0..nv_parts)
                    .map(|p| {
                        let r = nv_d.range(p);
                        Tensor3::from_fn(nc, r.len(), nt, |ic, ivl, it| {
                            tag(s, ic, r.start + ivl, it)
                        })
                    })
                    .collect()
            })
            .collect();

        // Forward transpose: legacy per-member coll shards vs one stacked
        // profile-contiguous tensor per coll rank with lane = s*nv.
        let mut coll_legacy: Vec<Vec<Tensor3<u32>>> = (0..k)
            .map(|_| (0..nc_parts).map(|q| Tensor3::new(nv, nc_d.count(q), nt)).collect())
            .collect();
        let mut coll_prof: Vec<Tensor3<u32>> =
            (0..nc_parts).map(|q| Tensor3::new(nc_d.count(q), nt, k * nv)).collect();
        for s in 0..k {
            for (p, shard) in str_shards[s].iter().enumerate() {
                for q in 0..nc_parts {
                    let mut blk = Vec::new();
                    pack_str_block(shard, nc_d.range(q), &mut blk);
                    unpack_into_coll(&blk, nv_d.range(p), &mut coll_legacy[s][q]);
                    unpack_into_coll_profiles(
                        &blk, nv_d.range(p), s * nv, &mut coll_prof[q],
                    );
                }
            }
        }
        for q in 0..nc_parts {
            for s in 0..k {
                for iv in 0..nv {
                    for icl in 0..nc_d.count(q) {
                        for it in 0..nt {
                            prop_assert_eq!(
                                coll_legacy[s][q][(iv, icl, it)],
                                coll_prof[q][(icl, it, s * nv + iv)]
                            );
                        }
                    }
                }
            }
        }

        // Reverse: packing from the profile layout produces the same wire
        // blocks as the legacy pack, and round-trips the str shards.
        for q in 0..nc_parts {
            for (s, legacy_member) in coll_legacy.iter().enumerate() {
                for p in 0..nv_parts {
                    let mut legacy = Vec::new();
                    let mut prof = Vec::new();
                    pack_coll_block(&legacy_member[q], nv_d.range(p), &mut legacy);
                    pack_coll_profiles_block(&coll_prof[q], nv_d.range(p), s * nv, &mut prof);
                    prop_assert_eq!(&legacy, &prof);
                }
            }
        }
        let mut back: Vec<Vec<Tensor3<u32>>> = (0..k)
            .map(|_| (0..nv_parts).map(|p| Tensor3::new(nc, nv_d.count(p), nt)).collect())
            .collect();
        for (q, prof_shard) in coll_prof.iter().enumerate() {
            for (s, member_back) in back.iter_mut().enumerate() {
                for (p, shard_back) in member_back.iter_mut().enumerate() {
                    let mut blk = Vec::new();
                    pack_coll_profiles_block(prof_shard, nv_d.range(p), s * nv, &mut blk);
                    unpack_into_str(&blk, nc_d.range(q), shard_back);
                }
            }
        }
        for s in 0..k {
            for (orig, b) in str_shards[s].iter().zip(&back[s]) {
                prop_assert_eq!(orig, b);
            }
        }
    }

    #[test]
    fn pack_volume_matches_block_size(
        nc in 1usize..10,
        nv_loc in 1usize..6,
        nt_loc in 1usize..4,
        split in 1usize..5,
    ) {
        let h: Tensor3<u8> = Tensor3::new(nc, nv_loc, nt_loc);
        let d = Decomp1D::new(nc, split);
        let mut total = 0;
        for q in 0..split {
            let mut buf = Vec::new();
            pack_str_block(&h, d.range(q), &mut buf);
            prop_assert_eq!(buf.len(), d.count(q) * nv_loc * nt_loc);
            total += buf.len();
        }
        prop_assert_eq!(total, h.len());
    }
}
