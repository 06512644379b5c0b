//! Tests for gather / scatter / sendrecv.

use xg_comm::World;

#[test]
fn gather_collects_only_at_root() {
    let out = World::new(4).run(|c| {
        let local = vec![c.rank() as u32; c.rank() + 1];
        c.gather(2, &local)
    });
    for (rank, got) in out.into_iter().enumerate() {
        if rank == 2 {
            assert_eq!(got.len(), 4);
            for (src, blk) in got.into_iter().enumerate() {
                assert_eq!(blk, vec![src as u32; src + 1]);
            }
        } else {
            assert!(got.is_empty());
        }
    }
}

#[test]
fn scatter_delivers_per_rank_blocks() {
    let out = World::new(3).run(|c| {
        let blocks = if c.rank() == 1 {
            Some((0..3).map(|j| vec![j as u16 * 10, j as u16 * 10 + 1]).collect())
        } else {
            None
        };
        c.scatter(1, blocks)
    });
    for (rank, blk) in out.into_iter().enumerate() {
        assert_eq!(blk, vec![rank as u16 * 10, rank as u16 * 10 + 1]);
    }
}

#[test]
fn sendrecv_swaps_pairwise() {
    let out = World::new(4).run(|c| {
        let peer = c.rank() ^ 1; // 0<->1, 2<->3
        c.sendrecv(peer, 5, c.rank() as u64 * 100)
    });
    assert_eq!(out, vec![100, 0, 300, 200]);
}

