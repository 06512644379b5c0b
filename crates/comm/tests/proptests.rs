//! Property-based tests of the communication substrate: collectives must
//! match their sequential references for arbitrary shapes, sizes and
//! communicator splits.

use proptest::prelude::*;
use xg_comm::World;

proptest! {
    // Thread worlds are relatively expensive; keep case counts moderate.
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn allreduce_equals_serial_sum(
        p in 1usize..6,
        data in prop::collection::vec(prop::collection::vec(-1e6f64..1e6, 1..40), 1..6),
    ) {
        // Use data[rank % data.len()] as rank's contribution, truncated to
        // the shortest length so all ranks agree.
        let n = data.iter().map(|v| v.len()).min().unwrap();
        let world = World::new(p);
        let out = world.run(|c| {
            let mut buf = data[c.rank() % data.len()][..n].to_vec();
            c.all_reduce_sum_f64(&mut buf);
            buf
        });
        let mut expect = vec![0.0f64; n];
        for r in 0..p {
            for (e, v) in expect.iter_mut().zip(&data[r % data.len()][..n]) {
                *e += v;
            }
        }
        for buf in &out {
            for (a, b) in buf.iter().zip(&expect) {
                prop_assert!((a - b).abs() <= 1e-9 * (1.0 + b.abs()), "{a} vs {b}");
            }
        }
        // Bitwise identical across ranks (deterministic reduction).
        for buf in &out[1..] {
            prop_assert_eq!(buf, &out[0]);
        }
    }

    #[test]
    fn alltoallv_is_a_permutation(
        p in 1usize..6,
        sizes in prop::collection::vec(0usize..7, 36),
    ) {
        // sizes[(src*p + dst) % 36] block elements from src to dst, each
        // tagged with (src, dst, index).
        let world = World::new(p);
        let out = world.run(|c| {
            let src = c.rank();
            let send: Vec<Vec<(usize, usize, usize)>> = (0..p)
                .map(|dst| {
                    let len = sizes[(src * p + dst) % 36];
                    (0..len).map(|i| (src, dst, i)).collect()
                })
                .collect();
            c.all_to_all_v_take(send)
        });
        for (dst, recv) in out.into_iter().enumerate() {
            prop_assert_eq!(recv.len(), p);
            for (src, blk) in recv.into_iter().enumerate() {
                let len = sizes[(src * p + dst) % 36];
                prop_assert_eq!(blk.len(), len);
                for (i, item) in blk.into_iter().enumerate() {
                    prop_assert_eq!(item, (src, dst, i));
                }
            }
        }
    }

    #[test]
    fn split_partitions_world(p in 1usize..9, colors in prop::collection::vec(0u64..3, 8)) {
        let world = World::new(p);
        let out = world.run(|c| {
            let color = colors[c.rank() % colors.len()];
            let g = c.split(color, c.rank() as u64, "part");
            (color, g.rank(), g.size(), g.members().to_vec())
        });
        // Every color group has consistent membership and covers exactly
        // the ranks claiming that color.
        for color in 0u64..3 {
            let members: Vec<usize> = (0..p)
                .filter(|&r| colors[r % colors.len()] == color)
                .collect();
            for &r in &members {
                let (c0, grank, gsize, gmembers) = &out[r];
                prop_assert_eq!(*c0, color);
                prop_assert_eq!(*gsize, members.len());
                prop_assert_eq!(gmembers, &members);
                prop_assert_eq!(gmembers[*grank], r);
            }
        }
    }
}
