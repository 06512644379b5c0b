//! Integration tests for the collective operations across real threads.

use xg_comm::{OpKind, World};
use xg_linalg::Complex64;

#[test]
fn all_reduce_sum_matches_serial_sum() {
    let n = 37;
    let p = 6;
    let out = World::new(p).run(|c| {
        let mut buf: Vec<f64> =
            (0..n).map(|i| (i as f64 + 1.0) * (c.rank() as f64 + 1.0)).collect();
        c.all_reduce_sum_f64(&mut buf);
        buf
    });
    let rank_sum: f64 = (1..=p as i64).map(|r| r as f64).sum();
    for buf in &out {
        for (i, v) in buf.iter().enumerate() {
            assert!((v - (i as f64 + 1.0) * rank_sum).abs() < 1e-12);
        }
    }
    // Every rank received the same (deterministic) result, bitwise.
    for buf in &out[1..] {
        assert_eq!(buf, &out[0]);
    }
}

#[test]
fn all_reduce_complex_and_max() {
    let out = World::new(4).run(|c| {
        let mut z = vec![Complex64::new(1.0, c.rank() as f64)];
        c.all_reduce_sum_complex(&mut z);
        let mut m = vec![c.rank() as f64, -(c.rank() as f64)];
        c.all_reduce_max_f64(&mut m);
        (z[0], m)
    });
    for (z, m) in out {
        assert_eq!(z, Complex64::new(4.0, 6.0));
        assert_eq!(m, vec![3.0, 0.0]);
    }
}

#[test]
fn all_to_all_v_delivers_correct_blocks() {
    let p = 4;
    let out = World::new(p).run(|c| {
        // Rank r sends to rank j a block [r*100+j; r+j+1] (variable sizes).
        let send: Vec<Vec<u32>> = (0..p)
            .map(|j| vec![(c.rank() * 100 + j) as u32; c.rank() + j + 1])
            .collect();
        c.all_to_all_v_take(send)
    });
    for (me, recv) in out.into_iter().enumerate() {
        assert_eq!(recv.len(), p);
        for (src, blk) in recv.into_iter().enumerate() {
            assert_eq!(blk, vec![(src * 100 + me) as u32; src + me + 1]);
        }
    }
}

#[test]
fn all_to_all_v_with_empty_blocks() {
    let out = World::new(3).run(|c| {
        let send: Vec<Vec<u8>> = (0..3)
            .map(|j| if j == c.rank() { vec![] } else { vec![c.rank() as u8] })
            .collect();
        c.all_to_all_v_take(send)
    });
    for (me, recv) in out.into_iter().enumerate() {
        for (src, blk) in recv.into_iter().enumerate() {
            if src == me {
                assert!(blk.is_empty());
            } else {
                assert_eq!(blk, vec![src as u8]);
            }
        }
    }
}

#[test]
fn all_to_all_v_take_moves_non_clone_payloads() {
    // The exchange only needs T: Send — move a type without Clone.
    #[derive(Debug, PartialEq)]
    struct Payload(usize);
    let p = 3;
    let out = World::new(p).run(|c| {
        let send: Vec<Vec<Payload>> =
            (0..p).map(|j| vec![Payload(c.rank() * 10 + j)]).collect();
        c.all_to_all_v_take(send)
    });
    for (me, recv) in out.into_iter().enumerate() {
        for (src, blk) in recv.into_iter().enumerate() {
            assert_eq!(blk, vec![Payload(src * 10 + me)]);
        }
    }
}

#[test]
fn all_to_all_v_take_recycles_recv_capacity() {
    // Received blocks are owned: clearing and refilling them as the next
    // round's send buffers must round-trip correctly.
    let p = 3;
    let out = World::new(p).run(|c| {
        let send: Vec<Vec<u64>> = (0..p).map(|j| vec![(c.rank() + j) as u64; 8]).collect();
        let mut recv = c.all_to_all_v_take(send);
        for (j, blk) in recv.iter_mut().enumerate() {
            blk.clear();
            blk.extend(std::iter::repeat_n((c.rank() * 1000 + j) as u64, 4));
        }
        c.all_to_all_v_take(recv)
    });
    for (me, recv) in out.into_iter().enumerate() {
        for (src, blk) in recv.into_iter().enumerate() {
            assert_eq!(blk, vec![(src * 1000 + me) as u64; 4]);
        }
    }
}

#[test]
fn split_builds_correct_subgroups() {
    // 2x3 grid: color by row (i2 = rank / 3), key by column.
    let out = World::new(6).run(|c| {
        let i1 = c.rank() % 3;
        let i2 = c.rank() / 3;
        let row = c.split(i2 as u64, i1 as u64, "row");
        let col = c.split(i1 as u64, i2 as u64, "col");
        // Row collective: sum of i1 within the row.
        let mut v = vec![i1 as f64];
        row.all_reduce_sum_f64(&mut v);
        // Col collective: sum of i2 within the column.
        let mut w = vec![i2 as f64];
        col.all_reduce_sum_f64(&mut w);
        (row.rank(), row.size(), v[0], col.rank(), col.size(), w[0])
    });
    for (rank, (rr, rs, rsum, cr, cs, csum)) in out.into_iter().enumerate() {
        let i1 = rank % 3;
        let i2 = rank / 3;
        assert_eq!((rr, rs), (i1, 3), "row comm rank/size");
        assert_eq!(rsum, 3.0); // 0+1+2
        assert_eq!((cr, cs), (i2, 2), "col comm rank/size");
        assert_eq!(csum, 1.0); // 0+1
    }
}

#[test]
fn disjoint_communicators_do_not_interfere() {
    // Two groups run different numbers of collectives concurrently; if the
    // groups shared state this would deadlock or mix results.
    let out = World::new(6).run(|c| {
        let color = (c.rank() % 2) as u64;
        let g = c.split(color, c.rank() as u64, "half");
        let rounds = if color == 0 { 50 } else { 7 };
        let mut acc = 0.0;
        for _ in 0..rounds {
            let mut v = vec![1.0];
            g.all_reduce_sum_f64(&mut v);
            acc += v[0];
        }
        acc
    });
    for (rank, acc) in out.into_iter().enumerate() {
        let expect = if rank % 2 == 0 { 50.0 * 3.0 } else { 7.0 * 3.0 };
        assert_eq!(acc, expect);
    }
}

#[test]
fn nested_split_of_split() {
    // Split the world in half, then split each half again: sizes 8 -> 4 -> 2.
    let out = World::new(8).run(|c| {
        let half = c.split((c.rank() / 4) as u64, c.rank() as u64, "half");
        let quarter = half.split((half.rank() / 2) as u64, half.rank() as u64, "quarter");
        let mut v = vec![c.rank() as f64];
        quarter.all_reduce_sum_f64(&mut v);
        (quarter.size(), v[0])
    });
    for (rank, (qs, sum)) in out.into_iter().enumerate() {
        assert_eq!(qs, 2);
        let base = (rank / 2) * 2;
        assert_eq!(sum, (base + base + 1) as f64);
    }
}

#[test]
fn traffic_log_captures_ops_per_phase() {
    let out = World::new(4).run_with_logs(|c| {
        c.set_phase("str");
        let mut v = vec![0.0; 8];
        c.all_reduce_sum_f64(&mut v);
        c.all_reduce_sum_f64(&mut v);
        c.set_phase("coll");
        let send: Vec<Vec<f64>> = (0..4).map(|_| vec![0.0; 16]).collect();
        let _ = c.all_to_all_v_take(send);
    });
    for (_, log) in out {
        let ar: Vec<_> = log.iter().filter(|r| r.op == OpKind::AllReduce).collect();
        assert_eq!(ar.len(), 2);
        assert!(ar.iter().all(|r| r.phase == "str" && r.participants == 4 && r.bytes == 64));
        let a2a: Vec<_> = log.iter().filter(|r| r.op == OpKind::AllToAll).collect();
        assert_eq!(a2a.len(), 1);
        assert_eq!(a2a[0].phase, "coll");
        assert_eq!(a2a[0].bytes, 4 * 16 * 8);
    }
}

#[test]
fn world_sized_one_split() {
    let out = World::new(1).run(|c| {
        let g = c.split(0, 0, "solo");
        let mut v = vec![5.0];
        g.all_reduce_sum_f64(&mut v);
        v[0]
    });
    assert_eq!(out, vec![5.0]);
}
