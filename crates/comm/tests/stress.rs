//! Stress tests: many communicators, deep collective sequences, and
//! interleaved op mixes — the regimes where epoch or staging bugs would
//! surface as deadlocks or crosstalk.

use xg_comm::{Communicator, World};
use xg_linalg::Complex64;

#[test]
fn deep_collective_sequence_stays_ordered() {
    // 1000 back-to-back AllReduces: every round's result depends on the
    // previous, so any epoch slip corrupts the value immediately.
    let p = 4;
    let rounds = 1000;
    let out = World::new(p).run(|c| {
        let mut v = vec![1.0f64];
        for _ in 0..rounds {
            c.all_reduce_sum_f64(&mut v);
            v[0] /= p as f64; // back to 1.0 if the sum was correct
        }
        v[0]
    });
    for v in out {
        assert!((v - 1.0).abs() < 1e-9, "drift after {rounds} rounds: {v}");
    }
}

#[test]
fn many_simultaneous_communicators() {
    // 16 ranks split into 8 pairs, each pair hammering its own slot while
    // the world interleaves barriers: no crosstalk, no deadlock.
    let p = 16;
    let out = World::new(p).run(|c| {
        let pair = c.split((c.rank() / 2) as u64, c.rank() as u64, "pair");
        let mut acc = 0.0;
        for round in 0..50 {
            let mut v = vec![(c.rank() + round) as f64];
            pair.all_reduce_sum_f64(&mut v);
            acc += v[0];
            if round % 10 == 0 {
                c.barrier();
            }
        }
        acc
    });
    for (rank, acc) in out.into_iter().enumerate() {
        let partner = rank ^ 1;
        let expect: f64 =
            (0..50).map(|r| (rank + r) as f64 + (partner + r) as f64).sum();
        assert_eq!(acc, expect, "rank {rank}");
    }
}

#[test]
fn mixed_op_kinds_interleaved() {
    // Alternate AllReduce / AllToAll / one-element AllToAll (f64, then u8
    // payloads) on one communicator: heterogeneous rounds must not confuse
    // the slot.
    let p = 3;
    let mixed = |c: Communicator| {
        let mut checksum = 0.0f64;
        for round in 0..40u64 {
            match round % 4 {
                0 => {
                    let mut v = vec![1.0f64; 16];
                    c.all_reduce_sum_f64(&mut v);
                    checksum += v[0];
                }
                1 => {
                    let send: Vec<Vec<u32>> =
                        (0..p).map(|j| vec![(c.rank() * p + j) as u32]).collect();
                    let recv = c.all_to_all_v_take(send);
                    checksum += recv.iter().map(|b| b[0] as f64).sum::<f64>();
                }
                2 => {
                    let g = c.all_to_all_v_take(vec![vec![round as f64 + c.rank() as f64]; p]);
                    checksum += g[(round as usize) % p][0];
                }
                _ => {
                    let g = c.all_to_all_v_take(vec![vec![c.rank() as u8]; p]);
                    checksum += g.len() as f64;
                }
            }
        }
        checksum
    };
    // The AllToAll term differs per rank, so there is no single expected
    // checksum; require determinism by running twice.
    assert_eq!(World::new(p).run(mixed), World::new(p).run(mixed));
}

#[test]
fn large_payload_alltoall() {
    // 4 ranks × 1 MiB blocks: exercises the staging paths with real volume.
    let p = 4;
    let n = 65536; // complex elements per block = 1 MiB
    let out = World::new(p).run(|c| {
        let send: Vec<Vec<Complex64>> = (0..p)
            .map(|j| vec![Complex64::new(c.rank() as f64, j as f64); n])
            .collect();
        let recv = c.all_to_all_v_take(send);
        recv.iter()
            .enumerate()
            .all(|(src, b)| {
                b.len() == n && b[0] == Complex64::new(src as f64, c.rank() as f64)
            })
    });
    assert!(out.into_iter().all(|ok| ok));
}

#[test]
fn repeated_worlds_do_not_leak_state() {
    // Creating and tearing down many worlds must be clean (no global
    // statics shared between them).
    for trial in 0..20 {
        let out = World::new(3).run(|c| {
            let mut v = vec![trial as f64];
            c.all_reduce_sum_f64(&mut v);
            v[0]
        });
        assert_eq!(out, vec![3.0 * trial as f64; 3]);
    }
}
