//! xg-comm: world spawn and the two collectives that carry the step, on
//! communicators split the way the ensemble topology splits them and at the
//! payloads the workload's own trace recorded.

use super::{filler, secs_per_call, Ctx};
use crate::metrics::Outcome;
use std::time::Instant;
use xg_comm::World;
use xg_linalg::Complex64;

const OPS: usize = 200;

pub fn measure(ctx: &Ctx, out: &mut Outcome) {
    let (n1, n2) = (ctx.grid.n1, ctx.grid.n2);
    let ranks = ctx.k * n1 * n2;

    let secs = secs_per_call(15, 1, || {
        World::new(ranks).run(|_| ());
    });
    out.push("comm.world_spawn_ms", secs * 1e3, 15);

    // Rank r works on simulation r / (n1·n2) at grid position (i1, i2), as
    // in `xgyro_core::topology`.
    let place = |rank: usize| {
        let (sim, local) = (rank / (n1 * n2), rank % (n1 * n2));
        (sim, local % n1, local / n1)
    };

    // Every simulation's nv communicators reduce at once, as in a str stage.
    let len = ctx.str_reduce_len;
    let per_op = World::new(ranks).run(|comm| {
        let (sim, i1, i2) = place(comm.rank());
        let nv = comm.split((sim * n2 + i2) as u64, i1 as u64, "nv");
        let mut buf: Vec<Complex64> = (0..len).map(|i| Complex64::new(filler(i), 0.0)).collect();
        comm.barrier();
        let t = Instant::now();
        for _ in 0..OPS {
            nv.all_reduce_sum_complex(&mut buf);
        }
        t.elapsed().as_secs_f64() / OPS as f64
    });
    out.push("comm.allreduce_us", per_op[0] * 1e6, OPS);

    // The ensemble-wide coll exchange: k·n1 ranks per toroidal slice.
    let block = ctx.coll_block_len;
    let per_op = World::new(ranks).run(|comm| {
        let (sim, i1, i2) = place(comm.rank());
        let coll = comm.split(i2 as u64, (sim * n1 + i1) as u64, "coll-ens");
        comm.barrier();
        let t = Instant::now();
        for _ in 0..OPS {
            let send: Vec<Vec<Complex64>> = (0..coll.size())
                .map(|_| vec![Complex64::new(1.0, 0.0); block])
                .collect();
            std::hint::black_box(coll.all_to_all_v_take(send));
        }
        t.elapsed().as_secs_f64() / OPS as f64
    });
    out.push("comm.alltoall_us", per_op[0] * 1e6, OPS);
}
