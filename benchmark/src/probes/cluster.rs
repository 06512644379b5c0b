//! xg-cluster: the planner calls admission and dispatch make per job.

use super::{secs_per_call, Ctx};
use crate::metrics::Outcome;
use std::hint::black_box;
use xg_cluster::{max_feasible_k_unbalanced, min_nodes_unbalanced};
use xg_serve::ServerConfig;

pub fn measure(ctx: &Ctx, out: &mut Outcome) {
    let cfg = ServerConfig::local_test();
    let secs = secs_per_call(15, 4, || {
        black_box(max_feasible_k_unbalanced(
            ctx.deck,
            cfg.nodes,
            &cfg.machine,
            cfg.k_max,
        ));
        black_box(min_nodes_unbalanced(
            ctx.deck,
            ctx.k.min(cfg.k_max),
            &cfg.machine,
            cfg.nodes,
        ));
    });
    out.push("cluster.admission_plan_us", secs * 1e6, 15);
}
