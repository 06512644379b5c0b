//! Figure-3 communicator construction.
//!
//! Global rank layout of an XGYRO job with k simulations of `n1·n2` ranks:
//! simulation `s` owns ranks `[s·n1·n2, (s+1)·n1·n2)`, and within a
//! simulation `rank = i2·n1 + i1` (the CGYRO convention). From the world
//! communicator this module derives:
//!
//! * `sim`  — all ranks of one simulation (`n1·n2`), for diagnostics;
//! * `nv`   — the per-simulation str communicator (`n1` ranks): AllReduce
//!   for *field* and *upwind* stay **per simulation** (Figure 3, top);
//! * `nt`   — the per-simulation toroidal communicator (`n2` ranks);
//! * `coll-ens` — the ensemble-wide coll communicator (`k·n1` ranks): all
//!   simulations' ranks sharing a toroidal slice `i2`, ordered `(s, i1)`
//!   lexicographic (Figure 3, bottom). This is the communicator that had
//!   to be **separated** from the `nv` communicator, "as the number of
//!   processes involved differs between the two" (paper §2.1).

use crate::ensemble::EnsembleConfig;
use xg_comm::Communicator;
use xg_sim::DistTopology;

/// This rank's place in the ensemble.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RankAssignment {
    /// Which member simulation this rank works on.
    pub sim: usize,
    /// `i1` (position in the nv/coll splitting).
    pub i1: usize,
    /// `i2` (toroidal slice).
    pub i2: usize,
}

/// Decode a world rank into its assignment under `config`.
pub fn assignment(config: &EnsembleConfig, world_rank: usize) -> RankAssignment {
    let per_sim = config.ranks_per_sim();
    let sim = world_rank / per_sim;
    let local = world_rank % per_sim;
    let (i1, i2) = config.grid().coords(local);
    RankAssignment { sim, i1, i2 }
}

/// Build the XGYRO topology (Figure 3) for this rank from the world
/// communicator. Collective over the world.
pub fn build_xgyro_topology(
    config: &EnsembleConfig,
    world: &Communicator,
) -> (RankAssignment, DistTopology) {
    assert_eq!(
        world.size(),
        config.total_ranks(),
        "world must have k·n1·n2 = {} ranks, got {}",
        config.total_ranks(),
        world.size()
    );
    let grid = config.grid();
    let a = assignment(config, world.rank());

    // Per-simulation communicator (diagnostics, phase tags); ranked by the
    // grid's local rank order so `PhaseLayout` coordinates line up.
    let sim_comm = world.split(a.sim as u64, grid.rank(a.i1, a.i2) as u64, "sim");
    // Per-simulation nv (str) communicator: same (sim, i2), ordered by i1.
    let nv_comm = sim_comm.split(a.i2 as u64, a.i1 as u64, "nv");
    // Per-simulation toroidal communicator: same (sim, i1), ordered by i2.
    let nt_comm = sim_comm.split(a.i1 as u64, a.i2 as u64, "nt");
    // Ensemble-wide coll communicator: same i2 across ALL simulations,
    // ordered (sim, i1) lexicographic — required by the shared-cmat
    // exchange in xg-sim::dist.
    let coll_comm = world.split(
        a.i2 as u64,
        (a.sim * grid.n1 + a.i1) as u64,
        "coll-ens",
    );

    let input = &config.members()[a.sim];
    let topo = DistTopology::xgyro(input, grid, sim_comm, nv_comm, nt_comm, coll_comm, config.k());
    (a, topo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xg_sim::CgyroInput;
    use xg_tensor::ProcGrid;

    #[test]
    fn assignment_decodes_rank_layout() {
        let cfg = crate::ensemble::gradient_sweep(
            &CgyroInput::test_small(),
            3,
            ProcGrid::new(2, 2),
        );
        assert_eq!(
            assignment(&cfg, 0),
            RankAssignment { sim: 0, i1: 0, i2: 0 }
        );
        assert_eq!(
            assignment(&cfg, 3),
            RankAssignment { sim: 0, i1: 1, i2: 1 }
        );
        assert_eq!(
            assignment(&cfg, 4),
            RankAssignment { sim: 1, i1: 0, i2: 0 }
        );
        assert_eq!(
            assignment(&cfg, 11),
            RankAssignment { sim: 2, i1: 1, i2: 1 }
        );
    }
}
