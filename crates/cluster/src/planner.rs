//! Job planning: valid decompositions and minimum-node search.
//!
//! CGYRO-style validity: the toroidal split must divide `nt`, and the
//! `n1` split must divide both `nv` and `nc` (the production code requires
//! exact divisibility for its transposes). These constraints quantize the
//! feasible rank counts — for the `nl03c`-like deck on a Frontier-like
//! machine they jump from 128 straight to 256 ranks, which combined with
//! the memory budget makes **32 nodes the minimum single-simulation
//! allocation**, exactly the paper's statement.

use crate::memory::{rank_inventory, total_bytes, BufferCategory};
use xg_costmodel::MachineModel;
use xg_sim::CgyroInput;
use xg_tensor::ProcGrid;

/// A feasible (or infeasible) placement of an ensemble on nodes.
#[derive(Clone, Debug)]
pub struct JobPlan {
    /// Node count.
    pub nodes: usize,
    /// Total ranks.
    pub ranks: usize,
    /// Ensemble size.
    pub k: usize,
    /// Per-simulation process grid.
    pub grid: ProcGrid,
    /// Worst-case per-rank bytes.
    pub per_rank_bytes: u64,
    /// Per-rank constant-tensor bytes.
    pub cmat_bytes: u64,
    /// Usable per-rank budget of the machine.
    pub budget_bytes: u64,
}

impl JobPlan {
    /// True when the plan fits in memory.
    pub fn feasible(&self) -> bool {
        self.per_rank_bytes <= self.budget_bytes
    }
}

/// Why no feasible plan exists for a `(deck, k, nodes, machine)` request —
/// the typed diagnosis behind `plan(...) == None` / `!feasible()`, surfaced
/// through `xgplan` rows and `xg-serve` admission errors.
#[derive(Clone, Debug, PartialEq)]
pub enum Infeasibility {
    /// The allocation's rank count does not divide into `k` equal
    /// simulations.
    RanksNotDivisibleByK {
        /// Total ranks on the allocation.
        ranks: usize,
        /// Requested ensemble size.
        k: usize,
    },
    /// No per-simulation grid satisfies the divisibility constraints.
    NoValidGrid {
        /// Ranks per simulation.
        per_sim: usize,
        /// Which constraint blocked every candidate.
        detail: String,
    },
    /// A grid exists but the worst-case rank exceeds the memory budget.
    Memory {
        /// Worst-case per-rank bytes of the best candidate grid.
        per_rank_bytes: u64,
        /// The machine's usable per-rank budget.
        budget_bytes: u64,
        /// The candidate grid that was priced.
        grid: ProcGrid,
    },
}

impl std::fmt::Display for Infeasibility {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Infeasibility::RanksNotDivisibleByK { ranks, k } => write!(
                f,
                "{ranks} ranks do not divide into k={k} equal simulations"
            ),
            Infeasibility::NoValidGrid { per_sim, detail } => {
                write!(f, "no valid grid for {per_sim} ranks/simulation: {detail}")
            }
            Infeasibility::Memory { per_rank_bytes, budget_bytes, grid } => write!(
                f,
                "memory: grid {}x{} needs {per_rank_bytes} B/rank, budget is {budget_bytes} B",
                grid.n1, grid.n2
            ),
        }
    }
}

impl Infeasibility {
    /// Short machine-readable tag (`divisibility` vs `memory`).
    pub fn kind(&self) -> &'static str {
        match self {
            Infeasibility::RanksNotDivisibleByK { .. } => "divisibility",
            Infeasibility::NoValidGrid { .. } => "divisibility",
            Infeasibility::Memory { .. } => "memory",
        }
    }
}

/// Explain why `valid_grids` came back empty for this rank count: which
/// divisibility constraint killed every factorization. `n2 = 1` divides
/// any positive rank count and `nt`, so only `n1` can block one.
fn grid_infeasibility_detail(input: &CgyroInput, ranks: usize) -> String {
    let d = input.dims();
    if ranks == 0 {
        return format!("no divisor of {ranks} divides nt={}", d.nt);
    }
    // The ragged grids are exactly the candidates that divisibility blocked.
    let mut blocked_nv: Vec<usize> =
        valid_grids(input, ranks, true).iter().map(|g| g.n1).collect();
    if blocked_nv.is_empty() {
        return format!("every candidate n1 exceeds nv={}", d.nv);
    }
    blocked_nv.sort_unstable();
    format!(
        "candidate n1 {} do(es) not divide nv={} and nc={} (balanced mode requires exact \
         divisibility; unbalanced mode lifts this)",
        blocked_nv.iter().map(|n| n.to_string()).collect::<Vec<_>>().join("/"),
        d.nv,
        d.nc
    )
}

/// Every per-simulation grid for a rank count, best first. The toroidal
/// split must divide `nt` exactly (the nt transpose wire format). In
/// balanced mode `n1` must also divide `nv` and `nc`; `unbalanced` admits
/// any `n1 ≤ nv`, the ragged `Decomp1D`/`RaggedDecomp` splits handling the
/// remainder rows. Exactly-dividing grids sort first, then the largest
/// toroidal split (CGYRO's convention), then `n1`, so unbalanced mode never
/// picks a ragged grid when an exactly-dividing one exists.
pub fn valid_grids(input: &CgyroInput, ranks: usize, unbalanced: bool) -> Vec<ProcGrid> {
    let d = input.dims();
    let divides = |n1: usize| d.nv.is_multiple_of(n1) && d.nc.is_multiple_of(n1);
    let mut out = Vec::new();
    for n2 in 1..=ranks {
        if !ranks.is_multiple_of(n2) || !d.nt.is_multiple_of(n2) {
            continue;
        }
        let n1 = ranks / n2;
        if n1 > d.nv || !(unbalanced || divides(n1)) {
            continue;
        }
        out.push(ProcGrid::new(n1, n2));
    }
    out.sort_by_key(|g| std::cmp::Reverse((divides(g.n1), g.n2, g.n1)));
    out
}

/// The one pricing body: the best grid for `k` simulations on `nodes`
/// nodes, with its worst-case per-rank bytes. `None` when divisibility
/// blocks every grid; a `Some` plan may still exceed the memory budget.
fn price(
    input: &CgyroInput,
    k: usize,
    nodes: usize,
    machine: &MachineModel,
    unbalanced: bool,
) -> Option<JobPlan> {
    let total_ranks = machine.ranks(nodes);
    if !total_ranks.is_multiple_of(k) {
        return None;
    }
    let grid = valid_grids(input, total_ranks / k, unbalanced).into_iter().next()?;
    let inv = rank_inventory(input, grid, k * grid.n1);
    Some(JobPlan {
        nodes,
        ranks: total_ranks,
        k,
        grid,
        per_rank_bytes: total_bytes(&inv, None),
        cmat_bytes: total_bytes(&inv, Some(BufferCategory::Constant)),
        budget_bytes: machine.usable_mem_per_rank(),
    })
}

/// Price the best candidate grid for one `(k, nodes)` request, reporting
/// **why** when nothing feasible exists. `unbalanced` admits ragged
/// (non-dividing) grids (see [`valid_grids`]). `Ok` plans are always
/// memory-feasible.
pub fn diagnose(
    input: &CgyroInput,
    k: usize,
    nodes: usize,
    machine: &MachineModel,
    unbalanced: bool,
) -> Result<JobPlan, Infeasibility> {
    let p = price(input, k, nodes, machine, unbalanced).ok_or_else(|| {
        let ranks = machine.ranks(nodes);
        if !ranks.is_multiple_of(k) {
            Infeasibility::RanksNotDivisibleByK { ranks, k }
        } else {
            let per_sim = ranks / k;
            Infeasibility::NoValidGrid {
                per_sim,
                detail: grid_infeasibility_detail(input, per_sim),
            }
        }
    })?;
    if !p.feasible() {
        return Err(Infeasibility::Memory {
            per_rank_bytes: p.per_rank_bytes,
            budget_bytes: p.budget_bytes,
            grid: p.grid,
        });
    }
    Ok(p)
}

/// Plan an ensemble of `k` simulations on `nodes` nodes. Returns `None`
/// when no CGYRO-valid decomposition exists for that rank count.
pub fn plan(
    input: &CgyroInput,
    k: usize,
    nodes: usize,
    machine: &MachineModel,
) -> Option<JobPlan> {
    price(input, k, nodes, machine, false)
}

/// Largest ensemble size `k ≤ k_cap` that fits a **fixed** `nodes`
/// allocation of `machine` — the serving-side batch-size budget, with
/// unbalanced-mode grid admission so a deck whose dims do not divide
/// evenly is still batched. On a fixed allocation, growing the batch
/// shrinks each member's share of the rank pool, so the per-rank state
/// footprint grows with `k` and eventually blows the memory budget.
/// Intermediate sizes with no grid are skipped rather than treated as a
/// ceiling. Returns `0` when not even one simulation fits — such a job
/// must be rejected at admission, not queued.
pub fn max_feasible_k_unbalanced(
    input: &CgyroInput,
    nodes: usize,
    machine: &MachineModel,
    k_cap: usize,
) -> usize {
    (1..=k_cap)
        .rfind(|&k| price(input, k, nodes, machine, true).is_some_and(|p| p.feasible()))
        .unwrap_or(0)
}

/// Smallest node count on which `k` simulations fit as one XGYRO job
/// (`k = 1` is a plain CGYRO job). Searches up to `max_nodes`.
pub fn min_nodes(
    input: &CgyroInput,
    k: usize,
    machine: &MachineModel,
    max_nodes: usize,
) -> Option<JobPlan> {
    (1..=max_nodes).find_map(|nodes| plan(input, k, nodes, machine).filter(|p| p.feasible()))
}

/// [`min_nodes`] with unbalanced-mode grid admission: the smallest
/// allocation that holds one `k`-member ensemble world. A planning answer;
/// serving bounds concurrent worlds by its worker pool, not by nodes.
pub fn min_nodes_unbalanced(
    input: &CgyroInput,
    k: usize,
    machine: &MachineModel,
    max_nodes: usize,
) -> Option<JobPlan> {
    (1..=max_nodes)
        .find_map(|nodes| price(input, k, nodes, machine, true).filter(|p| p.feasible()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frontier() -> MachineModel {
        MachineModel::frontier_like()
    }

    #[test]
    fn nl03c_single_sim_needs_32_nodes() {
        // Paper §3: "a single CGYRO simulation does require at least 32
        // nodes."
        let input = CgyroInput::nl03c_like();
        let plan = min_nodes(&input, 1, &frontier(), 128).expect("must fit somewhere");
        assert_eq!(plan.nodes, 32, "minimum feasible allocation");
        assert_eq!(plan.ranks, 256);
        assert_eq!(plan.grid.n2, 16, "toroidal split preferred");
        assert_eq!(plan.grid.n1, 16);
    }

    #[test]
    fn nl03c_16_nodes_is_memory_infeasible() {
        let input = CgyroInput::nl03c_like();
        let p = plan(&input, 1, 16, &frontier()).expect("decomposition exists");
        assert!(!p.feasible(), "128 ranks must exceed the per-rank budget");
    }

    #[test]
    fn xgyro_fits_8_sims_on_the_same_32_nodes() {
        // The paper's benchmark setup: 8 nl03c variants on 32 nodes as one
        // ensemble — 8x the science on the allocation a single CGYRO run
        // needs.
        let input = CgyroInput::nl03c_like();
        let p = plan(&input, 8, 32, &frontier()).expect("plan exists");
        assert!(p.feasible(), "per-rank {} > budget {}", p.per_rank_bytes, p.budget_bytes);
        assert_eq!(p.grid.n1, 2);
        assert_eq!(p.grid.n2, 16);
        // And the ensemble minimum is also 32 nodes.
        let min = min_nodes(&input, 8, &frontier(), 128).unwrap();
        assert_eq!(min.nodes, 32);
    }

    #[test]
    fn xgyro_16_sims_do_not_fit_on_32_nodes() {
        // Sharing cmat cannot shrink the per-simulation state buffers: at
        // k = 16 each rank would hold 16x the state of the 256-rank run
        // and blows the budget (the sweep saturates at k = 8).
        let input = CgyroInput::nl03c_like();
        let p = plan(&input, 16, 32, &frontier()).expect("plan exists");
        assert!(!p.feasible());
    }

    #[test]
    fn valid_grids_respect_divisibility() {
        let input = CgyroInput::nl03c_like(); // nv=576, nc=2^17, nt=16
        // 192 ranks has no valid grid: n1 would need to divide both 576
        // and 2^17 (gcd 64), but 192 = n2*n1 with n2 | 16 forces n1 ∈
        // {12, 24, 48, 96, 192} — none divide 2^17.
        assert!(valid_grids(&input, 192, false).is_empty());
        // 256 = 16 × 16 works.
        let grids = valid_grids(&input, 256, false);
        assert!(grids.iter().any(|g| g.n1 == 16 && g.n2 == 16));
        // Every returned grid multiplies out and divides the dims.
        for g in &grids {
            assert_eq!(g.size(), 256);
            assert_eq!(input.dims().nt % g.n2, 0);
            assert_eq!(input.dims().nv % g.n1, 0);
            assert_eq!(input.dims().nc % g.n1, 0);
        }
    }

    #[test]
    fn cmat_per_rank_equal_between_cgyro_256_and_xgyro_ensemble() {
        // Both split one cmat copy over 256 ranks.
        let input = CgyroInput::nl03c_like();
        let m = frontier();
        let cg = plan(&input, 1, 32, &m).unwrap();
        let xg = plan(&input, 8, 32, &m).unwrap();
        assert_eq!(cg.cmat_bytes, xg.cmat_bytes);
        // But XGYRO carries 8x the per-rank state.
        assert!(xg.per_rank_bytes > cg.per_rank_bytes);
    }

    /// Largest `k ≤ k_cap` whose balanced plan fits `nodes`, through the
    /// one pricing body.
    fn balanced_k_cap(input: &CgyroInput, nodes: usize, m: &MachineModel, k_cap: usize) -> usize {
        (1..=k_cap).rfind(|&k| diagnose(input, k, nodes, m, false).is_ok()).unwrap_or(0)
    }

    #[test]
    fn max_feasible_k_saturates_at_the_paper_ensemble_size() {
        // nl03c on the 32-node minimum allocation: 8 members fit, 16 do
        // not — the batch-size budget a campaign service must respect.
        let input = CgyroInput::nl03c_like();
        assert_eq!(balanced_k_cap(&input, 32, &frontier(), 32), 8);
        assert_eq!(max_feasible_k_unbalanced(&input, 32, &frontier(), 32), 8);
        // A deck that fits nowhere on the allocation yields 0 (reject).
        assert_eq!(balanced_k_cap(&input, 1, &frontier(), 8), 0);
        assert_eq!(max_feasible_k_unbalanced(&input, 1, &frontier(), 8), 0);
        // Tiny decks are never memory-bound at small k.
        let small = CgyroInput::test_small();
        let m = MachineModel::small_cluster();
        assert!(balanced_k_cap(&small, 1, &m, 2) >= 1);
        assert!(max_feasible_k_unbalanced(&small, 1, &m, 2) >= 1);
    }

    #[test]
    fn small_cluster_plans_small_decks() {
        let input = CgyroInput::test_medium();
        let m = MachineModel::small_cluster();
        let p = min_nodes(&input, 1, &m, 64).expect("tiny deck fits easily");
        assert_eq!(p.nodes, 1);
        assert!(p.feasible());
    }

    #[test]
    fn diagnose_names_the_blocking_constraint() {
        let input = CgyroInput::nl03c_like();
        let m = frontier();
        // 24 nodes = 192 ranks: no balanced grid (n1 never divides nv and
        // nc simultaneously) — a divisibility diagnosis, not memory.
        let err = diagnose(&input, 1, 24, &m, false).unwrap_err();
        assert!(matches!(err, Infeasibility::NoValidGrid { per_sim: 192, .. }), "{err:?}");
        assert_eq!(err.kind(), "divisibility");
        assert!(err.to_string().contains("192"), "{err}");
        // 16 nodes: a grid exists but memory blocks it.
        let err = diagnose(&input, 1, 16, &m, false).unwrap_err();
        assert!(matches!(err, Infeasibility::Memory { .. }), "{err:?}");
        assert_eq!(err.kind(), "memory");
        // k not dividing the rank pool.
        let err = diagnose(&input, 3, 32, &m, false).unwrap_err();
        assert!(matches!(err, Infeasibility::RanksNotDivisibleByK { ranks: 256, k: 3 }));
        // The feasible case round-trips to the plain planner.
        let ok = diagnose(&input, 8, 32, &m, false).unwrap();
        let p = plan(&input, 8, 32, &m).unwrap();
        assert_eq!((ok.grid.n1, ok.grid.n2), (p.grid.n1, p.grid.n2));
    }

    #[test]
    fn unbalanced_mode_admits_non_dividing_grids() {
        let input = CgyroInput::nl03c_like();
        // 192 ranks: balanced mode rejects, unbalanced mode finds a grid
        // (n2 | 16, n1 = ranks/n2 ragged over nv/nc).
        assert!(valid_grids(&input, 192, false).is_empty());
        let grids = valid_grids(&input, 192, true);
        assert!(!grids.is_empty());
        for g in &grids {
            assert_eq!(g.size(), 192);
            assert_eq!(input.dims().nt % g.n2, 0, "nt split stays exact");
        }
        // Where a balanced grid exists, unbalanced mode picks it first.
        let b = valid_grids(&input, 256, false);
        let u = valid_grids(&input, 256, true);
        assert_eq!(u.first(), b.first());
    }

    #[test]
    fn unbalanced_k_cap_is_at_least_the_balanced_one() {
        let input = CgyroInput::nl03c_like();
        let m = frontier();
        let balanced = balanced_k_cap(&input, 32, &m, 32);
        let unbalanced = max_feasible_k_unbalanced(&input, 32, &m, 32);
        assert!(unbalanced >= balanced, "{unbalanced} < {balanced}");
        assert_eq!(balanced, 8, "paper setup unchanged");
    }

    #[test]
    fn unbalanced_minimum_allocation_is_the_smallest_that_fits() {
        let input = CgyroInput::nl03c_like();
        let m = frontier();
        // Unbalanced admission relaxes the divisibility constraints that
        // force the balanced 32-node minimum.
        let min = min_nodes_unbalanced(&input, 1, &m, 128).expect("nl03c fits").nodes;
        assert!((2..=32).contains(&min), "unbalanced min {min} out of range");
        // The answer is the minimum, not the search bound; below it, none.
        assert_eq!(min_nodes_unbalanced(&input, 1, &m, 200).map(|p| p.nodes), Some(min));
        assert!(min_nodes_unbalanced(&input, 1, &m, min - 1).is_none());
    }
}
