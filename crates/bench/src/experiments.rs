//! One function per paper artifact. Each returns a human-readable report
//! string (also consumed by EXPERIMENTS.md and the integration tests).

use std::fmt::Write as _;
use xg_costmodel::{allreduce_time, CollectiveShape, MachineModel, Placement};
use xg_sim::CgyroInput;
use xg_tensor::ProcGrid;
use xgyro_core::{
    cmat_memory_law, gradient_sweep, run_cgyro_baseline, run_single_cgyro, run_xgyro,
    summarize_trace,
};

/// The functional deck used for trace experiments (small, fast).
pub fn trace_deck() -> CgyroInput {
    CgyroInput::test_small()
}

/// **F1** — CGYRO str/coll communication logic (paper Figure 1).
///
/// Runs a small distributed CGYRO simulation and prints rank 0's
/// communication pattern, demonstrating that one communicator (`nv`)
/// serves both the str-phase AllReduce (field + upwind) and the str↔coll
/// AllToAll transpose.
pub fn figure1() -> String {
    let input = trace_deck();
    let grid = ProcGrid::new(4, 1);
    let (_result, traces) = run_single_cgyro(&input, grid, 2, 0);
    let summary = summarize_trace(&traces[0]);
    let ar = summary.str_allreduce().expect("str AllReduce present");
    let a2a = summary.coll_alltoall().expect("coll AllToAll present");
    let mut out = String::new();
    let _ = writeln!(out, "F1: CGYRO communication logic (rank 0 of a {}x{} grid, 2 steps)", grid.n1, grid.n2);
    let _ = writeln!(out, "{}", summary.to_table());
    let _ = writeln!(
        out,
        "str AllReduce communicator:  '{}' ({} ranks)",
        ar.comm_label, ar.participants
    );
    let _ = writeln!(
        out,
        "coll AllToAll communicator:  '{}' ({} ranks)",
        a2a.comm_label, a2a.participants
    );
    let reused = ar.comm_label == a2a.comm_label && ar.participants == a2a.participants;
    let _ = writeln!(
        out,
        "=> communicator reuse (paper Figure 1): {}",
        if reused { "CONFIRMED — same communicator serves both" } else { "VIOLATED" }
    );
    assert!(reused, "CGYRO must reuse the nv communicator");
    out
}

/// **F3** — XGYRO communication logic (paper Figure 3).
pub fn figure3() -> String {
    let input = trace_deck();
    let grid = ProcGrid::new(2, 2);
    let k = 3;
    let cfg = gradient_sweep(&input, k, grid);
    let outcome = run_xgyro(&cfg, 2);
    let summary = summarize_trace(&outcome.traces[0]);
    let ar = summary.str_allreduce().expect("str AllReduce present");
    let a2a = summary.coll_alltoall().expect("coll AllToAll present");
    let mut out = String::new();
    let _ = writeln!(
        out,
        "F3: XGYRO communication logic (k={k} sims of {}x{} ranks, rank 0, 2 steps)",
        grid.n1, grid.n2
    );
    let _ = writeln!(out, "{}", summary.to_table());
    let _ = writeln!(
        out,
        "str AllReduce:  '{}' with {} ranks (per-simulation, unchanged)",
        ar.comm_label, ar.participants
    );
    let _ = writeln!(
        out,
        "coll AllToAll:  '{}' with {} ranks (= k x n1, ensemble-wide)",
        a2a.comm_label, a2a.participants
    );
    assert_eq!(ar.participants, grid.n1);
    assert_eq!(a2a.participants, k * grid.n1);
    assert_ne!(ar.comm_label, a2a.comm_label, "communicators separated");
    let _ = writeln!(
        out,
        "=> nv/coll communicator separation (paper Figure 3): CONFIRMED"
    );
    out
}

/// **F2** — the benchmark table (paper Figure 2): 8× nl03c on 32
/// Frontier-like nodes, CGYRO-sequential vs XGYRO, seconds per reporting
/// step by phase.
pub fn figure2() -> String {
    let input = CgyroInput::nl03c_like();
    let machine = MachineModel::frontier_like();
    let policy = xg_cluster::SchedulePolicy::production();
    let k = 8;
    let nodes = 32;
    let cg_plan = xg_cluster::plan(&input, 1, nodes, &machine).expect("CGYRO plan");
    let xg_plan = xg_cluster::plan(&input, k, nodes, &machine).expect("XGYRO plan");
    let cg = xg_cluster::simulate_cgyro_sequential(&input, cg_plan.grid, k, nodes, &machine, &policy);
    let xg = xg_cluster::simulate_xgyro(&input, xg_plan.grid, k, nodes, &machine, &policy);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "F2: {k} x nl03c-like on {nodes} {} nodes ({} ranks), seconds per reporting step",
        machine.name,
        machine.ranks(nodes)
    );
    let _ = writeln!(
        out,
        "    CGYRO grid: n1={} n2={} (x{k} sequential) | XGYRO grids: n1={} n2={} (k={k} concurrent)",
        cg_plan.grid.n1, cg_plan.grid.n2, xg_plan.grid.n1, xg_plan.grid.n2
    );
    out.push_str(&xg_cluster::figure2_table(&[&cg, &xg]));
    let _ = writeln!(
        out,
        "paper:   CGYRO sum 375 s (str comm 145 s) | XGYRO 250 s (str comm 33 s) | speedup 1.5x"
    );
    // A sample in the format of the paper's published logs ("Complete
    // simulation logs can be found in [5]"): the benchmark reports at
    // t = 81 (3 reporting steps of 27 time units in our normalization).
    let _ = writeln!(out, "\nout.cgyro.timing-style log (XGYRO run):");
    out.push_str(&xg_cluster::cgyro_timing_log(&xg, 3, 27.0));
    out
}

/// **T-mem** — cmat dominates memory ~10×, ratio strong-scaling invariant,
/// and per-process cmat drops 1/k with ensemble size.
pub fn memory_claims() -> String {
    let input = CgyroInput::nl03c_like();
    let mut out = String::new();
    let _ = writeln!(out, "T-mem: memory inventory for nl03c-like (nv=576, nc=131072, nt=16)");
    let _ = writeln!(out, "  full cmat = {:.2} TB", xg_sim::cmat_total_bytes(&input) as f64 / 1e12);
    let _ = writeln!(out, "\n  strong scaling (CGYRO, per-rank):");
    let _ = writeln!(out, "  ranks   cmat/rank GB   other/rank GB   ratio");
    for (n1, n2) in [(8usize, 16usize), (16, 16), (32, 16), (64, 16)] {
        let grid = ProcGrid::new(n1, n2);
        let inv = xg_cluster::rank_inventory(&input, grid, n1);
        let cmat = xg_cluster::total_bytes(&inv, Some(xg_cluster::BufferCategory::Constant));
        let total = xg_cluster::total_bytes(&inv, None);
        let other = total - cmat;
        let _ = writeln!(
            out,
            "  {:>5}   {:>12.2}   {:>13.2}   {:>5.1}x",
            n1 * n2,
            cmat as f64 / 1e9,
            other as f64 / 1e9,
            cmat as f64 / other as f64
        );
    }
    let _ = writeln!(out, "  (paper: \"cmat is 10x the size of all the other memory buffers combined\",");
    let _ = writeln!(out, "   and the ratio \"does not change with strong scaling\")");
    let _ = writeln!(out, "\n  ensemble sharing (per-rank cmat, 256 total ranks):");
    let _ = writeln!(out, "  k     cmat/rank GB");
    for k in [1usize, 2, 4, 8] {
        let grid = ProcGrid::new(16 / k, 16);
        let inv = xg_cluster::rank_inventory(&input, grid, k * grid.n1);
        let cmat = xg_cluster::total_bytes(&inv, Some(xg_cluster::BufferCategory::Constant));
        let _ = writeln!(out, "  {:<4}  {:>12.2}", k, cmat as f64 / 1e9);
    }
    let _ = writeln!(out, "  (unchanged: one shared copy over the same 256 ranks, per Figure 3)");
    out
}

/// **T-nodes** — minimum feasible node counts (paper §3: single nl03c needs
/// ≥32 Frontier nodes; XGYRO runs 8 on the same 32).
pub fn node_claims() -> String {
    let input = CgyroInput::nl03c_like();
    let machine = MachineModel::frontier_like();
    let mut out = String::new();
    let _ = writeln!(out, "T-nodes: minimum feasible allocations ({} model)", machine.name);
    let _ = writeln!(out, "  k     min nodes   ranks   grid(n1xn2)   per-rank GB (budget {:.1})",
        machine.usable_mem_per_rank() as f64 / 1e9);
    for k in [1usize, 2, 4, 8, 16] {
        match xg_cluster::min_nodes(&input, k, &machine, 256) {
            Some(p) => {
                let _ = writeln!(
                    out,
                    "  {:<5} {:>9}   {:>5}   {:>6}x{:<5} {:>10.1}",
                    k,
                    p.nodes,
                    p.ranks,
                    p.grid.n1,
                    p.grid.n2,
                    p.per_rank_bytes as f64 / 1e9
                );
            }
            None => {
                let _ = writeln!(out, "  {:<5} {:>9}", k, "infeasible");
            }
        }
    }
    let _ = writeln!(out, "  (paper: a single nl03c requires at least 32 nodes; XGYRO runs 8");
    let _ = writeln!(out, "   variants on those same 32 nodes)");
    out
}

/// **T-allreduce** — AllReduce cost vs participant count (paper §2.1: "the
/// overall cost of AllReduce is proportional with the number of
/// participating processes"), as the cost model prices it.
pub fn allreduce_claims() -> String {
    let machine = MachineModel::frontier_like();
    let bytes = (131072 * 16) as u64; // the nl03c moment buffer
    let mut out = String::new();
    let _ = writeln!(out, "T-allreduce: modeled AllReduce time vs participants ({} KB buffer)", bytes / 1024);
    let _ = writeln!(out, "  ranks   nodes   time (us)   vs p=2");
    let rpn = machine.ranks_per_node;
    let base = {
        let members: Vec<usize> = (0..2).map(|i| i * 16).collect();
        allreduce_time(&machine, CollectiveShape::from_members(&members, Placement { ranks_per_node: rpn }), bytes)
    };
    for p in [2usize, 4, 8, 16, 32, 64] {
        // Members spread n2=16 apart, as in the nl03c decomposition.
        let members: Vec<usize> = (0..p).map(|i| i * 16).collect();
        let shape = CollectiveShape::from_members(&members, Placement { ranks_per_node: rpn });
        let t = allreduce_time(&machine, shape, bytes);
        let _ = writeln!(
            out,
            "  {:>5}   {:>5}   {:>9.1}   {:>5.2}x",
            p,
            shape.nodes,
            t * 1e6,
            t / base
        );
    }
    out
}

/// **T-correct** — trajectory equivalence: XGYRO vs independent CGYRO runs
/// (bitwise) and vs the serial reference.
pub fn correctness_claims() -> String {
    let base = trace_deck();
    let grid = ProcGrid::new(2, 2);
    let k = 3;
    let cfg = gradient_sweep(&base, k, grid);
    let steps = 4;
    let xg = run_xgyro(&cfg, steps);
    let cg = run_cgyro_baseline(&cfg, steps);
    let mut out = String::new();
    let _ = writeln!(out, "T-correct: k={k} gradient variants, {steps} steps, grid {}x{}", grid.n1, grid.n2);
    let mut max_dev_bitwise = 0usize;
    for (x, c) in xg.sims.iter().zip(&cg.sims) {
        let identical = x.h.as_slice() == c.h.as_slice();
        if !identical {
            max_dev_bitwise += 1;
        }
        let mut serial = xg_sim::serial_simulation(&cfg.members()[x.sim]);
        serial.run_steps(steps);
        let dev = xg_linalg::norms::max_deviation(serial.h().as_slice(), x.h.as_slice());
        let _ = writeln!(
            out,
            "  sim {}: XGYRO == CGYRO bitwise: {}; |XGYRO - serial| = {:.2e}",
            x.sim,
            if identical { "yes" } else { "NO" },
            dev
        );
        assert!(identical, "bitwise equivalence violated");
        assert!(dev < 1e-11, "serial deviation too large: {dev}");
    }
    let law = cmat_memory_law(&cfg);
    let _ = writeln!(
        out,
        "  per-rank cmat: CGYRO {} B -> XGYRO {} B (exactly 1/k)",
        law.cgyro_per_rank, law.xgyro_per_rank
    );
    let _ = writeln!(out, "  mismatched trajectories: {max_dev_bitwise}");
    out
}

/// **T-sweep** — savings vs ensemble size k at fixed 32 nodes (paper §2.1:
/// savings grow with the number of simulations per ensemble).
pub fn ensemble_sweep_claims() -> String {
    let input = CgyroInput::nl03c_like();
    let machine = MachineModel::frontier_like();
    let policy = xg_cluster::SchedulePolicy::production();
    let nodes = 32;
    let mut out = String::new();
    let _ = writeln!(out, "T-sweep: k variants on {nodes} nodes, seconds per reporting step");
    let _ = writeln!(out, "  k     feasible   XGYRO total   CGYROx k   speedup   XGYRO str-comm");
    for k in [1usize, 2, 4, 8, 16] {
        match xg_cluster::plan(&input, k, nodes, &machine) {
            Some(p) if p.feasible() => {
                let xg = xg_cluster::simulate_xgyro(&input, p.grid, k, nodes, &machine, &policy);
                let cg_plan = xg_cluster::plan(&input, 1, nodes, &machine).unwrap();
                let cg = xg_cluster::simulate_cgyro_sequential(
                    &input, cg_plan.grid, k, nodes, &machine, &policy,
                );
                let _ = writeln!(
                    out,
                    "  {:<5} {:>8}   {:>11.1}   {:>8.1}   {:>6.2}x   {:>14.1}",
                    k,
                    "yes",
                    xg.total(),
                    cg.total(),
                    cg.total() / xg.total(),
                    xg.str_comm()
                );
            }
            _ => {
                let _ = writeln!(out, "  {:<5} {:>8}   (cmat sharing cannot shrink per-sim state)", k, "NO");
            }
        }
    }
    out
}

/// **T-scaling** (extension) — strong scaling of a single CGYRO simulation
/// vs using the same nodes for an XGYRO ensemble. The paper's premise
/// (its reference \[2\]): adding nodes to one simulation buys diminishing
/// returns because communication overhead grows; XGYRO spends the same
/// nodes on more simulations instead.
pub fn scaling_claims() -> String {
    let input = CgyroInput::nl03c_like();
    let machine = MachineModel::frontier_like();
    let policy = xg_cluster::SchedulePolicy::production();
    let mut out = String::new();
    let _ = writeln!(out, "T-scaling: one nl03c-like simulation, strong scaling");
    let _ = writeln!(out, "  nodes   ranks   grid      s/report   efficiency   comm fraction");
    let base = xg_cluster::plan(&input, 1, 32, &machine)
        .map(|p| xg_cluster::simulate_xgyro(&input, p.grid, 1, 32, &machine, &policy))
        .expect("32-node baseline");
    for nodes in [32usize, 64, 128] {
        let Some(p) = xg_cluster::plan(&input, 1, nodes, &machine) else {
            continue;
        };
        let r = xg_cluster::simulate_xgyro(&input, p.grid, 1, nodes, &machine, &policy);
        let eff = base.total() * 32.0 / (r.total() * nodes as f64);
        let _ = writeln!(
            out,
            "  {:>5}   {:>5}   {:>3}x{:<4} {:>9.1}   {:>9.2}   {:>12.2}",
            nodes,
            p.ranks,
            p.grid.n1,
            p.grid.n2,
            r.total(),
            eff,
            r.comm_total() / r.total()
        );
    }
    let _ = writeln!(
        out,
        "\n  alternative use of 64 nodes: 2 ensembles of k=8 -> 16 simulations at {:.1} s/report each batch",
        xg_cluster::plan(&input, 8, 32, &machine)
            .map(|p| xg_cluster::simulate_xgyro(&input, p.grid, 8, 32, &machine, &policy).total())
            .unwrap_or(f64::NAN)
    );
    let _ = writeln!(
        out,
        "  (communication fraction grows with node count; ensembles convert nodes into throughput)"
    );
    out
}

/// **T-machines** (extension) — does the XGYRO advantage transfer across
/// machine balances? Evaluate the F2 scenario on every machine preset
/// (each machine's minimum feasible allocation for one simulation).
pub fn machine_transfer_claims() -> String {
    let input = CgyroInput::nl03c_like();
    let policy = xg_cluster::SchedulePolicy::production();
    let mut out = String::new();
    let _ = writeln!(out, "T-machines: k=8 ensemble vs sequential across machine models");
    let _ = writeln!(
        out,
        "  machine           min nodes   CGYROx8 s   XGYRO s   speedup   str-comm ratio"
    );
    for machine in [
        MachineModel::frontier_like(),
        MachineModel::perlmutter_like(),
        MachineModel::slow_fabric_cluster(),
    ] {
        let Some(single) = xg_cluster::min_nodes(&input, 1, &machine, 512) else {
            let _ = writeln!(out, "  {:<17} (does not fit)", machine.name);
            continue;
        };
        let nodes = single.nodes;
        // If the full ensemble does not fit on the single-sim minimum
        // (memory headroom differs by machine), grow the allocation to the
        // ensemble's own minimum and compare there.
        let (nodes, ens) = match xg_cluster::plan(&input, 8, nodes, &machine)
            .filter(|p| p.feasible())
        {
            Some(p) => (nodes, p),
            None => {
                let Some(p) = xg_cluster::min_nodes(&input, 8, &machine, 512) else {
                    let _ = writeln!(out, "  {:<17} {:>9}   (k=8 never fits)", machine.name, nodes);
                    continue;
                };
                (p.nodes, p.clone())
            }
        };
        let single = xg_cluster::plan(&input, 1, nodes, &machine).expect("grid exists");
        let cg =
            xg_cluster::simulate_cgyro_sequential(&input, single.grid, 8, nodes, &machine, &policy);
        let xg = xg_cluster::simulate_xgyro(&input, ens.grid, 8, nodes, &machine, &policy);
        let _ = writeln!(
            out,
            "  {:<17} {:>9}   {:>9.1}   {:>7.1}   {:>6.2}x   {:>13.1}x",
            machine.name,
            nodes,
            cg.total(),
            xg.total(),
            cg.total() / xg.total(),
            cg.str_comm() / xg.str_comm()
        );
    }
    let _ = writeln!(
        out,
        "  (the advantage holds wherever AllReduce cost grows with participants;\n   slower fabrics benefit more)"
    );
    out
}

/// **A-abl** — ablations: (a) what sharing buys (shared vs replicated cmat
/// under the XGYRO topology); (b) cost-model sensitivity to the AllReduce
/// congestion coefficient; (c) deterministic vs unordered reductions.
pub fn ablations() -> String {
    let mut out = String::new();

    // (a) shared vs replicated cmat: memory feasibility on 32 nodes.
    let input = CgyroInput::nl03c_like();
    let machine = MachineModel::frontier_like();
    let _ = writeln!(out, "A-abl(a): shared vs replicated cmat, k=8 on 32 nodes");
    let shared = xg_cluster::plan(&input, 8, 32, &machine).unwrap();
    // Replicated: same per-sim grid but cmat split only over n1 ranks.
    let grid = shared.grid;
    let inv = xg_cluster::rank_inventory(&input, grid, grid.n1);
    let repl_per_rank = xg_cluster::total_bytes(&inv, None);
    let _ = writeln!(
        out,
        "  shared:     {:>6.1} GB/rank  (feasible: {})",
        shared.per_rank_bytes as f64 / 1e9,
        shared.feasible()
    );
    let _ = writeln!(
        out,
        "  replicated: {:>6.1} GB/rank  (feasible: {})",
        repl_per_rank as f64 / 1e9,
        repl_per_rank <= machine.usable_mem_per_rank()
    );
    let _ = writeln!(out, "  => without sharing, 8 sims cannot fit on 32 nodes at all\n");

    // (b) congestion-coefficient sensitivity of the F2 speedup.
    let policy = xg_cluster::SchedulePolicy::production();
    let _ = writeln!(out, "A-abl(b): F2 speedup vs AllReduce congestion coefficient");
    let _ = writeln!(out, "  gamma    CGYRO str-comm   speedup");
    for gamma in [0.0, 0.15, 0.31, 0.62] {
        let mut m = machine.clone();
        m.allreduce_congestion = gamma;
        let cgp = xg_cluster::plan(&input, 1, 32, &m).unwrap();
        let xgp = xg_cluster::plan(&input, 8, 32, &m).unwrap();
        let cg = xg_cluster::simulate_cgyro_sequential(&input, cgp.grid, 8, 32, &m, &policy);
        let xg = xg_cluster::simulate_xgyro(&input, xgp.grid, 8, 32, &m, &policy);
        let _ = writeln!(
            out,
            "  {:<7.2}  {:>13.1}s   {:>6.2}x",
            gamma,
            cg.str_comm(),
            cg.total() / xg.total()
        );
    }
    let _ = writeln!(out, "  => the paper's savings hinge on AllReduce cost growing with participants\n");

    // (d) blocking-collective wait amplification (discrete-event replay):
    // the mechanism we credit for the paper's XGYRO str-comm exceeding the
    // closed-form model — jittered per-rank compute is absorbed as wait
    // time inside the blocking AllReduce.
    let _ = writeln!(out, "A-abl(d): wait amplification inside blocking collectives (replay)");
    {
        let base = trace_deck();
        let cfg = gradient_sweep(&base, 2, ProcGrid::new(2, 1));
        let outcome = run_xgyro(&cfg, 2);
        let m = MachineModel::frontier_like();
        let p = Placement { ranks_per_node: m.ranks_per_node };
        let quiet = xg_cluster::replay(&outcome.traces, &m, p, |_, _| 1e-4).unwrap();
        let jittery = xg_cluster::replay(&outcome.traces, &m, p, |r, i| {
            1e-4 + if (r + i) % 7 == 0 { 5e-4 } else { 0.0 }
        })
        .unwrap();
        let q = quiet.breakdown.get("str", "comm:AllReduce");
        let j = jittery.breakdown.get("str", "comm:AllReduce");
        let _ = writeln!(
            out,
            "  str AllReduce in-collective time: balanced {:.2} ms, jittered {:.2} ms ({:.1}x)",
            q * 1e3,
            j * 1e3,
            j / q
        );
        let _ = writeln!(
            out,
            "  total wait absorbed: balanced {:.2} ms, jittered {:.2} ms",
            quiet.total_wait() * 1e3,
            jittery.total_wait() * 1e3
        );
        let _ = writeln!(out, "  => measured 'communication time' in production logs includes");
        let _ = writeln!(out, "     imbalance wait, which closed-form wire models exclude\n");
    }

    // (c) deterministic rank-order reductions vs recomputation: two
    // identical runs must agree bitwise (this is what makes the XGYRO ==
    // CGYRO comparison exact rather than approximate).
    let _ = writeln!(out, "A-abl(c): reduction determinism");
    let deck = trace_deck();
    let cfg = gradient_sweep(&deck, 2, ProcGrid::new(2, 1));
    let a = run_xgyro(&cfg, 3);
    let b = run_xgyro(&cfg, 3);
    let identical = a.sims.iter().zip(&b.sims).all(|(x, y)| x.h.as_slice() == y.h.as_slice());
    let _ = writeln!(out, "  repeated ensemble runs bitwise identical: {identical}");
    assert!(identical);
    out
}

/// Run every experiment, concatenated (the `all` subcommand).
pub fn run_all() -> String {
    let mut out = String::new();
    for (name, f) in experiments() {
        out.push_str(&format!("\n{}\n{}\n", "=".repeat(72), name));
        out.push_str(&format!("{}\n", "=".repeat(72)));
        out.push_str(&f());
    }
    out
}

/// An experiment entry: `(id, function)`.
pub type Experiment = (&'static str, fn() -> String);

/// The experiment registry.
pub fn experiments() -> Vec<Experiment> {
    vec![
        ("f1", figure1 as fn() -> String),
        ("f2", figure2),
        ("f3", figure3),
        ("mem", memory_claims),
        ("nodes", node_claims),
        ("allreduce", allreduce_claims),
        ("correct", correctness_claims),
        ("sweep", ensemble_sweep_claims),
        ("scaling", scaling_claims),
        ("machines", machine_transfer_claims),
        ("ablation", ablations),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_complete() {
        let ids: Vec<&str> = experiments().iter().map(|(n, _)| *n).collect();
        for id in ["f1", "f2", "f3", "mem", "nodes", "allreduce", "correct", "sweep", "scaling", "machines", "ablation"] {
            assert!(ids.contains(&id), "missing experiment {id}");
        }
    }

    #[test]
    fn figure2_report_contains_headline() {
        let r = figure2();
        assert!(r.contains("speedup"));
        assert!(r.contains("str comm"));
    }

    #[test]
    fn memory_report_mentions_ratio() {
        let r = memory_claims();
        assert!(r.contains("ratio"));
        assert!(r.contains("10x"));
    }
}
