//! The bitwise contract, in one place: a member of a k-ensemble that
//! shares one `cmat` computes exactly what the same deck computes as an
//! independent CGYRO job (PAPER.md §1, Figure 3 against Figure 1) — at every
//! k and layout, across checkpoint cuts, resumes, evictions and faults, at
//! every SIMD level.
//!
//! One oracle, [`assert_members_equal_standalone`], checks one [`Case`].
//! Every case is a named row below, one `#[test]` each, so a failure names
//! its row and CI can select rows by prefix (`fault_`, `nl_in_place`).
//! Agreement between two implementations cannot see a change both share —
//! the reduction order, the collision apply, the `cmat` build — so pinned
//! rows also check a recorded FNV-1a of every member's `h` and diagnostics
//! bits. A pin changes only with a deliberate numerics change, recorded in
//! CHANGES.md. Every velocity moment sums over one fixed tree, so at a
//! power-of-two `n1` the bits do not depend on the grid at all: the
//! five-grid row reads one pin on every grid, and a resume may change the
//! grid. The `pinned_*` rows also sit at `n1 = 3`, which splits `nv` off
//! the tree, and at `n1 = 4`; the `nt = 8` row is pinned because only at
//! `nt ≥ 3` does an nl output accumulate more than one product. Every SIMD
//! level must read the same pins, because every level is bitwise the naive
//! kernel. That holds for finite and infinite values; a NaN's sign and
//! payload may differ by level (see `xg_linalg::simd`), so a run that blows
//! up to NaN fingerprints differently under `XGYRO_SIMD=scalar` and `auto`.

use proptest::prelude::*;
use std::time::Duration;
use xg_comm::{FaultKind, FaultPlan, FaultSpec, OpKind, OpRecord};
use xg_linalg::norms::max_deviation;
use xg_comm::World;
use xg_linalg::Complex64;
use xg_sim::{
    cmat_total_bytes, serial_simulation, CgyroInput, Diagnostics, DistTopology, Fnv1a, Simulation,
    Species, Topology,
};
use xg_tensor::ProcGrid;
use xgyro_core::{
    gradient_sweep, run_single_cgyro, run_xgyro, run_xgyro_resilient_from, EnsembleCheckpoint,
    EnsembleConfig, RecoveryOutcome, ResilientRun, SimResult,
};

/// One row of the contract.
struct Case {
    /// The members, in order; k is their count.
    decks: Vec<CgyroInput>,
    grid: ProcGrid,
    steps: usize,
    /// Steps at which the run checkpoints without leaving its world. Each
    /// cut's image also reopens, decoded from bytes, in a fresh world.
    cuts: Vec<usize>,
    /// Grid the fresh opens resume on (default: `grid`).
    resume_grid: Option<ProcGrid>,
    disruption: Disruption,
    /// FNV-1a of every surviving member's `h` and diagnostics bits.
    pin: Option<u64>,
}

enum Disruption {
    None,
    /// Injected into the run's first world.
    Fault(FaultPlan),
    /// The member at position `pos` leaves at cut `at`.
    Evict {
        at: usize,
        pos: usize,
    },
}

impl Case {
    fn of(decks: Vec<CgyroInput>, grid: ProcGrid, steps: usize) -> Self {
        Case {
            decks,
            grid,
            steps,
            cuts: Vec::new(),
            resume_grid: None,
            disruption: Disruption::None,
            pin: None,
        }
    }

    /// `k` members of the gradient sweep of `base`.
    fn sweep(base: &CgyroInput, k: usize, grid: ProcGrid, steps: usize) -> Self {
        Self::of(gradient_sweep(base, k, grid).members().to_vec(), grid, steps)
    }

    fn config(&self) -> EnsembleConfig {
        EnsembleConfig::new(self.decks.clone(), self.grid).expect("an admissible case")
    }
}

/// Run `case` through one `ResilientRun` and assert the contract:
///
/// * every surviving member's `h` and four diagnostics equal, bit for bit,
///   the same deck run alone by `run_single_cgyro` on the same grid;
/// * at every cut the checkpoint round-trips through bytes, and the decoded
///   image reopened in a fresh world (on `resume_grid`, if set) ends on the
///   same answer — bit for bit when both grids split `nv` along the
///   summation tree (see [`same_bits`]), to 1e-12 otherwise;
/// * a run that stays in one world issues, rank by rank, exactly the
///   operations of the uncut run: slicing adds no communication;
/// * every `h` is finite and nonzero, distinct decks give distinct `h`, and
///   the final world holds one copy of `cmat`;
/// * a pinned row reads its pin.
///
/// Returns the outcome so a row can add its own asserts.
fn assert_members_equal_standalone(case: &Case) -> RecoveryOutcome {
    let cfg = case.config();
    let deadline = hang_guard(cfg.total_ranks());
    let alone: Vec<SimResult> = (case.decks.iter().enumerate())
        .map(|(i, deck)| run_single_cgyro(deck, case.grid, case.steps, i).0)
        .collect();
    let plan = match &case.disruption {
        Disruption::Fault(plan) => plan.clone(),
        _ => FaultPlan::new(),
    };
    let mut run = ResilientRun::new(&cfg, None, plan, deadline).expect("a fresh run");
    let mut done = 0;
    for &cut in &case.cuts {
        let image = run.advance(cut - done).expect("a recoverable segment").clone();
        done = cut;
        assert_eq!(image.steps_taken(), cut as u64);
        let decoded = EnsembleCheckpoint::from_bytes(&image.to_bytes()).expect("decodes");
        assert_eq!(decoded, image, "cut {cut}: the image round-trips through bytes");
        assert_resumes(case, run.survivors(), decoded, &alone, deadline);
        if let Disruption::Evict { at, pos } = case.disruption {
            if at == cut {
                run.evict(pos).expect("a member can leave");
            }
        }
    }
    let out = run.finish_segment(case.steps - done).expect("a recoverable run");

    assert_eq!(out.checkpoint.steps_taken(), case.steps as u64);
    assert_eq!(out.outcome.sims.len(), out.surviving_members.len());
    for (got, &member) in out.outcome.sims.iter().zip(&out.surviving_members) {
        assert_eq!(got.sim, member, "results carry original member indices");
        let want = &alone[member];
        assert!(got.h.as_slice() == want.h.as_slice(), "member {member}: h differs from alone");
        assert_eq!(
            diag_bits(&got.diagnostics),
            diag_bits(&want.diagnostics),
            "member {member}: diagnostics differ from alone"
        );
        assert!(got.h.as_slice().iter().all(|z| z.is_finite()), "member {member}: h not finite");
        assert!(got.diagnostics.h_norm2 > 0.0, "member {member}: h is zero");
    }
    for (i, a) in out.outcome.sims.iter().enumerate() {
        for b in &out.outcome.sims[i + 1..] {
            if case.decks[a.sim] != case.decks[b.sim] {
                assert!(a.h.as_slice() != b.h.as_slice(), "members {} and {} agree", a.sim, b.sim);
            }
        }
    }
    let held: u64 = out.outcome.sims.iter().flat_map(|s| &s.cmat_bytes_per_rank).sum();
    assert_eq!(held, cmat_total_bytes(&case.decks[0]), "the ensemble holds one cmat");

    let one_world = out.events.is_empty() && !matches!(case.disruption, Disruption::Evict { .. });
    if one_world && !case.cuts.is_empty() {
        let uncut = run_xgyro(&cfg, case.steps);
        let per_rank = |traces: &[Vec<OpRecord>]| traces.iter().map(|t| ops(t)).collect::<Vec<_>>();
        assert_eq!(per_rank(&out.outcome.traces), per_rank(&uncut.traces), "cuts add ops");
    }
    if let Some(pin) = case.pin {
        let got = fingerprint(&out.outcome.sims);
        assert_eq!(got, pin, "pin moved: {got:#018x} against the recorded {pin:#018x}");
    }
    out
}

/// Reopen a cut's decoded image in a fresh world and run it to the end.
fn assert_resumes(
    case: &Case,
    survivors: &[usize],
    image: EnsembleCheckpoint,
    alone: &[SimResult],
    deadline: Duration,
) {
    let decks = survivors.iter().map(|&m| case.decks[m].clone()).collect();
    let grid = case.resume_grid.unwrap_or(case.grid);
    let cfg = EnsembleConfig::new(decks, grid).expect("survivors share cmat");
    let cut = image.steps_taken();
    let out = ResilientRun::new(&cfg, Some(image), FaultPlan::new(), deadline)
        .and_then(|run| run.finish_segment(case.steps - cut as usize))
        .expect("a clean resume");
    for (got, &member) in out.outcome.sims.iter().zip(survivors) {
        let want = &alone[member];
        if same_bits(grid, case.grid) {
            assert!(got.h.as_slice() == want.h.as_slice(), "member {member}: resumed at {cut}");
            assert_eq!(diag_bits(&got.diagnostics), diag_bits(&want.diagnostics));
        } else {
            let dev = max_deviation(got.h.as_slice(), want.h.as_slice());
            assert!(dev < 1e-12, "member {member}: resumed at {cut} on {grid:?}, off by {dev}");
            assert_eq!(got.diagnostics.time.to_bits(), want.diagnostics.time.to_bits());
        }
    }
}

/// Whether two grids give the same bits: each splits `nv` along the
/// summation tree (a power-of-two `n1`), or both split it alike.
fn same_bits(a: ProcGrid, b: ProcGrid) -> bool {
    a.n1 == b.n1 || (a.n1.is_power_of_two() && b.n1.is_power_of_two())
}

/// Deadline for every blocking wait: long enough that descheduled rank
/// threads never trip it on a small host, short enough to end a hang.
fn hang_guard(ranks: usize) -> Duration {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    Duration::from_secs(10 * ranks.div_ceil(cores) as u64)
}

/// Operations a rank issued, as the fault substrate counts them.
fn ops(trace: &[OpRecord]) -> u64 {
    trace.iter().filter(|r| !matches!(r.op, OpKind::Fault | OpKind::Recover)).count() as u64
}

fn diag_bits(d: &Diagnostics) -> [u64; 4] {
    [d.time, d.field_energy, d.heat_flux, d.h_norm2].map(f64::to_bits)
}

fn fingerprint(sims: &[SimResult]) -> u64 {
    let mut h = Fnv1a::new();
    for s in sims {
        for z in s.h.as_slice() {
            h.f64(z.re);
            h.f64(z.im);
        }
        for bits in diag_bits(&s.diagnostics) {
            h.u64(bits);
        }
    }
    h.finish()
}

/// Operations `rank` has issued after `steps` checkpointed steps of `cfg`,
/// in one world: where a fault must aim to land in the next segment.
fn ops_after(cfg: &EnsembleConfig, steps: usize, rank: usize) -> u64 {
    let mut run = ResilientRun::new(cfg, None, FaultPlan::new(), hang_guard(cfg.total_ranks()))
        .expect("a fresh run");
    run.advance(steps).expect("a clean segment");
    ops(&run.close()[rank])
}

fn small() -> CgyroInput {
    CgyroInput::test_small()
}

fn nl(coupling: f64) -> CgyroInput {
    CgyroInput { nonlinear_coupling: coupling, ..small() }
}

fn em(beta: f64) -> CgyroInput {
    CgyroInput { beta_e: beta, ..small() }
}

/// The shape of the benchmark's streaming deck: nt = 8, a strong bracket.
fn nt8() -> CgyroInput {
    CgyroInput { n_toroidal: 8, ..nl(0.5) }
}

fn g(n1: usize, n2: usize) -> ProcGrid {
    ProcGrid::new(n1, n2)
}

/// The nl sweep's pin, the same on 2×1 and 2×2.
const PIN_NL: u64 = 0x2c44_3e3a_f496_c48f;
const PIN_NL_EM_FIVE_GRIDS: u64 = 0x3ef5_8a66_de39_9de4;
const PIN_K2_3X1_LINEAR: u64 = 0x4106_1314_57a0_7ca3;
const PIN_K2_3X1_NL: u64 = 0x9ded_64a9_8210_fa35;
const PIN_K3_4X1_LINEAR: u64 = 0xd899_ec27_eac1_478f;
const PIN_K3_4X1_NL: u64 = 0xcce7_495d_86b8_0046;
const PIN_EM_BETA_SCAN: u64 = 0xc83e_45b0_1ac5_5900;
const PIN_MEDIUM_64_RANKS: u64 = 0x2b01_57e2_e6fb_b3e0;
const PIN_NT8: u64 = 0x2a2d_4884_5d86_e6a0;

/// One `#[test]` per row that needs nothing beyond the oracle.
macro_rules! rows {
    ($($name:ident => $case:expr;)*) => {$(
        #[test]
        fn $name() {
            assert_members_equal_standalone(&$case);
        }
    )*};
}

rows! {
    plain_k1_1x1 => Case::sweep(&small(), 1, g(1, 1), 4);
    plain_k1_2x1 => Case::sweep(&small(), 1, g(2, 1), 4);
    plain_k1_2x2 => Case::sweep(&small(), 1, g(2, 2), 4);
    plain_k2_1x1 => Case::sweep(&small(), 2, g(1, 1), 4);
    plain_k2_2x1 => Case::sweep(&small(), 2, g(2, 1), 4);
    plain_k2_2x2 => Case::sweep(&small(), 2, g(2, 2), 4);
    plain_k3_1x1 => Case::sweep(&small(), 3, g(1, 1), 4);
    plain_k3_2x1 => Case::sweep(&small(), 3, g(2, 1), 4);
    plain_k3_2x2 => Case::sweep(&small(), 3, g(2, 2), 4);
    nl_nt8_k2_2x2 => Case { pin: Some(PIN_NT8), ..Case::sweep(&nt8(), 2, g(2, 2), 3) };
    em_sweep_k2_2x1 => Case::sweep(&em(0.01), 2, g(2, 1), 3);
    em_beta_scan_2x2 => Case {
        pin: Some(PIN_EM_BETA_SCAN),
        ..Case::of(vec![em(0.0), em(0.005), em(0.02)], g(2, 2), 4)
    };
    // test_medium (nc = 96, nv = 72, nt = 4), 16 ranks a member: 64 ranks.
    medium_k4_4x4_64_ranks => Case {
        pin: Some(PIN_MEDIUM_64_RANKS),
        ..Case::sweep(&CgyroInput::test_medium(), 4, g(4, 4), 3)
    };
    cuts_3_k2_1x1 => Case { cuts: vec![3], ..Case::sweep(&small(), 2, g(1, 1), 6) };
    cuts_3_k2_2x2 => Case { cuts: vec![3], ..Case::sweep(&small(), 2, g(2, 2), 6) };
    cuts_1_2_3_k1_2x1 => Case { cuts: vec![1, 2, 3], ..Case::sweep(&small(), 1, g(2, 1), 4) };
    cuts_1_2_3_k2_2x1 => Case { cuts: vec![1, 2, 3], ..Case::sweep(&small(), 2, g(2, 1), 4) };
    cuts_1_2_3_k3_2x1 => Case { cuts: vec![1, 2, 3], ..Case::sweep(&small(), 3, g(2, 1), 4) };
    cuts_1_2_3_k1_2x2 => Case { cuts: vec![1, 2, 3], ..Case::sweep(&small(), 1, g(2, 2), 4) };
    cuts_1_2_3_k2_2x2 => Case { cuts: vec![1, 2, 3], ..Case::sweep(&small(), 2, g(2, 2), 4) };
    cuts_1_2_3_k3_2x2 => Case { cuts: vec![1, 2, 3], ..Case::sweep(&small(), 3, g(2, 2), 4) };
    cuts_10_20_30_k2_2x1 => Case { cuts: vec![10, 20, 30], ..Case::sweep(&small(), 2, g(2, 1), 40) };
    resume_2x1_on_4x1 => Case {
        cuts: vec![3],
        resume_grid: Some(g(4, 1)),
        ..Case::sweep(&small(), 2, g(2, 1), 6)
    };
    pinned_k2_3x1_nl => Case {
        pin: Some(PIN_K2_3X1_NL),
        ..Case::sweep(&nl(0.15), 2, g(3, 1), 4)
    };
    pinned_k3_4x1_linear => Case {
        pin: Some(PIN_K3_4X1_LINEAR),
        ..Case::sweep(&small(), 3, g(4, 1), 4)
    };
    pinned_k3_4x1_nl => Case {
        pin: Some(PIN_K3_4X1_NL),
        ..Case::sweep(&nl(0.15), 3, g(4, 1), 4)
    };
}

#[test]
fn nl_in_place_2x1_equals_transposed_2x2() {
    // 2×1 evaluates nl in place on each member's str layout; 2×2 transposes
    // through the nl layout. Same h and diagnostics, bit for bit: one pin.
    let nl_case = |grid| Case { pin: Some(PIN_NL), ..Case::sweep(&nl(0.15), 2, grid, 3) };
    let in_place = assert_members_equal_standalone(&nl_case(g(2, 1)));
    let transposed = assert_members_equal_standalone(&nl_case(g(2, 2)));
    for (a, b) in in_place.outcome.sims.iter().zip(&transposed.outcome.sims) {
        assert!(a.h.as_slice() == b.h.as_slice(), "member {}: 2×1 against 2×2", a.sim);
    }
}

#[test]
fn nl_em_five_grids_agree_bitwise() {
    // One nonlinear electromagnetic sweep on every grid shape the tree
    // covers: each member's h and diagnostics have the same bits on all
    // five, and the same as the member run serially.
    let deck = CgyroInput { beta_e: 0.01, ..nl(0.15) };
    let steps = 3;
    let runs: Vec<RecoveryOutcome> = [g(1, 1), g(2, 1), g(4, 1), g(2, 2), g(4, 2)]
        .into_iter()
        .map(|grid| {
            let pin = Some(PIN_NL_EM_FIVE_GRIDS);
            assert_members_equal_standalone(&Case { pin, ..Case::sweep(&deck, 2, grid, steps) })
        })
        .collect();
    for (i, deck) in gradient_sweep(&deck, 2, g(1, 1)).members().iter().enumerate() {
        let mut serial = serial_simulation(deck);
        serial.run_steps(steps);
        let want = diag_bits(&serial.diagnostics());
        for run in &runs {
            let got = &run.outcome.sims[i];
            assert!(got.h.as_slice() == serial.h().as_slice(), "member {i}: h against serial");
            assert_eq!(diag_bits(&got.diagnostics), want, "member {i}: diagnostics against serial");
        }
    }
}

#[test]
fn signed_zeros_do_not_depend_on_the_grid() {
    // Mutate the state: every velocity row of toroidal mode 0 becomes
    // −0.0. With one positive species every charge weight is positive, so
    // each term of mode 0's charge moment is −0.0, and so is their sum —
    // on every grid, only if no sum or reduction starts from +0.0. Then
    // one step: the whole state has the same bits on every grid.
    let deck = CgyroInput { species: vec![Species::deuterium()], ..small() };
    let dims = deck.dims();
    let grids = [g(1, 1), g(2, 1), g(4, 1), g(2, 2), g(4, 2)];
    let runs: Vec<(Vec<Complex64>, Vec<Complex64>, [u64; 4])> = grids
        .iter()
        .map(|&grid| {
            let deck = deck.clone();
            let parts = World::new(grid.size()).run(move |comm| {
                let topo = DistTopology::cgyro(&deck, grid, comm);
                let layout = topo.layout();
                let mut sim = Simulation::new(deck.clone(), topo);
                let mut state = sim.h().clone();
                if layout.nt_range().start == 0 {
                    let (nc, nvl, _) = state.shape();
                    for (ic, ivl) in (0..nc).flat_map(|ic| (0..nvl).map(move |ivl| (ic, ivl))) {
                        state[(ic, ivl, 0)] = Complex64::new(-0.0, -0.0);
                    }
                }
                sim.restore_state(state.as_slice(), 0.0, 0);
                let d = sim.diagnostics();
                let phi = sim.phi().to_vec();
                sim.step();
                (layout, phi, sim.h().clone(), diag_bits(&d))
            });
            let mut phi = vec![Complex64::ZERO; dims.nc * dims.nt];
            let mut h = vec![Complex64::ZERO; dims.state_len()];
            for (layout, p, local, _) in &parts {
                let (nvr, ntr) = (layout.nv_range(), layout.nt_range());
                for ic in 0..dims.nc {
                    for (itl, it) in ntr.clone().enumerate() {
                        phi[ic * dims.nt + it] = p[ic * ntr.len() + itl];
                        for (ivl, iv) in nvr.clone().enumerate() {
                            h[(ic * dims.nv + iv) * dims.nt + it] = local[(ic, ivl, itl)];
                        }
                    }
                }
            }
            (phi, h, parts[0].3)
        })
        .collect();
    let bits = |v: &[Complex64]| -> Vec<u64> {
        v.iter().flat_map(|z| [z.re.to_bits(), z.im.to_bits()]).collect()
    };
    let (phi0, h0, d0) = &runs[0];
    assert!(
        (0..dims.nc).all(|ic| bits(&[phi0[ic * dims.nt]]) == [(-0.0f64).to_bits(); 2]),
        "mode 0's potential keeps the sign of its −0.0 terms"
    );
    for (grid, (phi, h, d)) in grids.iter().zip(&runs).skip(1) {
        assert_eq!(bits(phi), bits(phi0), "{grid:?}: φ against 1×1");
        assert_eq!(bits(h), bits(h0), "{grid:?}: h after one step against 1×1");
        assert_eq!(d, d0, "{grid:?}: diagnostics against 1×1");
    }
}

#[test]
fn nl_ragged_2x3_equals_in_place_2x1() {
    // n2 = 3 splits nt = 5 into 2 + 2 + 1 modes and nc = 32 into 11 + 11 +
    // 10 rows, so every toroidal exchange block is uneven. Same h as the
    // in-place 2×1 run, bit for bit.
    let nl_case = |grid| Case::sweep(&CgyroInput { n_toroidal: 5, ..nl(0.15) }, 2, grid, 3);
    let in_place = assert_members_equal_standalone(&nl_case(g(2, 1)));
    let ragged = assert_members_equal_standalone(&nl_case(g(2, 3)));
    for (a, b) in in_place.outcome.sims.iter().zip(&ragged.outcome.sims) {
        assert!(a.h.as_slice() == b.h.as_slice(), "member {}: 2×1 against 2×3", a.sim);
    }
}

#[test]
fn pinned_k2_3x1_linear() {
    // nc = 32 over k·n1 = 6 coll ranks does not divide; members still
    // equal their standalone runs, and those stay within roundoff of serial.
    let case = Case { pin: Some(PIN_K2_3X1_LINEAR), ..Case::sweep(&small(), 2, g(3, 1), 4) };
    let out = assert_members_equal_standalone(&case);
    for (got, deck) in out.outcome.sims.iter().zip(&case.decks) {
        let mut serial = serial_simulation(deck);
        serial.run_steps(case.steps);
        let dev = max_deviation(serial.h().as_slice(), got.h.as_slice());
        assert!(dev < 1e-12, "member {}: {dev} from serial", got.sim);
    }
}

#[test]
fn evict_mid_run() {
    let case = Case {
        cuts: vec![10, 20],
        disruption: Disruption::Evict { at: 10, pos: 1 },
        ..Case::sweep(&small(), 3, g(2, 1), 20)
    };
    let out = assert_members_equal_standalone(&case);
    assert_eq!(out.surviving_members, [0, 2]);
    assert!(out.events.is_empty(), "an eviction is not a fault");
    // One per-rank log per world: the k=3 world, then the one rebuild at k=2.
    assert_eq!(out.outcome.traces.len(), 3 * 2 + 2 * 2);
}

#[test]
fn fault_crash_before_first_checkpoint() {
    // Rank 1 is member 1 (one rank a member). No checkpoint exists yet, so
    // the survivors restart from scratch as k = 2.
    let out = assert_members_equal_standalone(&Case {
        cuts: vec![3],
        disruption: Disruption::Fault(FaultPlan::crash(1, 5)),
        ..Case::sweep(&small(), 3, g(1, 1), 6)
    });
    assert_eq!(out.events.len(), 1);
    let ev = &out.events[0];
    assert_eq!((ev.failed_rank, ev.failed_member, ev.resumed_from_step), (1, 1, 0));
    assert_eq!(ev.survivors, [0, 2]);
    assert_eq!(out.surviving_members, [0, 2]);
}

#[test]
fn fault_crash_after_checkpoint() {
    // Rank 5 is member 2 (world ranks 4..6 under 2×1). Aim a few ops into
    // the second segment, after the step-4 checkpoint exists.
    let case = Case::sweep(&small(), 4, g(2, 1), 8);
    let at_op = ops_after(&case.config(), 4, 5) + 3;
    let out = assert_members_equal_standalone(&Case {
        cuts: vec![4],
        disruption: Disruption::Fault(FaultPlan::crash(5, at_op)),
        ..case
    });
    assert_eq!(out.events.len(), 1);
    let ev = &out.events[0];
    assert_eq!((ev.failed_rank, ev.failed_member), (5, 2));
    assert_eq!(ev.resumed_from_step, 4, "rolls back to the step-4 checkpoint");
    assert_eq!((ev.steps_replayed, out.steps_replayed), (4, 4));
    assert_eq!(out.surviving_members, [0, 1, 3]);
    assert_eq!(out.checkpoint.k(), 3);
    // The aborted world's traces carry the injected Fault record and every
    // survivor's Recover record.
    let count = |kind| out.outcome.traces.iter().flatten().filter(|r| r.op == kind).count();
    assert_eq!(count(OpKind::Fault), 1, "exactly one injected crash");
    assert_eq!(count(OpKind::Recover), 7, "every survivor of the 8-rank world");
}

#[test]
fn fault_crash_in_a_k3_2x2_layout() {
    // Six coll ranks over nc = 32: the AllToAllv blocks are unequal, and
    // the two survivors reopen on four. Rank 5 is member 1 (world ranks
    // 4..8 under 2×2).
    let out = assert_members_equal_standalone(&Case {
        cuts: vec![3],
        disruption: Disruption::Fault(FaultPlan::crash(5, 4)),
        ..Case::sweep(&small(), 3, g(2, 2), 6)
    });
    assert_eq!(out.events.len(), 1);
    assert_eq!(out.events[0].failed_member, 1);
    assert_eq!(out.surviving_members, [0, 2]);
}

#[test]
fn fault_delay_is_traced_but_harmless() {
    let delay = FaultSpec { rank: 1, at_op: 3, kind: FaultKind::Delay(20) };
    let out = assert_members_equal_standalone(&Case {
        cuts: vec![2],
        disruption: Disruption::Fault(FaultPlan::new().with(delay)),
        ..Case::sweep(&small(), 2, g(1, 1), 4)
    });
    assert!(out.events.is_empty());
    assert_eq!(out.surviving_members, [0, 1]);
    let faults: Vec<_> =
        out.outcome.traces.iter().flatten().filter(|r| r.op == OpKind::Fault).collect();
    assert_eq!(faults.len(), 1);
    assert_eq!(faults[0].bytes, 20_000, "bytes carry the downtime in µs");
}

#[test]
fn fault_seeded_recovery_is_deterministic() {
    let plan = FaultPlan::seeded_crash(42, 3, 12);
    let case = Case {
        cuts: vec![3],
        disruption: Disruption::Fault(plan.clone()),
        ..Case::sweep(&small(), 3, g(1, 1), 6)
    };
    let a = assert_members_equal_standalone(&case);
    // `run_xgyro_resilient_from`, run again on the same plan, ends the same.
    let cfg = case.config();
    let b = run_xgyro_resilient_from(&cfg, None, 6, 3, plan, hang_guard(cfg.total_ranks()))
        .expect("recoverable");
    assert_eq!(a.checkpoint, b.checkpoint);
    assert_eq!(a.surviving_members, b.surviving_members);
    assert_eq!(a.events.len(), b.events.len());
}

#[test]
fn fault_in_the_second_segment() {
    // A fault after the first checkpoint evicts its member without
    // poisoning the checkpoint chain.
    let case = Case::sweep(&small(), 3, g(1, 1), 6);
    let at_op = ops_after(&case.config(), 3, 1) + 4;
    let out = assert_members_equal_standalone(&Case {
        cuts: vec![3],
        disruption: Disruption::Fault(FaultPlan::crash(1, at_op)),
        ..case
    });
    assert_eq!(out.surviving_members, [0, 2]);
    assert_eq!(out.events.len(), 1);
    assert_eq!(out.events[0].resumed_from_step, 3);
}

fn deck_strategy() -> impl Strategy<Value = CgyroInput> {
    (
        1usize..3,                                 // n_radial
        4usize..7,                                 // n_theta (stencil needs >= 4)
        2usize..5,                                 // n_xi
        2usize..4,                                 // n_energy
        1usize..4,                                 // n_toroidal
        0.0f64..0.5,                               // nu_ee
        0.0f64..0.2,                               // nonlinear coupling
        prop_oneof![Just(0.0f64), 0.001f64..0.02], // beta_e
        1usize..3,                                 // n_species
        0u64..100,                                 // seed
    )
        .prop_map(|(nr, nth, nxi, nen, nt, nu, cnl, beta, ns, seed)| CgyroInput {
            n_radial: nr,
            n_theta: nth,
            n_xi: nxi,
            n_energy: nen,
            n_toroidal: nt,
            species: (0..ns)
                .map(|i| Species {
                    name: format!("s{i}"),
                    mass: [1.0, 0.0005][i],
                    z: [1.0, -1.0][i],
                    temp: 1.0,
                    dens: 1.0,
                    rln: 1.0,
                    rlt: 2.5,
                })
                .collect(),
            nu_ee: nu,
            q: 2.0,
            shear: 0.7,
            kappa: 1.2,
            delta: 0.1,
            ky_min: 0.3,
            kx_min: 0.1,
            delta_t: 0.01,
            steps_per_report: 5,
            nonlinear_coupling: cnl,
            beta_e: beta,
            upwind_diss: 0.1,
            seed,
        })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, max_shrink_iters: 16, ..ProptestConfig::default() })]

    /// Random decks (shapes, species, collisionality, physics switches),
    /// ensemble sizes, grids and cuts.
    #[test]
    fn random_decks(
        base in deck_strategy(),
        k in 1usize..4,
        n1 in 1usize..4,
        n2 in 1usize..3,
        cut in 0usize..3,
    ) {
        let dims = base.dims();
        prop_assume!(n1 <= dims.nv && n2 <= dims.nt);
        let decks = (0..k)
            .map(|i| {
                base.with_gradients(0.5 + i as f64, 2.0 + 0.5 * i as f64)
                    .with_seed(base.seed + i as u64)
            })
            .collect();
        let cuts = if cut > 0 { vec![cut] } else { Vec::new() };
        assert_members_equal_standalone(&Case { cuts, ..Case::of(decks, g(n1, n2), 3) });
    }
}
