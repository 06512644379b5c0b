//! Functional ensemble execution.
//!
//! [`run_xgyro`] executes a whole ensemble as one job (one thread per
//! rank, k·n1·n2 ranks) and returns the per-simulation results;
//! [`run_cgyro_baseline`] runs the same members **sequentially** as
//! independent CGYRO jobs — the paper's comparison baseline — on the same
//! per-simulation grid. The two must agree bitwise: sharing the constant
//! tensor redistributes *where* `cmat` rows live, never *what* is computed.

use crate::ensemble::EnsembleConfig;
use crate::session::EnsembleSession;
use xg_comm::OpRecord;
use xg_linalg::Complex64;
use xg_sim::{CgyroInput, Diagnostics};
use xg_tensor::{ProcGrid, Tensor3};

/// The outcome of one member simulation.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Member index.
    pub sim: usize,
    /// Reassembled global distribution (str layout `(nc, nv, nt)`).
    pub h: Tensor3<Complex64>,
    /// Diagnostics at the end of the run.
    pub diagnostics: Diagnostics,
    /// Per-rank cmat bytes held by this simulation's ranks (XGYRO: the
    /// ensemble slice; CGYRO: the per-simulation slice).
    pub cmat_bytes_per_rank: Vec<u64>,
}

/// The outcome of an ensemble (or baseline) run.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Per-member results, indexed by member.
    pub sims: Vec<SimResult>,
    /// Per-world-rank communication traces.
    pub traces: Vec<Vec<OpRecord>>,
}

/// These runners inject no faults and set no deadline, so a session fault
/// is a rank panic — a bug.
pub(crate) const NO_FAULTS: &str = "a rank panicked in a run without faults or deadline";

/// Run the ensemble as a single XGYRO job for `steps` time steps.
pub fn run_xgyro(config: &EnsembleConfig, steps: usize) -> RunOutcome {
    let mut session = EnsembleSession::open(config, None, None, None).expect(NO_FAULTS);
    session.step(steps).expect(NO_FAULTS);
    session.finish().expect(NO_FAULTS).0
}

/// Run the ensemble for `reports` reporting intervals, recording each
/// member's diagnostic history (identical on every rank of a member; taken
/// from its lead rank).
pub fn run_xgyro_with_history(
    config: &EnsembleConfig,
    reports: usize,
) -> (RunOutcome, Vec<xg_sim::History>) {
    let mut session = EnsembleSession::open(config, None, None, None).expect(NO_FAULTS);
    let mut histories: Vec<_> = (0..config.k()).map(|_| xg_sim::History::new()).collect();
    for _ in 0..reports {
        session.step(config.members()[0].steps_per_report).expect(NO_FAULTS);
        for (hist, d) in histories.iter_mut().zip(session.diagnostics().expect(NO_FAULTS)) {
            hist.push(d);
        }
    }
    (session.finish().expect(NO_FAULTS).0, histories)
}

/// Run the members **sequentially** as independent CGYRO jobs on the same
/// per-simulation grid (the paper's baseline: "running 8 variants … either
/// sequentially with CGYRO or as an ensemble with XGYRO").
pub fn run_cgyro_baseline(config: &EnsembleConfig, steps: usize) -> RunOutcome {
    let grid = config.grid();
    let mut sims = Vec::with_capacity(config.k());
    let mut traces = Vec::new();
    for (i, input) in config.members().iter().enumerate() {
        let (result, mut t) = run_single_cgyro(input, grid, steps, i);
        sims.push(result);
        traces.append(&mut t);
    }
    RunOutcome { sims, traces }
}

/// Run one CGYRO simulation distributed over `grid` (Figure-1 wiring: the
/// `nv` communicator doubles as the coll communicator).
pub fn run_single_cgyro(
    input: &CgyroInput,
    grid: ProcGrid,
    steps: usize,
    sim_index: usize,
) -> (SimResult, Vec<Vec<OpRecord>>) {
    let alone = EnsembleConfig::new(vec![input.clone()], grid).expect("a runnable deck and grid");
    let mut session =
        EnsembleSession::open_wired(&alone, false, None, None, None).expect(NO_FAULTS);
    session.step(steps).expect(NO_FAULTS);
    let (mut outcome, _) = session.finish().expect(NO_FAULTS);
    let mut result = outcome.sims.pop().expect("one member");
    result.sim = sim_index;
    (result, outcome.traces)
}
