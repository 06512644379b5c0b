//! # xg-obs — per-phase wall-time observability
//!
//! The paper's headline evidence is a per-phase wall-clock breakdown
//! (str / coll / nl / diag, before and after splitting the str and coll
//! communicators), and its companion benchmark study is likewise built on
//! per-phase timers. This crate is the workspace's timing layer:
//!
//! * **[`Phase`]** — the fixed set of logical phases every layer agrees on
//!   (the same labels `TrafficLog` tags operations with);
//! * **[`span`]** — a monotonic scoped timer recording into the
//!   process-wide [`Registry`] on drop, plus [`record_comm_wait`] for the
//!   per-collective wait times `xg-comm` feeds in;
//! * **[`Histogram`]** — fixed-bucket log2 microsecond histograms
//!   (count / sum / min / max, p50 / p99 estimated from the buckets), all
//!   relaxed atomics — recording never takes a lock;
//! * **exposition** ([`expo`]) — the workspace's hand-rolled JSON style and
//!   Prometheus text format (`# HELP` / `# TYPE`, cumulative `le` buckets),
//!   since the vendored serde is a marker-only stub.
//!
//! ## Cost model
//!
//! Timing is **off-switchable and zero-cost when off**: every probe first
//! branches on one relaxed atomic ([`enabled`]); when `XGYRO_OBS=0` (or
//! after [`set_enabled`]`(false)`) no clock is read and nothing is stored.
//! Timers observe, never steer — enabling or disabling observability can
//! never perturb simulation results (asserted bitwise by
//! `xgyro-core/tests/obs_timing.rs`).
//!
//! ## Aggregation semantics
//!
//! The registry is process-wide: the k·n1·n2 rank threads of an ensemble
//! all record into it, so histogram sums are **rank-seconds** (the same
//! convention MPI profilers use when summing per-rank timers). Busy time
//! includes the communication waits issued inside the phase; compute time
//! is `busy − comm_wait`.

#![warn(missing_docs)]

pub mod expo;
pub mod hist;

pub use expo::{parse_prometheus, PromSample};
pub use hist::Histogram;

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Environment switch: `XGYRO_OBS=0` disables every probe (and makes them
/// cost one relaxed atomic load); any other value — or the variable being
/// absent — leaves observability on.
pub const OBS_ENV: &str = "XGYRO_OBS";

/// The logical phases of a CGYRO/XGYRO step, as tagged on the traffic log.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Streaming / field-solve phase (the fused str-phase reductions).
    Str,
    /// Collision phase (transpose → apply cmat → transpose back).
    Coll,
    /// Nonlinear phase (its own transposes).
    Nl,
    /// Reporting-cadence diagnostics (heat moment, scalar reductions).
    Diag,
    /// Per-stage field solve outside the str bracket (mode energies,
    /// diagnostics-time field refresh).
    Field,
    /// Topology construction, cmat factorization, initial condition.
    Setup,
    /// Checkpoint rollback + degraded-mode restart accounting.
    Recover,
    /// Anything else (unlabelled traffic, test phases).
    Other,
}

/// Every phase, in exposition order.
pub const PHASES: [Phase; 8] = [
    Phase::Str,
    Phase::Coll,
    Phase::Nl,
    Phase::Diag,
    Phase::Field,
    Phase::Setup,
    Phase::Recover,
    Phase::Other,
];

impl Phase {
    /// Stable label (matches the traffic-log phase tags).
    pub fn label(self) -> &'static str {
        match self {
            Phase::Str => "str",
            Phase::Coll => "coll",
            Phase::Nl => "nl",
            Phase::Diag => "diag",
            Phase::Field => "field",
            Phase::Setup => "setup",
            Phase::Recover => "recover",
            Phase::Other => "other",
        }
    }

    /// Map a traffic-log phase tag back to a [`Phase`] (unknown tags fold
    /// into [`Phase::Other`]).
    pub fn from_label(s: &str) -> Phase {
        match s {
            "str" => Phase::Str,
            "coll" => Phase::Coll,
            "nl" => Phase::Nl,
            "diag" => Phase::Diag,
            "field" => Phase::Field,
            "setup" => Phase::Setup,
            "recover" => Phase::Recover,
            _ => Phase::Other,
        }
    }

    fn index(self) -> usize {
        match self {
            Phase::Str => 0,
            Phase::Coll => 1,
            Phase::Nl => 2,
            Phase::Diag => 3,
            Phase::Field => 4,
            Phase::Setup => 5,
            Phase::Recover => 6,
            Phase::Other => 7,
        }
    }
}

impl std::fmt::Display for Phase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

// Enabled flag: 0 = uninitialized (read OBS_ENV on first probe),
// 1 = disabled, 2 = enabled.
static ENABLED: AtomicU8 = AtomicU8::new(0);

#[cold]
fn init_enabled() -> bool {
    let on = !matches!(
        std::env::var(OBS_ENV).as_deref(),
        Ok("0") | Ok("false") | Ok("off")
    );
    // Racing initializers agree (the env cannot change between them), so a
    // relaxed compare-exchange-free store is fine.
    ENABLED.store(if on { 2 } else { 1 }, Ordering::Relaxed);
    on
}

/// The hot-path probe: one relaxed atomic load (plus a cold first-call env
/// read). All recording helpers bail out immediately when this is false.
#[inline]
pub fn enabled() -> bool {
    match ENABLED.load(Ordering::Relaxed) {
        2 => true,
        1 => false,
        _ => init_enabled(),
    }
}

/// Programmatic override of the `XGYRO_OBS` switch (tests, benches, and
/// the on/off bitwise-identity assertion).
pub fn set_enabled(on: bool) {
    ENABLED.store(if on { 2 } else { 1 }, Ordering::Relaxed);
}

/// One phase's pair of histograms.
#[derive(Debug, Default)]
pub struct PhaseMetrics {
    /// Wall time spent inside the phase bracket (includes comm waits).
    pub busy: Histogram,
    /// Wall time spent waiting in communication calls issued during the
    /// phase (recorded by `xg-comm` per collective).
    pub comm_wait: Histogram,
}

/// The process-wide metric registry.
#[derive(Debug, Default)]
pub struct Registry {
    phases: [PhaseMetrics; PHASES.len()],
    /// Microseconds of abandoned-segment work re-executed after faults
    /// (the resilient runner's `wasted_us`, unified here).
    recovery_wasted_us: AtomicU64,
    /// Number of fault-recovery events observed.
    recoveries: AtomicU64,
    /// Capacity-aware post-eviction rebalances performed.
    rebalances: AtomicU64,
    /// Coll-phase `nc` rows the rebalancer moved away from the positions a
    /// uniform shrink would have given them (the measurable payoff of
    /// rebalancing onto the survivors' actual capacities).
    rebalance_moved_rows: AtomicU64,
    /// Ensemble worlds spawned (one per session open: rank threads plus the
    /// four communicator splits).
    world_spawns: AtomicU64,
    /// Times the shared `cmat` was factorized — once per world whose
    /// topology came up, however many segments the world then runs.
    cmat_builds: AtomicU64,
    /// Journal appends committed by the serving layer's write-ahead log.
    journal_appends: AtomicU64,
    /// fsync(2) calls the journal issued.
    journal_fsyncs: AtomicU64,
    /// Microseconds spent inside journal fsyncs (the durability tax).
    journal_fsync_us: AtomicU64,
    /// Journal replays performed (daemon restarts that found a log).
    replays: AtomicU64,
    /// Microseconds spent replaying journals at startup.
    replay_us: AtomicU64,
    /// Submissions served from the artifact store instead of executed.
    cache_hits: AtomicU64,
    /// Artifact-store consults that found no published manifest.
    cache_misses: AtomicU64,
    /// Outcome-blob bytes served from the artifact store instead of
    /// recomputed (the cache's analogue of cmat bytes saved).
    cache_bytes_saved: AtomicU64,
    /// Autotuned collision-kernel label (e.g. `avx512/t128`), set once at
    /// topology build. Config metadata rather than a timing probe, so it is
    /// recorded regardless of the [`enabled`] switch; exposed as an
    /// info-style metric next to the coll-phase histograms.
    collision_kernel: Mutex<Option<String>>,
}

static GLOBAL: Registry = Registry {
    phases: [
        PhaseMetrics::new(),
        PhaseMetrics::new(),
        PhaseMetrics::new(),
        PhaseMetrics::new(),
        PhaseMetrics::new(),
        PhaseMetrics::new(),
        PhaseMetrics::new(),
        PhaseMetrics::new(),
    ],
    recovery_wasted_us: AtomicU64::new(0),
    recoveries: AtomicU64::new(0),
    rebalances: AtomicU64::new(0),
    rebalance_moved_rows: AtomicU64::new(0),
    world_spawns: AtomicU64::new(0),
    cmat_builds: AtomicU64::new(0),
    journal_appends: AtomicU64::new(0),
    journal_fsyncs: AtomicU64::new(0),
    journal_fsync_us: AtomicU64::new(0),
    replays: AtomicU64::new(0),
    replay_us: AtomicU64::new(0),
    cache_hits: AtomicU64::new(0),
    cache_misses: AtomicU64::new(0),
    cache_bytes_saved: AtomicU64::new(0),
    collision_kernel: Mutex::new(None),
};

impl PhaseMetrics {
    const fn new() -> Self {
        Self { busy: Histogram::new(), comm_wait: Histogram::new() }
    }
}

impl Registry {
    /// The process-wide registry every probe records into.
    pub fn global() -> &'static Registry {
        &GLOBAL
    }

    /// Metrics of one phase.
    pub fn phase(&self, phase: Phase) -> &PhaseMetrics {
        &self.phases[phase.index()]
    }

    /// Record `us` of busy time against `phase`.
    pub fn record_busy_us(&self, phase: Phase, us: u64) {
        self.phases[phase.index()].busy.record(us);
    }

    /// Record `us` of communication wait against `phase`.
    pub fn record_comm_wait_us(&self, phase: Phase, us: u64) {
        self.phases[phase.index()].comm_wait.record(us);
    }

    /// Account one recovery event that wasted `us` of re-executed work.
    pub fn record_recovery_waste_us(&self, us: u64) {
        self.recoveries.fetch_add(1, Ordering::Relaxed);
        self.recovery_wasted_us.fetch_add(us, Ordering::Relaxed);
    }

    /// `(events, wasted_us)` of recovery accounting so far.
    pub fn recovery_stats(&self) -> (u64, u64) {
        (
            self.recoveries.load(Ordering::Relaxed),
            self.recovery_wasted_us.load(Ordering::Relaxed),
        )
    }

    /// Account one capacity-aware rebalance that moved `rows` coll-phase
    /// `nc` rows relative to the uniform shrink.
    pub fn record_rebalance_moved_rows(&self, rows: u64) {
        self.rebalances.fetch_add(1, Ordering::Relaxed);
        self.rebalance_moved_rows.fetch_add(rows, Ordering::Relaxed);
    }

    /// `(events, moved_rows)` of rebalance accounting so far.
    pub fn rebalance_stats(&self) -> (u64, u64) {
        (
            self.rebalances.load(Ordering::Relaxed),
            self.rebalance_moved_rows.load(Ordering::Relaxed),
        )
    }

    /// Account one spawned ensemble world.
    pub fn record_world_spawn_count(&self) {
        self.world_spawns.fetch_add(1, Ordering::Relaxed);
    }

    /// Account one factorization of the shared `cmat`.
    pub fn record_cmat_build_count(&self) {
        self.cmat_builds.fetch_add(1, Ordering::Relaxed);
    }

    /// `(world_spawns, cmat_builds)` of session accounting so far.
    pub fn session_stats(&self) -> (u64, u64) {
        (
            self.world_spawns.load(Ordering::Relaxed),
            self.cmat_builds.load(Ordering::Relaxed),
        )
    }

    /// Account one committed journal append.
    pub fn record_journal_append_us(&self) {
        self.journal_appends.fetch_add(1, Ordering::Relaxed);
    }

    /// Account one journal fsync that took `us`.
    pub fn record_journal_fsync_us(&self, us: u64) {
        self.journal_fsyncs.fetch_add(1, Ordering::Relaxed);
        self.journal_fsync_us.fetch_add(us, Ordering::Relaxed);
    }

    /// Account one startup journal replay that took `us`.
    pub fn record_journal_replay_us(&self, us: u64) {
        self.replays.fetch_add(1, Ordering::Relaxed);
        self.replay_us.fetch_add(us, Ordering::Relaxed);
    }

    /// `(appends, fsyncs, fsync_us)` of journal accounting so far.
    pub fn journal_stats(&self) -> (u64, u64, u64) {
        (
            self.journal_appends.load(Ordering::Relaxed),
            self.journal_fsyncs.load(Ordering::Relaxed),
            self.journal_fsync_us.load(Ordering::Relaxed),
        )
    }

    /// `(replays, replay_us)` of startup-replay accounting so far.
    pub fn replay_stats(&self) -> (u64, u64) {
        (
            self.replays.load(Ordering::Relaxed),
            self.replay_us.load(Ordering::Relaxed),
        )
    }

    /// Account one artifact-cache hit that saved `bytes` of outcome data.
    pub fn record_cache_hit_bytes(&self, bytes: u64) {
        self.cache_hits.fetch_add(1, Ordering::Relaxed);
        self.cache_bytes_saved.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Account one artifact-store consult that found nothing.
    pub fn record_cache_miss_count(&self) {
        self.cache_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// `(hits, misses, bytes_saved)` of artifact-cache accounting so far.
    pub fn cache_stats(&self) -> (u64, u64, u64) {
        (
            self.cache_hits.load(Ordering::Relaxed),
            self.cache_misses.load(Ordering::Relaxed),
            self.cache_bytes_saved.load(Ordering::Relaxed),
        )
    }

    /// Record the autotuned collision-kernel label (idempotent; last write
    /// wins when topologies with different shapes coexist in-process).
    pub fn set_collision_kernel(&self, label: &str) {
        *self.collision_kernel.lock().unwrap() = Some(label.to_string());
    }

    /// The collision-kernel label, if a topology has been built.
    pub fn collision_kernel(&self) -> Option<String> {
        self.collision_kernel.lock().unwrap().clone()
    }

    /// Zero every histogram and counter (tests and fresh-run brackets).
    pub fn reset(&self) {
        for p in &self.phases {
            p.busy.reset();
            p.comm_wait.reset();
        }
        self.recoveries.store(0, Ordering::Relaxed);
        self.recovery_wasted_us.store(0, Ordering::Relaxed);
        self.rebalances.store(0, Ordering::Relaxed);
        self.rebalance_moved_rows.store(0, Ordering::Relaxed);
        self.world_spawns.store(0, Ordering::Relaxed);
        self.cmat_builds.store(0, Ordering::Relaxed);
        self.journal_appends.store(0, Ordering::Relaxed);
        self.journal_fsyncs.store(0, Ordering::Relaxed);
        self.journal_fsync_us.store(0, Ordering::Relaxed);
        self.replays.store(0, Ordering::Relaxed);
        self.replay_us.store(0, Ordering::Relaxed);
        self.cache_hits.store(0, Ordering::Relaxed);
        self.cache_misses.store(0, Ordering::Relaxed);
        self.cache_bytes_saved.store(0, Ordering::Relaxed);
        *self.collision_kernel.lock().unwrap() = None;
    }
}

/// A scoped phase timer: created by [`span`], records the elapsed wall
/// time into the global registry's `busy` histogram on drop. When
/// observability is disabled no clock is read.
#[must_use = "a span times the scope it is bound to; binding it to _ drops it immediately"]
pub struct Span {
    phase: Phase,
    start: Option<Instant>,
}

impl Span {
    /// Complete the span early (identical to dropping it).
    pub fn finish(self) {}
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            Registry::global().record_busy_us(self.phase, start.elapsed().as_micros() as u64);
        }
    }
}

/// Open a scoped timer for `phase`. The probe cost when disabled is the
/// [`enabled`] branch alone.
#[inline]
pub fn span(phase: Phase) -> Span {
    Span { phase, start: enabled().then(Instant::now) }
}

/// Record `us` of communication wait against the phase labelled `label`
/// (the form `xg-comm` calls with the traffic log's current phase tag).
#[inline]
pub fn record_comm_wait(label: &str, us: u64) {
    if enabled() {
        Registry::global().record_comm_wait_us(Phase::from_label(label), us);
    }
}

/// Record `us` of busy time against `phase` directly (for callers that
/// already hold an elapsed measurement, e.g. replayed traces).
#[inline]
pub fn record_busy(phase: Phase, us: u64) {
    if enabled() {
        Registry::global().record_busy_us(phase, us);
    }
}

/// Account one recovery event (see [`Registry::record_recovery_waste_us`]).
#[inline]
pub fn record_recovery_waste(us: u64) {
    if enabled() {
        Registry::global().record_recovery_waste_us(us);
    }
}

/// Account one capacity-aware rebalance (see
/// [`Registry::record_rebalance_moved_rows`]).
#[inline]
pub fn record_rebalance(moved_rows: u64) {
    if enabled() {
        Registry::global().record_rebalance_moved_rows(moved_rows);
    }
}

/// Account one spawned ensemble world (see
/// [`Registry::record_world_spawn_count`]). Like the kernel label this is a
/// once-per-world lifecycle count, not a timing probe, so it bypasses the
/// [`enabled`] gate: a daemon run with `XGYRO_OBS=0` still answers how many
/// worlds it spawned.
pub fn record_world_spawn() {
    Registry::global().record_world_spawn_count();
}

/// Account one factorization of the shared `cmat` (see
/// [`Registry::record_cmat_build_count`]); ungated like
/// [`record_world_spawn`].
pub fn record_cmat_build() {
    Registry::global().record_cmat_build_count();
}

/// Account one committed journal append (the serving layer's WAL).
#[inline]
pub fn record_journal_append() {
    if enabled() {
        Registry::global().record_journal_append_us();
    }
}

/// Account one journal fsync that took `us`.
#[inline]
pub fn record_journal_fsync(us: u64) {
    if enabled() {
        Registry::global().record_journal_fsync_us(us);
    }
}

/// Account one startup journal replay that took `us`.
#[inline]
pub fn record_journal_replay(us: u64) {
    if enabled() {
        Registry::global().record_journal_replay_us(us);
    }
}

/// Account one artifact-cache hit that served `bytes` from the store.
#[inline]
pub fn record_cache_hit(bytes: u64) {
    if enabled() {
        Registry::global().record_cache_hit_bytes(bytes);
    }
}

/// Account one artifact-store consult that found nothing.
#[inline]
pub fn record_cache_miss() {
    if enabled() {
        Registry::global().record_cache_miss_count();
    }
}

/// Record the autotuned collision-kernel label into the global registry.
/// Unlike the timers this is configuration metadata (set once at topology
/// build), so it bypasses the [`enabled`] gate — disabling observability
/// must not erase which kernel the run used.
pub fn set_collision_kernel(label: &str) {
    Registry::global().set_collision_kernel(label);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_labels_roundtrip() {
        for p in PHASES {
            assert_eq!(Phase::from_label(p.label()), p);
        }
        assert_eq!(Phase::from_label("no-such-phase"), Phase::Other);
        assert_eq!(Phase::Str.to_string(), "str");
    }

    #[test]
    fn span_records_into_global_registry() {
        set_enabled(true);
        let before = Registry::global().phase(Phase::Setup).busy.snapshot().count;
        {
            let _s = span(Phase::Setup);
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let after = Registry::global().phase(Phase::Setup).busy.snapshot().count;
        assert!(after > before, "span did not record");
    }

    #[test]
    fn disabled_probe_records_nothing() {
        set_enabled(false);
        let before = Registry::global().phase(Phase::Recover).busy.snapshot().count;
        {
            let _s = span(Phase::Recover);
        }
        record_comm_wait("recover", 123);
        let m = Registry::global().phase(Phase::Recover);
        assert_eq!(m.busy.snapshot().count, before);
        set_enabled(true);
    }

    #[test]
    fn collision_kernel_label_survives_disable_and_clears_on_reset() {
        let reg = Registry::default();
        assert_eq!(reg.collision_kernel(), None);
        reg.set_collision_kernel("avx2/t64");
        assert_eq!(reg.collision_kernel().as_deref(), Some("avx2/t64"));
        reg.set_collision_kernel("avx512/t128");
        assert_eq!(reg.collision_kernel().as_deref(), Some("avx512/t128"));
        reg.reset();
        assert_eq!(reg.collision_kernel(), None);
        // The free function bypasses the enabled() gate: the label is
        // config metadata, not a timing probe.
        let was = enabled();
        set_enabled(false);
        set_collision_kernel("scalar/t8");
        set_enabled(was);
        assert_eq!(
            Registry::global().collision_kernel().as_deref(),
            Some("scalar/t8")
        );
    }

    #[test]
    fn recovery_counter_accumulates() {
        set_enabled(true);
        let (ev0, us0) = Registry::global().recovery_stats();
        record_recovery_waste(500);
        record_recovery_waste(250);
        let (ev, us) = Registry::global().recovery_stats();
        assert_eq!(ev - ev0, 2);
        assert_eq!(us - us0, 750);
    }

    #[test]
    fn rebalance_counter_accumulates() {
        set_enabled(true);
        let (ev0, rows0) = Registry::global().rebalance_stats();
        record_rebalance(6);
        record_rebalance(0);
        let (ev, rows) = Registry::global().rebalance_stats();
        assert_eq!(ev - ev0, 2);
        assert_eq!(rows - rows0, 6);
    }
}
