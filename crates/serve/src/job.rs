//! Job identity, specification, and the per-job lifecycle state machine.
//!
//! Every submission moves through a fixed state graph:
//!
//! ```text
//!   Queued ──► Batched ──► Running ──► Done
//!     │           │           ├─────► Failed
//!     │           │           └─────► Cancelled   (at a checkpoint boundary)
//!     └───────────┴─────────────────► Cancelled   (before dispatch)
//! ```
//!
//! Transitions outside this graph are bugs, not data — [`JobState::can_transition`]
//! is enforced by the job table (`crate::table`) on every state change.

use xg_sim::CgyroInput;

/// Opaque job identity, unique per server instance. Renders as `job-N`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u64);

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job-{}", self.0)
    }
}

impl std::str::FromStr for JobId {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let n = s
            .strip_prefix("job-")
            .unwrap_or(s)
            .parse::<u64>()
            .map_err(|_| format!("'{s}' is not a job id (expected job-N)"))?;
        Ok(JobId(n))
    }
}

/// Batch identity. Renders as `batch-N`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BatchId(pub u64);

impl std::fmt::Display for BatchId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "batch-{}", self.0)
    }
}

/// Where a job is in its lifecycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum JobState {
    /// Admitted, waiting to be placed into a batch.
    Queued,
    /// Placed in a pending (not yet dispatched) batch.
    Batched,
    /// Its batch is executing on a worker.
    Running,
    /// Finished successfully; results are available.
    Done,
    /// The member faulted (or the whole batch failed) — evicted without
    /// killing its batch-mates.
    Failed,
    /// Cancelled before dispatch, or preempted at a checkpoint boundary.
    Cancelled,
}

impl JobState {
    /// Terminal states never transition again.
    pub fn is_terminal(self) -> bool {
        matches!(self, JobState::Done | JobState::Failed | JobState::Cancelled)
    }

    /// Whether `self → to` is a legal lifecycle edge.
    pub fn can_transition(self, to: JobState) -> bool {
        use JobState::*;
        matches!(
            (self, to),
            (Queued, Batched)
                | (Queued, Cancelled)
                | (Batched, Running)
                | (Batched, Cancelled)
                | (Running, Done)
                | (Running, Failed)
                | (Running, Cancelled)
        )
    }

    /// Every state, for metrics enumeration.
    pub const ALL: [JobState; 6] = [
        JobState::Queued,
        JobState::Batched,
        JobState::Running,
        JobState::Done,
        JobState::Failed,
        JobState::Cancelled,
    ];
}

impl std::fmt::Display for JobState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            JobState::Queued => "Queued",
            JobState::Batched => "Batched",
            JobState::Running => "Running",
            JobState::Done => "Done",
            JobState::Failed => "Failed",
            JobState::Cancelled => "Cancelled",
        })
    }
}

impl std::str::FromStr for JobState {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "Queued" => Ok(JobState::Queued),
            "Batched" => Ok(JobState::Batched),
            "Running" => Ok(JobState::Running),
            "Done" => Ok(JobState::Done),
            "Failed" => Ok(JobState::Failed),
            "Cancelled" => Ok(JobState::Cancelled),
            other => Err(format!("unknown job state '{other}'")),
        }
    }
}

/// What a client submits: a deck, how long to run it, and a label.
#[derive(Clone, Debug)]
pub struct JobSpec {
    /// The full simulation input. Its [`CgyroInput::cmat_key`] decides
    /// which jobs this one can share a batch (and a constant tensor) with.
    pub input: CgyroInput,
    /// Time steps to run.
    pub steps: usize,
    /// Free-form label echoed in status output (no whitespace).
    pub tag: String,
    /// Tenant the job is attributed to — the unit of quota enforcement
    /// and fair-share scheduling (see [`crate::tenant`]). Resolved against
    /// the daemon's [`crate::TenantDirectory`] at admission.
    pub tenant: String,
}

impl JobSpec {
    /// A spec with an empty tag, attributed to the default tenant.
    pub fn new(input: CgyroInput, steps: usize) -> Self {
        Self {
            input,
            steps,
            tag: String::new(),
            tenant: crate::tenant::DEFAULT_TENANT.to_string(),
        }
    }

    /// Attribute the spec to `tenant`.
    pub fn with_tenant(mut self, tenant: &str) -> Self {
        self.tenant = tenant.to_string();
        self
    }
}

/// One state-change notification delivered to subscribers.
#[derive(Clone, Debug)]
pub struct JobEvent {
    /// The job.
    pub job: JobId,
    /// Its new state.
    pub state: JobState,
    /// Human-readable context (batch id, failure cause, …).
    pub detail: String,
}

/// A poll-style snapshot of one job.
#[derive(Clone, Debug)]
pub struct JobStatus {
    /// The job.
    pub id: JobId,
    /// Submitted label.
    pub tag: String,
    /// Tenant the job is attributed to.
    pub tenant: String,
    /// Current lifecycle state.
    pub state: JobState,
    /// The deck's cmat key (what the batcher groups on).
    pub cmat_key: u64,
    /// The batch it was placed into, once batched.
    pub batch: Option<BatchId>,
    /// Context for the current state (failure cause, eviction note, …).
    pub detail: String,
    /// Milliseconds from admission to dispatch (None until dispatched).
    pub queue_latency_ms: Option<u64>,
    /// The process grid its batch ran on (None until dispatched in this
    /// life, and for cache hits).
    pub proc_grid: Option<xg_tensor::ProcGrid>,
}

/// Final per-job output, retained for `Done` jobs.
#[derive(Clone, Debug)]
pub struct JobOutcome {
    /// Final global distribution (str layout), bitwise identical to running
    /// the same deck through `run_xgyro` in an equivalent ensemble.
    pub h: xg_tensor::Tensor3<xg_linalg::Complex64>,
    /// End-of-run diagnostics.
    pub diagnostics: xg_sim::Diagnostics,
    /// Steps actually executed.
    pub steps: usize,
}

/// Wall-clock µs since the Unix epoch (0 if the clock predates it) — the
/// timestamp a journaled admission carries.
pub(crate) fn unix_us() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_micros() as u64)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle_graph_is_exactly_the_documented_one() {
        use JobState::*;
        let legal = [
            (Queued, Batched),
            (Queued, Cancelled),
            (Batched, Running),
            (Batched, Cancelled),
            (Running, Done),
            (Running, Failed),
            (Running, Cancelled),
        ];
        for a in JobState::ALL {
            for b in JobState::ALL {
                let expect = legal.contains(&(a, b));
                assert_eq!(a.can_transition(b), expect, "{a} -> {b}");
            }
        }
        // Terminal states have no outgoing edges at all.
        for t in [Done, Failed, Cancelled] {
            assert!(t.is_terminal());
            for b in JobState::ALL {
                assert!(!t.can_transition(b), "{t} must be terminal");
            }
        }
    }

    #[test]
    fn ids_roundtrip_through_display() {
        let id = JobId(42);
        assert_eq!(id.to_string(), "job-42");
        assert_eq!("job-42".parse::<JobId>().unwrap(), id);
        assert_eq!("42".parse::<JobId>().unwrap(), id);
        assert!("job-x".parse::<JobId>().is_err());
        assert_eq!(BatchId(3).to_string(), "batch-3");
    }

    #[test]
    fn states_roundtrip_through_display() {
        for s in JobState::ALL {
            assert_eq!(s.to_string().parse::<JobState>().unwrap(), s);
        }
        assert!("queued".parse::<JobState>().is_err());
    }
}
