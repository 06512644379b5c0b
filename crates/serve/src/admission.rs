//! Admission control: bounded queue with typed rejection.
//!
//! Every rejection happens *at submit time*, synchronously, so a client is
//! never left holding a job id for work the server will not do. The queue
//! bound counts non-terminal jobs (queued + batched + running): admitting
//! faster than the worker pool drains eventually pushes back on the
//! submitter with [`AdmitError::QueueFull`] instead of growing without
//! bound.

use xg_sim::CgyroInput;

/// Why a submission was rejected at the door.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AdmitError {
    /// The server already holds `capacity` live (non-terminal) jobs —
    /// backpressure; retry after some complete.
    QueueFull {
        /// The configured bound that was hit.
        capacity: usize,
    },
    /// The deck failed [`CgyroInput::validate`] (or could not be parsed).
    InvalidDeck {
        /// Underlying validation/parse message.
        reason: String,
    },
    /// The deck is valid but no ensemble of any size — not even `k = 1` —
    /// fits the server's modeled allocation
    /// ([`xg_cluster::max_feasible_k_unbalanced`] returned 0).
    OversizedGrid {
        /// Explanation with the modeled allocation.
        reason: String,
    },
    /// The requested step count is zero or not a whole number of reporting
    /// intervals (ensemble members checkpoint and report in lockstep).
    BadSteps {
        /// Explanation.
        reason: String,
    },
    /// The server is draining: it finishes what it holds but admits
    /// nothing new.
    Draining,
    /// The submission's tenant claim was refused: malformed name, a
    /// tenant the configured roster does not list, or a failed `auth=`
    /// secret check (see [`crate::TenantDirectory::resolve`]).
    TenantDenied {
        /// Underlying tenant-resolution message.
        reason: String,
    },
    /// Admitting the job would push its tenant past a configured quota
    /// (live jobs or live deck bytes). Backpressure scoped to one tenant:
    /// retry after some of that tenant's jobs complete.
    QuotaExceeded {
        /// The tenant whose quota fired.
        tenant: String,
        /// Which budget: `"jobs"` or `"bytes"`.
        resource: &'static str,
        /// Usage the submission would have reached.
        would_use: u64,
        /// The configured ceiling.
        limit: u64,
    },
    /// The durability journal refused the admission record (disk pressure
    /// or an injected write fault). The job was **not** enqueued — a
    /// submission the journal cannot persist would be silently lost by the
    /// next crash, so the server degrades by shedding it instead of
    /// accepting unjournaled work.
    JournalBackpressure {
        /// Underlying journal error.
        reason: String,
    },
}

impl std::fmt::Display for AdmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmitError::QueueFull { capacity } => write!(
                f,
                "queue full: {capacity} live jobs already admitted (backpressure — retry \
                 after some complete)"
            ),
            AdmitError::InvalidDeck { reason } => write!(f, "invalid deck: {reason}"),
            AdmitError::OversizedGrid { reason } => write!(f, "oversized grid: {reason}"),
            AdmitError::BadSteps { reason } => write!(f, "bad step count: {reason}"),
            AdmitError::Draining => {
                write!(f, "server is draining and admits no new jobs")
            }
            AdmitError::TenantDenied { reason } => write!(f, "tenant denied: {reason}"),
            AdmitError::QuotaExceeded { tenant, resource, would_use, limit } => write!(
                f,
                "quota exceeded: tenant '{tenant}' would hold {would_use} live {resource} \
                 (limit {limit}) — retry after some of its jobs complete"
            ),
            AdmitError::JournalBackpressure { reason } => write!(
                f,
                "journal backpressure: {reason} (submission not persisted — retry)"
            ),
        }
    }
}

impl std::error::Error for AdmitError {}

impl AdmitError {
    /// Stable machine-readable kind, used by the wire protocol and the
    /// rejection-count metrics.
    pub fn kind(&self) -> &'static str {
        match self {
            AdmitError::QueueFull { .. } => "queue-full",
            AdmitError::InvalidDeck { .. } => "invalid-deck",
            AdmitError::OversizedGrid { .. } => "oversized-grid",
            AdmitError::BadSteps { .. } => "bad-steps",
            AdmitError::Draining => "draining",
            AdmitError::TenantDenied { .. } => "tenant-denied",
            AdmitError::QuotaExceeded { .. } => "quota-exceeded",
            AdmitError::JournalBackpressure { .. } => "journal-backpressure",
        }
    }

    /// Every rejection kind, for metrics enumeration.
    pub const KINDS: [&'static str; 8] = [
        "queue-full",
        "invalid-deck",
        "oversized-grid",
        "bad-steps",
        "draining",
        "tenant-denied",
        "quota-exceeded",
        "journal-backpressure",
    ];
}

/// Deck-level admission checks shared by `submit` and `--dry-run`: the deck
/// must validate and the requested steps must be a positive multiple of the
/// reporting cadence. (Queue capacity and feasibility are checked by the
/// server, which knows its live-job count and machine model.)
pub fn check_spec(input: &CgyroInput, steps: usize) -> Result<(), AdmitError> {
    input
        .validate()
        .map_err(|reason| AdmitError::InvalidDeck { reason })?;
    if steps == 0 {
        return Err(AdmitError::BadSteps { reason: "steps must be positive".into() });
    }
    if !steps.is_multiple_of(input.steps_per_report) {
        return Err(AdmitError::BadSteps {
            reason: format!(
                "steps {} is not a multiple of the deck's reporting cadence {}",
                steps, input.steps_per_report
            ),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_specs_pass() {
        let input = CgyroInput::test_small();
        assert_eq!(check_spec(&input, 2 * input.steps_per_report), Ok(()));
    }

    #[test]
    fn invalid_decks_are_named() {
        let mut input = CgyroInput::test_small();
        input.n_radial = 0;
        let err = check_spec(&input, 10).unwrap_err();
        assert_eq!(err.kind(), "invalid-deck");
        assert!(err.to_string().contains("n_radial"));
    }

    #[test]
    fn steps_must_align_with_cadence() {
        let input = CgyroInput::test_small(); // steps_per_report = 10
        assert_eq!(check_spec(&input, 0).unwrap_err().kind(), "bad-steps");
        let err = check_spec(&input, input.steps_per_report + 1).unwrap_err();
        assert_eq!(err.kind(), "bad-steps");
        assert!(err.to_string().contains("cadence"));
    }

    #[test]
    fn kinds_cover_every_variant() {
        let variants = [
            AdmitError::QueueFull { capacity: 1 },
            AdmitError::InvalidDeck { reason: String::new() },
            AdmitError::OversizedGrid { reason: String::new() },
            AdmitError::BadSteps { reason: String::new() },
            AdmitError::Draining,
            AdmitError::TenantDenied { reason: String::new() },
            AdmitError::QuotaExceeded {
                tenant: String::new(),
                resource: "jobs",
                would_use: 2,
                limit: 1,
            },
            AdmitError::JournalBackpressure { reason: String::new() },
        ];
        for v in &variants {
            assert!(AdmitError::KINDS.contains(&v.kind()), "{v}");
        }
    }
}
