//! Live model lifecycle vocabulary: tolerance policies, typed events and
//! the per-model lifecycle snapshot.
//!
//! Phi's patterns are calibrated offline, but pattern-based sparsity only
//! pays off while the calibrated pattern set keeps matching the activity
//! actually arriving — and production traffic drifts. Recalibrating means
//! rerunning that offline selection on fresh activations
//! ([`ModelCompiler::recompile_from_samples`], fed whatever samples the
//! caller collected) and handing the result to the server, which vets it
//! against live traffic before it serves anyone:
//!
//! ```text
//!  Serving ──propose──▶ Canary ──▶ Promoted
//!     ▲                 (shadow)      │
//!     └──◀── RolledBack ◀──┴──────────┘
//! ```
//!
//! * **Canary** — [`PhiServer::propose`](crate::PhiServer::propose)
//!   installs the candidate next to the incumbent; every stateless batch
//!   served on the active version is shadow-executed on it, and the
//!   readouts are compared under a [`TolerancePolicy`]. Enough clean
//!   comparisons promote it, any violation rolls it back.
//! * **Promoted / RolledBack** — promotion swaps the slot's active entry
//!   atomically (in-flight batches finish on the artifact they started
//!   with); rollback discards the candidate and the incumbent keeps
//!   serving bit-identically to before the proposal.
//!
//! Every transition is recorded as a typed [`LifecycleEvent`] and counted
//! in [`LifecycleStatsSnapshot`]
//! ([`PhiServer::lifecycle_stats`](crate::PhiServer::lifecycle_stats)).
//!
//! [`ModelCompiler::recompile_from_samples`]: crate::ModelCompiler::recompile_from_samples

/// How a canary candidate's shadow readouts must relate to the
/// incumbent's for the comparison to count as clean.
///
/// The decomposition is lossless (layer-1 pattern matches plus layer-2
/// corrections reconstruct the exact activation), so with the incumbent's
/// weights carried over a recompile changes *at most* the f32 summation
/// order: a recompile whose patterns came out identical is bit-identical,
/// and a drift-adapted pattern set diverges only at rounding level. The
/// two policies encode exactly those two cases.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TolerancePolicy {
    /// Every shadow readout must equal the incumbent's bit for bit — the
    /// contract for same-pattern recompiles and re-deployments of an
    /// identical artifact, where any difference is a real defect.
    BitIdentical,
    /// Shadow readouts may deviate elementwise by at most `max_abs` — the
    /// contract for drift-adapted recompiles, whose reordered summations
    /// legitimately differ at ULP level. Shape mismatches and NaNs always
    /// fail.
    BoundedDivergence {
        /// Largest tolerated elementwise absolute difference.
        max_abs: f32,
    },
}

/// The divergence bound recommended for drift-adapted recompiles
/// (candidates whose pattern sets changed): generous against f32
/// reassociation noise, far below any real numerical defect.
pub const DEFAULT_DIVERGENCE_TOLERANCE: f32 = 1e-3;

impl TolerancePolicy {
    /// Whether an observed elementwise divergence passes this policy.
    pub fn allows(&self, divergence: f32) -> bool {
        match self {
            TolerancePolicy::BitIdentical => divergence == 0.0,
            // `<=` keeps NaN divergence failing (NaN compares false).
            TolerancePolicy::BoundedDivergence { max_abs } => divergence <= *max_abs,
        }
    }
}

impl std::fmt::Display for TolerancePolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TolerancePolicy::BitIdentical => f.write_str("bit-identical"),
            TolerancePolicy::BoundedDivergence { max_abs } => {
                write!(f, "bounded-divergence(max_abs={max_abs})")
            }
        }
    }
}

/// Why a proposed candidate was rolled back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RollbackReason {
    /// A shadow readout violated the candidate's [`TolerancePolicy`].
    CanaryDivergence,
    /// Shadow execution on the candidate panicked; the panic was contained
    /// on the leader's thread and the incumbent kept serving.
    CanaryPanicked,
    /// Shadow execution on the candidate returned a typed error.
    CanaryExecutionFailed,
    /// The server shut down while the canary was still undecided.
    ShuttingDown,
}

impl std::fmt::Display for RollbackReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            RollbackReason::CanaryDivergence => "canary readout divergence",
            RollbackReason::CanaryPanicked => "canary shadow execution panicked",
            RollbackReason::CanaryExecutionFailed => "canary shadow execution failed",
            RollbackReason::ShuttingDown => "server shut down mid-canary",
        })
    }
}

/// One transition of a hosted model's lifecycle, in occurrence order
/// (surfaced, bounded to the most recent, by
/// [`LifecycleStatsSnapshot::events`]).
#[derive(Debug, Clone, PartialEq)]
pub enum LifecycleEvent {
    /// A candidate version entered the canary stage.
    Proposed {
        /// The candidate's version tag.
        version: u64,
        /// The tolerance its shadow comparisons run under.
        tolerance: TolerancePolicy,
    },
    /// A candidate survived its full canary target without a violation.
    CanaryPass {
        /// The candidate's version tag.
        version: u64,
        /// Requests whose shadow readouts were compared clean.
        compared: u64,
        /// Worst elementwise divergence observed across the canary
        /// (always `0.0` under [`TolerancePolicy::BitIdentical`]).
        max_divergence: f32,
    },
    /// A version became the slot's active artifact (canary promotion or
    /// direct [`PhiServer::deploy`](crate::PhiServer::deploy)).
    Promoted {
        /// The newly active version tag.
        version: u64,
    },
    /// A candidate was discarded and the incumbent kept serving.
    RolledBack {
        /// The discarded candidate's version tag.
        version: u64,
        /// Why the candidate was discarded.
        reason: RollbackReason,
    },
}

/// Point-in-time view of one hosted model's lifecycle (see
/// [`PhiServer::lifecycle_stats`](crate::PhiServer::lifecycle_stats)).
#[derive(Debug, Clone, PartialEq)]
pub struct LifecycleStatsSnapshot {
    /// Version tag of the artifact currently serving new admissions.
    pub version: u64,
    /// Versions ever installed on this slot (the initial registration
    /// counts; retained history — in-flight batches and pinned sessions
    /// may still reference any of them).
    pub versions_installed: u64,
    /// Candidates that entered the canary stage.
    pub proposed: u64,
    /// Versions promoted to active (canary passes plus direct deploys).
    pub promoted: u64,
    /// Candidates rolled back.
    pub rolled_back: u64,
    /// Whether a candidate is in its canary stage right now.
    pub canary_pending: bool,
    /// Requests shadow-executed and compared across every canary so far.
    pub canary_compared: u64,
    /// The most recent lifecycle events, oldest first (bounded; earlier
    /// events age out but stay counted above).
    pub events: Vec<LifecycleEvent>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tolerance_policies_gate_divergence() {
        assert!(TolerancePolicy::BitIdentical.allows(0.0));
        assert!(!TolerancePolicy::BitIdentical.allows(f32::EPSILON));
        let bounded = TolerancePolicy::BoundedDivergence { max_abs: 1e-3 };
        assert!(bounded.allows(0.0));
        assert!(bounded.allows(1e-3));
        assert!(!bounded.allows(2e-3));
        assert!(!bounded.allows(f32::NAN));
        assert!(bounded.to_string().contains("0.001"));
    }
}
