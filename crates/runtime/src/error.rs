//! Runtime error handling.

use phi_core::wire::WireError;
use std::fmt;

/// Convenience alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, RuntimeError>;

/// Errors produced while loading artifacts or executing batches.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RuntimeError {
    /// A core record inside the artifact was truncated or corrupt.
    Wire(WireError),
    /// The artifact does not start with the `PHIC` magic.
    BadMagic {
        /// The four bytes actually found.
        found: [u8; 4],
    },
    /// The artifact was written by an incompatible format version.
    UnsupportedVersion {
        /// Version stored in the artifact.
        found: u32,
        /// Version this build understands.
        supported: u32,
    },
    /// The artifact checksum does not match its contents.
    ChecksumMismatch {
        /// Checksum stored in the artifact footer.
        stored: u64,
        /// Checksum computed over the received bytes.
        computed: u64,
    },
    /// Bytes remained after the artifact's declared end.
    TrailingBytes {
        /// Number of unconsumed bytes.
        extra: usize,
    },
    /// A request or artifact field disagreed with the model on a dimension.
    Shape {
        /// Human-readable description of the check that failed.
        op: &'static str,
        /// Expected value.
        expected: usize,
        /// Actual value.
        actual: usize,
    },
    /// A request's layers disagree on their row count: a ragged request
    /// has no single row count, so fusing it would silently misattribute
    /// rows.
    Ragged {
        /// Index of the first layer whose row count deviates.
        layer: usize,
        /// Row count of layer 0.
        expected: usize,
        /// Row count actually found at `layer`.
        actual: usize,
    },
    /// The batch asked for hardware metrics from a backend that cannot
    /// model them (e.g. [`MetricsMode::FullSim`] on the CPU backend).
    ///
    /// [`MetricsMode::FullSim`]: phi_accel::MetricsMode::FullSim
    MetricsUnavailable {
        /// Name of the backend that was asked.
        backend: &'static str,
    },
    /// An empty batch was submitted.
    EmptyBatch,
    /// A streamed batch named the same session for two frames. A session
    /// holds one "previous timestep", so its frames must be served in
    /// order, not fused side by side.
    DuplicateSession {
        /// Index of the session's first frame in the batch.
        first: usize,
        /// Index of the frame that named it again.
        again: usize,
    },
    /// Reading or writing an artifact file failed.
    Io(String),
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::Wire(e) => write!(f, "artifact payload: {e}"),
            RuntimeError::BadMagic { found } => {
                write!(f, "not a Phi artifact: magic bytes {found:?}")
            }
            RuntimeError::UnsupportedVersion { found, supported } => {
                write!(
                    f,
                    "artifact format version {found} unsupported (this build reads {supported})"
                )
            }
            RuntimeError::ChecksumMismatch { stored, computed } => {
                write!(
                    f,
                    "artifact checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
                )
            }
            RuntimeError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after artifact end")
            }
            RuntimeError::Shape { op, expected, actual } => {
                write!(f, "shape mismatch in {op}: expected {expected}, got {actual}")
            }
            RuntimeError::Ragged { layer, expected, actual } => {
                write!(
                    f,
                    "ragged request: layer {layer} carries {actual} rows but layer 0 carries \
                     {expected}"
                )
            }
            RuntimeError::MetricsUnavailable { backend } => {
                write!(f, "backend '{backend}' does not model hardware; request OutputsOnly")
            }
            RuntimeError::EmptyBatch => write!(f, "cannot execute an empty batch"),
            RuntimeError::DuplicateSession { first, again } => {
                write!(f, "streamed frames {first} and {again} name the same session")
            }
            RuntimeError::Io(reason) => write!(f, "artifact I/O: {reason}"),
        }
    }
}

impl std::error::Error for RuntimeError {}

impl From<WireError> for RuntimeError {
    fn from(e: WireError) -> Self {
        RuntimeError::Wire(e)
    }
}

/// Errors produced by the serving front-end ([`crate::server`]).
///
/// Admission-control errors (`UnknownModel`, `QueueFull`, `Oversized`,
/// `Rejected`) are returned synchronously by
/// [`PhiServer::submit`](crate::PhiServer::submit) — a bad request never
/// reaches a batch, so it can never poison the other requests coalesced
/// with it. The remaining variants surface asynchronously through
/// [`ResponseHandle::wait`](crate::ResponseHandle::wait).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ServerError {
    /// The request named a model key the registry does not hold.
    UnknownModel {
        /// The key that failed to resolve.
        key: String,
    },
    /// The admission queue is at capacity; the request was shed. Callers
    /// implement their own backpressure (retry with delay, fail over,
    /// degrade) — the server never blocks a submitter.
    QueueFull {
        /// The configured queue capacity that was exhausted.
        capacity: usize,
    },
    /// The request carries more rows per layer than the server admits.
    Oversized {
        /// Rows per layer the request carries.
        rows: usize,
        /// The configured admission ceiling.
        max: usize,
    },
    /// The request failed shape validation against its model at enqueue
    /// time (ragged layers, wrong layer count/width, zero rows).
    Rejected(RuntimeError),
    /// The batch this request was coalesced into failed to execute. Every
    /// request of the batch observes the same error.
    Execution(RuntimeError),
    /// A streamed frame named a session id the model does not hold (never
    /// opened, already closed, or expired past its TTL and evicted).
    UnknownSession {
        /// The session id that failed to resolve.
        session: u64,
    },
    /// Opening a new session would exceed the per-model session ceiling;
    /// memory for session state (per-layer frame memos plus LIF membrane
    /// banks) is bounded by refusing, not by silently evicting live
    /// clients.
    SessionLimit {
        /// The configured maximum number of live sessions per model.
        max: usize,
    },
    /// The request waited in the admission queue past its own deadline
    /// ([`InferenceRequest::with_deadline`](crate::InferenceRequest::with_deadline))
    /// and was shed at dequeue, before wasting executor time on an answer
    /// the caller would discard.
    DeadlineExceeded {
        /// The deadline the request carried.
        deadline: std::time::Duration,
    },
    /// A deploy or proposal targeted a model slot whose previous canary
    /// is still undecided; at most one candidate is in flight per slot.
    CanaryInProgress {
        /// The model key whose canary is still pending.
        key: String,
    },
    /// The server is shutting down; queued requests are resolved with
    /// this error instead of silently vanishing.
    ShuttingDown,
    /// No response will come: the batch carrying this request panicked,
    /// or an earlier wait already took the response.
    Disconnected,
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerError::UnknownModel { key } => write!(f, "unknown model key '{key}'"),
            ServerError::QueueFull { capacity } => {
                write!(f, "admission queue full ({capacity} requests); request shed")
            }
            ServerError::Oversized { rows, max } => {
                write!(f, "request carries {rows} rows per layer; server admits at most {max}")
            }
            ServerError::UnknownSession { session } => {
                write!(f, "unknown session id {session} (never opened, closed, or expired)")
            }
            ServerError::SessionLimit { max } => {
                write!(f, "session limit reached: model already holds {max} live sessions")
            }
            ServerError::DeadlineExceeded { deadline } => {
                write!(f, "request shed: waited past its {deadline:?} deadline")
            }
            ServerError::CanaryInProgress { key } => {
                write!(f, "model '{key}' already has a canary in flight; decide it first")
            }
            ServerError::Rejected(e) => write!(f, "request rejected at enqueue: {e}"),
            ServerError::Execution(e) => write!(f, "batch execution failed: {e}"),
            ServerError::ShuttingDown => write!(f, "server is shutting down"),
            ServerError::Disconnected => write!(f, "no response: the batch panicked or was taken"),
        }
    }
}

impl std::error::Error for ServerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServerError::Rejected(e) | ServerError::Execution(e) => Some(e),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = RuntimeError::BadMagic { found: *b"NOPE" };
        assert!(e.to_string().contains("magic"));
        let e = RuntimeError::Wire(WireError::Truncated { at: 3, needed: 5 });
        assert!(e.to_string().contains("truncated"));
    }

    #[test]
    fn errors_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<RuntimeError>();
        assert_send_sync::<ServerError>();
    }

    #[test]
    fn server_errors_display_their_cause() {
        let e = ServerError::Rejected(RuntimeError::Ragged { layer: 2, expected: 4, actual: 5 });
        assert!(e.to_string().contains("ragged"));
        assert!(std::error::Error::source(&e).is_some());
        let e = ServerError::QueueFull { capacity: 8 };
        assert!(e.to_string().contains('8'));
        assert!(std::error::Error::source(&e).is_none());
    }

    #[test]
    fn session_errors_carry_their_numbers() {
        let e = ServerError::UnknownSession { session: 42 };
        assert!(e.to_string().contains("42"));
        assert!(std::error::Error::source(&e).is_none());
        let e = ServerError::SessionLimit { max: 16 };
        assert!(e.to_string().contains("16"));
    }

    #[test]
    fn lifecycle_errors_display_their_context() {
        let e = ServerError::DeadlineExceeded { deadline: std::time::Duration::from_millis(5) };
        assert!(e.to_string().contains("5ms"));
        assert!(std::error::Error::source(&e).is_none());
        let e = ServerError::CanaryInProgress { key: "vgg16".into() };
        assert!(e.to_string().contains("vgg16"));
        assert!(std::error::Error::source(&e).is_none());
    }
}
