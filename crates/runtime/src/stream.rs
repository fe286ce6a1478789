//! Stateful streaming sessions: persistent LIF membrane state and
//! per-layer frame memos for delta-sparse incremental decomposition.
//!
//! An SNN deployed on temporal data (DVS event streams, RL agents) loops
//! `T` timesteps with persistent membrane state, and consecutive
//! timesteps share most of their activity. A [`StreamSession`] holds both
//! halves of that state between requests:
//!
//! * one [`FrameMemo`] per model layer, so
//!   [`phi_core::decompose_delta`] can replay the previous timestep's
//!   tile decisions and re-match only what changed, and
//! * a bank of LIF neurons over the readout (one per `(row, column)`
//!   slot) plus a spike-count accumulator, so the window's rate-coded
//!   readout falls out of the served per-timestep readouts.
//!
//! The session also caches its previous frame's full readout: an
//! unchanged activation row has a bit-identical decomposition row and
//! therefore a bit-identical readout row, so the executor replays those
//! rows from the cache ([`phi_core::decompose_delta_sparse`]) and runs
//! the PWP matmul only over the rows that actually changed.
//!
//! Sessions are driven through
//! [`BatchExecutor::execute_stream_with`](crate::BatchExecutor::execute_stream_with)
//! — directly, or via the serving front-end's
//! [`PhiServer::submit_stream`](crate::PhiServer::submit_stream) which
//! keeps each session's frames in timestep order while coalescing
//! *across* sessions into fused batches. Incremental decomposition is
//! bit-identical to full decomposition of each raw frame, so a streamed
//! frame's readout equals the same request served statelessly.

use crate::artifact::CompiledModel;
use crate::error::{Result, RuntimeError};
use phi_core::{DeltaStats, FrameMemo};
use snn_core::{LifConfig, LifLayer, Matrix};
use std::sync::Mutex;

/// Per-client streaming state: one frame memo per model layer for the
/// incremental decomposition, and the LIF readout accumulator for the
/// rate-coded window readout. Shaped by the first frame it serves
/// (every later frame must carry the same row count).
///
/// A session may ride in at most one in-flight batch at a time — the
/// executor refuses a batch naming it twice with
/// [`RuntimeError::DuplicateSession`] — which is also what keeps its
/// timestep order well-defined.
#[derive(Debug)]
pub struct StreamSession {
    /// One memo per model layer, individually locked so the executor's
    /// parallel layer fan-out touches disjoint locks.
    memos: Vec<Mutex<FrameMemo>>,
    /// Readout column count (`N` of the readout layer), 0 when the
    /// artifact carries no readout weights.
    readout_width: usize,
    inner: Mutex<StreamInner>,
}

#[derive(Debug, Default)]
struct StreamInner {
    /// Row count fixed by the first frame; 0 until then.
    rows: usize,
    /// LIF neurons over the flattened readout (`rows × readout_width`),
    /// created when the first readout arrives.
    lif: Option<LifLayer>,
    /// Cumulative spike counts, position-aligned with the flattened
    /// readout.
    counts: Vec<u32>,
    timesteps: u64,
    delta: DeltaStats,
    /// The most recent frame's full readout (`rows × N_readout`): the
    /// replay source for rows the next frame leaves unchanged, so the
    /// executor can skip their matmul as well as their decomposition.
    prev_readout: Option<Matrix>,
}

impl StreamSession {
    /// Creates a cold session for `model`: every layer memo empty, LIF
    /// bank at resting potential, zero timesteps.
    pub fn new(model: &CompiledModel) -> Self {
        let memos = model.layers().iter().map(|_| Mutex::new(FrameMemo::new())).collect();
        let readout = model.readout();
        let readout_width =
            if readout.weights.is_some() && readout.pwp.is_some() { readout.shape.n } else { 0 };
        StreamSession { memos, readout_width, inner: Mutex::new(StreamInner::default()) }
    }

    /// The row count the session is locked to, or `None` before its
    /// first frame.
    pub fn rows(&self) -> Option<usize> {
        let rows = crate::sync::lock(&self.inner).rows;
        (rows != 0).then_some(rows)
    }

    /// Timesteps served so far.
    pub fn timesteps(&self) -> u64 {
        crate::sync::lock(&self.inner).timesteps
    }

    /// Cumulative incremental-decomposition counters over every executed
    /// layer of every served frame.
    pub fn delta_stats(&self) -> DeltaStats {
        crate::sync::lock(&self.inner).delta
    }

    /// The rate-coded readout of the window so far: per readout slot,
    /// LIF spike count divided by timesteps (`rows × N_readout`).
    /// `None` before the first frame or when the artifact carries no
    /// readout weights.
    pub fn rate_readout(&self) -> Option<Matrix> {
        let inner = crate::sync::lock(&self.inner);
        if inner.timesteps == 0 || inner.lif.is_none() {
            return None;
        }
        let data: Vec<f32> =
            inner.counts.iter().map(|&c| c as f32 / inner.timesteps as f32).collect();
        Some(
            Matrix::from_vec(inner.rows, self.readout_width, data)
                .expect("counts match the readout shape"),
        )
    }

    /// Raw LIF spike counts over the window, flattened row-major
    /// (`rows × N_readout` slots); empty before the first readout.
    pub fn spike_counts(&self) -> Vec<u32> {
        crate::sync::lock(&self.inner).counts.clone()
    }

    /// The per-layer frame memo the streaming executor diffs against.
    pub(crate) fn memo(&self, layer: usize) -> &Mutex<FrameMemo> {
        &self.memos[layer]
    }

    /// The previous frame's served readout (`rows × N_readout`), or
    /// `None` before one exists. Rows the current frame leaves
    /// bit-identical replay their slice of this matrix instead of being
    /// re-executed — bit-exact, because readout rows are a pure per-row
    /// function of the decomposition (the batch-invariance the
    /// equivalence suites pin down).
    pub(crate) fn prev_readout(&self) -> Option<Matrix> {
        crate::sync::lock(&self.inner).prev_readout.clone()
    }

    /// Locks the session to its first frame's row count; later frames
    /// must match (the memo diff and the LIF bank are shaped by it).
    pub(crate) fn fix_rows(&self, rows: usize) -> Result<()> {
        let mut inner = crate::sync::lock(&self.inner);
        if inner.rows == 0 {
            inner.rows = rows;
            return Ok(());
        }
        if inner.rows != rows {
            return Err(RuntimeError::Shape {
                op: "stream session rows",
                expected: inner.rows,
                actual: rows,
            });
        }
        Ok(())
    }

    /// Folds one served frame into the session: advances the LIF bank
    /// over the flattened readout (accumulating spike counts), counts
    /// the timestep, and merges the frame's delta counters.
    pub(crate) fn absorb(&self, readout: Option<&Matrix>, delta: DeltaStats) {
        let mut inner = crate::sync::lock(&self.inner);
        inner.timesteps += 1;
        inner.delta.merge(&delta);
        if let Some(readout) = readout {
            let width = readout.rows() * readout.cols();
            let StreamInner { lif, counts, .. } = &mut *inner;
            let lif = lif.get_or_insert_with(|| {
                counts.resize(width, 0);
                LifLayer::new(width, LifConfig::default())
            });
            lif.step_count_into(readout.as_slice(), counts);
            inner.prev_readout = Some(readout.clone());
        }
    }
}
