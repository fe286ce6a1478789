//! The wire format of a [`Decomposition`].
//!
//! * The bytes [`write_decomposition`] produces for seeded decompositions
//!   are pinned by length and FNV-1a digest, so a change of the in-memory
//!   layout cannot move a byte on the wire. The cases cover k ∈ {5, 16},
//!   column counts that are not a multiple of 64 (a narrow final
//!   partition), an empty row and a row whose every tile is unassigned.
//! * [`read_decomposition`] returns a typed [`WireError`] for Level-2
//!   records the correction plane cannot hold — a repeated or descending
//!   column, a column past the activation, a sign that contradicts the
//!   assigned pattern's bit — and never panics on mutated records; any
//!   mutant it accepts re-encodes to exactly the bytes it read.

use phi_core::wire::{
    read_decomposition, write_decomposition, write_layer_patterns, Reader, WireError,
};
use phi_core::{
    decompose, decompose_cached, CalibrationConfig, Calibrator, Decomposition, LayerMatchIndex,
    TileCache,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use snn_core::SpikeMatrix;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// FNV-1a over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// A seeded decomposition of `rows × cols` activations at width `k`: row
/// 0 is empty, and row 1 holds one bit per partition, which no calibrated
/// pattern can beat (calibration drops one-hot patterns), so all its tiles
/// stay unassigned.
fn seeded(seed: u64, rows: usize, cols: usize, k: usize, q: usize) -> (SpikeMatrix, Decomposition) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut acts = SpikeMatrix::random(rows, cols, 0.3, &mut rng);
    for c in 0..cols {
        acts.set(0, c, false);
        acts.set(1, c, c % k == 0);
    }
    let patterns = Calibrator::new(CalibrationConfig { k, q, ..Default::default() })
        .calibrate(&acts, &mut rng);
    let decomp = decompose(&acts, &patterns);
    (acts, decomp)
}

/// `(seed, rows, cols, k, q)` of a seeded case.
type Case = (u64, usize, usize, usize, usize);

/// Every pinned case, with the length and digest of its bytes.
const GOLDEN: &[(Case, usize, u64)] = &[
    ((1, 40, 77, 5, 16), 4230, 0x086d_39a8_d059_134b),
    ((2, 40, 77, 16, 16), 2854, 0x1f01_144b_b69c_ac6a),
    ((3, 24, 150, 16, 64), 2398, 0xcdc8_d98f_e5d5_c0e8),
    ((4, 24, 300, 5, 32), 10123, 0xc58f_d63f_6ffa_a5f7),
    ((5, 9, 13, 16, 4), 168, 0xab9a_bc0c_5b26_42a2),
];

#[test]
fn decomposition_bytes_are_pinned() {
    for &((seed, rows, cols, k, q), len, digest) in GOLDEN {
        let (acts, decomp) = seeded(seed, rows, cols, k, q);
        assert!(decomp.verify_lossless(&acts));
        assert_eq!(decomp.l2_row(0).len(), 0, "row 0 is empty");
        assert!((0..decomp.num_partitions()).all(|p| decomp.l1_index(1, p).is_none()));
        let cached =
            decompose_cached(&acts, decomp.patterns(), &LayerMatchIndex, &TileCache::disabled());
        assert_eq!(cached, decomp);
        let mut bytes = Vec::new();
        write_decomposition(&decomp, &mut bytes);
        assert_eq!(
            (bytes.len(), fnv1a(&bytes)),
            (len, digest),
            "case {:?}",
            (seed, rows, cols, k, q)
        );
    }
}

/// A row's Level-2 record in an encoding: the offset of its count and of
/// each of its entries.
type Record = (usize, Vec<usize>);

/// The encoding of a pinned case, and the byte offset of every Level-2
/// record in it: per row, its count's offset and its entries' offsets
/// (each a `u32` column, then a sign byte).
fn encoded(case: usize) -> (Decomposition, Vec<u8>, Vec<Record>) {
    let ((seed, rows, cols, k, q), ..) = GOLDEN[case];
    let (_, decomp) = seeded(seed, rows, cols, k, q);
    let mut bytes = Vec::new();
    write_decomposition(&decomp, &mut bytes);
    let mut header = Vec::new();
    write_layer_patterns(decomp.patterns(), &mut header);
    let mut at = 16 + header.len() + 2 * rows * decomp.num_partitions();
    let records = (0..rows)
        .map(|r| {
            let count = decomp.l2_row(r).len();
            let entries = (0..count).map(|i| at + 4 + 5 * i).collect();
            let record = (at, entries);
            at += 4 + 5 * count;
            record
        })
        .collect();
    assert_eq!(at, bytes.len());
    (decomp, bytes, records)
}

fn put(bytes: &mut [u8], at: usize, v: u32) {
    bytes[at..at + 4].copy_from_slice(&v.to_le_bytes());
}

fn get(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap())
}

/// Reads `bytes`, reporting a panic as `None`.
fn read_without_panic(bytes: &[u8]) -> Option<Result<(Decomposition, usize), WireError>> {
    catch_unwind(AssertUnwindSafe(|| {
        let mut r = Reader::new(bytes);
        read_decomposition(&mut r).map(|d| (d, r.position()))
    }))
    .ok()
}

#[test]
fn unrepresentable_level2_records_are_corrupt() {
    let (decomp, bytes, records) = encoded(1);
    let cols = decomp.cols() as u32;
    let (_, entries) =
        records.iter().find(|(_, e)| e.len() >= 2).expect("a row with two corrections");
    let (a, b) = (entries[0], entries[1]);
    let corrupt = |mutate: &dyn Fn(&mut Vec<u8>), what: &str| {
        let mut mutant = bytes.clone();
        mutate(&mut mutant);
        match read_decomposition(&mut Reader::new(&mutant)) {
            Err(WireError::Corrupt { reason, .. }) => {
                assert!(reason.contains(what), "{reason:?} does not say {what:?}")
            }
            other => panic!("expected a corrupt record ({what}), got {other:?}"),
        }
    };
    corrupt(
        &|m| {
            let col = get(m, a);
            put(m, b, col);
        },
        "ascending",
    );
    corrupt(
        &|m| {
            let (ca, cb) = (get(m, a), get(m, b));
            put(m, a, cb);
            put(m, b, ca);
        },
        "ascending",
    );
    let last = *entries.last().unwrap();
    corrupt(&|m| put(m, last, cols), "outside");
    corrupt(&|m| put(m, last, u32::MAX), "outside");
    corrupt(&|m| m[a + 4] ^= 1, "contradicts");
    // A −1 on a tile with no pattern: row 1 is wholly unassigned.
    let (_, row1) = &records[1];
    corrupt(&|m| m[row1[0] + 4] = 1, "contradicts");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// One Level-2 field of a pinned encoding rewritten — a column, a sign
    /// byte or a count — or one byte of the Level-2 region replaced, and
    /// the result possibly truncated: the reader returns a typed error or
    /// a decomposition that re-encodes to the bytes it consumed.
    #[test]
    fn mutated_level2_records_never_panic_the_reader(
        case in 0usize..5,
        field in 0usize..4,
        pick in any::<u64>(),
        value in prop::sample::select(vec![0u32, 1, 2, 15, 16, 63, 64, 76, 77, 255, 1 << 16, u32::MAX]),
        shift in prop::sample::select(vec![-2i64, -1, 0, 1, 2]),
        cut in prop::sample::select(vec![false, false, false, true]),
    ) {
        let (_, bytes, records) = encoded(case);
        let mut rng = StdRng::seed_from_u64(pick);
        let mut mutant = bytes.clone();
        let entries: Vec<usize> = records.iter().flat_map(|(_, e)| e.iter().copied()).collect();
        let l2_start = records[0].0;
        match field {
            0 if !entries.is_empty() => {
                // A column moved next to its neighbours', or replaced.
                let at = entries[rng.gen_range(0..entries.len())];
                let col = get(&mutant, at);
                let moved = if shift == 0 { value } else { (i64::from(col) + shift).max(0) as u32 };
                put(&mut mutant, at, moved);
            }
            1 if !entries.is_empty() => {
                let at = entries[rng.gen_range(0..entries.len())] + 4;
                mutant[at] = [0, 1, 2, 255][(value % 4) as usize];
            }
            2 => {
                let (at, _) = records[rng.gen_range(0..records.len())];
                let count = get(&mutant, at);
                let new = if shift == 0 { value } else { (i64::from(count) + shift).max(0) as u32 };
                put(&mut mutant, at, new);
            }
            _ => {
                let at = rng.gen_range(l2_start..mutant.len());
                mutant[at] = rng.gen_range(0..=255u8);
            }
        }
        if cut {
            mutant.truncate(rng.gen_range(l2_start..mutant.len()));
        }
        let outcome = read_without_panic(&mutant);
        prop_assert!(outcome.is_some(), "case {} field {} panicked", case, field);
        if let Some(Ok((decomp, consumed))) = outcome {
            let mut again = Vec::new();
            write_decomposition(&decomp, &mut again);
            prop_assert_eq!(&again[..], &mutant[..consumed]);
            let entries: usize = (0..decomp.rows()).map(|r| decomp.l2_row(r).len()).sum();
            prop_assert_eq!(decomp.l2_nnz(), entries as u64);
        }
    }
}
