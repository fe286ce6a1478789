//! The counting simulator == the building simulator, property-tested.
//!
//! [`PhiSimulator::run_decomposition`] reads each row once: its Level-1
//! index slice gives the window counts (L1 cycles and the row's assigned
//! tiles) and the PWP prefetch bitsets, its Level-2 plane words the
//! packer's per-partition counts and the row's correction count; the
//! packer steps thirty-two partitions at a time in AVX2 lanes (a
//! [`PackCounter`] per partition at `PHI_SIMD=scalar`, off x86-64 and past
//! four packer windows). The oracle here is the walk it replaced: L1
//! cycles and assigned tiles from one `l1_index` call per tile, every
//! partition's Level-2 rows collected into `Vec`s and packed by
//! [`pack_rows`], and one `HashSet` of prefetched patterns per (m-tile,
//! partition). Every `LayerReport` field must agree to the bit, the
//! per-row work included, across several m-tiles, 1 to 288 partitions (up
//! to 9 lane groups, the last one ragged), widths that divide 64 and
//! widths whose partitions straddle plane words (k = 5, 12, 20), L1
//! windows of 1 to 100 indices (past one bitmap word) and 1–8 adder
//! channels, dense
//! k = 64 tiles whose oversize rows split into many chunks, 2–9 and 254
//! pack units, 1–6 packer windows, 1–64 psum banks, pattern sets larger
//! than 64, the per-tile prefetch branch and `row_scale != 1` — and on the
//! `phibench fullsim` batches of VGG-16, layer by layer.
//!
//! A second copy, of the packer's placement rule, pins [`pack_rows`] and
//! [`PackCounter`] to the rule itself on random row streams.

use phi_accel::energy::BusyCycles;
use phi_accel::l1::L1Model;
use phi_accel::l2::L2Model;
use phi_accel::matcher::MatcherModel;
use phi_accel::neuron::NeuronArrayModel;
use phi_accel::packer::{pack_rows, Pack, PackCounter, PackUnit, PackerConfig};
use phi_accel::report::CycleBreakdown;
use phi_accel::tiling::TileSchedule;
use phi_accel::{LayerReport, PhiConfig, PhiSimulator, RowWork, TrafficReport};
use phi_core::{
    decompose, CalibrationConfig, Calibrator, Decomposition, LayerPatterns, Pattern, PatternSet,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use snn_core::{GemmShape, SpikeMatrix};
use snn_workloads::{DatasetId, ModelId, WorkloadConfig};
use std::collections::HashSet;

/// One row's Level-2 corrections for one partition, in the packer's input
/// form: `(row id, [(local column, is_negative)])`.
type PackerRow = (u32, Vec<(u8, bool)>);

/// L1 cycles of rows `lo..hi`, one `l1_index` lookup per tile.
fn oracle_l1_cycles(model: &L1Model, decomp: &Decomposition, lo: usize, hi: usize) -> u64 {
    let parts = decomp.num_partitions();
    let mut cycles = 0u64;
    for r in lo..hi.min(decomp.rows()) {
        let mut part = 0;
        while part < parts {
            let end = (part + model.window).min(parts);
            let nnz = (part..end).filter(|&p| decomp.l1_index(r, p).is_some()).count();
            cycles += (nnz.div_ceil(model.channels)).max(1) as u64;
            part = end;
        }
    }
    cycles
}

/// L1 accumulations of rows `lo..hi`, one `l1_index` lookup per tile.
fn oracle_l1_accumulations(decomp: &Decomposition, lo: usize, hi: usize) -> u64 {
    (lo..hi.min(decomp.rows()))
        .map(|r| {
            (0..decomp.num_partitions()).filter(|&p| decomp.l1_index(r, p).is_some()).count() as u64
        })
        .sum()
}

/// The traffic report with one `HashSet` per (m-tile, partition).
fn oracle_traffic(
    decomp: &Decomposition,
    n: usize,
    packs: u64,
    occupied_units: u64,
    config: &PhiConfig,
    row_scale: f64,
) -> TrafficReport {
    let rows = decomp.rows() as f64;
    let cols = decomp.cols() as f64;
    let parts = decomp.num_partitions();
    let act_dense = rows * cols / 8.0;
    let index_bytes = rows * parts as f64;
    let act_uncompressed = rows * cols / 8.0 + decomp.l2_nnz() as f64 + index_bytes;
    let act_compressed = occupied_units as f64 + 2.0 * packs as f64 + index_bytes;
    let weight_dense = cols * n as f64 * config.weight_bytes as f64;
    let pwp_no_prefetch =
        (parts * config.patterns_per_partition) as f64 * n as f64 * config.pwp_bytes as f64;

    let m_tiles = decomp.rows().div_ceil(config.tile_m);
    let mut per_tile_used = 0u64;
    let mut union_used: Vec<HashSet<u16>> = vec![HashSet::new(); parts];
    for mt in 0..m_tiles {
        let row_lo = mt * config.tile_m;
        let row_hi = (row_lo + config.tile_m).min(decomp.rows());
        for (part, union) in union_used.iter_mut().enumerate() {
            let mut tile_set = HashSet::new();
            for r in row_lo..row_hi {
                if let Some(idx) = decomp.l1_index(r, part) {
                    tile_set.insert(idx);
                    union.insert(idx);
                }
            }
            per_tile_used += tile_set.len() as u64;
        }
    }
    let union_count: u64 = union_used.iter().map(|s| s.len() as u64).sum();
    let union_bytes = union_count as f64 * n as f64 * config.pwp_bytes as f64;
    let pwp_prefetch = if union_bytes <= config.pwp_buffer_bytes as f64 {
        union_bytes
    } else {
        per_tile_used as f64 * n as f64 * config.pwp_bytes as f64
    };
    let act_out = rows * n as f64 / 8.0;
    let mut report = TrafficReport {
        act_dense: act_dense * row_scale,
        act_uncompressed: act_uncompressed * row_scale,
        act_compressed: act_compressed * row_scale,
        weight_dense,
        pwp_no_prefetch,
        pwp_prefetch: if union_bytes <= config.pwp_buffer_bytes as f64 {
            pwp_prefetch
        } else {
            pwp_prefetch * row_scale
        },
        act_out: act_out * row_scale,
    };
    if report.pwp_prefetch > report.pwp_no_prefetch {
        report.pwp_prefetch = report.pwp_no_prefetch;
    }
    report
}

/// The layer report from built packs and collected rows.
fn oracle_report(
    sim: &PhiSimulator,
    decomp: &Decomposition,
    shape: GemmShape,
    row_scale: f64,
) -> LayerReport {
    let config = sim.config();
    let rows = decomp.rows();
    let k = decomp.k();
    let parts = decomp.num_partitions();
    let schedule = TileSchedule::new(rows, decomp.cols(), shape.n, config.tile_m, k, config.tile_n);
    let n_tiles = schedule.n_tiles() as f64;
    let l1_model = L1Model::new(config.l1_window, config.channels);
    let l2_model = L2Model::new(config.channels);
    let packer_config = PackerConfig {
        pack_units: config.pack_units,
        windows: config.packer_windows,
        psum_banks: config.psum_banks,
    };

    let mut l1_cycles = 0.0f64;
    let mut l2_cycles = 0.0f64;
    let mut compute_cycles = 0.0f64;
    let mut total_packs = 0u64;
    let mut occupied_units = 0u64;
    let mut oversize_rows = 0u64;
    let mut row_work = Vec::new();
    for mt in 0..schedule.m_tiles() {
        let (lo, hi) = schedule.m_range(mt);
        let l1_mt = oracle_l1_cycles(&l1_model, decomp, lo, hi) as f64;
        let mut per_part: Vec<Vec<PackerRow>> = vec![Vec::new(); parts];
        for r in lo..hi.min(rows) {
            let row: Vec<_> = decomp.l2_row(r).collect();
            row_work.push(RowWork {
                assigned: oracle_l1_accumulations(decomp, r, r + 1) as u32,
                corrections: row.len() as u32,
            });
            let mut i = 0;
            while i < row.len() {
                let part = row[i].col as usize / k;
                let mut entries = Vec::new();
                while i < row.len() && row[i].col as usize / k == part {
                    entries.push(((row[i].col as usize - part * k) as u8, row[i].value < 0));
                    i += 1;
                }
                per_part[part].push(((r - lo) as u32, entries));
            }
        }
        let mut packs_mt = 0u64;
        for rows_entries in &per_part {
            let output =
                pack_rows(rows_entries.iter().map(|(r, e)| (*r, e.as_slice())), &packer_config);
            packs_mt += output.packs.len() as u64;
            occupied_units += output.packs.iter().map(|p| p.units.len() as u64).sum::<u64>();
            oversize_rows += output.oversize_rows;
        }
        let l2_mt = l2_model.cycles(packs_mt) as f64;
        total_packs += packs_mt;
        l1_cycles += l1_mt * n_tiles;
        l2_cycles += l2_mt * n_tiles;
        compute_cycles += l1_mt.max(l2_mt) * n_tiles;
    }

    let matcher = MatcherModel::new(config.patterns_per_partition, config.matcher_lanes);
    let preproc_cycles = matcher.cycles(rows, parts) as f64;
    let lif_cycles = NeuronArrayModel::new(config.tile_n).cycles(rows, shape.n) as f64;
    let traffic = oracle_traffic(decomp, shape.n, total_packs, occupied_units, config, row_scale);
    let energy_model = sim.energy_model();
    let dram_cycles =
        energy_model.dram.transfer_cycles(traffic.total_bytes(config), config.frequency_hz);
    let breakdown = CycleBreakdown {
        preprocessor: preproc_cycles * row_scale,
        l1: l1_cycles * row_scale,
        l2: l2_cycles * row_scale,
        compute: compute_cycles * row_scale,
        lif: lif_cycles * row_scale,
        dram: dram_cycles,
    };
    let cycles =
        breakdown.compute.max(breakdown.preprocessor).max(breakdown.lif).max(breakdown.dram);
    let busy = BusyCycles {
        preprocessor: breakdown.preprocessor,
        l1: breakdown.l1,
        l2: breakdown.l2,
        lif: breakdown.lif,
        elapsed: cycles,
    };
    let energy = energy_model.energy(&busy, traffic.total_bytes(config), config);
    let pack_occupancy = if total_packs == 0 {
        0.0
    } else {
        occupied_units as f64 / (total_packs * config.pack_units as u64) as f64
    };
    let stats = decomp.stats();
    LayerReport {
        name: "layer".to_owned(),
        cycles,
        breakdown,
        traffic,
        energy,
        bit_ops: stats.bit_nnz as f64 * row_scale * shape.n as f64,
        stats,
        pack_occupancy,
        oversize_rows,
        row_work,
    }
}

/// Every f64 of a report, as bits, in a fixed order.
fn report_bits(r: &LayerReport) -> Vec<u64> {
    let b = &r.breakdown;
    let t = &r.traffic;
    let e = &r.energy;
    [
        r.cycles,
        b.preprocessor,
        b.l1,
        b.l2,
        b.compute,
        b.lif,
        b.dram,
        t.act_dense,
        t.act_uncompressed,
        t.act_compressed,
        t.weight_dense,
        t.pwp_no_prefetch,
        t.pwp_prefetch,
        t.act_out,
        e.core_j,
        e.buffer_j,
        e.dram_j,
        r.bit_ops,
        r.pack_occupancy,
    ]
    .iter()
    .map(|x| x.to_bits())
    .collect()
}

/// A decomposition whose tiles mostly copy one of `q` random patterns
/// (so high pattern indices are really assigned), with noise bits, a
/// share of unstructured tiles and a `dense` share of all-ones tiles
/// (every bit a correction in a partition with an empty set). The last
/// partition is ragged when `cols % k != 0`; some partitions get an empty
/// set.
fn random_decomposition(
    rows: usize,
    k: usize,
    cols: usize,
    q: usize,
    dense: f64,
    seed: u64,
) -> Decomposition {
    let mut rng = StdRng::seed_from_u64(seed);
    let parts = cols.div_ceil(k);
    let mask = if k == 64 { u64::MAX } else { (1u64 << k) - 1 };
    let sets: Vec<PatternSet> = (0..parts)
        .map(|p| {
            let len = if p % 5 == 4 { 0 } else { q };
            PatternSet::new(k, (0..len).map(|_| Pattern::new(rng.gen::<u64>() & mask, k)).collect())
        })
        .collect();
    let tiles: Vec<u64> = (0..rows * parts)
        .map(|i| {
            let set = &sets[i % parts];
            let noise =
                |rng: &mut StdRng| (0..k).fold(0u64, |w, b| w | ((rng.gen_bool(0.05) as u64) << b));
            if rng.gen_bool(dense) {
                mask
            } else if !set.is_empty() && rng.gen_bool(0.7) {
                set.pattern(rng.gen_range(0..set.len())).bits() ^ noise(&mut rng)
            } else {
                (0..k).fold(0u64, |w, b| w | ((rng.gen_bool(0.3) as u64) << b))
            }
        })
        .collect();
    let acts =
        SpikeMatrix::from_fn(rows, cols, |r, c| (tiles[r * parts + c / k] >> (c % k)) & 1 == 1);
    decompose(&acts, &LayerPatterns::new(k, sets))
}

/// One copy of the packer's placement rule, kept apart from the library:
/// first window with room and no bank conflict, else flush the fullest
/// (the last one on ties); oversize rows split into `pack_units - 1`
/// chunks, each behind its own partial-sum unit.
fn rule_pack(rows: &[PackerRow], config: &PackerConfig) -> (Vec<Pack>, u64, u64) {
    let mut windows: Vec<(Vec<PackUnit>, u32, u64)> = vec![(Vec::new(), 0, 0); config.windows];
    let (mut packs, mut oversize, mut forced) = (Vec::new(), 0u64, 0u64);
    for (row, entries) in rows {
        let row = *row;
        let capacity = config.pack_units - 1;
        if entries.len() > capacity {
            oversize += 1;
        }
        let bank = 1u64 << (row as usize % config.psum_banks);
        for chunk in entries.chunks(capacity) {
            loop {
                let slot = windows.iter().position(|(units, _, banks)| {
                    units.len() + chunk.len() < config.pack_units && banks & bank == 0
                });
                if let Some(i) = slot {
                    let (units, rows, banks) = &mut windows[i];
                    units.push(PackUnit::PartialSum { row });
                    units.extend(chunk.iter().map(|&(col, negative)| PackUnit::Nonzero {
                        row,
                        col,
                        negative,
                    }));
                    *rows += 1;
                    *banks |= bank;
                    break;
                }
                let mut fullest = 0;
                for (i, w) in windows.iter().enumerate() {
                    if w.0.len() >= windows[fullest].0.len() {
                        fullest = i;
                    }
                }
                let (units, rows, _) = std::mem::take(&mut windows[fullest]);
                packs.push(Pack { units, rows });
                forced += 1;
            }
        }
    }
    for (units, rows, _) in windows {
        if !units.is_empty() {
            packs.push(Pack { units, rows });
        }
    }
    (packs, oversize, forced)
}

/// The `phibench fullsim` shape: VGG-16 calibrated as
/// `CompileOptions::default()` does (layer `i` with seed `7 + i`), eight
/// pool batches of 32 four-row requests, every layer decomposed fused and
/// simulated at the executor's row scale. `phibench` derives its expected
/// cycles from this same simulator, so only this suite can catch a
/// counting error on that workload.
#[test]
fn vgg16_fullsim_batches_match_the_building_walk() {
    let workload = WorkloadConfig::new(ModelId::Vgg16, DatasetId::Cifar10).generate();
    let calibrator = Calibrator::new(CalibrationConfig::default());
    let patterns: Vec<LayerPatterns> = workload
        .layers
        .iter()
        .enumerate()
        .map(|(i, l)| {
            calibrator.calibrate(&l.calibration, &mut StdRng::seed_from_u64(7 + i as u64))
        })
        .collect();
    let sim = PhiSimulator::new(PhiConfig::default());
    let requests = workload.sample_client_requests(1 << 20, 8 * 32, 4, 1);
    for batch in requests.chunks(32) {
        for (l, layer) in workload.layers.iter().enumerate() {
            let frames: Vec<&SpikeMatrix> = batch.iter().map(|r| &r[l]).collect();
            let decomp =
                decompose(&SpikeMatrix::vstack(&frames).expect("one layer width"), &patterns[l]);
            let row_scale = workload.request_row_scale(l, decomp.rows());
            let got = sim.run_decomposition(&decomp, layer.spec.shape, row_scale, "layer");
            let want = oracle_report(&sim, &decomp, layer.spec.shape, row_scale);
            let name = &layer.spec.name;
            assert_eq!(report_bits(&got), report_bits(&want), "{name}");
            assert_eq!(got.oversize_rows, want.oversize_rows, "{name}");
            assert_eq!(got.stats, want.stats, "{name}");
            assert_eq!(got.row_work, want.row_work, "{name}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The counting walk reports exactly what the building walk reports.
    #[test]
    fn run_decomposition_matches_the_building_walk(
        rows in 1usize..300,
        k in prop::sample::select(vec![4usize, 5, 8, 12, 16, 20, 64]),
        // One or two lane groups, and nine full ones one case in six.
        parts in prop::sample::select((1usize..40).chain([288; 8]).collect::<Vec<_>>()),
        ragged in 0usize..4,
        q in prop::sample::select(vec![1usize, 7, 64, 65, 130, 200]),
        dense in prop::sample::select(vec![0.0f64, 0.5]),
        tile_m in prop::sample::select(vec![1usize, 3, 16, 64, 256]),
        l1_window in prop::sample::select(vec![1usize, 5, 16, 16, 48, 100]),
        channels in prop::sample::select(vec![1usize, 3, 8, 8]),
        pack_units in prop::sample::select((2usize..10).chain([254]).collect::<Vec<_>>()),
        packer_windows in 1usize..7,
        psum_banks in 1usize..65,
        pwp_buffer_bytes in prop::sample::select(vec![0usize, 96, 4096, 64 << 10]),
        n in 1usize..100,
        row_scale in prop::sample::select(vec![1.0f64, 0.5, 2.5, 7.0]),
        switches in 0u8..4,
        seed in any::<u64>(),
    ) {
        let cols = (parts * k).saturating_sub(ragged.min(k - 1));
        let decomp = random_decomposition(rows, k, cols, q, dense, seed);
        let config = PhiConfig {
            tile_m,
            l1_window,
            channels,
            pack_units,
            packer_windows,
            psum_banks,
            pwp_buffer_bytes,
            prefetch: switches & 1 == 0,
            compress: switches & 2 == 0,
            ..PhiConfig::default()
        };
        let sim = PhiSimulator::new(config);
        let shape = GemmShape::new(rows, cols, n);
        let got = sim.run_decomposition(&decomp, shape, row_scale, "layer");
        let want = oracle_report(&sim, &decomp, shape, row_scale);
        prop_assert_eq!(report_bits(&got), report_bits(&want));
        prop_assert_eq!(got.stats, want.stats);
        prop_assert_eq!(got.oversize_rows, want.oversize_rows);
        prop_assert_eq!(&got.name, &want.name);
        prop_assert_eq!(&got.row_work, &want.row_work);
    }

    /// `PackCounter` counts what `pack_rows` builds, and `pack_rows`
    /// builds what the placement rule says, on random row streams.
    #[test]
    fn pack_counter_matches_pack_rows(
        len in 0usize..120,
        max_nnz in 1usize..20,
        row_span in prop::sample::select(vec![4u32, 64, 65, 500]),
        pack_units in 2usize..10,
        windows in 1usize..5,
        psum_banks in 1usize..65,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let stream: Vec<PackerRow> = (0..len)
            .map(|_| {
                let nnz = rng.gen_range(1..=max_nnz);
                let entries = (0..nnz).map(|_| (rng.gen_range(0..16u8), rng.gen_bool(0.5))).collect();
                (rng.gen_range(0..row_span), entries)
            })
            .collect();
        let config = PackerConfig { pack_units, windows, psum_banks };
        let built = pack_rows(stream.iter().map(|(r, e)| (*r, e.as_slice())), &config);
        let (packs, oversize, forced) = rule_pack(&stream, &config);
        prop_assert_eq!(&built.packs, &packs);
        prop_assert_eq!(built.oversize_rows, oversize);
        prop_assert_eq!(built.forced_flushes, forced);

        let mut counter = PackCounter::new(&config);
        // Twice: `finish` must leave the counter as good as new.
        for _ in 0..2 {
            for (row, entries) in &stream {
                counter.push_row(*row, entries.len());
            }
            let counts = counter.finish();
            prop_assert_eq!(counts.packs, built.packs.len() as u64);
            prop_assert_eq!(counts.occupied_units, built.packs.iter().map(|p| p.occupancy() as u64).sum::<u64>());
            prop_assert_eq!(counts.oversize_rows, built.oversize_rows);
        }
    }
}
