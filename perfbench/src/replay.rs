//! Replay probes: work that sits behind one public call, timed apart on
//! the run's own inputs after the measured loop.
//!
//! * the per-statistic cost of `Monitor::update_batch`, by feeding the
//!   run's survivors through monitors that register one statistic each;
//! * the batch hash kernels (`reduce_inputs`, `hash_range_batch`) on the
//!   same survivors;
//! * the delta a site computes inside `SiteClient::push_wire`, and the
//!   collector's delta apply, restore and merge probe, on the last two
//!   snapshots the run pushed.

use std::collections::BTreeMap;
use std::time::Instant;

use sss_core::{apply_snapshot_delta, snapshot_delta, Monitor};
use sss_hash::{reduce_inputs, PairwiseHash};

use crate::pipeline::{Outcome, BATCH};
use crate::stats::median;

/// Timed repetitions of each short probe; the median is reported.
const REPS: usize = 3;

/// Range of the replayed `hash_range_batch` (a CountMin row's width).
const HASH_RANGE: usize = 1 << 16;

/// Median over [`REPS`] runs of `f`, in nanoseconds.
fn time_ns(mut f: impl FnMut()) -> f64 {
    let v: Vec<f64> = (0..REPS)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_nanos() as f64
        })
        .collect();
    median(&v)
}

/// Run every probe. `singles` are pristine one-statistic monitors keyed
/// by the statistic's short name.
pub fn probe(out: &Outcome, singles: &[(&'static str, Monitor)]) -> BTreeMap<String, f64> {
    let mut m = BTreeMap::new();
    let xs = &out.survivors;
    let per_sample = |ns: f64| {
        if xs.is_empty() {
            0.0
        } else {
            ns / xs.len() as f64
        }
    };

    let mut reduced = Vec::with_capacity(BATCH);
    let reduce_ns = time_ns(|| {
        for c in xs.chunks(BATCH) {
            reduce_inputs(std::hint::black_box(c), &mut reduced);
        }
        std::hint::black_box(&reduced);
    });
    m.insert("hash.reduce.ns_per_sample".into(), per_sample(reduce_ns));
    let h = PairwiseHash::new(0x5eed);
    let residues: Vec<Vec<u64>> = xs
        .chunks(BATCH)
        .map(|c| {
            let mut r = Vec::new();
            reduce_inputs(c, &mut r);
            r
        })
        .collect();
    let mut cells = vec![0usize; BATCH];
    let range_ns = time_ns(|| {
        for r in &residues {
            h.hash_range_batch(std::hint::black_box(r), HASH_RANGE, &mut cells);
        }
        std::hint::black_box(&cells);
    });
    m.insert("hash.range.ns_per_sample".into(), per_sample(range_ns));

    for (name, single) in singles {
        let mut mon = single.clone();
        let t0 = Instant::now();
        for c in xs.chunks(BATCH) {
            mon.update_batch(c);
        }
        let ns = t0.elapsed().as_nanos() as f64;
        std::hint::black_box(&mon);
        m.insert(
            format!("core.update_batch.{name}.ns_per_sample"),
            per_sample(ns),
        );
    }

    let (base, target) = (&out.snapshots.base, &out.snapshots.target);
    let (mut delta_us, mut delta_bytes, mut apply_us, mut restore_us, mut merge_us) =
        (0.0, 0.0, 0.0, 0.0, 0.0);
    if !target.is_empty() {
        let restored = Monitor::restore(target).expect("replayed snapshot restores");
        restore_us = time_ns(|| {
            std::hint::black_box(Monitor::restore(target).ok());
        }) / 1e3;
        merge_us = time_ns(|| {
            let mut probe = out.prototype.clone();
            std::hint::black_box(probe.try_merge(&restored).is_ok());
        }) / 1e3;
    }
    // Only a site that ships deltas computes one, and only then does the
    // collector apply one.
    if out.pushes_delta > 0 && !base.is_empty() && !target.is_empty() {
        let delta = snapshot_delta(base, target);
        delta_bytes = delta.len() as f64;
        delta_us = time_ns(|| {
            std::hint::black_box(snapshot_delta(base, target));
        }) / 1e3;
        apply_us = time_ns(|| {
            std::hint::black_box(apply_snapshot_delta(base, &delta).ok());
        }) / 1e3;
    }
    m.insert("codec.delta.us".into(), delta_us);
    m.insert("codec.delta.bytes".into(), delta_bytes);
    m.insert("codec.delta_apply.us".into(), apply_us);
    m.insert("codec.restore.us".into(), restore_us);
    m.insert("core.merge.us".into(), merge_us);
    m
}
