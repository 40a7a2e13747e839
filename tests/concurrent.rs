//! Equivalence battery for the shared-atomic pipeline: a quiesced
//! `ConcurrentMonitor` must match the sequential `Monitor` **exactly**
//! on exact substrates (shared-atomic grids keep the prototype's seeds,
//! so at `p = 1` the quiesced grids are the sequential grids bit for
//! bit; key-partitioned maps and bottom-k unions merge exactly), and
//! within each estimator's typed `Estimate` guarantee on the sketched/
//! statistical ones under real sampling — across thread counts and
//! workloads. The 2-thread cases double as the tier-1 smoke for the
//! concurrent machinery under plain `cargo test -q`.

use std::sync::Arc;

use subsampled_streams::core::{
    ConcurrentConfig, ConcurrentMonitor, Monitor, MonitorBuilder, Statistic,
};
use subsampled_streams::stream::{
    ExactStats, NetFlowStream, PlantedHeavyHitters, StreamGen, ZipfStream,
};

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 7];

fn workloads(n: u64) -> Vec<(&'static str, Vec<u64>)> {
    vec![
        ("zipf", ZipfStream::new(2_000, 1.2).generate(n, 11)),
        (
            "netflow",
            NetFlowStream::new(1 << 20, 1.1, 20_000).generate(n, 12),
        ),
        (
            "planted",
            PlantedHeavyHitters::new(1 << 18, 3, 0.5).generate(n, 13),
        ),
    ]
}

fn full_proto(p: f64) -> Monitor {
    MonitorBuilder::with_seed(p, 2024)
        .f0(0.05)
        .fk(2)
        .entropy(1024)
        .f1_heavy_hitters(0.08, 0.2, 0.05)
        .f2_heavy_hitters(0.4, 0.2, 0.05)
        .build()
}

fn run_concurrent(proto: &Monitor, stream: &Arc<Vec<u64>>, threads: usize) -> Monitor {
    let mut cfg = ConcurrentConfig::new(threads);
    cfg.dispatch_chunk = 8192;
    let mut cm = ConcurrentMonitor::launch(proto, 555, cfg);
    cm.ingest_shared(stream);
    cm.finish()
}

/// At `p = 1` every worker ingests its whole slice, so the shared grids
/// see exactly the original multiset. Integer `fetch_add`s commute:
/// whatever the interleaving, the quiesced CountMin grid equals the
/// sequential one bit for bit, so every heavy item the single monitor
/// reports must appear with an *identical* sketch estimate. Bottom-k
/// `F_0` and collision `F_k` are exact under the key partition.
#[test]
fn p_one_quiesced_state_matches_single_monitor() {
    for (name, stream) in workloads(50_000) {
        let stream = Arc::new(stream);
        let mut single = full_proto(1.0);
        single.update_batch(&stream);
        let f0_single = single.estimate(Statistic::F0).unwrap().value;
        let f2_single = single.estimate(Statistic::Fk(2)).unwrap().value;
        let hh_single = single.estimate(Statistic::F1HeavyHitters).unwrap();

        for threads in THREAD_COUNTS {
            let merged = run_concurrent(&full_proto(1.0), &stream, threads);
            assert_eq!(
                merged.samples_seen(),
                stream.len() as u64,
                "{name}/{threads}: p=1 workers must jointly see everything"
            );
            let f0 = merged.estimate(Statistic::F0).unwrap().value;
            assert_eq!(
                f0, f0_single,
                "{name}/{threads}: key-partitioned F0 is exact"
            );
            let f2 = merged.estimate(Statistic::Fk(2)).unwrap().value;
            assert!(
                (f2 - f2_single).abs() <= 1e-6 * f2_single.abs().max(1.0),
                "{name}/{threads}: collision F2 {f2} vs {f2_single}"
            );
            let hh = merged.estimate(Statistic::F1HeavyHitters).unwrap();
            for (item, freq) in &hh_single.report {
                let got = hh
                    .report
                    .iter()
                    .find(|(i, _)| i == item)
                    .unwrap_or_else(|| {
                        panic!("{name}/{threads}: heavy item {item} lost in quiesce")
                    });
                assert!(
                    (got.1 - freq).abs() <= 1e-9 * freq.max(1.0),
                    "{name}/{threads}: item {item} freq {} vs {freq} (grids must be bitwise equal)",
                    got.1
                );
            }
        }
    }
}

/// Under real sampling the quiesced estimates stay within each typed
/// `Estimate`'s documented guarantee of the exact truth.
#[test]
fn sampled_concurrent_estimates_within_documented_tolerance() {
    let p = 0.25;
    for (name, stream) in workloads(120_000) {
        let stream = Arc::new(stream);
        let exact = ExactStats::from_stream(stream.iter().copied());

        for threads in THREAD_COUNTS {
            let merged = run_concurrent(&full_proto(p), &stream, threads);

            let f2 = merged.estimate(Statistic::Fk(2)).unwrap();
            assert!(
                f2.mult_error(exact.fk(2)) < 1.2,
                "{name}/{threads}: F2 error {}",
                f2.mult_error(exact.fk(2))
            );
            let f0 = merged.estimate(Statistic::F0).unwrap();
            assert!(
                f0.mult_error(exact.f0() as f64) <= 4.0 / p.sqrt(),
                "{name}/{threads}: F0 error {} above 4/√p",
                f0.mult_error(exact.f0() as f64)
            );
            let h = merged.estimate(Statistic::Entropy).unwrap();
            let ratio = h.value / exact.entropy();
            assert!(
                (0.5..=2.0).contains(&ratio),
                "{name}/{threads}: entropy ratio {ratio}"
            );
            assert_eq!(f2.samples_seen, merged.samples_seen());
            assert_eq!(f2.p, p);
        }
    }
}

/// Racy heavy-hitter admission is recall-safe: every planted heavy item
/// must survive concurrent ingestion and quiesce at every thread count.
#[test]
fn planted_heavies_survive_concurrent_quiesce() {
    let n = 150_000;
    let p = 0.3;
    let gen = PlantedHeavyHitters::new(1 << 18, 3, 0.5);
    let stream = Arc::new(gen.generate(n, 29));
    let heavies = gen.heavy_items(29);

    for threads in THREAD_COUNTS {
        let merged = run_concurrent(&full_proto(p), &stream, threads);
        let report = merged.estimate(Statistic::F1HeavyHitters).unwrap().report;
        for h in &heavies {
            assert!(
                report.iter().any(|(i, _)| i == h),
                "{threads} threads: planted heavy {h} missing after quiesce"
            );
        }
    }
}

/// A single worker is bit for bit the single-threaded pipeline:
/// `fork_shard(0)` (whose seed schedule the replicated slots follow;
/// grid and key-sharded slots keep the prototype's seeds, which the
/// fork leaves untouched) plus the worker-0 split sampler, fed the same
/// chunks in order and sampled in the worker's 4096-survivor batches.
#[test]
fn one_worker_equals_the_equivalent_single_threaded_run() {
    use subsampled_streams::hash::split_seed;
    use subsampled_streams::stream::BernoulliSampler;

    let p = 0.2;
    let stream = Arc::new(ZipfStream::new(1_000, 1.1).generate(80_000, 17));
    // `run_concurrent` launches with sampler seed 555 and 8192-element
    // dispatch chunks.
    let sampler_seed = 555;

    let concurrent = run_concurrent(&full_proto(p), &stream, 1);

    let mut single = full_proto(p).fork_shard(0);
    let mut sampler = BernoulliSampler::new(p, split_seed(sampler_seed, 0));
    for chunk in stream.chunks(8192) {
        sampler.sample_batches(chunk, 4096, |batch| single.update_batch(batch));
    }

    assert_eq!(concurrent.samples_seen(), single.samples_seen());
    let bits = |r: &[(u64, f64)]| r.iter().map(|&(i, v)| (i, v.to_bits())).collect::<Vec<_>>();
    let (a, b) = (concurrent.report(), single.report());
    assert_eq!(a.len(), b.len());
    for ((la, ea), (lb, eb)) in a.into_iter().zip(b) {
        assert_eq!(la, lb);
        assert_eq!(
            ea.value.to_bits(),
            eb.value.to_bits(),
            "{la}: concurrent {} vs single {}",
            ea.value,
            eb.value
        );
        assert_eq!(bits(&ea.report), bits(&eb.report), "{la}: report entries");
    }
}

/// The quiesced monitor is a plain `Monitor`: it checkpoints through
/// the codec and restores to the same answers, so the transport/delta/
/// window layers need no concurrent-specific handling.
#[test]
fn quiesced_monitor_round_trips_through_the_codec() {
    let stream = Arc::new(ZipfStream::new(500, 1.2).generate(30_000, 23));
    let merged = run_concurrent(&full_proto(0.5), &stream, 2);
    let bytes = merged.checkpoint().expect("quiesced monitor checkpoints");
    let restored = Monitor::restore(&bytes).expect("round-trip");
    assert_eq!(restored.samples_seen(), merged.samples_seen());
    for ((la, ea), (lb, eb)) in restored.report().into_iter().zip(merged.report()) {
        assert_eq!(la, lb);
        assert_eq!(ea.value, eb.value, "{la}: restore must be value-exact");
    }
}
