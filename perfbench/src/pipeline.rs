//! What every workload shares: the monitors, the collector, one push,
//! one query, the correctness checks and the record of one measured
//! loop.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use sss_core::{theorem6_min_f1, theorem7_min_sqrt_f2, Estimate, Monitor, MonitorBuilder};
use sss_hash::split_seed;
use sss_stream::{BernoulliSampler, ExactStats};
use sss_transport::{ClientConfig, CollectorServer, PushOutcome, ServerConfig, SiteClient};

use crate::trace::Tracer;

/// Survivors handed to the monitor per batch.
pub const BATCH: usize = 4096;

/// Parameters of a registered heavy-hitter estimator.
#[derive(Debug, Clone, Copy)]
pub struct HhParams {
    pub alpha: f64,
    pub eps: f64,
    pub delta: f64,
}

/// Zipf workloads: sampling rate and the heavy-hitter estimators of the
/// five-statistic monitor.
pub const ZIPF_P: f64 = 0.25;
pub const ZIPF_HH_F1: HhParams = HhParams {
    alpha: 0.05,
    eps: 0.2,
    delta: 0.05,
};
pub const ZIPF_HH_F2: HhParams = HhParams {
    alpha: 0.3,
    eps: 0.2,
    delta: 0.05,
};

/// Zipf workloads: universe size and exponent of the raw stream.
pub const ZIPF_KEYS: u64 = 1 << 20;
pub const ZIPF_S: f64 = 1.1;

/// Seed lanes: every input and sketch seed is `split_seed(--seed, lane)`.
pub const LANE_STREAM: u64 = 1;
pub const LANE_SAMPLER: u64 = 2;
pub const LANE_SKETCH: u64 = 3;

/// Statistic labels of the five-statistic monitor, with the short names
/// the per-layer metrics use.
pub const STAT_NAMES: [(&str, &str); 5] = [
    ("F0", "f0"),
    ("F2", "fk2"),
    ("entropy", "entropy"),
    ("hh_f1", "hh_f1"),
    ("hh_f2", "hh_f2"),
];

/// The five-statistic monitor of the Zipf workloads: F0, F2, entropy,
/// and F1 and F2 heavy hitters.
pub fn zipf_prototype(sketch_seed: u64) -> Monitor {
    MonitorBuilder::with_seed(ZIPF_P, sketch_seed)
        .f0(0.05)
        .fk(2)
        .entropy(2000)
        .f1_heavy_hitters(ZIPF_HH_F1.alpha, ZIPF_HH_F1.eps, ZIPF_HH_F1.delta)
        .f2_heavy_hitters(ZIPF_HH_F2.alpha, ZIPF_HH_F2.eps, ZIPF_HH_F2.delta)
        .build()
}

/// One pristine monitor per statistic of [`zipf_prototype`], keyed by
/// the statistic's short name (for the replay probes).
pub fn zipf_singles(sketch_seed: u64) -> Vec<(&'static str, Monitor)> {
    let b = || MonitorBuilder::with_seed(ZIPF_P, sketch_seed);
    vec![
        ("f0", b().f0(0.05).build()),
        ("fk2", b().fk(2).build()),
        ("entropy", b().entropy(2000).build()),
        (
            "hh_f1",
            b().f1_heavy_hitters(ZIPF_HH_F1.alpha, ZIPF_HH_F1.eps, ZIPF_HH_F1.delta)
                .build(),
        ),
        (
            "hh_f2",
            b().f2_heavy_hitters(ZIPF_HH_F2.alpha, ZIPF_HH_F2.eps, ZIPF_HH_F2.delta)
                .build(),
        ),
    ]
}

/// A collector on a loopback port that merges snapshots into
/// `prototype`.
pub fn bind_collector(prototype: &Monitor) -> CollectorServer {
    CollectorServer::bind("127.0.0.1:0", prototype.clone(), ServerConfig::default())
        .expect("bind loopback collector")
}

/// A site connected (handshake done) to `collector`; `delta_pushes`
/// lets it ship a push as a diff against its last acked snapshot.
pub fn connect_site(collector: &CollectorServer, site_id: u64, delta_pushes: bool) -> SiteClient {
    let mut cfg = ClientConfig::new(site_id, format!("site-{site_id}"));
    cfg.ack_timeout = Duration::from_secs(60);
    cfg.delta_pushes = delta_pushes;
    SiteClient::connect(collector.local_addr(), cfg).expect("connect site to collector")
}

/// Run `setup` `times` times and keep the last result; also return the
/// median set-up time in seconds. Earlier results are dropped before
/// the next set-up starts, so only one is alive at a time.
pub fn repeated_setup<S>(times: usize, mut setup: impl FnMut() -> S) -> (S, f64) {
    let mut secs = Vec::with_capacity(times);
    let mut last = None;
    for _ in 0..times.max(1) {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(setup());
        secs.push(t0.elapsed().as_secs_f64());
    }
    (
        last.expect("at least one set-up ran"),
        crate::stats::median(&secs),
    )
}

/// Sample `data` and feed the survivors to `monitor` in batches;
/// returns the survivor count.
pub fn feed(
    tr: &mut Tracer,
    sampler: &mut BernoulliSampler,
    data: &[u64],
    monitor: &mut Monitor,
) -> u64 {
    let mut survivors = 0u64;
    tr.span("stream.sample", |tr| {
        sampler.sample_batches(data, BATCH, |b| {
            survivors += b.len() as u64;
            tr.span("core.update_batch", |_| monitor.update_batch(b));
        })
    });
    survivors
}

/// The last two snapshots a site pushed (kept in traced runs only): the
/// collector-side replays rebuild the last push from them.
#[derive(Default, Clone)]
pub struct SnapshotPair {
    pub base: Vec<u8>,
    pub target: Vec<u8>,
}

/// One push as a site makes it: checkpoint, then `push_wire` until the
/// ack. Returns the snapshot size and whether the push was accepted.
pub fn push(
    tr: &mut Tracer,
    monitor: &Monitor,
    client: &mut SiteClient,
    keep: Option<&mut SnapshotPair>,
) -> Result<usize, String> {
    let wire = tr
        .span("codec.checkpoint", |_| monitor.checkpoint())
        .map_err(|e| format!("checkpoint failed: {e}"))?;
    let len = wire.len();
    if let Some(pair) = keep {
        pair.base = std::mem::replace(&mut pair.target, wire.clone());
    }
    match tr.span("transport.push_wire", |_| client.push_wire(wire)) {
        Ok(PushOutcome::Accepted) => Ok(len),
        Ok(other) => Err(format!("push not accepted: {other:?}")),
        Err(e) => Err(format!("push failed: {e}")),
    }
}

/// One collector-visible answer: the merged view, then every registered
/// statistic's estimate.
pub fn query(tr: &mut Tracer, collector: &CollectorServer) -> Vec<(String, Estimate)> {
    let view = tr.span("transport.merged", |_| collector.merged());
    tr.span("core.estimate", |_| view.report())
}

/// Operations and correctness checks made, and the ones that failed.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Checks {
    /// Count one operation or check; record `what` if it failed.
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(what());
            }
        }
    }

    /// Count one operation that returned a result.
    pub fn expect_ok<T>(&mut self, r: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                if self.failures.len() < 20 {
                    self.failures.push(e);
                }
                None
            }
        }
    }

    pub fn absorb(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
        self.failures.truncate(20);
    }
}

/// Whether two reports agree label for label, with every number equal
/// bit for bit.
pub fn bitwise_equal(a: &[(String, Estimate)], b: &[(String, Estimate)]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|((la, ea), (lb, eb))| {
            la == lb
                && ea.value.to_bits() == eb.value.to_bits()
                && ea.samples_seen == eb.samples_seen
                && ea.report.len() == eb.report.len()
                && ea
                    .report
                    .iter()
                    .zip(&eb.report)
                    .all(|(x, y)| x.0 == y.0 && x.1.to_bits() == y.1.to_bits())
        })
}

/// Check the collector's answer against the same site monitors merged
/// in memory (ascending site id), the contract `CollectorServer::merged`
/// documents.
pub fn check_against_memory(
    checks: &mut Checks,
    prototype: &Monitor,
    sites: &[&Monitor],
    collector_report: &[(String, Estimate)],
) {
    let mut mem = prototype.clone();
    let merged = sites.iter().all(|s| mem.try_merge(s).is_ok());
    checks.expect(merged, || "site monitors do not merge in memory".into());
    let mem_report = mem.report();
    checks.expect(bitwise_equal(&mem_report, collector_report), || {
        "collector estimates differ from the in-memory merge".into()
    });
}

/// Score every estimate of `report` against the exact statistics of the
/// stream it summarises, sampled at rate `p`: each must be finite, and
/// every true heavy hitter must be reported wherever the stream lies
/// inside the regime of Theorem 6 (F1) or Theorem 7 (F2), outside of
/// which the paper guarantees nothing. Returns the largest
/// multiplicative error of a scalar estimate.
pub fn score(
    checks: &mut Checks,
    report: &[(String, Estimate)],
    exact: &ExactStats,
    p: f64,
    hh_f1: HhParams,
    hh_f2: HhParams,
) -> f64 {
    let n = exact.n();
    let mut worst: f64 = 1.0;
    for (label, est) in report {
        checks.expect(est.value.is_finite(), || format!("{label} is not finite"));
        let mut expect_reported = |truth: Vec<(u64, u64)>| {
            for (item, _) in truth {
                let found = est.report.iter().any(|(x, _)| *x == item);
                checks.expect(found, || format!("{label} misses {item}"));
            }
        };
        let truth = match label.as_str() {
            "F0" => Some(exact.f0() as f64),
            "F2" => Some(exact.fk(2)),
            "entropy" => Some(exact.entropy()),
            "hh_f1" => {
                let h = hh_f1;
                if n as f64 >= theorem6_min_f1(p, h.alpha, h.eps, h.delta, n) {
                    expect_reported(exact.heavy_hitters_f1(h.alpha));
                }
                None
            }
            "hh_f2" => {
                let h = hh_f2;
                if exact.fk(2).sqrt() >= theorem7_min_sqrt_f2(p, h.alpha, h.eps, h.delta, n) {
                    expect_reported(exact.heavy_hitters_f2(h.alpha));
                }
                None
            }
            other => {
                checks.expect(false, || format!("unexpected statistic {other}"));
                None
            }
        };
        if let Some(t) = truth {
            let err = est.mult_error(t);
            checks.expect(err.is_finite(), || format!("{label} error is not finite"));
            worst = worst.max(err);
        }
    }
    worst
}

/// The sampler seed of pass (or site) `pass` of a run seeded `seed`.
pub fn sampler_seed(seed: u64, pass: u64) -> u64 {
    split_seed(split_seed(seed, LANE_SAMPLER), pass)
}

/// The record of one measured loop.
pub struct Outcome {
    /// Wall time of the measured passes or rounds (set-up, construction
    /// before a pass and the correctness checks after it excluded).
    pub loop_ns: u64,
    /// Raw elements offered to the sampler in the loop.
    pub raw: u64,
    /// Survivors of the sampler in the loop.
    pub samples: u64,
    /// Ingest throughput of each pass or round, raw elements per second.
    pub ingest_rates: Vec<f64>,
    pub push_us: Vec<f64>,
    /// Wire bytes the sites sent for the loop's pushes.
    pub push_wire_bytes: u64,
    /// Snapshot bytes the loop's checkpoints produced.
    pub checkpoint_bytes: u64,
    pub pushes_delta: u64,
    pub delta_fallbacks: u64,
    pub rejected: u64,
    pub query_us: Vec<f64>,
    /// `space_bytes()` of the final site state (summed over sites), and
    /// per statistic short name.
    pub state_bytes: usize,
    pub state_breakdown: BTreeMap<String, usize>,
    pub max_rel_err: f64,
    pub checks: Checks,
    pub tracer: Tracer,
    /// Layer counts only this workload has (window, concurrent).
    pub counts: BTreeMap<&'static str, f64>,
    /// Inputs for the replay probes: the survivors one site ingested, the
    /// prototype they belong to, the last two snapshots pushed.
    pub survivors: Vec<u64>,
    pub prototype: Monitor,
    pub snapshots: SnapshotPair,
}

impl Outcome {
    pub fn new(prototype: &Monitor, tracer: Tracer) -> Self {
        Self {
            loop_ns: 0,
            raw: 0,
            samples: 0,
            ingest_rates: Vec::new(),
            push_us: Vec::new(),
            push_wire_bytes: 0,
            checkpoint_bytes: 0,
            pushes_delta: 0,
            delta_fallbacks: 0,
            rejected: 0,
            query_us: Vec::new(),
            state_bytes: 0,
            state_breakdown: BTreeMap::new(),
            max_rel_err: 1.0,
            checks: Checks::default(),
            tracer,
            counts: BTreeMap::new(),
            survivors: Vec::new(),
            prototype: prototype.clone(),
            snapshots: SnapshotPair::default(),
        }
    }

    /// Record the final site state's size, in total and per statistic.
    pub fn set_state(&mut self, monitors: &[&Monitor]) {
        self.state_bytes = monitors.iter().map(|m| m.space_bytes()).sum();
        self.state_breakdown.clear();
        for m in monitors {
            for (label, _, bytes) in m.space_breakdown() {
                let short = STAT_NAMES
                    .iter()
                    .find(|(l, _)| *l == label)
                    .map_or(label.clone(), |(_, s)| (*s).to_string());
                *self.state_breakdown.entry(short).or_default() += bytes;
            }
        }
    }

    /// Fold in a site client's delivery counters accumulated since
    /// `before`.
    pub fn add_client_stats(
        &mut self,
        before: &sss_transport::ClientStats,
        after: &sss_transport::ClientStats,
    ) {
        self.push_wire_bytes += after.bytes_out - before.bytes_out;
        self.pushes_delta += after.snapshots_delta - before.snapshots_delta;
        self.delta_fallbacks += after.delta_fallbacks - before.delta_fallbacks;
    }
}

/// Microseconds elapsed since `t0`.
pub fn us_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e6
}

#[cfg(test)]
mod tests {
    use super::*;
    use sss_core::Guarantee;

    fn hh(report: Vec<(u64, f64)>) -> Vec<(String, Estimate)> {
        let g = Guarantee::Heuristic;
        vec![(
            "hh_f1".to_string(),
            Estimate::heavy_hitters(report, g, 1.0, 1000),
        )]
    }

    #[test]
    fn score_requires_true_heavy_hitters_inside_the_regime() {
        // Item 7 holds 60% of a 1000-element stream.
        let stream = (0..400u64).chain(std::iter::repeat_n(7, 600));
        let exact = ExactStats::from_stream(stream);
        let loose = HhParams {
            alpha: 0.5,
            eps: 1.0,
            delta: 0.5,
        };
        let mut checks = Checks::default();
        score(
            &mut checks,
            &hh(vec![(7, 600.0)]),
            &exact,
            1.0,
            loose,
            loose,
        );
        assert_eq!(checks.failed, 0);
        score(
            &mut checks,
            &hh(vec![(8, 600.0)]),
            &exact,
            1.0,
            loose,
            loose,
        );
        assert_eq!(checks.failed, 1, "{:?}", checks.failures);
        // Outside Theorem 6's regime nothing is required.
        let tight = HhParams {
            alpha: 0.5,
            eps: 0.01,
            delta: 0.01,
        };
        let before = checks.attempted;
        score(&mut checks, &hh(vec![]), &exact, 1.0, tight, tight);
        assert_eq!((checks.failed, checks.attempted), (1, before + 1));
    }

    #[test]
    fn bitwise_equal_compares_every_bit() {
        let g = Guarantee::Heuristic;
        let a = vec![("F2".to_string(), Estimate::scalar(1.0, g, 0.5, 9))];
        let mut b = a.clone();
        assert!(bitwise_equal(&a, &b));
        b[0].1.value = f64::from_bits(1.0f64.to_bits() + 1);
        assert!(!bitwise_equal(&a, &b));
        assert!(!bitwise_equal(&a, &[]));
    }
}
