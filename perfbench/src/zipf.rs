//! `ingest_zipf` and `concurrent_zipf`: one site ingests a fixed Zipf
//! stream into the five-statistic monitor, pushes the final state once
//! and the collector answers once. A run repeats that pass, each time
//! with a fresh monitor and a fresh sampler seed, until its time is up.
//!
//! `ingest_zipf` ingests on one thread through `sample_batches` and
//! `Monitor::update_batch`; `concurrent_zipf` feeds the same stream
//! zero-copy into a `ConcurrentMonitor` with one worker per core and
//! quiesces it with `finish()`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use sss_core::{ConcurrentConfig, ConcurrentMonitor, Monitor};
use sss_hash::split_seed;
use sss_obs::MetricId;
use sss_stream::{BernoulliSampler, ExactStats, StreamGen, ZipfStream};
use sss_transport::{CollectorServer, SiteClient};

use crate::pipeline::{self, Outcome, LANE_SKETCH, LANE_STREAM, ZIPF_KEYS, ZIPF_P, ZIPF_S};
use crate::trace::Tracer;

/// How the site ingests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Sequential,
    Concurrent { threads: usize },
}

pub struct Setup {
    stream: Arc<Vec<u64>>,
    exact: ExactStats,
    prototype: Monitor,
    collector: CollectorServer,
    client: SiteClient,
}

/// Generate the stream and its exact statistics, build the monitor,
/// bind the collector and connect the site.
pub fn setup(seed: u64, stream_len: u64) -> Setup {
    let stream =
        ZipfStream::new(ZIPF_KEYS, ZIPF_S).generate(stream_len, split_seed(seed, LANE_STREAM));
    let exact = ExactStats::from_stream(stream.iter().copied());
    let prototype = pipeline::zipf_prototype(split_seed(seed, LANE_SKETCH));
    let collector = pipeline::bind_collector(&prototype);
    // Each pass pushes the final state of a fresh monitor, unrelated to
    // the previous pass's: a full push, as a site's first push is.
    let client = pipeline::connect_site(&collector, 1, false);
    Setup {
        stream: Arc::new(stream),
        exact,
        prototype,
        collector,
        client,
    }
}

/// A site ready for one pass.
enum Site {
    Sequential(Monitor, BernoulliSampler),
    Concurrent(ConcurrentMonitor),
}

impl Site {
    /// Ingest the whole stream; returns the final monitor and, when the
    /// sampler runs on this thread, its survivor count.
    fn ingest(self, tr: &mut Tracer, stream: &Arc<Vec<u64>>) -> (Monitor, Option<u64>) {
        match self {
            Site::Sequential(mut m, mut sampler) => {
                let n = pipeline::feed(tr, &mut sampler, stream, &mut m);
                (m, Some(n))
            }
            Site::Concurrent(mut cm) => {
                tr.span("concurrent.ingest", |_| cm.ingest_shared(stream));
                (tr.span("concurrent.finish", |_| cm.finish()), None)
            }
        }
    }
}

/// The survivors the concurrent monitor's workers keep: chunk `k` of
/// the stream goes to worker `k mod threads`, which samples its chunks
/// in order with its own sampler.
fn concurrent_survivors(stream: &[u64], sampler_seed: u64, threads: usize) -> Vec<u64> {
    let cfg = ConcurrentConfig::new(threads);
    let mut samplers: Vec<BernoulliSampler> = (0..threads)
        .map(|i| BernoulliSampler::new(ZIPF_P, split_seed(sampler_seed, i as u64)))
        .collect();
    let mut out = Vec::new();
    for (k, chunk) in stream.chunks(cfg.dispatch_chunk).enumerate() {
        samplers[k % threads].sample_slice(chunk, |x| out.push(x));
    }
    out
}

/// Run passes until `seconds` have passed (at least one pass).
pub fn run(s: &mut Setup, seed: u64, seconds: f64, mode: Mode, mut tr: Tracer) -> Outcome {
    let traced = tr.is_on();
    let mut out = Outcome::new(&s.prototype, Tracer::off());
    let stats0 = s.client.stats().clone();
    let cas0 = sss_obs::global().value(MetricId::IngestCasRetriesTotal);
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut last: Option<Monitor> = None;
    let mut pass = 0u64;
    while pass == 0 || Instant::now() < deadline {
        let sampler_seed = pipeline::sampler_seed(seed, pass);
        // Construction stays outside the measured pass.
        let site = match mode {
            Mode::Sequential => Site::Sequential(
                s.prototype.clone(),
                BernoulliSampler::new(ZIPF_P, sampler_seed),
            ),
            Mode::Concurrent { threads } => Site::Concurrent(ConcurrentMonitor::launch(
                &s.prototype,
                sampler_seed,
                ConcurrentConfig::new(threads),
            )),
        };
        let stream = &s.stream;
        let pass_start = Instant::now();
        let (monitor, survivors, ingest_s, pushed, push_us, report, query_us) =
            tr.span("pass", |tr| {
                let t0 = Instant::now();
                let (monitor, survivors) = site.ingest(tr, stream);
                let ingest_s = t0.elapsed().as_secs_f64();
                let t1 = Instant::now();
                let keep = traced.then_some(&mut out.snapshots);
                let pushed = pipeline::push(tr, &monitor, &mut s.client, keep);
                let push_us = pipeline::us_since(t1);
                let t2 = Instant::now();
                let report = pipeline::query(tr, &s.collector);
                let query_us = pipeline::us_since(t2);
                (
                    monitor, survivors, ingest_s, pushed, push_us, report, query_us,
                )
            });
        out.loop_ns += pass_start.elapsed().as_nanos() as u64;

        let survivors = match (mode, survivors) {
            (_, Some(n)) => n,
            (Mode::Concurrent { threads }, None) => {
                concurrent_survivors(stream, sampler_seed, threads).len() as u64
            }
            (Mode::Sequential, None) => unreachable!("sequential passes count survivors"),
        };
        let raw = stream.len() as u64;
        out.raw += raw;
        out.samples += survivors;
        out.ingest_rates.push(raw as f64 / ingest_s);
        if let Some(bytes) = out.checks.expect_ok(pushed) {
            out.checkpoint_bytes += bytes as u64;
            out.push_us.push(push_us);
        }
        out.checks.attempted += 1;
        out.query_us.push(query_us);

        let checks = &mut out.checks;
        checks.expect(monitor.samples_seen() == survivors, || {
            format!(
                "samples_seen {} != sampler survivors {survivors}",
                monitor.samples_seen()
            )
        });
        pipeline::check_against_memory(checks, &s.prototype, &[&monitor], &report);
        let err = pipeline::score(
            checks,
            &report,
            &s.exact,
            ZIPF_P,
            pipeline::ZIPF_HH_F1,
            pipeline::ZIPF_HH_F2,
        );
        out.max_rel_err = out.max_rel_err.max(err);
        last = Some(monitor);
        pass += 1;
    }
    out.add_client_stats(&stats0, s.client.stats());
    out.rejected = s.collector.stats().rejected_total();
    out.checks.expect(out.rejected == 0, || {
        format!("collector rejected {} pushes", out.rejected)
    });
    let last = last.expect("at least one pass ran");
    out.set_state(&[&last]);
    if let Mode::Concurrent { .. } = mode {
        let cas = sss_obs::global().value(MetricId::IngestCasRetriesTotal) - cas0;
        out.counts.insert("concurrent.cas_retries", cas as f64);
    }
    if traced {
        let seed0 = pipeline::sampler_seed(seed, 0);
        out.survivors = match mode {
            Mode::Sequential => BernoulliSampler::new(ZIPF_P, seed0).sample_to_vec(&s.stream),
            Mode::Concurrent { threads } => concurrent_survivors(&s.stream, seed0, threads),
        };
    }
    out.tracer = tr;
    out
}
