//! `window_netflow`: a timed NetFlow-style trace (bounded-Pareto flow
//! sizes) sampled at p = 0.1 into a four-bucket `WindowedMonitor` with
//! three continuous queries. At a fixed raw-element interval the site
//! reads its window answer (`fold()` then `report()`, the two halves of
//! `WindowedMonitor::report()`) and pushes that fold to the collector.
//! A run repeats the pass over the trace with a fresh window and a
//! fresh sampler seed until its time is up.

use std::time::{Duration, Instant};

use sss_core::{Estimate, Monitor, MonitorBuilder};
use sss_hash::split_seed;
use sss_obs::MetricId;
use sss_stream::{BernoulliSampler, ExactStats, NetFlowStream, TimedStream};
use sss_transport::{CollectorServer, SiteClient};
use sss_window::{QuerySpec, WindowConfig, WindowedMonitor};

use crate::pipeline::{self, HhParams, Outcome, BATCH, LANE_SKETCH, LANE_STREAM};
use crate::trace::Tracer;

pub const P: f64 = 0.1;
/// F1 heavy hitters: flows of at least 0.2% of the window's packets.
/// With eps = 0.4 a full-size window lies inside Theorem 6's regime.
pub const HH: HhParams = HhParams {
    alpha: 0.002,
    eps: 0.4,
    delta: 0.05,
};
/// Largest flow, in packets. A cap far below the window's size keeps
/// the number of flows per window, and with it the summary's size,
/// from swinging with a few elephant flows from seed to seed.
pub const MAX_FLOW: u64 = 20_000;
/// Live buckets of the window.
pub const BUCKETS: usize = 4;
/// Epochs the trace spans.
pub const EPOCHS: u64 = 8;
/// A window read (and push) every `1/READ_SHARE` of the trace, once
/// the window holds all its buckets: reads of a part-filled window
/// would mix cheaper folds into the read latencies.
pub const READ_SHARE: u64 = 16;

/// The window's four statistics: F0, F2, entropy, F1 heavy hitters.
pub fn prototype(sketch_seed: u64) -> Monitor {
    MonitorBuilder::with_seed(P, sketch_seed)
        .f0(0.05)
        .fk(2)
        .entropy(2000)
        .f1_heavy_hitters(HH.alpha, HH.eps, HH.delta)
        .build()
}

/// One pristine monitor per statistic of [`prototype`], keyed by the
/// statistic's short name (for the replay probes).
pub fn singles(sketch_seed: u64) -> Vec<(&'static str, Monitor)> {
    let b = || MonitorBuilder::with_seed(P, sketch_seed);
    vec![
        ("f0", b().f0(0.05).build()),
        ("fk2", b().fk(2).build()),
        ("entropy", b().entropy(2000).build()),
        (
            "hh_f1",
            b().f1_heavy_hitters(HH.alpha, HH.eps, HH.delta).build(),
        ),
    ]
}

/// A run of raw elements inside one epoch, optionally followed by a
/// window read.
#[derive(Debug, Clone, Copy)]
struct Segment {
    lo: usize,
    hi: usize,
    ts: u64,
    read_after: bool,
}

pub struct Setup {
    items: Vec<u64>,
    segments: Vec<Segment>,
    bucket_span: u64,
    /// First raw index inside the final window.
    final_window_lo: usize,
    exact_final_window: ExactStats,
    prototype: Monitor,
    collector: CollectorServer,
    client: SiteClient,
}

/// Generate the timed trace, cut it into epoch and read segments,
/// compute the exact statistics of the final window, build the
/// monitor, bind the collector and connect the site.
pub fn setup(seed: u64, stream_len: u64) -> Setup {
    let timed = TimedStream::new(NetFlowStream::new(1 << 22, 1.1, MAX_FLOW), 4.0)
        .generate(stream_len, split_seed(seed, LANE_STREAM));
    let last_ts = timed.last().map_or(0, |t| t.0);
    let bucket_span = last_ts / EPOCHS + 1;
    let read_every = (stream_len / READ_SHARE).max(1) as usize;
    let full_from = timed.first().map_or(0, |t| t.0 / bucket_span) + BUCKETS as u64 - 1;
    let mut segments: Vec<Segment> = Vec::new();
    let mut lo = 0usize;
    for i in 1..=timed.len() {
        let read_after =
            (i % read_every == 0 && timed[i - 1].0 / bucket_span >= full_from) || i == timed.len();
        let epoch_ends = i == timed.len() || timed[i].0 / bucket_span != timed[lo].0 / bucket_span;
        if read_after || epoch_ends {
            segments.push(Segment {
                lo,
                hi: i,
                ts: timed[lo].0,
                read_after,
            });
            lo = i;
        }
    }
    let last_epoch = last_ts / bucket_span;
    let oldest_live = last_epoch.saturating_sub(BUCKETS as u64 - 1);
    let final_window_lo = timed
        .iter()
        .position(|(ts, _)| ts / bucket_span >= oldest_live)
        .unwrap_or(0);
    let items: Vec<u64> = timed.iter().map(|t| t.1).collect();
    let exact_final_window = ExactStats::from_stream(items[final_window_lo..].iter().copied());
    let prototype = prototype(split_seed(seed, LANE_SKETCH));
    let collector = pipeline::bind_collector(&prototype);
    let client = pipeline::connect_site(&collector, 1, true);
    Setup {
        items,
        segments,
        bucket_span,
        final_window_lo,
        exact_final_window,
        prototype,
        collector,
        client,
    }
}

fn windowed(s: &Setup) -> WindowedMonitor {
    let mut w = WindowedMonitor::new(
        s.prototype.clone(),
        WindowConfig::new(BUCKETS, s.bucket_span),
    );
    w.register_query(QuerySpec::threshold("f0_high", "F0", 1e5, true));
    w.register_query(QuerySpec::delta_vs_prev("f2_jump", "F2", 0.25));
    w.register_query(QuerySpec::change_point("entropy_shift", "entropy", 3, 2.0));
    w
}

/// Run passes until `seconds` have passed (at least one pass).
pub fn run(s: &mut Setup, seed: u64, seconds: f64, mut tr: Tracer) -> Outcome {
    let traced = tr.is_on();
    let mut out = Outcome::new(&s.prototype, Tracer::off());
    let stats0 = s.client.stats().clone();
    let obs = sss_obs::global();
    let rollovers0 = obs.value(MetricId::WindowRolloversTotal);
    let (mut retired, mut late, mut alerts) = (0u64, 0u64, 0u64);
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut last: Option<(WindowedMonitor, Monitor)> = None;
    let mut pass = 0u64;
    while pass == 0 || Instant::now() < deadline {
        let mut w = windowed(s);
        let mut sampler = BernoulliSampler::new(P, pipeline::sampler_seed(seed, pass));
        let mut ingest_ns = 0u64;
        let mut survivors = 0u64;
        let mut window_survivors = 0u64;
        let mut report: Vec<(String, Estimate)> = Vec::new();
        let mut fold: Option<Monitor> = None;
        let (items, segments) = (&s.items, &s.segments);
        let pass_start = Instant::now();
        tr.span("pass", |tr| {
            for seg in segments {
                let t0 = Instant::now();
                let mut n = 0u64;
                tr.span("stream.sample", |tr| {
                    sampler.sample_batches(&items[seg.lo..seg.hi], BATCH, |b| {
                        n += b.len() as u64;
                        tr.span("window.ingest", |_| w.ingest_batch_at(seg.ts, b));
                    })
                });
                ingest_ns += t0.elapsed().as_nanos() as u64;
                survivors += n;
                if seg.lo >= s.final_window_lo {
                    window_survivors += n;
                }
                if seg.read_after {
                    let t1 = Instant::now();
                    let f = tr.span("window.fold", |_| w.fold());
                    report = tr.span("core.estimate", |_| f.report());
                    out.query_us.push(pipeline::us_since(t1));
                    let t2 = Instant::now();
                    let keep = traced.then_some(&mut out.snapshots);
                    let pushed = pipeline::push(tr, &f, &mut s.client, keep);
                    let push_us = pipeline::us_since(t2);
                    if let Some(bytes) = out.checks.expect_ok(pushed) {
                        out.checkpoint_bytes += bytes as u64;
                        out.push_us.push(push_us);
                    }
                    out.checks.attempted += 1;
                    fold = Some(f);
                }
            }
        });
        out.loop_ns += pass_start.elapsed().as_nanos() as u64;
        let raw = s.items.len() as u64;
        out.raw += raw;
        out.samples += survivors;
        out.ingest_rates.push(raw as f64 / (ingest_ns as f64 / 1e9));
        retired += w.retired_buckets();
        late += w.late_dropped();
        alerts += w.take_alerts().len() as u64;

        let fold = fold.expect("every pass ends with a window read");
        let checks = &mut out.checks;
        checks.expect(w.total_ingested() == survivors, || {
            format!(
                "window ingested {} != survivors {survivors}",
                w.total_ingested()
            )
        });
        checks.expect(w.window_samples() == window_survivors, || {
            format!(
                "window holds {} samples != final-window survivors {window_survivors}",
                w.window_samples()
            )
        });
        checks.expect(fold.samples_seen() == window_survivors, || {
            format!(
                "fold samples_seen {} != final-window survivors {window_survivors}",
                fold.samples_seen()
            )
        });
        let collector_report = s.collector.merged().report();
        pipeline::check_against_memory(checks, &s.prototype, &[&fold], &collector_report);
        checks.expect(pipeline::bitwise_equal(&report, &w.report()), || {
            "fold().report() differs from WindowedMonitor::report()".into()
        });
        let err = pipeline::score(checks, &report, &s.exact_final_window, P, HH, HH);
        out.max_rel_err = out.max_rel_err.max(err);
        last = Some((w, fold));
        pass += 1;
    }
    out.add_client_stats(&stats0, s.client.stats());
    out.rejected = s.collector.stats().rejected_total();
    out.checks.expect(out.rejected == 0, || {
        format!("collector rejected {} pushes", out.rejected)
    });
    // The site state is the whole window; its per-statistic split is
    // the fold's.
    let (w, fold) = last.expect("at least one pass ran");
    out.set_state(&[&fold]);
    out.state_bytes = w.space_bytes();
    let rollovers = obs.value(MetricId::WindowRolloversTotal) - rollovers0;
    out.counts.insert("window.rollovers", rollovers as f64);
    out.counts.insert("window.retired_buckets", retired as f64);
    out.counts.insert("window.late_drops", late as f64);
    out.counts.insert("window.alerts", alerts as f64);
    if traced {
        out.survivors =
            BernoulliSampler::new(P, pipeline::sampler_seed(seed, 0)).sample_to_vec(&s.items);
    }
    out.tracer = tr;
    out
}
