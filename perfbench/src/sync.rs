//! `sync_sites`: a closed loop of two sites and one collector. Each
//! round, every site (one thread and one connection each) ingests a
//! small slice of its own stream, checkpoints and pushes, and waits for
//! the ack; when both have their acks the collector answers one query.
//! The sites are warmed up and have pushed their first, full snapshot
//! during set-up, so every measured push is a steady-state delta.
//!
//! Rounds run in epochs of `Size::slices` rounds: at each epoch start a
//! site goes back to its warm state (monitor and sampler) and ingests
//! the same slices again. A summary that kept growing would make push
//! and query costs, and the final state size, depend on how many rounds
//! a run managed; with epochs they depend only on the inputs. A run
//! ends at an epoch boundary, so its final state is always the warm
//! state plus every slice.

use std::sync::mpsc;
use std::time::{Duration, Instant};

use sss_core::Monitor;
use sss_hash::split_seed;
use sss_stream::{BernoulliSampler, ExactStats, StreamGen, ZipfStream};
use sss_transport::{ClientStats, CollectorServer, SiteClient};

use crate::pipeline::{self, Outcome, LANE_SKETCH, LANE_STREAM, ZIPF_KEYS, ZIPF_P, ZIPF_S};
use crate::trace::Tracer;

pub const SITES: usize = 2;

/// Stream sizes of one site.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Raw elements ingested before the first (full) push.
    pub warmup: u64,
    /// Raw elements per round.
    pub slice: u64,
    /// Rounds (and distinct slices) per epoch.
    pub slices: u64,
}

struct SiteState {
    id: u64,
    /// The state after warm-up and the first push; every epoch starts
    /// from it.
    warm: (Monitor, BernoulliSampler, u64),
    monitor: Monitor,
    sampler: BernoulliSampler,
    client: SiteClient,
    /// Survivors in `monitor` (warm-up included).
    survivors: u64,
    slices: Vec<u64>,
}

impl SiteState {
    fn restart_epoch(&mut self) {
        (self.monitor, self.sampler, self.survivors) = self.warm.clone();
    }

    /// Slice `k` of the epoch.
    fn slice(&self, size: Size, k: u64) -> &[u64] {
        let lo = (k * size.slice) as usize;
        &self.slices[lo..lo + size.slice as usize]
    }
}

pub struct Setup {
    size: Size,
    prototype: Monitor,
    collector: CollectorServer,
    sites: Vec<SiteState>,
    /// Exact statistics of both sites' warm-up streams and slices: what
    /// the sites hold at the end of every epoch.
    exact: ExactStats,
    /// Site 1's warm-up stream and sampler seed, for the replay probes.
    warm_stream: Vec<u64>,
    site1_sampler_seed: u64,
}

/// Generate each site's warm-up and slice streams and their exact
/// statistics, build the monitors, bind the collector, connect the
/// sites, warm them up and land their first full push.
pub fn setup(seed: u64, size: Size) -> Setup {
    let prototype = pipeline::zipf_prototype(split_seed(seed, LANE_SKETCH));
    let collector = pipeline::bind_collector(&prototype);
    let gen = ZipfStream::new(ZIPF_KEYS, ZIPF_S);
    let mut exact = ExactStats::new();
    let mut sites = Vec::with_capacity(SITES);
    let mut warm_stream = Vec::new();
    for i in 0..SITES as u64 {
        let site_seed = split_seed(split_seed(seed, LANE_STREAM), i);
        let warm = gen.generate(size.warmup, split_seed(site_seed, 0));
        let slices = gen.generate(size.slice * size.slices, split_seed(site_seed, 1));
        for &x in warm.iter().chain(&slices) {
            exact.push(x);
        }
        let mut monitor = prototype.clone();
        let mut sampler = BernoulliSampler::new(ZIPF_P, pipeline::sampler_seed(seed, i));
        let survivors = pipeline::feed(&mut Tracer::off(), &mut sampler, &warm, &mut monitor);
        let mut client = pipeline::connect_site(&collector, i + 1, true);
        pipeline::push(&mut Tracer::off(), &monitor, &mut client, None)
            .expect("warm-up push is accepted");
        sites.push(SiteState {
            id: i + 1,
            warm: (monitor.clone(), sampler.clone(), survivors),
            monitor,
            sampler,
            client,
            survivors,
            slices,
        });
        if i == 0 {
            warm_stream = warm;
        }
    }
    Setup {
        size,
        prototype,
        collector,
        sites,
        exact,
        warm_stream,
        site1_sampler_seed: pipeline::sampler_seed(seed, 0),
    }
}

/// What a site reports after one round.
struct RoundResult {
    ingest_ns: u64,
    samples: u64,
    push: Result<usize, String>,
    push_us: f64,
}

/// A site's side of the loop: one round per `Some(k)` on `go` (slice `k`
/// of the epoch; 0 restarts the epoch), until `None` or the channel
/// closes.
fn site_loop(
    site: &mut SiteState,
    size: Size,
    mut tr: Tracer,
    mut keep: Option<&mut pipeline::SnapshotPair>,
    go: mpsc::Receiver<Option<u64>>,
    done: mpsc::Sender<RoundResult>,
) -> Tracer {
    while let Ok(Some(k)) = go.recv() {
        if k == 0 {
            site.restart_epoch();
        }
        let lo = (k * size.slice) as usize;
        let slice = &site.slices[lo..lo + size.slice as usize];
        let result = tr.span("round.site", |tr| {
            let t0 = Instant::now();
            let samples = pipeline::feed(tr, &mut site.sampler, slice, &mut site.monitor);
            let ingest_ns = t0.elapsed().as_nanos() as u64;
            let t1 = Instant::now();
            let push = pipeline::push(tr, &site.monitor, &mut site.client, keep.as_deref_mut());
            RoundResult {
                ingest_ns,
                samples,
                push,
                push_us: pipeline::us_since(t1),
            }
        });
        site.survivors += result.samples;
        if done.send(result).is_err() {
            break;
        }
    }
    tr
}

/// Run whole epochs until `seconds` have passed (at least one epoch).
pub fn run(s: Setup, seconds: f64, mut tr: Tracer) -> Outcome {
    let traced = tr.is_on();
    let mut out = Outcome::new(&s.prototype, Tracer::off());
    let Setup {
        size,
        prototype,
        collector,
        mut sites,
        exact,
        warm_stream,
        site1_sampler_seed,
    } = s;
    let stats0: Vec<ClientStats> = sites.iter().map(|x| x.client.stats().clone()).collect();
    let rejected0 = collector.stats().rejected_total();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut ingest_ns = 0u64;
    let mut last_report = Vec::new();
    let loop_start = Instant::now();
    let (site_tracers, rounds) = std::thread::scope(|scope| {
        let (done_tx, done_rx) = mpsc::channel::<RoundResult>();
        let mut gos = Vec::with_capacity(SITES);
        let mut handles = Vec::with_capacity(SITES);
        // Site 1's last two snapshots feed the replay probes.
        let mut snapshots = traced.then_some(&mut out.snapshots);
        for (i, site) in sites.iter_mut().enumerate() {
            let (go_tx, go_rx) = mpsc::channel::<Option<u64>>();
            gos.push(go_tx);
            let done = done_tx.clone();
            let site_tr = tr.for_thread(i as u32 + 1);
            let keep = snapshots.take();
            handles.push(scope.spawn(move || site_loop(site, size, site_tr, keep, go_rx, done)));
        }
        drop(done_tx);
        let mut rounds = 0u64;
        loop {
            let k = rounds % size.slices;
            let go = (rounds == 0 || k != 0 || Instant::now() < deadline).then_some(k);
            for g in &gos {
                g.send(go)
                    .expect("site thread is waiting for its next round");
            }
            if go.is_none() {
                break;
            }
            for _ in 0..SITES {
                let r = done_rx.recv().expect("site thread answers every round");
                ingest_ns += r.ingest_ns;
                out.samples += r.samples;
                if let Some(bytes) = out.checks.expect_ok(r.push) {
                    out.checkpoint_bytes += bytes as u64;
                    out.push_us.push(r.push_us);
                }
            }
            last_report = tr.span("round.query", |tr| {
                let t0 = Instant::now();
                let report = pipeline::query(tr, &collector);
                out.query_us.push(pipeline::us_since(t0));
                report
            });
            out.checks.attempted += 1;
            rounds += 1;
        }
        let tracers: Vec<Tracer> = handles
            .into_iter()
            .map(|h| h.join().expect("site thread panicked"))
            .collect();
        (tracers, rounds)
    });
    out.loop_ns = loop_start.elapsed().as_nanos() as u64;
    for t in site_tracers {
        tr.absorb(t);
    }

    let raw = rounds * size.slice * SITES as u64;
    out.raw = raw;
    out.ingest_rates.push(raw as f64 / (ingest_ns as f64 / 1e9));
    for (site, before) in sites.iter().zip(&stats0) {
        out.add_client_stats(before, site.client.stats());
    }
    out.rejected = collector.stats().rejected_total() - rejected0;

    // Correctness: the collector's last answer against the same site
    // monitors merged in memory, survivor counts, and every estimate
    // against the exact statistics of what the sites hold.
    let checks = &mut out.checks;
    checks.expect(out.rejected == 0, || "collector rejected pushes".into());
    for site in &sites {
        checks.expect(site.monitor.samples_seen() == site.survivors, || {
            format!(
                "site {}: samples_seen {} != sampler survivors {}",
                site.id,
                site.monitor.samples_seen(),
                site.survivors
            )
        });
    }
    let monitors: Vec<&Monitor> = sites.iter().map(|x| &x.monitor).collect();
    pipeline::check_against_memory(checks, &prototype, &monitors, &last_report);
    out.max_rel_err = pipeline::score(
        checks,
        &last_report,
        &exact,
        ZIPF_P,
        pipeline::ZIPF_HH_F1,
        pipeline::ZIPF_HH_F2,
    );
    out.set_state(&monitors);
    if traced {
        // Site 1's survivors over one epoch: its sampler replayed over
        // the warm-up and every slice.
        let mut sampler = BernoulliSampler::new(ZIPF_P, site1_sampler_seed);
        let mut survivors = sampler.sample_to_vec(&warm_stream);
        for k in 0..size.slices {
            sampler.sample_slice(sites[0].slice(size, k), |x| survivors.push(x));
        }
        out.survivors = survivors;
    }
    out.tracer = tr;
    out
}
