//! One benchmark for the whole pipeline: raw stream → Bernoulli sampler →
//! per-site summary → checkpoint / delta → push → collector merge →
//! estimate.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the workload untraced and prints every
//! end-to-end metric; `--trace 1` runs it untraced and then traced with
//! the same seed, runs the replay probes, and prints every per-layer
//! metric. Either way the program's answers are checked, and the last
//! line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. The exit code is non-zero when
//! any check failed. `perfbench/README.md` defines every metric.

mod pipeline;
mod replay;
mod stats;
mod sync;
mod trace;
mod window;
mod zipf;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use sss_core::Monitor;
use sss_hash::split_seed;

use pipeline::{Checks, Outcome, LANE_SKETCH};
use trace::Tracer;

/// The workloads, each with why it was chosen.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "ingest_zipf",
        "Sampler, hash, sketch and estimator updates do nearly all the work; codec and transport almost none.",
    ),
    (
        "sync_sites",
        "Codec, delta, framing and the collector's restore and merge do most of the work; ingest does little.",
    ),
    (
        "window_netflow",
        "Updates beside window folds and bucket retirement, on bursty heavy-tailed flows at a lower rate.",
    ),
    (
        "concurrent_zipf",
        "The only workload on the shared-atomic grids and the quiesce copy of the concurrent monitor.",
    ),
];

/// End-to-end metrics, `(name, unit)`: printed with `--trace 0`.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("ingest_mraw_per_s", "Mraw/s"),
    ("pushes_per_s", "1/s"),
    ("push_p50_us", "us"),
    ("push_bytes", "B"),
    ("query_p50_us", "us"),
    ("state_bytes", "B"),
];

/// Per-layer metrics, `(name, unit)`: printed with `--trace 1`. A layer
/// a workload does not run reports 0.
pub const PER_LAYER: [(&str, &str); 40] = [
    ("stream.sample.ns_per_raw", "ns"),
    ("stream.sample.survivor_ratio", "ratio"),
    ("hash.reduce.ns_per_sample", "ns"),
    ("hash.range.ns_per_sample", "ns"),
    ("core.update_batch.ns_per_sample", "ns"),
    ("core.update_batch.f0.ns_per_sample", "ns"),
    ("core.update_batch.fk2.ns_per_sample", "ns"),
    ("core.update_batch.entropy.ns_per_sample", "ns"),
    ("core.update_batch.hh_f1.ns_per_sample", "ns"),
    ("core.update_batch.hh_f2.ns_per_sample", "ns"),
    ("core.state_bytes.f0", "B"),
    ("core.state_bytes.fk2", "B"),
    ("core.state_bytes.entropy", "B"),
    ("core.state_bytes.hh_f1", "B"),
    ("core.state_bytes.hh_f2", "B"),
    ("core.merge.us", "us"),
    ("core.estimate.us", "us"),
    ("concurrent.ingest.ns_per_raw", "ns"),
    ("concurrent.finish.us", "us"),
    ("concurrent.cas_retries", "count"),
    ("codec.checkpoint.us", "us"),
    ("codec.checkpoint.bytes", "B"),
    ("codec.delta.us", "us"),
    ("codec.delta.bytes", "B"),
    ("codec.delta_apply.us", "us"),
    ("codec.restore.us", "us"),
    ("transport.push_wire.us", "us"),
    ("transport.push_wire.residual_us", "us"),
    ("transport.delta_share", "ratio"),
    ("transport.delta_fallbacks", "count"),
    ("transport.rejected", "count"),
    ("transport.merged.us", "us"),
    ("window.ingest.ns_per_sample", "ns"),
    ("window.fold.us", "us"),
    ("window.rollovers", "count"),
    ("window.retired_buckets", "count"),
    ("window.late_drops", "count"),
    ("window.alerts", "count"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
];

/// Set-ups per `--trace 0` run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Input sizes: `Full` for measurement, `Tiny` for the harness's tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

impl Scale {
    fn zipf_len(self) -> u64 {
        match self {
            Scale::Full => 1 << 22,
            Scale::Tiny => 1 << 15,
        }
    }

    fn window_len(self) -> u64 {
        match self {
            Scale::Full => 1 << 23,
            Scale::Tiny => 1 << 16,
        }
    }

    fn sync(self) -> sync::Size {
        match self {
            Scale::Full => sync::Size {
                warmup: 1 << 21,
                slice: 10_000,
                slices: 32,
            },
            Scale::Tiny => sync::Size {
                warmup: 1 << 15,
                slice: 1_000,
                slices: 4,
            },
        }
    }
}

/// Worker threads for the concurrent workload: one per core.
fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One measured run of a workload, with its median set-up time and the
/// one-statistic monitors its replay probes use.
pub struct Run {
    pub out: Outcome,
    pub setup_s: f64,
    pub singles: Vec<(&'static str, Monitor)>,
}

/// Set the workload up `setups` times, then run it for `seconds`.
pub fn run_workload(
    workload: &str,
    seed: u64,
    seconds: f64,
    scale: Scale,
    traced: bool,
    setups: usize,
) -> Result<Run, String> {
    let tracer = || Tracer::new(traced, 0, Instant::now());
    let sketch_seed = split_seed(seed, LANE_SKETCH);
    let zipf_mode = |mode| {
        let (mut s, setup_s) =
            pipeline::repeated_setup(setups, || zipf::setup(seed, scale.zipf_len()));
        let out = zipf::run(&mut s, seed, seconds, mode, tracer());
        Run {
            out,
            setup_s,
            singles: pipeline::zipf_singles(sketch_seed),
        }
    };
    Ok(match workload {
        "ingest_zipf" => zipf_mode(zipf::Mode::Sequential),
        "concurrent_zipf" => zipf_mode(zipf::Mode::Concurrent { threads: nproc() }),
        "sync_sites" => {
            let (s, setup_s) = pipeline::repeated_setup(setups, || sync::setup(seed, scale.sync()));
            Run {
                out: sync::run(s, seconds, tracer()),
                setup_s,
                singles: pipeline::zipf_singles(sketch_seed),
            }
        }
        "window_netflow" => {
            let (mut s, setup_s) =
                pipeline::repeated_setup(setups, || window::setup(seed, scale.window_len()));
            Run {
                out: window::run(&mut s, seed, seconds, tracer()),
                setup_s,
                singles: window::singles(sketch_seed),
            }
        }
        other => {
            return Err(format!(
                "unknown workload '{other}' (expected one of: {})",
                WORKLOADS.map(|w| w.0).join(", ")
            ))
        }
    })
}

/// Every end-to-end metric of an untraced run.
pub fn end_to_end(run: &Run) -> BTreeMap<&'static str, f64> {
    let o = &run.out;
    let pushes = o.push_us.len() as f64;
    let mut m = BTreeMap::new();
    m.insert("setup_s", run.setup_s);
    m.insert("ingest_mraw_per_s", stats::median(&o.ingest_rates) / 1e6);
    m.insert("pushes_per_s", pushes / (o.loop_ns as f64 / 1e9));
    m.insert("push_p50_us", stats::median(&o.push_us));
    m.insert("push_bytes", o.push_wire_bytes as f64 / pushes);
    m.insert("query_p50_us", stats::median(&o.query_us));
    m.insert("state_bytes", o.state_bytes as f64);
    m
}

/// Every per-layer metric, from the traced run's spans and counts, the
/// replay probes, and the untraced run of the same seed.
pub fn per_layer(
    plain: &Run,
    traced: &Run,
    replays: &BTreeMap<String, f64>,
) -> BTreeMap<String, f64> {
    let o = &traced.out;
    let spans = o.tracer.spans();
    let st = trace::self_times(spans);
    let self_ns = |n: &str| st.get(n).map_or(0.0, |v| v.0 as f64);
    let mean_us = |n: &str| st.get(n).map_or(0.0, |v| v.0 as f64 / v.1 as f64 / 1e3);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let (raw, samples) = (o.raw as f64, o.samples as f64);
    let pushes = o.push_us.len() as f64;
    let replay = |n: &str| replays.get(n).copied().unwrap_or(0.0);

    let mut m: BTreeMap<String, f64> = BTreeMap::new();
    let mut set = |k: &str, v: f64| {
        m.insert(k.to_string(), v);
    };
    set(
        "stream.sample.ns_per_raw",
        ratio(self_ns("stream.sample"), raw),
    );
    set("stream.sample.survivor_ratio", ratio(samples, raw));
    set(
        "core.update_batch.ns_per_sample",
        ratio(self_ns("core.update_batch"), samples),
    );
    for (_, name) in pipeline::STAT_NAMES {
        let bytes = o.state_breakdown.get(name).copied().unwrap_or(0);
        set(&format!("core.state_bytes.{name}"), bytes as f64);
    }
    set("core.estimate.us", mean_us("core.estimate"));
    set(
        "concurrent.ingest.ns_per_raw",
        ratio(self_ns("concurrent.ingest"), raw),
    );
    set("concurrent.finish.us", mean_us("concurrent.finish"));
    set("codec.checkpoint.us", mean_us("codec.checkpoint"));
    set(
        "codec.checkpoint.bytes",
        ratio(o.checkpoint_bytes as f64, pushes),
    );
    let push_wire_us = mean_us("transport.push_wire");
    let delta_share = ratio(o.pushes_delta as f64, pushes);
    set("transport.push_wire.us", push_wire_us);
    set(
        "transport.push_wire.residual_us",
        push_wire_us
            - replay("codec.delta.us")
            - delta_share * replay("codec.delta_apply.us")
            - replay("codec.restore.us")
            - replay("core.merge.us"),
    );
    set("transport.delta_share", delta_share);
    set("transport.delta_fallbacks", o.delta_fallbacks as f64);
    set("transport.rejected", o.rejected as f64);
    set("transport.merged.us", mean_us("transport.merged"));
    set(
        "window.ingest.ns_per_sample",
        ratio(self_ns("window.ingest"), samples),
    );
    set("window.fold.us", mean_us("window.fold"));
    set("trace.coverage", trace::coverage(spans));
    let per_raw = |r: &Run| ratio(r.out.loop_ns as f64, r.out.raw as f64);
    set("trace.overhead", ratio(per_raw(traced), per_raw(plain)));
    for (k, v) in &o.counts {
        m.insert(k.to_string(), *v);
    }
    for (k, v) in replays {
        m.insert(k.clone(), *v);
    }
    for (name, _) in PER_LAYER {
        m.entry(name.to_string()).or_insert(0.0);
    }
    m
}

/// The lines ahead of the metrics: what a reader needs to compare runs.
fn provenance(workload: &str, seed: u64) -> Vec<String> {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into());
    let why = WORKLOADS
        .iter()
        .find(|w| w.0 == workload)
        .map_or("", |w| w.1);
    vec![
        format!("# workload {workload}: {why}"),
        format!("# seed {seed}"),
        format!("# nproc {}", nproc()),
        format!("# cpu {cpu}"),
        format!("# rustc {rustc}"),
    ]
}

/// Lines after the metrics: the end-to-end figures the result line does
/// not carry (tails that need a minimum sample count, accuracy, failure
/// ratio) and the spread of ingest throughput over the run's passes.
fn extra_lines(o: &Outcome) -> Vec<String> {
    let tail = |name: &str, xs: &[f64]| match stats::tail(xs) {
        Some((q, v)) => format!("{name}_p{q} {v:.1} us (n={})", xs.len()),
        None => format!("{name}_tail unsupported (n={} < 20)", xs.len()),
    };
    let fail_ratio = o.checks.failed as f64 / o.checks.attempted.max(1) as f64;
    vec![
        tail("push", &o.push_us),
        tail("query", &o.query_us),
        format!("est_max_rel_err {:.4} ratio", o.max_rel_err),
        format!("fail_ratio {fail_ratio} ratio"),
        format!(
            "ingest_spread {} (IQR/median of {} passes or rounds)",
            stats::relative_spread(&o.ingest_rates).map_or("-".into(), |s| format!("{s:.4}")),
            o.ingest_rates.len()
        ),
    ]
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args;
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let seconds = seconds.ok_or("missing --seconds")?;
    if !(seconds.is_finite() && seconds >= 0.0) {
        return Err(format!(
            "--seconds {seconds}: expected a non-negative number"
        ));
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// A JSON number; a non-finite value is not one.
fn json_number(v: f64) -> Option<String> {
    v.is_finite().then(|| format!("{v}"))
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.map(|w| w.0).join("|")
            );
            return ExitCode::from(2);
        }
    };
    for line in provenance(&args.workload, args.seed) {
        println!("{line}");
    }
    let (metrics, units, mut checks, extra): (BTreeMap<String, f64>, Vec<_>, Checks, Vec<String>) =
        if args.trace {
            let run = |traced| {
                run_workload(
                    &args.workload,
                    args.seed,
                    args.seconds,
                    Scale::Full,
                    traced,
                    1,
                )
            };
            let (plain, traced) = match (run(false), run(true)) {
                (Ok(p), Ok(t)) => (p, t),
                (Err(e), _) | (_, Err(e)) => {
                    eprintln!("perfbench: {e}");
                    return ExitCode::from(2);
                }
            };
            let replays = replay::probe(&traced.out, &traced.singles);
            let metrics = per_layer(&plain, &traced, &replays);
            let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("traces")
                .join(format!("{}-seed{}.tsv", args.workload, args.seed));
            match trace::write_tsv(&path, traced.out.tracer.spans()) {
                Ok(()) => println!("# spans written to {}", path.display()),
                Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
            }
            let mut extra = extra_lines(&traced.out);
            extra.extend(replays.keys().map(|n| format!("{n} is a replay probe")));
            let mut checks = plain.out.checks;
            checks.absorb(traced.out.checks);
            (metrics, PER_LAYER.to_vec(), checks, extra)
        } else {
            let run = match run_workload(
                &args.workload,
                args.seed,
                args.seconds,
                Scale::Full,
                false,
                SETUPS,
            ) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("perfbench: {e}");
                    return ExitCode::from(2);
                }
            };
            let metrics = end_to_end(&run)
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect();
            let extra = extra_lines(&run.out);
            (metrics, END_TO_END.to_vec(), run.out.checks, extra)
        };

    let mut body = Vec::with_capacity(units.len());
    for (name, unit) in &units {
        let value = metrics.get(*name).copied().unwrap_or(f64::NAN);
        println!("{name} {value} {unit}");
        match json_number(value) {
            Some(v) => body.push(format!(
                "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            )),
            None => checks.expect(false, || format!("metric {name} is not a finite number")),
        }
    }
    for line in extra {
        println!("{line}");
    }
    for f in &checks.failures {
        eprintln!("perfbench: check failed: {f}");
    }
    let correct = checks.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.attempted,
        checks.failed,
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric names `BENCHMARK.json` lists under `key`, in order.
    fn listed(key: &str) -> Vec<String> {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let start = json.find(&format!("\"{key}\"")).expect("key present");
        let section = &json[start..];
        let section = &section[..section.find(']').expect("list closes")];
        section
            .split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').expect("name closes")].to_string())
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_printed_metrics() {
        let names = |v: &[(&str, &str)]| v.iter().map(|(n, _)| n.to_string()).collect::<Vec<_>>();
        assert_eq!(listed("end_to_end"), names(&END_TO_END));
        assert_eq!(listed("per_layer"), names(&PER_LAYER));
        assert_eq!(listed("workloads"), names(&WORKLOADS));
    }

    #[test]
    fn arguments_parse_and_reject() {
        let a = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let ok = a("--workload sync_sites --seed 3 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (ok.workload.as_str(), ok.seed, ok.seconds, ok.trace),
            ("sync_sites", 3, 10.0, true)
        );
        assert!(a("--workload x --seed 3 --seconds 10 --trace 2").is_err());
        assert!(a("--workload x --seed -1 --seconds 10").is_err());
        assert!(a("--seed 1 --seconds 1").is_err());
        assert!(a("--workload x --seed 1 --seconds 1 --bogus 1").is_err());
        assert!(run_workload("nope", 1, 0.0, Scale::Tiny, false, 1).is_err());
    }

    /// A tiny run of `workload`, untraced and traced, with every
    /// correctness check passing and every metric present and finite.
    fn tiny(workload: &str) {
        let plain = run_workload(workload, 11, 0.0, Scale::Tiny, false, 1).unwrap();
        let traced = run_workload(workload, 11, 0.0, Scale::Tiny, true, 1).unwrap();
        for r in [&plain, &traced] {
            assert_eq!(
                r.out.checks.failed, 0,
                "{workload}: {:?}",
                r.out.checks.failures
            );
            assert!(r.out.checks.attempted > 0);
        }
        let e2e = end_to_end(&plain);
        for (name, _) in END_TO_END {
            let v = e2e[name];
            assert!(v.is_finite() && v > 0.0, "{workload}: {name} = {v}");
        }
        let replays = replay::probe(&traced.out, &traced.singles);
        let layers = per_layer(&plain, &traced, &replays);
        assert_eq!(
            layers.len(),
            PER_LAYER.len(),
            "{workload}: {:?}",
            layers.keys()
        );
        for (name, _) in PER_LAYER {
            assert!(layers[name].is_finite(), "{workload}: {name}");
        }
        assert!(layers["trace.coverage"] > 0.0);
        assert!(layers["stream.sample.survivor_ratio"] > 0.0);
    }

    #[test]
    fn tiny_ingest_zipf() {
        tiny("ingest_zipf");
    }

    #[test]
    fn tiny_sync_sites() {
        tiny("sync_sites");
    }

    #[test]
    fn tiny_window_netflow() {
        tiny("window_netflow");
    }

    #[test]
    fn tiny_concurrent_zipf() {
        tiny("concurrent_zipf");
    }
}
