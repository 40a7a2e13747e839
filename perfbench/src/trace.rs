//! In-memory span recorder for the traced run.
//!
//! Spans are opened around calls into the library's public functions,
//! from the benchmark's own code; nothing inside the library is
//! instrumented. Each thread records into its own [`Tracer`] (no
//! locking on the measured path); threads' spans are joined with
//! [`Tracer::absorb`] after the measured loop and written out once, when
//! the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the run's shared
/// epoch, so spans from different threads line up.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Index of the enclosing span in the same span list, if any.
    pub parent: Option<usize>,
    /// Recording thread (0 for the main thread).
    pub thread: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A per-thread span recorder. When off, [`Tracer::span`] only runs
/// its closure.
pub struct Tracer {
    on: bool,
    thread: u32,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool, thread: u32, epoch: Instant) -> Self {
        Self {
            on,
            thread,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recorder that records nothing.
    pub fn off() -> Self {
        Self::new(false, 0, Instant::now())
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// A recorder for another thread, sharing this one's epoch and
    /// on/off state.
    pub fn for_thread(&self, thread: u32) -> Self {
        Self::new(self.on, thread, self.epoch)
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Run `f` inside a span called `name`, a child of the innermost
    /// open span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            thread: self.thread,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Append another thread's spans, re-indexing their parents.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Each span's self time: its duration minus the durations of its
/// direct children (children nest inside their parent on one thread).
fn span_self_ns(spans: &[Span]) -> Vec<u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur_ns();
        }
    }
    spans
        .iter()
        .zip(child_ns)
        .map(|(s, c)| s.dur_ns().saturating_sub(c))
        .collect()
}

/// Per span name: `(total self time in ns, number of spans)`.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (s, ns) in spans.iter().zip(span_self_ns(spans)) {
        let e = out.entry(s.name).or_default();
        e.0 += ns;
        e.1 += 1;
    }
    out
}

/// Share of the root spans' wall time that the layer spans beneath
/// them account for: the sum of every non-root span's self time over
/// the sum of root durations. 1.0 means the layers explain all of it.
pub fn coverage(spans: &[Span]) -> f64 {
    let mut roots = 0u64;
    let mut layers = 0u64;
    for (s, ns) in spans.iter().zip(span_self_ns(spans)) {
        match s.parent {
            None => roots += s.dur_ns(),
            Some(_) => layers += ns,
        }
    }
    if roots == 0 {
        return 0.0;
    }
    layers as f64 / roots as f64
}

/// Write spans as tab-separated `index parent thread name start_ns
/// end_ns` rows (`-` for no parent).
pub fn write_tsv(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "index\tparent\tthread\tname\tstart_ns\tend_ns")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{i}\t{parent}\t{}\t{}\t{}\t{}",
            s.thread, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            name,
            parent,
            thread: 0,
            start_ns: start,
            end_ns: end,
        }
    }

    /// root [0,100) ⊃ a [10,60) ⊃ b [20,30), b [40,50); root ⊃ c [70,95)
    fn nested() -> Vec<Span> {
        vec![
            span("root", None, 0, 100),
            span("a", Some(0), 10, 60),
            span("b", Some(1), 20, 30),
            span("b", Some(1), 40, 50),
            span("c", Some(0), 70, 95),
        ]
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let t = self_times(&nested());
        assert_eq!(t["root"], (100 - 50 - 25, 1));
        assert_eq!(t["a"], (50 - 20, 1));
        assert_eq!(t["b"], (20, 2));
        assert_eq!(t["c"], (25, 1));
        // Self times of all spans add up to the roots' wall time.
        let total: u64 = t.values().map(|(ns, _)| ns).sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn coverage_is_layer_self_time_over_root_wall() {
        // Layers a, b, c cover 30 + 20 + 25 = 75 of the root's 100 ns.
        assert!((coverage(&nested()) - 0.75).abs() < 1e-12);
        // Two roots: the second is fully covered by its child.
        let mut spans = nested();
        spans.push(span("root", None, 200, 300));
        spans.push(span("c", Some(5), 200, 300));
        assert!((coverage(&spans) - 175.0 / 200.0).abs() < 1e-12);
        assert_eq!(coverage(&[]), 0.0);
    }

    #[test]
    fn recorder_nests_and_absorbs_threads() {
        let epoch = Instant::now();
        let mut main = Tracer::new(true, 0, epoch);
        main.span("root", |tr| tr.span("leaf", |_| ()));
        let mut other = main.for_thread(1);
        other.span("root", |tr| {
            tr.span("mid", |tr| tr.span("leaf", |_| ()));
        });
        main.absorb(other);
        let s = main.spans();
        assert_eq!(s.len(), 5);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!((s[2].name, s[2].parent, s[2].thread), ("root", None, 1));
        assert_eq!((s[3].name, s[3].parent), ("mid", Some(2)));
        assert_eq!((s[4].name, s[4].parent), ("leaf", Some(3)));
        assert!(s.iter().all(|x| x.start_ns <= x.end_ns));

        let mut off = Tracer::off();
        assert_eq!(off.span("root", |_| 7), 7);
        assert!(off.spans().is_empty());
    }
}
