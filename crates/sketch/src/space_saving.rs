//! SpaceSaving (Metwally, Agrawal & El Abbadi, ICDT 2005).
//!
//! The other classic `O(k)`-counter frequent-items summary: when a new item
//! arrives and the table is full, the *minimum* counter is reassigned to it
//! and incremented, recording the possible overestimate. Point queries are
//! overestimates by at most `n/k`; every item with `f_x > n/k` is tracked.
//! Provided as an alternative heavy-hitter backend (the paper's Theorem 6
//! only needs *some* `(α, ε)` reporter on the sampled stream).

use std::collections::BTreeSet;

use sss_codec::{
    put_packed_sorted_u64s, put_varint_u64, put_varint_u64s, CodecError, Reader, WireCodec,
};
use sss_hash::{fp_hash_map, FpHashMap};

/// SpaceSaving summary with `k` counters.
#[derive(Debug, Clone)]
pub struct SpaceSaving {
    k: usize,
    /// item → (count, overestimation error at adoption time)
    table: FpHashMap<u64, (u64, u64)>,
    /// (count, item) ordered set for O(log k) minimum extraction.
    by_count: BTreeSet<(u64, u64)>,
    n: u64,
}

impl SpaceSaving {
    /// Summary with `k ≥ 1` counters (overestimate `≤ n/k`).
    pub fn new(k: usize) -> Self {
        assert!(k >= 1, "need at least one counter");
        Self {
            k,
            table: fp_hash_map(),
            by_count: BTreeSet::new(),
            n: 0,
        }
    }

    /// Number of stream elements ingested.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// The deterministic overestimation bound `n/k`.
    pub fn error_bound(&self) -> f64 {
        self.n as f64 / self.k as f64
    }

    /// Ingest one occurrence of `x`.
    pub fn update(&mut self, x: u64) {
        self.n += 1;
        if let Some(&(c, e)) = self.table.get(&x) {
            self.by_count.remove(&(c, x));
            self.table.insert(x, (c + 1, e));
            self.by_count.insert((c + 1, x));
        } else if self.table.len() < self.k {
            self.table.insert(x, (1, 0));
            self.by_count.insert((1, x));
        } else {
            // Evict the minimum counter; adopt its count as our error.
            let &(min_c, min_i) = self.by_count.iter().next().expect("non-empty");
            self.by_count.remove(&(min_c, min_i));
            self.table.remove(&min_i);
            self.table.insert(x, (min_c + 1, min_c));
            self.by_count.insert((min_c + 1, x));
        }
    }

    /// Ingest a batch of occurrences (same result as one-by-one updates).
    pub fn update_batch(&mut self, xs: &[u64]) {
        for &x in xs {
            self.update(x);
        }
    }

    /// Merge another summary with the same capacity (Agarwal et al.,
    /// *Mergeable Summaries*, PODS 2012). An item absent from a summary
    /// has an implicit count of at most that summary's minimum counter, so
    /// one-sided items inherit the other side's minimum as count and
    /// error; the combined table is then pruned back to the `k` largest
    /// counters. The `f_x ≤ query(x) ≤ f_x + n/k` bracket is preserved.
    pub fn merge(&mut self, other: &SpaceSaving) {
        assert_eq!(self.k, other.k, "capacity mismatch");
        let self_min = if self.table.len() < self.k {
            0
        } else {
            self.by_count.iter().next().map(|&(c, _)| c).unwrap_or(0)
        };
        let other_min = if other.table.len() < other.k {
            0
        } else {
            other.by_count.iter().next().map(|&(c, _)| c).unwrap_or(0)
        };
        let mut combined: Vec<(u64, (u64, u64))> = Vec::new();
        // sss-lint: allow(canonical_iteration) — each id lands in `combined` exactly once and the (count desc, id asc) sort below canonicalizes before truncation
        for (&i, &(c, e)) in &self.table {
            match other.table.get(&i) {
                Some(&(oc, oe)) => combined.push((i, (c + oc, e + oe))),
                None => combined.push((i, (c + other_min, e + other_min))),
            }
        }
        // sss-lint: allow(canonical_iteration) — same: unique ids, fully sorted before truncation
        for (&i, &(c, e)) in &other.table {
            if !self.table.contains_key(&i) {
                combined.push((i, (c + self_min, e + self_min)));
            }
        }
        combined.sort_by(|a, b| b.1 .0.cmp(&a.1 .0).then(a.0.cmp(&b.0)));
        combined.truncate(self.k);
        self.table.clear();
        self.by_count.clear();
        for (i, (c, e)) in combined {
            self.table.insert(i, (c, e));
            self.by_count.insert((c, i));
        }
        self.n += other.n;
    }

    /// Upper-bound estimate of the frequency of `x` (0 if untracked);
    /// `f_x ≤ query(x) ≤ f_x + n/k` for tracked items.
    pub fn query(&self, x: u64) -> u64 {
        self.table.get(&x).map(|&(c, _)| c).unwrap_or(0)
    }

    /// Guaranteed lower bound on the frequency of `x` (count − error).
    pub fn query_lower(&self, x: u64) -> u64 {
        self.table.get(&x).map(|&(c, e)| c - e).unwrap_or(0)
    }

    /// Tracked `(item, count, error)` rows sorted by decreasing count.
    pub fn items(&self) -> Vec<(u64, u64, u64)> {
        let mut v: Vec<(u64, u64, u64)> =
            self.table.iter().map(|(&i, &(c, e))| (i, c, e)).collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    }
}

impl WireCodec for SpaceSaving {
    const WIRE_TAG: u16 = 0x0207;

    fn encode_into(&self, out: &mut Vec<u8>) {
        // `by_count` is derived (count, item) ordering — rebuilt on
        // decode. v2 layout: columnar — sorted-delta-packed item ids,
        // FoR-packed count and error columns.
        put_varint_u64(out, self.k as u64);
        put_varint_u64(out, self.n);
        let mut rows: Vec<(u64, u64, u64)> =
            self.table.iter().map(|(&i, &(c, e))| (i, c, e)).collect();
        rows.sort_unstable();
        let items: Vec<u64> = rows.iter().map(|&(i, _, _)| i).collect();
        let counts: Vec<u64> = rows.iter().map(|&(_, c, _)| c).collect();
        let errs: Vec<u64> = rows.iter().map(|&(_, _, e)| e).collect();
        put_packed_sorted_u64s(out, &items);
        put_varint_u64s(out, &counts);
        put_varint_u64s(out, &errs);
    }

    fn decode(r: &mut Reader) -> Result<Self, CodecError> {
        let (k, n, rows);
        if r.v2() {
            k = r.varint_u64()? as usize;
            n = r.varint_u64()?;
            if k == 0 {
                return Err(CodecError::Invalid {
                    what: "SpaceSaving k == 0",
                });
            }
            let items = r.packed_sorted_u64s()?;
            let counts = r.varint_u64s()?;
            let errs = r.varint_u64s()?;
            if counts.len() != items.len() || errs.len() != items.len() {
                return Err(CodecError::Invalid {
                    what: "SpaceSaving column length mismatch",
                });
            }
            rows = items
                .into_iter()
                .zip(counts)
                .zip(errs)
                .map(|((i, c), e)| (i, c, e))
                .collect::<Vec<_>>();
        } else {
            k = usize::decode(r)?;
            n = r.u64()?;
            if k == 0 {
                return Err(CodecError::Invalid {
                    what: "SpaceSaving k == 0",
                });
            }
            let len = r.len_prefix(24)?;
            let mut v = Vec::with_capacity(len);
            for _ in 0..len {
                v.push((r.u64()?, r.u64()?, r.u64()?));
            }
            rows = v;
        }
        if rows.len() > k {
            return Err(CodecError::Invalid {
                what: "SpaceSaving holds more than k counters",
            });
        }
        let mut table = fp_hash_map();
        table.reserve(rows.len());
        let mut by_count = BTreeSet::new();
        for (item, count, err) in rows {
            if count == 0 || err >= count {
                return Err(CodecError::Invalid {
                    what: "SpaceSaving counter not above its error",
                });
            }
            if table.insert(item, (count, err)).is_some() {
                return Err(CodecError::Invalid {
                    what: "SpaceSaving duplicate item",
                });
            }
            by_count.insert((count, item));
        }
        Ok(SpaceSaving {
            k,
            table,
            by_count,
            n,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sss_hash::{RngCore64, Xoshiro256pp};

    #[test]
    fn estimates_bracket_truth() {
        let mut ss = SpaceSaving::new(20);
        let mut rng = Xoshiro256pp::new(1);
        let mut truth = std::collections::HashMap::new();
        for _ in 0..50_000 {
            let x = if rng.next_bool(0.5) {
                rng.next_below(5)
            } else {
                5 + rng.next_below(10_000)
            };
            ss.update(x);
            *truth.entry(x).or_insert(0u64) += 1;
        }
        let bound = ss.error_bound();
        for (&x, &f) in &truth {
            let q = ss.query(x);
            if q > 0 {
                assert!(q >= f || x >= 5, "tracked heavy item underestimated");
                assert!(q as f64 <= f as f64 + bound, "item {x}: {q} > {f}+{bound}");
                assert!(ss.query_lower(x) <= f);
            }
        }
    }

    #[test]
    fn heavy_items_never_evicted() {
        let k = 10;
        let mut ss = SpaceSaving::new(k);
        let n = 100_000u64;
        // Item 0 holds 20% of the stream: f > n/k.
        let mut rng = Xoshiro256pp::new(2);
        for _ in 0..n {
            let x = if rng.next_bool(0.2) {
                0
            } else {
                1 + rng.next_below(50_000)
            };
            ss.update(x);
        }
        assert!(ss.query(0) > 0, "heavy item evicted");
        assert!(ss.query_lower(0) > 0);
    }

    #[test]
    fn table_capacity_respected() {
        let mut ss = SpaceSaving::new(4);
        for x in 0..1000u64 {
            ss.update(x);
        }
        assert!(ss.items().len() <= 4);
        // Counts sum to n (SpaceSaving invariant).
        let total: u64 = ss.items().iter().map(|&(_, c, _)| c).sum();
        assert_eq!(total, 1000);
    }

    #[test]
    fn merge_preserves_bracket_and_capacity() {
        let k = 16;
        let mut a = SpaceSaving::new(k);
        let mut b = SpaceSaving::new(k);
        let mut truth = std::collections::HashMap::new();
        let mut rng = Xoshiro256pp::new(7);
        for _ in 0..30_000 {
            let x = if rng.next_bool(0.4) {
                rng.next_below(4)
            } else {
                4 + rng.next_below(8_000)
            };
            a.update(x);
            *truth.entry(x).or_insert(0u64) += 1;
        }
        for _ in 0..30_000 {
            let x = if rng.next_bool(0.4) {
                rng.next_below(4)
            } else {
                4 + rng.next_below(8_000)
            };
            b.update(x);
            *truth.entry(x).or_insert(0u64) += 1;
        }
        a.merge(&b);
        assert_eq!(a.n(), 60_000);
        assert!(a.items().len() <= k);
        let bound = a.error_bound();
        for (&x, &f) in &truth {
            let q = a.query(x);
            if q > 0 {
                assert!(q as f64 <= f as f64 + bound, "item {x}: {q} > {f}+{bound}");
                assert!(a.query_lower(x) <= f, "lower bound broken at {x}");
            }
        }
        // The four planted heavies (f ≈ 24k each > n/k) must survive.
        for x in 0..4u64 {
            assert!(a.query(x) > 0, "heavy item {x} lost in merge");
        }
    }

    #[test]
    fn merge_under_capacity_is_exact() {
        let mut a = SpaceSaving::new(100);
        let mut b = SpaceSaving::new(100);
        for _ in 0..5 {
            a.update(1);
            b.update(1);
            b.update(2);
        }
        a.merge(&b);
        assert_eq!(a.query(1), 10);
        assert_eq!(a.query(2), 5);
        assert_eq!(a.n(), 15);
    }

    #[test]
    fn exact_when_under_capacity() {
        let mut ss = SpaceSaving::new(100);
        for _ in 0..7 {
            ss.update(1);
        }
        for _ in 0..3 {
            ss.update(2);
        }
        assert_eq!(ss.query(1), 7);
        assert_eq!(ss.query(2), 3);
        assert_eq!(ss.query_lower(1), 7);
    }
}
