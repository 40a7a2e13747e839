//! Collision oracles: the `C̃_ℓ(L)` providers plugged into Algorithm 1.
//!
//! The paper computes `C̃_ℓ(L)` with the Indyk–Woodruff estimator (Theorem
//! 2). We expose that behind a trait with two implementations so that
//! experiments can separate the two error sources of Lemma 3:
//!
//! * [`ExactCollisions`] — exact incremental collision counting from a
//!   frequency map of the *sampled* stream. Space `O(F_0(L))`; isolates the
//!   Bernoulli-sampling error (events `E¹_ℓ`, Lemma 5).
//! * [`LevelSetCollisions`] — the paper's sketched path at
//!   `Õ(p⁻¹m^{1−2/k})` space; adds the sketching error (events `E²_ℓ`,
//!   Lemmas 6–7).

use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::hash_map::Entry;

use sss_codec::{
    put_packed_sorted_u64s, put_varint_u64, put_varint_u64s, CodecError, Reader, WireCodec,
};
use sss_hash::{fp_hash_map, FpHashMap};
use sss_sketch::levelset::{LevelSetConfig, LevelSetEstimator};

/// A one-pass structure that observes the sampled stream and can estimate
/// the `ℓ`-wise collision counts `C_ℓ` of what it saw.
pub trait CollisionOracle {
    /// Ingest one element of the sampled stream.
    fn update(&mut self, x: u64);

    /// Ingest a batch of consecutive elements (semantically identical to
    /// one-by-one updates).
    fn update_batch(&mut self, xs: &[u64]) {
        for &x in xs {
            self.update(x);
        }
    }

    /// Whether `other` can merge into `self` (same order and sketch
    /// configuration), without mutating anything. `merge` panics with the
    /// returned reason.
    fn check_merge(&self, other: &Self) -> Result<(), String>
    where
        Self: Sized;

    /// Merge a second oracle of the same configuration: afterwards `self`
    /// summarises the concatenation of both ingested streams.
    ///
    /// # Panics
    /// If [`CollisionOracle::check_merge`] fails.
    fn merge(&mut self, other: &Self)
    where
        Self: Sized;

    /// Exact number of elements ingested (`F_1(L)`; a single counter).
    fn n(&self) -> u64;

    /// Estimate `C_ℓ` of the ingested stream, for `1 ≤ ℓ ≤ max_order`.
    fn estimate(&self, ell: u32) -> f64;

    /// Largest `ℓ` this oracle supports.
    fn max_order(&self) -> u32;

    /// Memory footprint in 64-bit words (for the space experiments).
    fn space_words(&self) -> usize;
}

/// Exact collision counting via a frequency table, maintained
/// incrementally: when an item's count rises from `g` to `g+1`, `C_ℓ`
/// grows by `binom(g, ℓ−1)` — `O(k)` work per update.
///
/// The table holds one of two forms; no caller can tell which:
///
/// * **a hash map** while the oracle ingests. [`ExactCollisions::new`]
///   starts with an empty one, and every update runs against it;
/// * **strictly increasing `(item, count)` rows**, the form
///   [`decode`](WireCodec::decode) validates and keeps as it is. A
///   restored snapshot is typically only merged, encoded or queried,
///   and rows do all three at memory speed: rows merge into rows (or
///   into an empty oracle) by a linear merge-join that yields rows
///   again, encode without a sort, and answer
///   [`freq`](ExactCollisions::freq) by binary search.
///
/// The first update after a decode converts the rows into a pre-sized
/// map, once per batch. Merging rows into a map walks the rows; merging
/// a map into rows converts them to a map first. A map encodes after
/// one LSD radix sort of its rows by item. Every merge path applies the
/// shared items' patches in ascending item order, so `C_ℓ` comes out
/// bitwise the same whichever forms meet.
#[derive(Debug, Clone)]
pub struct ExactCollisions {
    freqs: Freqs,
    /// `c[ℓ]` holds `C_ℓ`; index 0 unused, `c[1] = n`.
    c: Vec<f64>,
    n: u64,
}

/// The frequency table of [`ExactCollisions`]; every count is ≥ 1.
#[derive(Debug, Clone)]
enum Freqs {
    /// The form an oracle ingests into.
    Map(FpHashMap<u64, u64>),
    /// Strictly increasing by item: what `decode` validates and what a
    /// merge-join produces.
    Rows(Vec<(u64, u64)>),
}

impl Freqs {
    fn len(&self) -> usize {
        match self {
            Freqs::Map(map) => map.len(),
            Freqs::Rows(rows) => rows.len(),
        }
    }

    fn get(&self, x: u64) -> u64 {
        match self {
            Freqs::Map(map) => map.get(&x).copied().unwrap_or(0),
            Freqs::Rows(rows) => rows
                .binary_search_by_key(&x, |&(item, _)| item)
                .map_or(0, |at| rows[at].1),
        }
    }

    /// The map form, converting rows into a pre-sized map first.
    fn map_mut(&mut self) -> &mut FpHashMap<u64, u64> {
        if let Freqs::Rows(rows) = self {
            let mut map = fp_hash_map();
            map.reserve(rows.len());
            map.extend(rows.iter().copied());
            *self = Freqs::Map(map);
        }
        match self {
            Freqs::Map(map) => map,
            Freqs::Rows(_) => unreachable!("rows were converted above"),
        }
    }

    /// The rows in ascending item order: borrowed from the rows form,
    /// radix-sorted out of the map form.
    fn sorted_rows(&self) -> Cow<'_, [(u64, u64)]> {
        match self {
            Freqs::Rows(rows) => Cow::Borrowed(rows),
            Freqs::Map(map) => {
                let mut rows: Vec<(u64, u64)> = map.iter().map(|(&i, &g)| (i, g)).collect();
                sort_rows_by_item(&mut rows);
                Cow::Owned(rows)
            }
        }
    }
}

/// Sort `rows` by item with one LSD radix pass per byte position,
/// skipping each position whose byte all items share (item ids below
/// 2²⁰ need three passes, not eight). Items are unique, so the order
/// equals `rows.sort_unstable()`.
fn sort_rows_by_item(rows: &mut Vec<(u64, u64)>) {
    let Some(&(first, _)) = rows.first() else {
        return;
    };
    let differ = rows.iter().fold(0, |acc, &(item, _)| acc | (item ^ first));
    let mut scratch = vec![(0u64, 0u64); rows.len()];
    for shift in (0..64).step_by(8).filter(|&s| (differ >> s) as u8 != 0) {
        let mut next = [0usize; 256];
        for &(item, _) in rows.iter() {
            next[(item >> shift) as u8 as usize] += 1;
        }
        let mut at = 0;
        for slot in next.iter_mut() {
            (*slot, at) = (at, at + *slot);
        }
        // Each pass is a permutation, so it overwrites all of `scratch`.
        for &row in rows.iter() {
            let b = (row.0 >> shift) as u8 as usize;
            scratch[next[b]] = row;
            next[b] += 1;
        }
        std::mem::swap(rows, &mut scratch);
    }
}

/// Add to each `C_ℓ`, `ℓ ≥ 2`, what merging gives an item seen `a`
/// times on one side and `b` on the other:
/// `binom(a+b, ℓ) − binom(a, ℓ) − binom(b, ℓ)`.
fn patch_shared(c: &mut [f64], a: u64, b: u64) {
    for ell in 2..c.len() as u32 {
        c[ell as usize] += binom_f64(a + b, ell) - binom_f64(a, ell) - binom_f64(b, ell);
    }
}

/// Linear merge-join of two strictly increasing row lists: shared items
/// add their counts and patch `c`, in ascending item order.
fn merge_join(mine: &[(u64, u64)], theirs: &[(u64, u64)], c: &mut [f64]) -> Vec<(u64, u64)> {
    let mut out = Vec::with_capacity(mine.len() + theirs.len());
    let (mut i, mut j) = (0, 0);
    while let (Some(&(x, a)), Some(&(y, b))) = (mine.get(i), theirs.get(j)) {
        match x.cmp(&y) {
            Ordering::Less => {
                out.push((x, a));
                i += 1;
            }
            Ordering::Greater => {
                out.push((y, b));
                j += 1;
            }
            Ordering::Equal => {
                patch_shared(c, a, b);
                out.push((x, a + b));
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&mine[i..]);
    out.extend_from_slice(&theirs[j..]);
    out
}

/// Insert-or-add each `(item, b)` row into `map`; returns the items it
/// already held as `(item, a, b)`, in the order met.
fn add_into(
    map: &mut FpHashMap<u64, u64>,
    rows: impl Iterator<Item = (u64, u64)>,
) -> Vec<(u64, u64, u64)> {
    let mut shared = Vec::new();
    for (item, b) in rows {
        match map.entry(item) {
            Entry::Occupied(mut e) => {
                let a = *e.get();
                shared.push((item, a, b));
                *e.get_mut() = a + b;
            }
            Entry::Vacant(e) => {
                e.insert(b);
            }
        }
    }
    shared
}

/// Count one occurrence of `x` into the map and the accumulators `c`.
#[inline]
fn record(freqs: &mut FpHashMap<u64, u64>, c: &mut [f64], x: u64) {
    let g = freqs.entry(x).or_insert(0);
    let old = *g;
    *g += 1;
    // ΔC_ℓ = binom(old, ℓ−1); running product avoids recomputation:
    // binom(old, 0) = 1, binom(old, j) = binom(old, j−1)·(old−j+1)/j.
    let mut binom = 1.0f64;
    c[1] += 1.0;
    for ell in 2..c.len() as u32 {
        let j = (ell - 1) as u64;
        if old < j {
            break; // all higher binomials are zero
        }
        binom *= (old - (j - 1)) as f64 / j as f64;
        c[ell as usize] += binom;
    }
}

impl ExactCollisions {
    /// Oracle tracking `C_1 … C_k`.
    pub fn new(k: u32) -> Self {
        assert!(k >= 1, "need k >= 1");
        Self {
            freqs: Freqs::Map(fp_hash_map()),
            c: vec![0.0; k as usize + 1],
            n: 0,
        }
    }

    /// The exact frequency of `x` in the ingested stream.
    pub fn freq(&self, x: u64) -> u64 {
        self.freqs.get(x)
    }

    /// Number of distinct ingested items.
    pub fn distinct(&self) -> u64 {
        self.freqs.len() as u64
    }
}

/// `binom(f, ℓ)` over `f64` (local copy; `sss-stream` is a dev-dependency
/// only).
fn binom_f64(f: u64, l: u32) -> f64 {
    if (f as u128) < l as u128 {
        return 0.0;
    }
    let mut acc = 1.0f64;
    for j in 0..l as u64 {
        acc *= (f - j) as f64 / (j + 1) as f64;
    }
    acc
}

impl CollisionOracle for ExactCollisions {
    fn update(&mut self, x: u64) {
        record(self.freqs.map_mut(), &mut self.c, x);
        self.n += 1;
    }

    fn update_batch(&mut self, xs: &[u64]) {
        let freqs = self.freqs.map_mut();
        for &x in xs {
            record(freqs, &mut self.c, x);
        }
        self.n += xs.len() as u64;
    }

    fn check_merge(&self, other: &Self) -> Result<(), String> {
        let (mine, theirs) = (self.max_order(), other.max_order());
        if mine != theirs {
            return Err(format!("order mismatch: {mine} vs {theirs}"));
        }
        Ok(())
    }

    /// Merge in one pass over `other`'s table. Only items present on
    /// both sides change the collision counts beyond the sum of both
    /// accumulators, by the closed form
    /// `ΔC_ℓ = binom(a+b, ℓ) − binom(a, ℓ) − binom(b, ℓ)`; the patches
    /// apply in ascending item order so the float accumulation is
    /// canonical: merging a deserialized oracle (same contents, another
    /// form or hash-map history) lands on bitwise the same `C_ℓ` as
    /// merging the original.
    ///
    /// Rows merge into rows, or into an empty oracle, by a merge-join
    /// and stay rows. Otherwise `self` takes the map form and `other`'s
    /// table is walked once: each item absent from `self` is inserted
    /// (counts are never 0), each present one added into.
    fn merge(&mut self, other: &Self) {
        sss_sketch::assert_mergeable(self.check_merge(other));
        let k = self.max_order();
        for ell in 1..=k as usize {
            self.c[ell] += other.c[ell];
        }
        self.n += other.n;
        match (&mut self.freqs, &other.freqs) {
            (Freqs::Rows(mine), Freqs::Rows(theirs)) => {
                *mine = merge_join(mine, theirs, &mut self.c);
            }
            (mine, Freqs::Rows(theirs)) if mine.len() == 0 => {
                *mine = Freqs::Rows(theirs.clone());
            }
            (mine, theirs) => {
                let mine = mine.map_mut();
                mine.reserve(theirs.len());
                let mut shared = match theirs {
                    Freqs::Map(map) => add_into(mine, map.iter().map(|(&i, &g)| (i, g))),
                    Freqs::Rows(rows) => add_into(mine, rows.iter().copied()),
                };
                // Insert-or-add of u64 counts commutes; only the float
                // patches depend on order.
                shared.sort_unstable_by_key(|&(item, _, _)| item);
                for (_, a, b) in shared {
                    patch_shared(&mut self.c, a, b);
                }
            }
        }
    }

    fn n(&self) -> u64 {
        self.n
    }

    fn estimate(&self, ell: u32) -> f64 {
        assert!(
            ell >= 1 && (ell as usize) < self.c.len(),
            "order {ell} out of range"
        );
        self.c[ell as usize]
    }

    fn max_order(&self) -> u32 {
        self.c.len() as u32 - 1
    }

    fn space_words(&self) -> usize {
        2 * self.freqs.len() + self.c.len()
    }
}

impl WireCodec for ExactCollisions {
    const WIRE_TAG: u16 = 0x040B;

    fn encode_into(&self, out: &mut Vec<u8>) {
        // v2 layout: the frequency table — the O(F_0(L)) bulk of
        // Algorithm 1's state — ships columnar: sorted-delta item ids +
        // varint sampled counts. The collision accumulators stay raw f64.
        self.c.encode_into(out);
        put_varint_u64(out, self.n);
        let rows = self.freqs.sorted_rows();
        put_packed_sorted_u64s(out, &rows.iter().map(|&(i, _)| i).collect::<Vec<_>>());
        put_varint_u64s(out, &rows.iter().map(|&(_, g)| g).collect::<Vec<_>>());
    }

    /// Validates the rows (every count ≥ 1, items strictly increasing,
    /// counts summing to `n`) and keeps them as the rows form. Version-1
    /// rows are sorted first; a repeated item fails as unordered.
    fn decode(r: &mut Reader) -> Result<Self, CodecError> {
        let c: Vec<f64> = Vec::decode(r)?;
        if c.len() < 2 {
            return Err(CodecError::Invalid {
                what: "ExactCollisions accumulator shorter than [unused, C_1]",
            });
        }
        let (n, rows);
        if r.v2() {
            n = r.varint_u64()?;
            let items = r.packed_sorted_u64s()?;
            let gs = r.varint_u64s()?;
            if gs.len() != items.len() {
                return Err(CodecError::Invalid {
                    what: "ExactCollisions column length mismatch",
                });
            }
            rows = items.into_iter().zip(gs).collect::<Vec<_>>();
        } else {
            n = r.u64()?;
            let len = r.len_prefix(16)?;
            let mut v = Vec::with_capacity(len);
            for _ in 0..len {
                v.push((r.u64()?, r.u64()?));
            }
            v.sort_unstable();
            rows = v;
        }
        let mut total: u64 = 0;
        let mut prev: Option<u64> = None;
        for &(item, g) in &rows {
            if g == 0 || prev.is_some_and(|p| p >= item) {
                return Err(CodecError::Invalid {
                    what: "ExactCollisions frequency row invalid",
                });
            }
            prev = Some(item);
            total = total.checked_add(g).ok_or(CodecError::Invalid {
                what: "ExactCollisions frequencies overflow u64",
            })?;
        }
        if total != n {
            return Err(CodecError::Invalid {
                what: "ExactCollisions frequencies do not sum to n",
            });
        }
        Ok(ExactCollisions {
            freqs: Freqs::Rows(rows),
            c,
            n,
        })
    }
}

/// Collision estimation through the Indyk–Woodruff level-set sketch.
#[derive(Debug, Clone)]
pub struct LevelSetCollisions {
    inner: LevelSetEstimator,
    max_order: u32,
}

impl LevelSetCollisions {
    /// Oracle for orders up to `k`, backed by a level-set estimator with the
    /// given configuration.
    pub fn new(k: u32, config: &LevelSetConfig, seed: u64) -> Self {
        assert!(k >= 1);
        Self {
            inner: LevelSetEstimator::new(config, seed),
            max_order: k,
        }
    }

    /// Access the underlying level-set estimator (for diagnostics).
    pub fn level_sets(&self) -> &LevelSetEstimator {
        &self.inner
    }
}

impl CollisionOracle for LevelSetCollisions {
    fn update(&mut self, x: u64) {
        self.inner.update(x);
    }

    fn update_batch(&mut self, xs: &[u64]) {
        self.inner.update_batch(xs);
    }

    fn check_merge(&self, other: &Self) -> Result<(), String> {
        if self.max_order != other.max_order {
            return Err(format!(
                "order mismatch: {} vs {}",
                self.max_order, other.max_order
            ));
        }
        self.inner.check_merge(&other.inner)
    }

    fn merge(&mut self, other: &Self) {
        sss_sketch::assert_mergeable(self.check_merge(other));
        self.inner.merge(&other.inner);
    }

    fn n(&self) -> u64 {
        self.inner.n()
    }

    fn estimate(&self, ell: u32) -> f64 {
        assert!(
            ell >= 1 && ell <= self.max_order,
            "order {ell} out of range"
        );
        self.inner.collision_estimate(ell)
    }

    fn max_order(&self) -> u32 {
        self.max_order
    }

    fn space_words(&self) -> usize {
        self.inner.space_words()
    }
}

impl WireCodec for LevelSetCollisions {
    const WIRE_TAG: u16 = 0x040C;

    fn encode_into(&self, out: &mut Vec<u8>) {
        self.max_order.encode_into(out);
        self.inner.encode_into(out);
    }

    fn decode(r: &mut Reader) -> Result<Self, CodecError> {
        let max_order = r.u32()?;
        if max_order == 0 {
            return Err(CodecError::Invalid {
                what: "LevelSetCollisions order == 0",
            });
        }
        Ok(LevelSetCollisions {
            inner: LevelSetEstimator::decode(r)?,
            max_order,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sss_stream::exact::binom_u128;
    use sss_stream::{BernoulliSampler, ExactStats, StreamGen, ZipfStream};

    #[test]
    fn incremental_matches_batch_formula() {
        let stream: Vec<u64> = (0..5000u64).map(|i| i % 137).collect();
        let mut oracle = ExactCollisions::new(5);
        for &x in &stream {
            oracle.update(x);
        }
        let stats = ExactStats::from_stream(stream.iter().copied());
        for ell in 1..=5u32 {
            let exact = stats.collisions(ell);
            let got = oracle.estimate(ell);
            assert!(
                (got - exact).abs() <= 1e-9 * exact.max(1.0),
                "C_{ell}: {got} vs {exact}"
            );
        }
    }

    #[test]
    fn single_item_collisions_are_binomials() {
        let mut oracle = ExactCollisions::new(4);
        for _ in 0..100 {
            oracle.update(9);
        }
        for ell in 1..=4u32 {
            assert_eq!(
                oracle.estimate(ell),
                binom_u128(100, ell).unwrap() as f64,
                "ℓ={ell}"
            );
        }
        assert_eq!(oracle.freq(9), 100);
        assert_eq!(oracle.distinct(), 1);
    }

    #[test]
    fn all_distinct_has_no_collisions() {
        let mut oracle = ExactCollisions::new(3);
        for x in 0..1000u64 {
            oracle.update(x);
        }
        assert_eq!(oracle.estimate(1), 1000.0);
        assert_eq!(oracle.estimate(2), 0.0);
        assert_eq!(oracle.estimate(3), 0.0);
    }

    #[test]
    fn levelset_oracle_roughly_agrees_with_exact() {
        // Mixed-frequency stream exercising both recovery regimes.
        let mut stream = Vec::new();
        for hot in 0..5u64 {
            stream.extend(std::iter::repeat_n(sss_hash::fingerprint64(hot), 2000));
        }
        for light in 100..4100u64 {
            stream.extend(std::iter::repeat_n(sss_hash::fingerprint64(light), 3));
        }
        let cfg = LevelSetConfig::for_universe(1 << 16, 512);
        let mut ls = LevelSetCollisions::new(3, &cfg, 7);
        let mut ex = ExactCollisions::new(3);
        for &x in &stream {
            ls.update(x);
            ex.update(x);
        }
        assert_eq!(ls.n(), ex.n());
        for ell in 2..=3u32 {
            let truth = ex.estimate(ell);
            let est = ls.estimate(ell);
            let rel = (est - truth).abs() / truth;
            assert!(rel < 0.35, "C_{ell}: {est} vs {truth} (rel {rel})");
        }
    }

    #[test]
    fn space_accounting_is_positive_and_ordered() {
        let cfg = LevelSetConfig::for_universe(1 << 16, 256);
        let ls = LevelSetCollisions::new(2, &cfg, 1);
        assert!(ls.space_words() > 256);
        let mut ex = ExactCollisions::new(2);
        for x in 0..100u64 {
            ex.update(x);
        }
        assert!(ex.space_words() >= 200);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn order_bounds_enforced() {
        let oracle = ExactCollisions::new(3);
        let _ = oracle.estimate(4);
    }

    #[test]
    fn merge_equals_concatenation() {
        let left: Vec<u64> = (0..4000u64).map(|i| i % 97).collect();
        let right: Vec<u64> = (0..3000u64).map(|i| i % 41).collect();
        let mut a = ExactCollisions::new(4);
        let mut b = ExactCollisions::new(4);
        let mut whole = ExactCollisions::new(4);
        for &x in &left {
            a.update(x);
            whole.update(x);
        }
        for &x in &right {
            b.update(x);
            whole.update(x);
        }
        a.merge(&b);
        assert_eq!(a.n(), whole.n());
        assert_eq!(a.distinct(), whole.distinct());
        for ell in 1..=4u32 {
            let merged = a.estimate(ell);
            let direct = whole.estimate(ell);
            assert!(
                (merged - direct).abs() <= 1e-6 * direct.max(1.0),
                "C_{ell}: merged {merged} vs direct {direct}"
            );
        }
    }

    #[test]
    fn merge_with_disjoint_items() {
        let mut a = ExactCollisions::new(3);
        let mut b = ExactCollisions::new(3);
        for _ in 0..10 {
            a.update(1);
            b.update(2);
        }
        a.merge(&b);
        assert_eq!(a.estimate(2), 2.0 * 45.0); // two items of freq 10
        assert_eq!(a.freq(1), 10);
        assert_eq!(a.freq(2), 10);
    }

    /// The sort-all-rows merge the one-pass `merge` replaced: every row
    /// of `other` in ascending item order, a lookup and an insert each.
    /// Kept as the bitwise reference.
    fn reference_merge(a: &mut ExactCollisions, other: &ExactCollisions) {
        let k = a.max_order();
        for ell in 1..=k as usize {
            a.c[ell] += other.c[ell];
        }
        for (item, g) in sorted_rows(other) {
            let f = a.freq(item);
            if f > 0 {
                for ell in 2..=k {
                    a.c[ell as usize] +=
                        binom_f64(f + g, ell) - binom_f64(f, ell) - binom_f64(g, ell);
                }
            }
            a.freqs.map_mut().insert(item, f + g);
        }
        a.n += other.n;
    }

    /// The rows of either form, comparison-sorted.
    fn sorted_rows(o: &ExactCollisions) -> Vec<(u64, u64)> {
        let mut rows: Vec<(u64, u64)> = match &o.freqs {
            Freqs::Map(map) => map.iter().map(|(&i, &g)| (i, g)).collect(),
            Freqs::Rows(rows) => rows.clone(),
        };
        rows.sort_unstable();
        rows
    }

    fn assert_bitwise_eq(got: &ExactCollisions, want: &ExactCollisions, case: &str) {
        let bits = |o: &ExactCollisions| o.c.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(got), bits(want), "{case}: C_ℓ bits");
        assert_eq!(
            sorted_rows(got),
            sorted_rows(want),
            "{case}: frequency rows"
        );
        assert_eq!(got.n, want.n, "{case}: n");
    }

    /// An oracle holding `distinct` items from `first` on, item `i` with
    /// count `1 + (i² mod 9973)·10007`, and `C_ℓ` summed in closed form.
    /// Counts up to ~10⁸ push every `C_ℓ` past 2⁵³, so each float patch
    /// rounds and a change in patch order changes the result's bits.
    fn skewed(k: u32, first: u64, distinct: u64) -> ExactCollisions {
        let mut o = ExactCollisions::new(k);
        for i in first..first + distinct {
            let g = 1 + (i * i % 9973) * 10_007;
            o.freqs.map_mut().insert(sss_hash::fingerprint64(i), g);
            for ell in 1..=k {
                o.c[ell as usize] += binom_f64(g, ell);
            }
            o.n += g;
        }
        o
    }

    #[test]
    fn one_pass_merge_is_bitwise_the_sort_all_rows_merge() {
        let cases = [
            ("disjoint", 3, (0, 2000), (10_000, 1500)),
            ("overlapping", 3, (0, 2000), (1000, 2500)),
            ("self-merge into empty", 3, (0, 0), (0, 3000)),
            ("k = 2", 2, (0, 2000), (500, 2000)),
            ("k = 4", 4, (0, 2000), (500, 2000)),
        ];
        for (case, k, left, right) in cases {
            let a = skewed(k, left.0, left.1);
            let b = skewed(k, right.0, right.1);
            let mut want = a.clone();
            reference_merge(&mut want, &b);

            let mut got = a.clone();
            got.merge(&b);
            assert_bitwise_eq(&got, &want, case);

            // A decoded copy holds the same rows under a different
            // hash-map history, so the one-pass walk visits them in
            // another order: the result must not move.
            let b_copy = ExactCollisions::decode_framed(&b.encode_framed()).expect("round trip");
            let mut got = a.clone();
            got.merge(&b_copy);
            assert_bitwise_eq(&got, &want, case);
        }
    }

    /// Two oracles ingesting halves of one Bernoulli-sampled Zipf
    /// stream: realistic overlap between the sides, many small counts.
    fn sampled_zipf_halves(k: u32) -> (ExactCollisions, ExactCollisions, Vec<u64>) {
        let stream = ZipfStream::new(20_000, 1.1).generate(200_000, 5);
        let sampled = BernoulliSampler::new(0.5, 9).sample_to_vec(&stream);
        let (left, right) = sampled.split_at(sampled.len() / 2);
        let mut a = ExactCollisions::new(k);
        a.update_batch(left);
        let mut b = ExactCollisions::new(k);
        b.update_batch(right);
        (a, b, right.to_vec())
    }

    /// The representation battery's fixtures: `(name, left, right)`,
    /// both sides in the map form.
    fn battery() -> Vec<(&'static str, ExactCollisions, ExactCollisions)> {
        let (za, zb, _) = sampled_zipf_halves(3);
        vec![
            (
                "skewed disjoint",
                skewed(3, 0, 2000),
                skewed(3, 10_000, 1500),
            ),
            (
                "skewed overlapping",
                skewed(3, 0, 2000),
                skewed(3, 1000, 2500),
            ),
            ("skewed k = 2", skewed(2, 0, 2000), skewed(2, 500, 2000)),
            ("skewed k = 4", skewed(4, 0, 2000), skewed(4, 500, 2000)),
            ("sampled zipf", za, zb),
        ]
    }

    fn rows_form(o: &ExactCollisions) -> ExactCollisions {
        let rows = ExactCollisions::decode_framed(&o.encode_framed()).expect("round trip");
        assert!(matches!(rows.freqs, Freqs::Rows(_)), "decode keeps rows");
        rows
    }

    fn map_form(o: &ExactCollisions) -> ExactCollisions {
        let mut map = o.clone();
        map.freqs.map_mut();
        map
    }

    #[test]
    fn table_forms_encode_and_answer_alike() {
        for (case, map, _) in battery() {
            assert!(
                matches!(map.freqs, Freqs::Map(_)),
                "{case}: ingest builds a map"
            );
            let rows = rows_form(&map);
            let back = map_form(&rows);
            let bytes = map.encode_framed();
            assert_eq!(rows.encode_framed(), bytes, "{case}: rows encode");
            assert_eq!(back.encode_framed(), bytes, "{case}: rows → map encode");
            let probes = sorted_rows(&map)
                .into_iter()
                .flat_map(|(item, _)| [item, item.wrapping_add(1)])
                .chain([0, u64::MAX]);
            for x in probes {
                let f = map.freq(x);
                assert_eq!(rows.freq(x), f, "{case}: rows freq({x})");
                assert_eq!(back.freq(x), f, "{case}: rows → map freq({x})");
            }
            for o in [&rows, &back] {
                assert_eq!(o.distinct(), map.distinct(), "{case}: distinct");
                assert_eq!(o.space_words(), map.space_words(), "{case}: space_words");
            }
        }
    }

    #[test]
    fn every_form_pairing_merges_bitwise_like_the_reference() {
        for (case, a, b) in battery() {
            let k = a.max_order();
            let forms = |o: &ExactCollisions| {
                [
                    ("map", o.clone()),
                    ("rows", rows_form(o)),
                    ("empty", ExactCollisions::new(k)),
                ]
            };
            for (mine, left) in forms(&a) {
                for (theirs, right) in forms(&b) {
                    let mut want = map_form(&left);
                    reference_merge(&mut want, &right);
                    let mut got = left.clone();
                    got.merge(&right);
                    let pairing = format!("{case}: {mine} ← {theirs}");
                    assert_bitwise_eq(&got, &want, &pairing);
                    assert_eq!(got.distinct(), want.distinct(), "{pairing}: distinct");
                    assert_eq!(got.space_words(), want.space_words(), "{pairing}: space");
                    assert_eq!(got.encode(), want.encode(), "{pairing}: encode");
                }
            }
        }
    }

    #[test]
    fn ingest_after_restore_matches_the_never_serialized_run() {
        let (mut live, _, rest) = sampled_zipf_halves(3);
        let mut batched = rows_form(&live);
        let mut single = rows_form(&live);
        let mut merged = ExactCollisions::new(3);
        merged.merge(&rows_form(&live));
        live.update_batch(&rest);
        batched.update_batch(&rest);
        for &x in &rest {
            single.update(x);
        }
        merged.update_batch(&rest);
        for (name, o) in [
            ("batch", &batched),
            ("single", &single),
            ("merged", &merged),
        ] {
            assert_bitwise_eq(o, &live, name);
            assert_eq!(o.encode(), live.encode(), "{name}: encode");
        }
    }

    #[test]
    fn radix_sort_matches_the_comparison_sort() {
        let cases: [Vec<u64>; 5] = [
            vec![],
            vec![7],
            (0..3000u64).map(sss_hash::fingerprint64).collect(),
            // Only the low bytes vary: the constant positions are skipped.
            (0..3000u64)
                .rev()
                .map(|i| (0xAB << 56) | (i * 37 % 4099))
                .collect(),
            vec![u64::MAX, 0, 1 << 63, 255, 256, (1 << 63) - 1],
        ];
        for items in cases {
            let mut rows: Vec<(u64, u64)> = items.iter().map(|&i| (i, i ^ 5)).collect();
            let mut want = rows.clone();
            want.sort_unstable();
            sort_rows_by_item(&mut rows);
            assert_eq!(rows, want);
        }
    }

    #[test]
    fn merge_into_empty_oracle() {
        let mut a = ExactCollisions::new(3);
        let mut b = ExactCollisions::new(3);
        for x in 0..100u64 {
            b.update(x % 7);
        }
        a.merge(&b);
        for ell in 1..=3u32 {
            assert_eq!(a.estimate(ell), b.estimate(ell));
        }
    }
}
