//! Priority sampling (Duffield, Lund & Thorup, JACM 2007) — the
//! variance-optimal weighted sampling scheme the paper's related work
//! highlights (§1.3, \[19\]; Szegedy's optimality result \[35\]).
//!
//! Each weighted item `(i, w_i)` draws `u_i` uniform in `(0, 1]` and gets
//! priority `q_i = w_i/u_i`. A priority sample of size `k` keeps the `k`
//! largest priorities plus the threshold `τ` = the `(k+1)`-st priority.
//! The estimator `ŵ_i = max(w_i, τ)` for kept items (0 otherwise) is
//! unbiased for every item, and subset sums `Σ_{i∈S} ŵ_i` are unbiased
//! with near-optimal variance for any fixed subset `S` chosen after the
//! fact — the "arbitrary subset sum" primitive router monitors use.

use std::collections::BinaryHeap;

use sss_codec::{CodecError, Reader, WireCodec};
use sss_hash::{RngCore64, Xoshiro256pp};

/// One kept entry of a priority sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrioritySample {
    /// Item identifier.
    pub item: u64,
    /// Original weight.
    pub weight: f64,
    /// Priority `w/u` (internal; exposed for diagnostics).
    pub priority: f64,
}

/// Min-heap entry ordered by priority.
#[derive(Debug, Clone, Copy)]
struct Entry {
    priority: f64,
    item: u64,
    weight: f64,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.priority == other.priority && self.item == other.item
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reverse: BinaryHeap is a max-heap; we want the min priority on top.
        other
            .priority
            .total_cmp(&self.priority)
            .then(other.item.cmp(&self.item))
    }
}

/// Streaming priority sampler of size `k`.
#[derive(Debug, Clone)]
pub struct PrioritySampler {
    k: usize,
    heap: BinaryHeap<Entry>,
    /// Threshold τ: the largest priority ever evicted.
    threshold: f64,
    rng: Xoshiro256pp,
}

impl PrioritySampler {
    /// Sampler keeping `k ≥ 1` items.
    pub fn new(k: usize, seed: u64) -> Self {
        assert!(k >= 1, "sample size must be positive");
        Self {
            k,
            heap: BinaryHeap::with_capacity(k + 1),
            threshold: 0.0,
            rng: Xoshiro256pp::new(seed),
        }
    }

    /// Offer an item with positive weight.
    pub fn offer(&mut self, item: u64, weight: f64) {
        assert!(weight > 0.0, "weights must be positive");
        let u = (1.0 - self.rng.next_f64()).max(f64::MIN_POSITIVE); // (0, 1]
        let priority = weight / u;
        self.heap.push(Entry {
            priority,
            item,
            weight,
        });
        if self.heap.len() > self.k {
            let evicted = self.heap.pop().expect("non-empty");
            self.threshold = self.threshold.max(evicted.priority);
        }
    }

    /// The current threshold `τ` (0 while fewer than `k+1` items offered;
    /// estimates are exact in that regime).
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// The kept sample.
    pub fn sample(&self) -> Vec<PrioritySample> {
        self.heap
            .iter()
            .map(|e| PrioritySample {
                item: e.item,
                weight: e.weight,
                priority: e.priority,
            })
            .collect()
    }

    /// Unbiased weight estimate for a specific item: `max(w, τ)` if kept,
    /// 0 otherwise.
    pub fn estimate_weight(&self, item: u64) -> f64 {
        self.heap
            .iter()
            .find(|e| e.item == item)
            .map(|e| e.weight.max(self.threshold))
            .unwrap_or(0.0)
    }

    /// Unbiased estimate of `Σ w_i` over all items in `subset`.
    pub fn estimate_subset_sum<F: Fn(u64) -> bool>(&self, subset: F) -> f64 {
        self.heap
            .iter()
            .filter(|e| subset(e.item))
            .map(|e| e.weight.max(self.threshold))
            .sum()
    }

    /// Unbiased estimate of the total weight offered.
    pub fn estimate_total(&self) -> f64 {
        self.estimate_subset_sum(|_| true)
    }
}

impl WireCodec for PrioritySampler {
    const WIRE_TAG: u16 = 0x0211;

    fn encode_into(&self, out: &mut Vec<u8>) {
        self.k.encode_into(out);
        self.threshold.encode_into(out);
        let rows: Vec<(f64, u64, f64)> = self
            .heap
            .iter()
            .map(|e| (e.priority, e.item, e.weight))
            .collect();
        rows.encode_into(out);
        self.rng.encode_into(out);
    }

    fn decode(r: &mut Reader) -> Result<Self, CodecError> {
        let k = usize::decode(r)?;
        let threshold = r.f64()?;
        let rows: Vec<(f64, u64, f64)> = Vec::decode(r)?;
        if k == 0 {
            return Err(CodecError::Invalid {
                what: "PrioritySampler k == 0",
            });
        }
        if threshold.is_nan() || threshold < 0.0 {
            return Err(CodecError::Invalid {
                what: "PrioritySampler threshold < 0",
            });
        }
        if rows.len() > k {
            return Err(CodecError::Invalid {
                what: "PrioritySampler holds more than k entries",
            });
        }
        let mut entries = Vec::with_capacity(rows.len());
        for (priority, item, weight) in rows {
            if weight.is_nan() || weight <= 0.0 || priority.is_nan() || priority < weight {
                return Err(CodecError::Invalid {
                    what: "PrioritySampler entry weight/priority invalid",
                });
            }
            entries.push(Entry {
                priority,
                item,
                weight,
            });
        }
        let rng = Xoshiro256pp::decode(r)?;
        Ok(PrioritySampler {
            k,
            heap: BinaryHeap::from(entries),
            threshold,
            rng,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_below_capacity() {
        let mut ps = PrioritySampler::new(10, 1);
        for i in 0..5u64 {
            ps.offer(i, (i + 1) as f64);
        }
        assert_eq!(ps.threshold(), 0.0);
        assert_eq!(ps.estimate_total(), 15.0);
        assert_eq!(ps.estimate_weight(4), 5.0);
    }

    #[test]
    fn subset_sum_is_unbiased() {
        // 1000 items, weights 1..=1000; subset = even items.
        // True subset sum = 2 + 4 + … + 1000 = 250_500.
        let truth: f64 = (1..=500).map(|i| (2 * i) as f64).sum();
        let trials = 300u64;
        let mut sum = 0.0;
        for seed in 0..trials {
            let mut ps = PrioritySampler::new(64, seed);
            for i in 1..=1000u64 {
                ps.offer(i, i as f64);
            }
            sum += ps.estimate_subset_sum(|i| i % 2 == 0);
        }
        let mean = sum / trials as f64;
        assert!(
            (mean - truth).abs() / truth < 0.05,
            "mean {mean} vs {truth}"
        );
    }

    #[test]
    fn total_weight_estimate_concentrates() {
        let truth: f64 = (1..=5000u64).map(|i| (i % 97 + 1) as f64).sum();
        let mut ps = PrioritySampler::new(512, 7);
        for i in 1..=5000u64 {
            ps.offer(i, (i % 97 + 1) as f64);
        }
        let est = ps.estimate_total();
        assert!((est - truth).abs() / truth < 0.15, "est {est} vs {truth}");
    }

    #[test]
    fn heavy_items_always_kept() {
        // One item with weight 1e6 among unit weights: its priority is
        // ≥ 1e6 while unit items need u < k/n to compete.
        let mut ps = PrioritySampler::new(32, 9);
        ps.offer(999, 1e6);
        for i in 0..10_000u64 {
            ps.offer(i, 1.0);
        }
        assert!(ps.estimate_weight(999) >= 1e6);
    }

    #[test]
    fn sample_size_is_bounded() {
        let mut ps = PrioritySampler::new(16, 11);
        for i in 0..1000u64 {
            ps.offer(i, 1.0 + (i % 7) as f64);
        }
        assert_eq!(ps.sample().len(), 16);
        assert!(ps.threshold() > 0.0);
    }
}
