//! SWAR-style batch hashing kernels — the blessed hot path for `update_batch`.
//!
//! Scalar hashing dominates batch ingestion: every item pays the `x mod
//! (2^61 − 1)` input reduction once *per hash function*, and the compiler
//! cannot keep the polynomial coefficients in registers across the
//! item-major loops the sketches used to run. The kernels here fix both:
//!
//! * [`reduce_inputs`] hoists the input reduction so a chunk is reduced
//!   **once** and the residues shared by every hash function of every row.
//! * The `*_batch` methods on [`PairwiseHash`] / [`FourWiseSign`] evaluate
//!   [`LANES`] independent field elements per iteration in straight-line
//!   code over plain `u64`s (no `unsafe`, no SIMD intrinsics). The four
//!   128-bit multiply/reduce chains have no data dependencies, so the CPU
//!   overlaps them; the coefficients are read once and live in registers
//!   for the whole pass.
//! * The degree-3 sign polynomial runs as a fixed-length lane
//!   ([`SignLane`]) that reduces lazily: the two inner Horner steps only
//!   fold the 128-bit product to a congruent `u64` (one mask, one shift,
//!   one add), and the canonicalising [`mod_p61`] runs once, at the last
//!   step. The headroom argument is on [`SignLane`]; the scalar
//!   [`FourWiseSign::sign`] evaluates through the same lane.
//!
//! Every lane computes the *canonical* residue (`< 2^61 − 1`, exactly what
//! the scalar paths produce), so batch results are bitwise identical to the
//! scalar `hash_range` / `sign` calls — the equivalence tests below and the
//! sketch-level batteries in `sss-sketch` pin this.
//!
//! `sss-lint`'s `batch_kernel` rule enforces that per-item `hash_range`
//! calls never appear in `update_batch` bodies outside this module.

use crate::mix::fingerprint64;
use crate::poly::{mod_p61, PairwiseHash, MERSENNE_PRIME_61};
use crate::sign::FourWiseSign;

/// Number of independent field elements evaluated per straight-line
/// iteration of the batch kernels.
pub const LANES: usize = 4;

/// Reduce a chunk of raw inputs into the hash field (`x mod (2^61 − 1)`),
/// reusing `out`'s capacity. Residues computed here feed every `*_batch`
/// kernel for the chunk, so each item is reduced once regardless of how many
/// hash functions consume it.
#[inline]
pub fn reduce_inputs(xs: &[u64], out: &mut Vec<u64>) {
    out.clear();
    out.extend(xs.iter().map(|&x| PairwiseHash::reduce_input(x)));
}

/// One affine lane: `fingerprint64((a·xr + b) mod p)`.
///
/// `a·xr + b < p² + p < 2^122` fits a `u128`, so a single [`mod_p61`] yields
/// the canonical residue — the same value the scalar
/// [`PairwiseHash::hash_prereduced`] computes.
#[inline(always)]
fn affine_fp(a: u64, b: u64, xr: u64) -> u64 {
    debug_assert!(xr < MERSENNE_PRIME_61);
    fingerprint64(mod_p61((a as u128) * (xr as u128) + b as u128))
}

impl PairwiseHash {
    /// Batch [`PairwiseHash::hash_range`] over prereduced inputs.
    ///
    /// `xrs` must hold residues from [`reduce_inputs`]; `out` must be at
    /// least as long as `xrs` (extra tail entries are left untouched).
    /// `out[i]` receives exactly `self.hash_range(x_i, range)`.
    pub fn hash_range_batch(&self, xrs: &[u64], range: usize, out: &mut [usize]) {
        debug_assert!(range > 0);
        debug_assert!(out.len() >= xrs.len());
        let (a, b) = self.affine();
        let r = range as u128;
        let mut chunks = xrs.chunks_exact(LANES);
        let mut outs = out.chunks_exact_mut(LANES);
        for (c, o) in (&mut chunks).zip(&mut outs) {
            // Four independent multiply/reduce/mix chains; the CPU overlaps
            // their 128-bit products while `a`/`b`/`r` stay in registers.
            let h0 = affine_fp(a, b, c[0]);
            let h1 = affine_fp(a, b, c[1]);
            let h2 = affine_fp(a, b, c[2]);
            let h3 = affine_fp(a, b, c[3]);
            o[0] = (((h0 as u128) * r) >> 64) as usize;
            o[1] = (((h1 as u128) * r) >> 64) as usize;
            o[2] = (((h2 as u128) * r) >> 64) as usize;
            o[3] = (((h3 as u128) * r) >> 64) as usize;
        }
        for (&xr, o) in chunks.remainder().iter().zip(outs.into_remainder()) {
            *o = (((affine_fp(a, b, xr) as u128) * r) >> 64) as usize;
        }
    }

    /// Batch `fingerprint64(hash(x))` over prereduced inputs — the KMV
    /// ordering fingerprint. Same contract as
    /// [`PairwiseHash::hash_range_batch`].
    pub fn fingerprints_batch(&self, xrs: &[u64], out: &mut [u64]) {
        debug_assert!(out.len() >= xrs.len());
        let (a, b) = self.affine();
        let mut chunks = xrs.chunks_exact(LANES);
        let mut outs = out.chunks_exact_mut(LANES);
        for (c, o) in (&mut chunks).zip(&mut outs) {
            o[0] = affine_fp(a, b, c[0]);
            o[1] = affine_fp(a, b, c[1]);
            o[2] = affine_fp(a, b, c[2]);
            o[3] = affine_fp(a, b, c[3]);
        }
        for (&xr, o) in chunks.remainder().iter().zip(outs.into_remainder()) {
            *o = affine_fp(a, b, xr);
        }
    }
}

/// One lazy Horner fold: `x ≡ (x mod 2^61) + ⌊x / 2^61⌋ (mod 2^61 − 1)`,
/// without the canonicalising subtractions of [`mod_p61`]. The result is
/// congruent to `x` but may exceed `p`; for `x < 2^125` it fits a `u64`.
#[inline(always)]
fn fold_p61(x: u128) -> u64 {
    ((x as u64) & MERSENNE_PRIME_61) + (x >> 61) as u64
}

/// The degree-3 sign polynomial of a [`FourWiseSign`] as a straight-line
/// lane: the four coefficients sit in locals for a whole pass, and Horner's
/// rule reduces lazily.
///
/// With `xr < 2^61` and canonical coefficients, every intermediate `acc`
/// stays below `2^64`, so `acc·xr + c < 2^125` fits a `u128` and folds back
/// to a congruent `u64` (`c3·xr + c2` folds below `2^62`, the next step
/// below `2^63`). Only the last step calls [`mod_p61`], which is exact on
/// inputs below `2^125`, so the lane lands on the same canonical residue as
/// [`crate::PolyHash::hash`] and every sign is unchanged.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SignLane {
    c0: u64,
    c1: u64,
    c2: u64,
    c3: u64,
}

impl SignLane {
    /// The lane of a degree-3 polynomial, constant term first.
    #[inline]
    pub(crate) fn new(coeffs: &[u64]) -> Self {
        debug_assert_eq!(coeffs.len(), 4);
        Self {
            c0: coeffs[0],
            c1: coeffs[1],
            c2: coeffs[2],
            c3: coeffs[3],
        }
    }

    /// The `±1` sign of a prereduced input (`xr < 2^61 − 1`).
    #[inline(always)]
    pub(crate) fn sign(self, xr: u64) -> i64 {
        debug_assert!(xr < MERSENNE_PRIME_61);
        let x = xr as u128;
        let acc = fold_p61((self.c3 as u128) * x + self.c2 as u128);
        let acc = fold_p61((acc as u128) * x + self.c1 as u128);
        let h = mod_p61((acc as u128) * x + self.c0 as u128);
        // Parity of a mixed output bit: each bit of the fingerprint of a
        // 4-wise value is 4-wise independent and unbiased.
        if fingerprint64(h) & 1 == 0 {
            1
        } else {
            -1
        }
    }
}

impl FourWiseSign {
    /// Batch [`FourWiseSign::sign`] over prereduced inputs. Same contract as
    /// [`PairwiseHash::hash_range_batch`]; `out[i]` receives `±1`.
    pub fn signs_batch(&self, xrs: &[u64], out: &mut [i64]) {
        debug_assert!(out.len() >= xrs.len());
        let lane = self.lane();
        let mut chunks = xrs.chunks_exact(LANES);
        let mut outs = out.chunks_exact_mut(LANES);
        for (c, o) in (&mut chunks).zip(&mut outs) {
            o[0] = lane.sign(c[0]);
            o[1] = lane.sign(c[1]);
            o[2] = lane.sign(c[2]);
            o[3] = lane.sign(c[3]);
        }
        for (&xr, o) in chunks.remainder().iter().zip(outs.into_remainder()) {
            *o = lane.sign(xr);
        }
    }

    /// Sum of [`FourWiseSign::sign`] over prereduced inputs — the AMS
    /// tug-of-war inner loop, with no intermediate buffer.
    pub fn sign_sum_batch(&self, xrs: &[u64]) -> i64 {
        let lane = self.lane();
        let mut sum = 0i64;
        let mut chunks = xrs.chunks_exact(LANES);
        for c in &mut chunks {
            sum += lane.sign(c[0]) + lane.sign(c[1]) + lane.sign(c[2]) + lane.sign(c[3]);
        }
        for &xr in chunks.remainder() {
            sum += lane.sign(xr);
        }
        sum
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inputs() -> Vec<u64> {
        // Exercise the field boundary, the lane remainder, and plain values.
        let mut xs: Vec<u64> = (0..1027u64).map(|i| i.wrapping_mul(0x9E37_79B9)).collect();
        xs.extend([
            0,
            1,
            MERSENNE_PRIME_61 - 1,
            MERSENNE_PRIME_61,
            MERSENNE_PRIME_61 + 1,
            u64::MAX,
        ]);
        xs
    }

    #[test]
    fn hash_range_batch_matches_scalar() {
        let xs = inputs();
        for seed in 0..8u64 {
            let h = PairwiseHash::new(seed);
            for range in [1usize, 2, 17, 1024, 1 << 20] {
                let mut xr = Vec::new();
                reduce_inputs(&xs, &mut xr);
                let mut out = vec![0usize; xs.len()];
                h.hash_range_batch(&xr, range, &mut out);
                for (&x, &o) in xs.iter().zip(&out) {
                    assert_eq!(o, h.hash_range(x, range), "seed {seed} range {range} x {x}");
                }
            }
        }
    }

    #[test]
    fn fingerprints_batch_matches_scalar() {
        let xs = inputs();
        for seed in 0..8u64 {
            let h = PairwiseHash::new(seed);
            let mut xr = Vec::new();
            reduce_inputs(&xs, &mut xr);
            let mut out = vec![0u64; xs.len()];
            h.fingerprints_batch(&xr, &mut out);
            for (&x, &o) in xs.iter().zip(&out) {
                assert_eq!(o, fingerprint64(h.hash(x)), "seed {seed} x {x}");
            }
        }
    }

    /// `±1` from the parity of a mixed field value, as every sign path does.
    fn parity_sign(h: u64) -> i64 {
        if fingerprint64(h) & 1 == 0 {
            1
        } else {
            -1
        }
    }

    #[test]
    fn signs_batch_matches_scalar() {
        let xs = inputs();
        for seed in 0..8u64 {
            let s = FourWiseSign::new(seed);
            // The generic Horner evaluator over the same polynomial
            // (`FourWiseSign::new` draws exactly this one).
            let poly = crate::PolyHash::new(4, seed);
            let mut xr = Vec::new();
            reduce_inputs(&xs, &mut xr);
            let mut out = vec![0i64; xs.len()];
            s.signs_batch(&xr, &mut out);
            for (&x, &o) in xs.iter().zip(&out) {
                assert_eq!(o, s.sign(x), "seed {seed} x {x}");
                assert_eq!(o, parity_sign(poly.hash(x)), "seed {seed} x {x}");
            }
        }
    }

    /// Naive degree-3 Horner with a full `u128 %` at every step.
    fn naive_sign(coeffs: &[u64; 4], x: u64) -> i64 {
        let p = MERSENNE_PRIME_61 as u128;
        let x = x as u128 % p;
        let mut acc = 0u128;
        for &c in coeffs.iter().rev() {
            acc = (acc * x + c as u128) % p;
        }
        parity_sign(acc as u64)
    }

    /// A `FourWiseSign` decoded from hand-built wire bytes: the `Vec<u64>`
    /// length prefix, then the coefficients, constant term first.
    fn sign_from_wire(coeffs: &[u64; 4]) -> FourWiseSign {
        use sss_codec::WireCodec;
        let mut bytes = (coeffs.len() as u64).to_le_bytes().to_vec();
        for &c in coeffs {
            bytes.extend_from_slice(&c.to_le_bytes());
        }
        FourWiseSign::decode_slice(&bytes).expect("valid sign polynomial")
    }

    #[test]
    fn sign_lane_holds_at_the_field_bounds() {
        // Coefficients at `p − 1` drive every lazy fold to its largest
        // intermediate (`acc < 2^64 ⇒ acc·xr + c < 2^125`); mixed 0/1
        // interior coefficients cover the small end. The leading
        // coefficient stays nonzero, as the decoder demands.
        let top = MERSENNE_PRIME_61 - 1;
        let polys: [[u64; 4]; 6] = [
            [top, top, top, top],
            [0, 0, 0, top],
            [top, 0, 1, top],
            [1, 1, 0, top],
            [0, top, top, 1],
            [top, 1, 0, 1],
        ];
        let xs = [
            0,
            1,
            MERSENNE_PRIME_61 - 1,
            MERSENNE_PRIME_61,
            MERSENNE_PRIME_61 + 1,
            u64::MAX,
            MERSENNE_PRIME_61 - 2,
            2,
            1 << 60,
            u64::MAX - 1,
            0xDEAD_BEEF,
        ];
        for coeffs in &polys {
            let s = sign_from_wire(coeffs);
            // Every prefix length, so each lane remainder (0..LANES) runs.
            for n in 0..=xs.len() {
                let xs = &xs[..n];
                let want: Vec<i64> = xs.iter().map(|&x| naive_sign(coeffs, x)).collect();
                let mut xr = Vec::new();
                reduce_inputs(xs, &mut xr);
                let mut out = vec![0i64; n];
                s.signs_batch(&xr, &mut out);
                assert_eq!(out, want, "coeffs {coeffs:?} n {n}");
                assert_eq!(
                    s.sign_sum_batch(&xr),
                    want.iter().sum::<i64>(),
                    "coeffs {coeffs:?} n {n}"
                );
                for (&x, &w) in xs.iter().zip(&want) {
                    assert_eq!(s.sign(x), w, "coeffs {coeffs:?} x {x}");
                }
            }
        }
    }

    #[test]
    fn sign_sum_matches_scalar_sum() {
        let xs = inputs();
        for seed in 0..8u64 {
            let s = FourWiseSign::new(seed);
            let mut xr = Vec::new();
            reduce_inputs(&xs, &mut xr);
            let scalar: i64 = xs.iter().map(|&x| s.sign(x)).sum();
            assert_eq!(s.sign_sum_batch(&xr), scalar, "seed {seed}");
        }
    }

    #[test]
    fn reduce_inputs_reuses_capacity() {
        let mut out = Vec::new();
        reduce_inputs(&[1, 2, 3], &mut out);
        assert_eq!(out, vec![1, 2, 3]);
        let cap = out.capacity();
        reduce_inputs(&[u64::MAX], &mut out);
        assert_eq!(out.len(), 1);
        assert!(out.capacity() >= cap.min(1));
        assert_eq!(out[0], PairwiseHash::reduce_input(u64::MAX));
    }
}
