//! Shared plumbing for the structure-of-arrays batch ingestion paths.
//!
//! The batch `update_batch` implementations in this crate all follow the
//! same shape: reduce a bounded chunk of raw inputs into the hash field
//! once, evaluate each hash function over the whole chunk with the SWAR
//! kernels in `sss_hash::batch` into flat index/sign buffers, then sweep the
//! counter grid row-by-row (or item-by-item where admission order matters).
//! [`BatchScratch`] holds the intermediate buffers so a long-lived sketch
//! never reallocates them between batches; [`BATCH_CHUNK`] bounds them.
//!
//! Scratch is pure working memory: it never affects a sketch's logical
//! state, is excluded from the wire codecs, and clones as empty (so
//! snapshots and shard forks don't drag dead buffers along).

/// Maximum number of items processed per internal chunk of a batch pass.
/// Bounds every scratch buffer: a chunk-sized buffer of 64-bit values holds
/// 8 KiB, and a `depth × chunk` one scales with the sketch's depth — at
/// depth 9, 72 KiB per 64-bit buffer and 144 KiB for the `u128` running
/// sums of the CountSketch admission kernel.
pub(crate) const BATCH_CHUNK: usize = 1024;

/// Reusable per-sketch scratch for batch passes. Field use varies by
/// sketch; unused fields stay empty and cost nothing.
#[derive(Debug, Default)]
pub(crate) struct BatchScratch {
    /// Chunk inputs reduced into the hash field (`x mod (2^61 − 1)`).
    pub xr: Vec<u64>,
    /// Bucket indices; either one chunk's worth (row-major sweeps reuse it
    /// per row) or `depth × chunk` when a serial per-item pass needs every
    /// row's index at once.
    pub idx: Vec<usize>,
    /// `±1` signs, laid out like `idx`.
    pub signs: Vec<i64>,
    /// Post-update signed row values, `depth × chunk`, row-major.
    pub vals: Vec<i64>,
    /// Each row's running sum of squared counters after each item, laid
    /// out like `vals`.
    pub prefix: Vec<u128>,
    /// One item's row values, gathered for a point-query median.
    pub med: Vec<i64>,
    /// One item's per-row sums of squares, gathered for an `F_2` median.
    pub sumsq: Vec<u128>,
}

impl Clone for BatchScratch {
    /// Cloning a sketch (snapshots, shard forks) starts with empty scratch;
    /// buffers regrow lazily on the next batch.
    fn clone(&self) -> Self {
        Self::default()
    }
}
