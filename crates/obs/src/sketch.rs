//! Mergeable streaming quantile sketch with a hard memory bound.
//!
//! The simulator's exact statistics (`qbm-sim::stats`) keep one scalar
//! per counter — fine for means and totals, useless for tails. The
//! legacy `delay_percentile` accessor answers from a log₂ histogram,
//! i.e. within a *factor of two*. [`QuantileSketch`] closes that gap
//! with the classic log-bucketed layout (the HdrHistogram family): a
//! fixed array of `u64` counters whose bucket edges grow geometrically
//! after an exact low range, giving a guaranteed relative error of
//! `2^-m` for `m` precision bits at `(65 - m)·2^m` buckets — 1920
//! buckets ≈ 15 KiB at the default `m = 5` (error ≤ 3.125 %),
//! regardless of how many values are recorded or how large they get.
//!
//! Design constraints inherited from the repo's determinism rules:
//!
//! * **Integer-only update path.** [`QuantileSketch::record`] is a
//!   leading-zeros count plus shifts — no floats, no allocation, no
//!   panics, no indexing (it is a `qbm-lint` hot-path audit root, like
//!   the scheduler's virtual clock). Queries ([`QuantileSketch::quantile`])
//!   may use `f64`: they run once per report, never per event.
//! * **Merge algebra.** [`QuantileSketch::merge`] adds counters
//!   element-wise and resolves min/max monotonically, so it is
//!   commutative and associative with the empty sketch as identity —
//!   the same contract `StatsCollector::merge` guarantees, which is
//!   what lets sketch-carrying campaign results stay byte-identical
//!   across thread counts.

/// Parameters for the streaming sketches a run can carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SketchParams {
    /// Precision bits `m`: relative error ≤ `2^-m`, memory
    /// `(65 - m)·2^m` u64 buckets per sketch. The default `m = 5`
    /// costs 1920 buckets (15 KiB) for ≤ 3.125 % error.
    pub precision_bits: u32,
}

impl Default for SketchParams {
    fn default() -> Self {
        SketchParams { precision_bits: 5 }
    }
}

/// A fixed-size, integer-only, mergeable quantile sketch over `u64`
/// values. See the module docs for the layout and guarantees.
#[derive(Clone, PartialEq, Eq)]
pub struct QuantileSketch {
    /// Precision bits `m` (1 ..= 16).
    m: u32,
    /// `(65 - m) << m` bucket counters; values `< 2^m` map one-to-one,
    /// larger values keep their top `m + 1` significant bits.
    buckets: Box<[u64]>,
    /// Values recorded.
    count: u64,
    /// Saturating sum of recorded values (exact mean until ~1.8e19).
    sum: u64,
    /// Smallest recorded value (`u64::MAX` when empty).
    min: u64,
    /// Largest recorded value.
    max: u64,
}

impl QuantileSketch {
    /// Number of buckets for `m` precision bits.
    pub const fn bucket_count(precision_bits: u32) -> usize {
        (65 - precision_bits as usize) << precision_bits
    }

    /// An empty sketch with `2^-m` relative error.
    // qbm-lint: cold(one-time construction; the update path never allocates)
    pub fn new(precision_bits: u32) -> QuantileSketch {
        assert!(
            (1..=16).contains(&precision_bits),
            "sketch precision bits out of range: {precision_bits}"
        );
        QuantileSketch {
            m: precision_bits,
            buckets: vec![0u64; Self::bucket_count(precision_bits)].into_boxed_slice(),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Record one value. O(1), allocation-free, integer-only — this is
    /// the per-departure hot path and a `qbm-lint` hot-path audit root.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        if v < self.min {
            self.min = v;
        }
        if v > self.max {
            self.max = v;
        }
        let i = self.bucket_of(v);
        let Some(slot) = self.buckets.get_mut(i) else {
            debug_assert!(false, "sketch bucket out of range");
            return;
        };
        *slot += 1;
    }

    /// Bucket index of `v`: identity below `2^m`, then the exponent
    /// `h = ⌊log₂ v⌋` selects a run of `2^m` sub-buckets keyed by the
    /// next `m` significant bits.
    #[inline]
    fn bucket_of(&self, v: u64) -> usize {
        let m = self.m;
        if v < (1u64 << m) {
            return v as usize;
        }
        let h = 63 - v.leading_zeros();
        (((h - m + 1) as usize) << m) + ((v >> (h - m)) as usize) - (1usize << m)
    }

    /// Upper edge of bucket `i` — the value [`QuantileSketch::quantile`]
    /// reports, so estimates never undershoot the true quantile.
    fn upper_edge(&self, i: usize) -> u64 {
        let m = self.m;
        if i < (1usize << m) {
            return i as u64;
        }
        let g = (i >> m) as u32;
        let h = g + m - 1;
        let sub = (i & ((1usize << m) - 1)) as u64;
        let low = (1u64 << h) + (sub << (h - m));
        low + ((1u64 << (h - m)) - 1)
    }

    /// The q-quantile (q ∈ [0, 1]) as the upper edge of the bucket
    /// holding the rank-`⌈q·count⌉` value, clamped to the observed
    /// [min, max]. Overestimates the rank value by at most a factor of
    /// `1 + 2^-m`; zero when the sketch is empty. Queries are
    /// report-time only — the float here never touches the update path.
    pub fn quantile(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        if self.count == 0 {
            return 0;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return self.upper_edge(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Fold `other` into `self`: counters add element-wise, min/max
    /// resolve monotonically. Commutative, associative, with the empty
    /// sketch as identity. Panics on precision mismatch (a
    /// configuration error, not a data condition).
    pub fn merge(&mut self, other: &QuantileSketch) {
        assert_eq!(self.m, other.m, "merging sketches of different precision");
        self.absorb(other);
    }

    /// The allocation-free merge core (shared with the heatmap's
    /// eviction path, which runs per-event and must stay hot-clean).
    #[inline]
    pub(crate) fn absorb(&mut self, other: &QuantileSketch) {
        debug_assert_eq!(self.m, other.m);
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        if other.min < self.min {
            self.min = other.min;
        }
        if other.max > self.max {
            self.max = other.max;
        }
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
    }

    /// Zero all counters in place (no allocation — the heatmap recycles
    /// evicted ring slots through this).
    #[inline]
    pub(crate) fn reset_counts(&mut self) {
        self.count = 0;
        self.sum = 0;
        self.min = u64::MAX;
        self.max = 0;
        self.buckets.fill(0);
    }

    /// Values recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Saturating sum of recorded values.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded value (`None` when empty).
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded value (`None` when empty).
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Precision bits `m`.
    pub fn precision_bits(&self) -> u32 {
        self.m
    }

    /// Guaranteed relative error bound, `2^-m`.
    pub fn relative_error(&self) -> f64 {
        1.0 / (1u64 << self.m) as f64
    }

    /// Heap + inline footprint in bytes. Constant for the sketch's
    /// lifetime — the memory-bound tests assert exactly this.
    pub fn mem_bytes(&self) -> usize {
        core::mem::size_of::<QuantileSketch>() + self.buckets.len() * core::mem::size_of::<u64>()
    }
}

/// Compact, deterministic rendering: full bucket contents would print
/// kilobytes per flow, so the buckets appear as an FNV-1a digest. Any
/// single-counter difference still changes the output — the campaign
/// byte-identity tests format results through this.
impl core::fmt::Debug for QuantileSketch {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in self.buckets.iter() {
            for byte in b.to_le_bytes() {
                h ^= byte as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        f.debug_struct("QuantileSketch")
            .field("m", &self.m)
            .field("count", &self.count)
            .field("sum", &self.sum)
            .field("min", &self.min)
            .field("max", &self.max)
            .field("buckets_fnv", &h)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let mut s = QuantileSketch::new(5);
        for v in 0..32u64 {
            s.record(v);
        }
        for v in 0..32usize {
            assert_eq!(s.upper_edge(v), v as u64);
        }
        assert_eq!(s.quantile(0.0), 0);
        assert_eq!(s.quantile(1.0), 31);
        assert_eq!(s.min(), Some(0));
        assert_eq!(s.max(), Some(31));
    }

    #[test]
    fn bucket_edges_bound_relative_error() {
        let s = QuantileSketch::new(5);
        // For every representative value, the bucket's upper edge is
        // within 2^-5 relative error of the value itself.
        let mut v = 1u64;
        while v < u64::MAX / 3 {
            for off in [0u64, 1, v / 3, v / 2] {
                let x = v + off;
                let edge = s.upper_edge(s.bucket_of(x));
                assert!(edge >= x, "edge {edge} below value {x}");
                let err = (edge - x) as f64 / x as f64;
                assert!(err < 1.0 / 32.0, "value {x}: error {err}");
            }
            v = v.saturating_mul(3);
        }
    }

    #[test]
    fn extreme_values_stay_in_range() {
        let mut s = QuantileSketch::new(5);
        s.record(0);
        s.record(u64::MAX);
        assert_eq!(s.count(), 2);
        assert_eq!(s.quantile(0.0), 0);
        assert_eq!(s.quantile(1.0), u64::MAX);
        // The top bucket's edge is exactly u64::MAX.
        assert_eq!(s.upper_edge(QuantileSketch::bucket_count(5) - 1), u64::MAX);
    }

    #[test]
    fn bucket_count_matches_layout() {
        for m in 1..=10 {
            let mut s = QuantileSketch::new(m);
            assert_eq!(s.buckets.len(), QuantileSketch::bucket_count(m));
            // The maximum value maps to the last bucket.
            assert_eq!(s.bucket_of(u64::MAX), s.buckets.len() - 1);
            s.record(u64::MAX);
            assert_eq!(s.buckets[s.buckets.len() - 1], 1);
        }
    }

    #[test]
    fn merge_equals_union() {
        let mut a = QuantileSketch::new(5);
        let mut b = QuantileSketch::new(5);
        let mut both = QuantileSketch::new(5);
        for i in 0..1000u64 {
            let v = i * i % 50_000;
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            both.record(v);
        }
        a.merge(&b);
        assert_eq!(a, both);
    }

    #[test]
    fn empty_is_merge_identity() {
        let mut s = QuantileSketch::new(5);
        for v in [3u64, 99, 12_345] {
            s.record(v);
        }
        let before = s.clone();
        s.merge(&QuantileSketch::new(5));
        assert_eq!(s, before);
        let mut e = QuantileSketch::new(5);
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    #[should_panic(expected = "different precision")]
    fn merge_rejects_mixed_precision() {
        let mut a = QuantileSketch::new(5);
        a.merge(&QuantileSketch::new(6));
    }

    #[test]
    fn reset_restores_empty_state() {
        let mut s = QuantileSketch::new(4);
        s.record(7);
        s.record(7_000_000);
        s.reset_counts();
        assert_eq!(s, QuantileSketch::new(4));
        assert_eq!(s.mem_bytes(), QuantileSketch::new(4).mem_bytes());
    }

    #[test]
    fn quantiles_track_an_exact_oracle() {
        let mut s = QuantileSketch::new(5);
        let mut oracle: Vec<u64> = Vec::new();
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for _ in 0..10_000 {
            // SplitMix-style scramble for a deterministic spread.
            x = x.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(17) | 1;
            let v = x % 10_000_000;
            s.record(v);
            oracle.push(v);
        }
        oracle.sort_unstable();
        for q in [0.5, 0.9, 0.99, 0.999] {
            let rank = ((q * oracle.len() as f64).ceil() as usize).clamp(1, oracle.len());
            let exact = oracle[rank - 1];
            let est = s.quantile(q);
            assert!(est >= exact, "q{q}: {est} < exact {exact}");
            let bound = exact / 32 + 1;
            assert!(
                est - exact <= bound,
                "q{q}: {est} vs {exact} (bound {bound})"
            );
        }
    }

    #[test]
    fn debug_digest_sees_every_bucket() {
        let mut a = QuantileSketch::new(5);
        let mut b = QuantileSketch::new(5);
        a.record(100);
        b.record(101);
        assert_ne!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn mem_bytes_is_run_length_independent() {
        let mut s = QuantileSketch::new(5);
        let empty = s.mem_bytes();
        for i in 0..100_000u64 {
            s.record(i * 37);
        }
        assert_eq!(s.mem_bytes(), empty);
        assert_eq!(empty, core::mem::size_of::<QuantileSketch>() + 1920 * 8);
    }
}
