//! Mergeable streaming quantile sketch with a hard memory bound.
//!
//! The simulator's exact statistics (`qbm-sim::stats`) keep one scalar
//! per counter — fine for means and totals, useless for tails. The
//! legacy `delay_percentile` accessor answers from a log₂ histogram,
//! i.e. within a *factor of two*. [`QuantileSketch`] closes that gap
//! with the classic log-bucketed layout (the HdrHistogram family):
//! `u64` counters whose bucket edges grow geometrically after an exact
//! low range, giving a guaranteed relative error of `2^-m` for `m`
//! precision bits over `(65 - m)·2^m` logical buckets — 1920 buckets
//! at the default `m = 5` (error ≤ 3.125 %).
//!
//! The sketch stores only the logical buckets between the lowest and
//! highest it has recorded, rounded out to whole exponent groups of
//! `2^m` buckets; the rest count zero. Its footprint therefore follows
//! the recorded *span* (a value range within a factor of 2^k holds
//! about `k + 1` groups, 256 B each at `m = 5`), never the number of
//! values, and is capped at the full layout — 15 KiB at `m = 5` — for
//! a sketch whose values span all of `u64`.
//!
//! Design constraints inherited from the repo's determinism rules:
//!
//! * **Integer-only update path.** [`QuantileSketch::record`] is a
//!   leading-zeros count plus shifts — no floats, no panics, no
//!   indexing (it is a `qbm-lint` hot-path audit root, like the
//!   scheduler's virtual clock). It allocates only when a value lands
//!   in a new exponent group, at most `65 - m` times per sketch.
//!   Queries ([`QuantileSketch::quantile`]) may use `f64`: they run
//!   once per report, never per event.
//! * **Merge algebra.** [`QuantileSketch::merge`] adds counters
//!   element-wise and resolves min/max monotonically, so it is
//!   commutative and associative with the empty sketch as identity —
//!   the same contract `SimResult::merge` guarantees, which is
//!   what lets sketch-carrying campaign results stay byte-identical
//!   across thread counts. Equality and the `{:?}` digest read the
//!   logical buckets, so neither depends on how wide a span is stored.

/// Parameters for the streaming sketches a run can carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SketchParams {
    /// Precision bits `m`: relative error ≤ `2^-m`, memory at most
    /// `(65 - m)·2^m` u64 buckets per sketch — only the exponent groups
    /// of `2^m` buckets that the recorded span reaches are stored. The
    /// default `m = 5` caps a sketch at 1920 buckets (15 KiB) for
    /// ≤ 3.125 % error; a span within a factor of 2^k costs about
    /// `(k + 1)·256` B.
    pub precision_bits: u32,
}

impl Default for SketchParams {
    fn default() -> Self {
        SketchParams { precision_bits: 5 }
    }
}

/// A span-trimmed, integer-only, mergeable quantile sketch over `u64`
/// values. See the module docs for the layout and guarantees.
///
/// It also carries the coarser summaries of the same values exactly:
/// [`QuantileSketch::max`] and the log₂ histogram
/// [`QuantileSketch::log2_counts`]. A statistics collector that keeps a
/// sketch per flow therefore records each delay once, into the sketch,
/// and derives the flow's log₂ delay histogram and delay maximum, and
/// the aggregate sketch (the merge of the flows'), once per run.
#[derive(Clone)]
pub struct QuantileSketch {
    /// Precision bits `m` (1 ..= 16).
    m: u32,
    /// Logical index of `buckets[0]`, a multiple of `2^m` (`u32`, not
    /// `usize`, so it packs beside `m` and the header stays 64 B).
    lo: u32,
    /// The stored span of the `(65 - m) << m` logical bucket counters:
    /// whole exponent groups of `2^m` covering every bucket recorded so
    /// far; buckets outside `lo..lo + len` count zero. Values `< 2^m`
    /// map one-to-one, larger values keep their top `m + 1` significant
    /// bits.
    buckets: Vec<u64>,
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
    /// Number of logical buckets for `m` precision bits — the most a
    /// sketch ever stores.
    pub const fn bucket_count(precision_bits: u32) -> usize {
        (65 - precision_bits as usize) << precision_bits
    }

    /// An empty sketch with `2^-m` relative error. Allocates nothing:
    /// buckets appear as values land in them.
    pub fn new(precision_bits: u32) -> QuantileSketch {
        assert!(
            (1..=16).contains(&precision_bits),
            "sketch precision bits out of range: {precision_bits}"
        );
        QuantileSketch {
            m: precision_bits,
            lo: 0,
            buckets: Vec::new(),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Record one value. O(1) amortized, integer-only, panic-free —
    /// this is the per-departure hot path and a `qbm-lint` hot-path
    /// audit root. A value outside the stored span widens it once per
    /// new exponent group, so a sketch reallocates at most `65 - m`
    /// times in its life.
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
        if let Some(slot) = self.buckets.get_mut(i.wrapping_sub(self.lo as usize)) {
            *slot += 1;
            return;
        }
        self.cover(i, i);
        let Some(slot) = self.buckets.get_mut(i.wrapping_sub(self.lo as usize)) else {
            debug_assert!(false, "sketch bucket out of range");
            return;
        };
        *slot += 1;
    }

    /// Widen the stored span to cover logical buckets `first..=last`,
    /// rounded out to whole exponent groups. Off the steady-state path:
    /// callers reach it only when a value or merge lands outside the
    /// stored span, i.e. in a new group.
    #[cold]
    #[inline(never)]
    fn cover(&mut self, first: usize, last: usize) {
        let m = self.m;
        let want_lo = (first >> m) << m;
        let want_hi = ((last >> m) + 1) << m;
        debug_assert!(want_hi <= Self::bucket_count(m), "bucket past the layout");
        let (lo, hi) = if self.buckets.is_empty() {
            (want_lo, want_hi)
        } else {
            let lo = self.lo as usize;
            (lo.min(want_lo), (lo + self.buckets.len()).max(want_hi))
        };
        let mut grown = Vec::with_capacity(hi - lo);
        if !self.buckets.is_empty() {
            grown.resize(self.lo as usize - lo, 0);
            grown.extend_from_slice(&self.buckets);
        }
        grown.resize(hi - lo, 0);
        self.buckets = grown;
        self.lo = lo as u32;
    }

    /// Logical bucket `i`'s counter: zero outside the stored span.
    fn bucket(&self, i: usize) -> u64 {
        self.buckets
            .get(i.wrapping_sub(self.lo as usize))
            .copied()
            .unwrap_or(0)
    }

    /// The stored buckets with their zero ends trimmed, as (logical
    /// index of the first, counters); `(0, [])` when all are zero.
    fn trimmed(&self) -> (usize, &[u64]) {
        let Some(first) = self.buckets.iter().position(|&c| c != 0) else {
            return (0, &[]);
        };
        let last = self.buckets.iter().rposition(|&c| c != 0).unwrap_or(first);
        (
            self.lo as usize + first,
            self.buckets.get(first..=last).unwrap_or_default(),
        )
    }

    /// The log₂ view: element `k` counts the recorded values in
    /// `[2^k, 2^(k+1))`, 0 counting with 1 in element 0, up to the
    /// highest non-empty power of two (no trailing zero; empty when
    /// nothing is recorded). Exact, not an estimate: every bucket lies
    /// inside one power of two, so the sketch keeps everything a log₂
    /// histogram of the same values would.
    pub fn log2_counts(&self) -> Vec<u64> {
        let (first, counts) = self.trimmed();
        let Some(top) = counts.len().checked_sub(1) else {
            return Vec::new();
        };
        let mut out = vec![0; self.octave(first + top) + 1];
        for (j, &c) in counts.iter().enumerate() {
            if let Some(k) = out.get_mut(self.octave(first + j)) {
                *k += c;
            }
        }
        out
    }

    /// `⌊log₂ v⌋` (0 for `v = 0`) shared by every value of bucket `i`.
    fn octave(&self, i: usize) -> usize {
        let m = self.m as usize;
        if i < 1 << m {
            return 63 - (i as u64).max(1).leading_zeros() as usize;
        }
        (i >> m) + m - 1
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
        for (j, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return self
                    .upper_edge(self.lo as usize + j)
                    .clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Fold `other` into `self`: counters add element-wise, min/max
    /// resolve monotonically. Commutative, associative, with the empty
    /// sketch as identity. `self` widens to `other`'s non-zero span,
    /// which allocates only when that reaches a new exponent group.
    /// Panics on precision mismatch (a configuration error, not a data
    /// condition).
    pub fn merge(&mut self, other: &QuantileSketch) {
        assert_eq!(self.m, other.m, "merging sketches of different precision");
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        if other.min < self.min {
            self.min = other.min;
        }
        if other.max > self.max {
            self.max = other.max;
        }
        let (first, counts) = other.trimmed();
        if counts.is_empty() {
            return;
        }
        let end = first + counts.len();
        if first < self.lo as usize || end > self.lo as usize + self.buckets.len() {
            self.cover(first, end - 1);
        }
        let skip = first - self.lo as usize;
        for (a, b) in self.buckets.iter_mut().skip(skip).zip(counts) {
            *a += b;
        }
    }

    /// Zero all counters in place, keeping the stored span's allocation
    /// for reuse (the heatmap empties the ring cells of slots leaving
    /// its window through this).
    /// The result equals [`QuantileSketch::new`] of the same precision.
    #[inline]
    pub fn reset_counts(&mut self) {
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

    /// Heap + inline footprint in bytes: the inline struct plus the
    /// stored span's capacity. Follows the recorded span, one exponent
    /// group of `2^m` buckets at a time, and never exceeds
    /// `size_of::<QuantileSketch>() + 8 · (65 - m)·2^m` however many
    /// values are recorded — the memory-bound tests assert this cap.
    pub fn mem_bytes(&self) -> usize {
        core::mem::size_of::<QuantileSketch>()
            + self.buckets.capacity() * core::mem::size_of::<u64>()
    }
}

/// Equal iff the precision, the counters and every logical bucket
/// agree. The stored span is not canonical — `reset_counts` keeps its
/// allocation and a merge may widen past the recorded values — so the
/// buckets compare with their zero ends trimmed.
impl PartialEq for QuantileSketch {
    fn eq(&self, other: &QuantileSketch) -> bool {
        self.m == other.m
            && self.count == other.count
            && self.sum == other.sum
            && self.min == other.min
            && self.max == other.max
            && self.trimmed() == other.trimmed()
    }
}

impl Eq for QuantileSketch {}

/// Compact, deterministic rendering: full bucket contents would print
/// kilobytes per flow, so the buckets appear as an FNV-1a digest over
/// all `(65 - m)·2^m` logical buckets, the implied zeros outside the
/// stored span included. Any single-counter difference still changes
/// the output — the campaign byte-identity tests format results
/// through this.
impl core::fmt::Debug for QuantileSketch {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for i in 0..Self::bucket_count(self.m) {
            for byte in self.bucket(i).to_le_bytes() {
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
            let last = QuantileSketch::bucket_count(m) - 1;
            // The maximum value maps to the last bucket.
            assert_eq!(s.bucket_of(u64::MAX), last);
            s.record(u64::MAX);
            assert_eq!(s.bucket(last), 1);
            // 0 and u64::MAX together store the whole layout.
            s.record(0);
            assert_eq!(s.bucket(0), 1);
            assert_eq!(
                s.mem_bytes(),
                core::mem::size_of::<QuantileSketch>() + (last + 1) * 8
            );
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
        let recorded = s.mem_bytes();
        s.reset_counts();
        assert_eq!(s, QuantileSketch::new(4));
        assert_eq!(format!("{s:?}"), format!("{:?}", QuantileSketch::new(4)));
        // The reset keeps the span's allocation for reuse, within the cap.
        assert_eq!(s.mem_bytes(), recorded);
        let cap = core::mem::size_of::<QuantileSketch>() + QuantileSketch::bucket_count(4) * 8;
        assert!(s.mem_bytes() <= cap);
        // An empty sketch holds no buckets.
        assert_eq!(
            QuantileSketch::new(4).mem_bytes(),
            core::mem::size_of::<QuantileSketch>()
        );
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
    fn log2_view_counts_each_power_of_two() {
        let mut s = QuantileSketch::new(3);
        assert!(s.log2_counts().is_empty());
        // 0 and 1 share octave 0; 7 is octave 2, 8 the first octave
        // past the exact range, 1000 octave 9.
        for v in [0, 1, 7, 8, 15, 1000] {
            s.record(v);
        }
        assert_eq!(s.log2_counts(), vec![2, 0, 1, 2, 0, 0, 0, 0, 0, 1]);
        s.record(u64::MAX);
        assert_eq!(s.log2_counts().len(), 64);
        assert_eq!(s.log2_counts().last(), Some(&1));
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
        let inline = core::mem::size_of::<QuantileSketch>();
        let cap = inline + 1920 * 8;
        let mut s = QuantileSketch::new(5);
        // An empty sketch holds no buckets.
        assert_eq!(s.mem_bytes(), inline);
        // Values in [2^20, 2^21) hold exactly one group of 2^5 buckets,
        // however many are recorded.
        for i in 0..100_000u64 {
            s.record((1 << 20) + i * 10);
        }
        assert_eq!(s.mem_bytes(), inline + 32 * 8);
        // [0, 3.7e6) reaches groups 0 ..= 17 (⌊log₂ 3.7e6⌋ = 21).
        let mut s = QuantileSketch::new(5);
        for i in 0..100_000u64 {
            s.record(i * 37);
        }
        let spanned = s.mem_bytes();
        assert_eq!(spanned, inline + 18 * 32 * 8);
        for i in 0..100_000u64 {
            s.record(i * 37);
        }
        assert_eq!(s.mem_bytes(), spanned);
        // The full layout stays the hard cap.
        s.record(u64::MAX);
        assert_eq!(s.mem_bytes(), cap);
        for i in 0..100_000u64 {
            s.record(i.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        }
        assert!(s.mem_bytes() <= cap);
    }
}
