//! Property-based proof obligations for the streaming-telemetry merge
//! algebra. The campaign runner folds per-cell results in shard order,
//! which only yields thread-count-invariant output if every merged
//! structure is commutative, associative, and identity-preserving —
//! `SimResult::merge` already is, and these properties extend the
//! contract to [`QuantileSketch`]. The rank property pins the sketch's
//! advertised `2^-m` relative-error bound against an exact sorted
//! oracle, and the dense-oracle properties pin the span-trimmed bucket
//! store, and its log₂ view, against a full `(65 - m)·2^m` array.

use proptest::prelude::*;
use qbm_obs::QuantileSketch;

/// Stratify a raw 64-bit draw over the exact range, the log-bucketed
/// mid range, the wide range, and the extreme (the vendored harness
/// has no `prop_oneof`, so the mix lives here).
fn stratify(x: u64) -> u64 {
    match x % 4 {
        0 => (x >> 2) % 64,
        1 => 64 + (x >> 2) % 100_000,
        2 => (x >> 2).saturating_mul(3),
        _ => u64::MAX - (x >> 2) % 3,
    }
}

fn sketch_of(m: u32, values: &[u64]) -> QuantileSketch {
    let mut s = QuantileSketch::new(m);
    for &v in values {
        s.record(stratify(v));
    }
    s
}

/// The sketch's layout on a dense array of every logical bucket: the
/// same bucket formula, quantile walk and FNV-1a `{:?}` digest, with no
/// span bookkeeping at all.
struct DenseOracle {
    m: u32,
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl DenseOracle {
    fn new(m: u32) -> DenseOracle {
        DenseOracle {
            m,
            buckets: vec![0; QuantileSketch::bucket_count(m)],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    fn bucket_of(&self, v: u64) -> usize {
        let m = self.m;
        if v < (1u64 << m) {
            return v as usize;
        }
        let h = 63 - v.leading_zeros();
        (((h - m + 1) as usize) << m) + ((v >> (h - m)) as usize) - (1usize << m)
    }

    fn upper_edge(&self, i: usize) -> u64 {
        let m = self.m;
        if i < (1usize << m) {
            return i as u64;
        }
        let h = (i >> m) as u32 + m - 1;
        let sub = (i & ((1usize << m) - 1)) as u64;
        (1u64 << h) + (sub << (h - m)) + ((1u64 << (h - m)) - 1)
    }

    fn record(&mut self, v: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        let i = self.bucket_of(v);
        self.buckets[i] += 1;
    }

    fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return self.upper_edge(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    fn debug(&self) -> String {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in &self.buckets {
            for byte in b.to_le_bytes() {
                h ^= byte as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        format!(
            "QuantileSketch {{ m: {}, count: {}, sum: {}, min: {}, max: {}, buckets_fnv: {} }}",
            self.m, self.count, self.sum, self.min, self.max, h
        )
    }

    /// Log₂ histogram of the dense buckets: each bucket's upper edge
    /// lies in the power of two of all its values.
    fn log2_counts(&self) -> Vec<u64> {
        let mut out = vec![0; 64];
        for (i, &c) in self.buckets.iter().enumerate() {
            out[octave(self.upper_edge(i))] += c;
        }
        trim_zero_tail(out)
    }

    /// Bytes of the recorded [min, max] bucket span rounded out to
    /// whole exponent groups of `2^m` buckets (zero when empty).
    fn span_bytes(&self) -> usize {
        if self.count == 0 {
            return 0;
        }
        let groups =
            (self.bucket_of(self.max) >> self.m) - (self.bucket_of(self.min) >> self.m) + 1;
        (groups << self.m) * 8
    }
}

/// `⌊log₂ v⌋`, with 0 in the octave of 1.
fn octave(v: u64) -> usize {
    63 - v.max(1).leading_zeros() as usize
}

fn trim_zero_tail(mut counts: Vec<u64>) -> Vec<u64> {
    let used = counts.iter().rposition(|&c| c != 0).map_or(0, |k| k + 1);
    counts.truncate(used);
    counts
}

/// Map a raw draw into the value span `[2^lo, 2^(lo + width))`, at
/// least one exponent wide: `lo = 0` starts the span at 0 and
/// `lo + width ≥ 64` ends it at `u64::MAX`. A quarter of the draws are
/// each span end, a quarter the exponent-group edges `2^k - 1` and
/// `2^k` inside it, the rest uniform over it.
fn in_span(x: u64, lo: u32, width: u32) -> u64 {
    let hi = (lo + width.max(1)).min(64);
    let floor = if lo == 0 { 0 } else { 1u64 << lo };
    let top = if hi == 64 { u64::MAX } else { (1u64 << hi) - 1 };
    let k = lo + (x >> 3) as u32 % (hi - lo);
    let edge = 1u64 << k.min(63);
    match x % 8 {
        0 => floor,
        1 => top,
        2 => edge.clamp(floor, top),
        3 => (edge - 1).clamp(floor, top),
        _ => floor + (x >> 3) % (top - floor).max(1),
    }
}

fn spanned(m: u32, raw: &[u64], lo: u32, width: u32) -> (QuantileSketch, DenseOracle) {
    let mut s = QuantileSketch::new(m);
    let mut o = DenseOracle::new(m);
    for &x in raw {
        let v = in_span(x, lo, width);
        s.record(v);
        o.record(v);
    }
    (s, o)
}

fn raw_values() -> proptest::collection::VecStrategy<core::ops::Range<u64>> {
    proptest::collection::vec(0u64..u64::MAX, 0..200)
}

proptest! {
    /// The span-trimmed sketch answers exactly like the dense layout:
    /// same digest, same quantiles, a reset back to empty, and memory
    /// no larger than its recorded span rounded out to groups.
    #[test]
    fn sketch_matches_dense_oracle(
        raw in proptest::collection::vec(0u64..u64::MAX, 0..300),
        m in 1u32..9,
        lo in 0u32..70,
        width in 0u32..70,
    ) {
        // One draw in ten starts the span at 0.
        let (mut s, o) = spanned(m, &raw, lo.saturating_sub(6), width);
        prop_assert_eq!(format!("{s:?}"), o.debug());
        for q in [0.0, 0.5, 0.9, 0.99, 0.999, 1.0] {
            prop_assert_eq!(s.quantile(q), o.quantile(q), "q={} m={}", q, m);
        }
        let inline = core::mem::size_of::<QuantileSketch>();
        prop_assert!(s.mem_bytes() <= inline + o.span_bytes());
        prop_assert!(s.mem_bytes() <= inline + QuantileSketch::bucket_count(m) * 8);
        s.reset_counts();
        prop_assert_eq!(&s, &QuantileSketch::new(m));
        prop_assert_eq!(format!("{s:?}"), DenseOracle::new(m).debug());
    }

    /// The log₂ view is exactly a log₂ histogram of the recorded values
    /// (0 counted with 1, no trailing zero), and the one the dense
    /// oracle's buckets give.
    #[test]
    fn log2_view_matches_a_value_histogram(
        raw in proptest::collection::vec(0u64..u64::MAX, 0..300),
        m in 1u32..9,
        lo in 0u32..70,
        width in 0u32..70,
    ) {
        let lo = lo.saturating_sub(6);
        let (s, o) = spanned(m, &raw, lo, width);
        let mut direct = vec![0u64; 64];
        for &x in &raw {
            direct[octave(in_span(x, lo, width))] += 1;
        }
        let direct = trim_zero_tail(direct);
        prop_assert_eq!(&s.log2_counts(), &direct);
        prop_assert_eq!(&o.log2_counts(), &direct);
    }

    /// Merging in either order equals one sketch of the union, matches
    /// the dense oracle of the union, and stores no more than the
    /// union's span — including when the two operands' spans are
    /// disjoint (the second span starts above the first one's end).
    #[test]
    fn sketch_merge_matches_dense_union(
        a in proptest::collection::vec(0u64..u64::MAX, 0..150),
        b in proptest::collection::vec(0u64..u64::MAX, 0..150),
        m in 1u32..9,
        spans in (0u32..46, 0u32..12, 0u32..12, 0u32..13),
    ) {
        let (lo_a, width_a, gap, width_b) = spans;
        let lo_a = lo_a.saturating_sub(6);
        let lo_b = lo_a + width_a.max(1) + gap;
        let (sa, _) = spanned(m, &a, lo_a, width_a);
        let (sb, _) = spanned(m, &b, lo_b, width_b);
        if let (Some(top_a), Some(floor_b)) = (sa.max(), sb.min()) {
            prop_assert!(top_a < floor_b, "spans overlap");
        }
        let mut union = QuantileSketch::new(m);
        let mut oracle = DenseOracle::new(m);
        for (raw, lo, width) in [(&a, lo_a, width_a), (&b, lo_b, width_b)] {
            for &x in raw.iter() {
                let v = in_span(x, lo, width);
                union.record(v);
                oracle.record(v);
            }
        }
        let mut ab = sa.clone();
        ab.merge(&sb);
        let mut ba = sb.clone();
        ba.merge(&sa);
        prop_assert_eq!(&ab, &union);
        prop_assert_eq!(&ba, &union);
        prop_assert_eq!(format!("{ab:?}"), oracle.debug());
        prop_assert_eq!(format!("{ba:?}"), oracle.debug());
        for q in [0.0, 0.5, 0.9, 0.99, 0.999, 1.0] {
            prop_assert_eq!(ab.quantile(q), oracle.quantile(q));
            prop_assert_eq!(ba.quantile(q), oracle.quantile(q));
        }
        let inline = core::mem::size_of::<QuantileSketch>();
        prop_assert!(ab.mem_bytes() <= inline + oracle.span_bytes());
        prop_assert!(ba.mem_bytes() <= inline + oracle.span_bytes());
    }

    /// Sketch merge is commutative, and the empty sketch is the merge
    /// identity: fold(a, b) == fold(b, a), fold(a, 0) == a.
    #[test]
    fn sketch_merge_commutes(a in raw_values(), b in raw_values(), m in 1u32..9) {
        let (sa, sb) = (sketch_of(m, &a), sketch_of(m, &b));
        let mut ab = sa.clone();
        ab.merge(&sb);
        let mut ba = sb.clone();
        ba.merge(&sa);
        prop_assert_eq!(&ab, &ba);
        let mut id = sa.clone();
        id.merge(&QuantileSketch::new(m));
        prop_assert_eq!(&id, &sa);
    }

    /// Sketch merge is associative: (a ∪ b) ∪ c == a ∪ (b ∪ c), and
    /// both equal recording every value into one sketch.
    #[test]
    fn sketch_merge_associates(a in raw_values(), b in raw_values(), c in raw_values()) {
        let (sa, sb, sc) = (sketch_of(5, &a), sketch_of(5, &b), sketch_of(5, &c));
        let mut left = sa.clone();
        left.merge(&sb);
        left.merge(&sc);
        let mut bc = sb.clone();
        bc.merge(&sc);
        let mut right = sa.clone();
        right.merge(&bc);
        prop_assert_eq!(&left, &right);
        let union: Vec<u64> = a.iter().chain(&b).chain(&c).copied().collect();
        prop_assert_eq!(&left, &sketch_of(5, &union));
    }

    /// Every quantile estimate stays within the configured relative
    /// error of the exact rank statistic, from above only (the sketch
    /// reports bucket upper edges, so it never undershoots).
    #[test]
    fn sketch_rank_error_is_bounded(
        raw in proptest::collection::vec(0u64..u64::MAX, 1..400),
        m in 2u32..9,
        q in 0.0f64..1.0,
    ) {
        let s = sketch_of(m, &raw);
        let mut values: Vec<u64> = raw.iter().map(|&x| stratify(x)).collect();
        values.sort_unstable();
        let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
        let exact = values[rank - 1];
        let est = s.quantile(q);
        prop_assert!(est >= exact, "estimate {} under exact {}", est, exact);
        // Upper edge of the exact value's bucket: within 2^-m above,
        // plus 1 for the integer edge of the exact low range.
        let bound = (exact / (1u64 << m)).saturating_add(1);
        prop_assert!(
            est - exact <= bound,
            "q={} m={}: estimate {}, exact {}, bound {}",
            q, m, est, exact, bound
        );
    }
}
