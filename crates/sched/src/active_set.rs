//! Indexed active-set priority structure for virtual-time schedulers.
//!
//! Every timestamp scheduler here shares one structural fact: per class
//! (flow or hybrid queue), tags are non-decreasing, so the globally
//! smallest tag is always at some class's queue *head*. That reduces
//! the priority queue over all queued packets to a fixed set of
//! per-class head slots. [`ActiveSet`] indexes those slots by class
//! with one packed `(tag, tie)` key each.
//!
//! The minimum is found through one of two physical layouts, chosen by
//! slot count:
//!
//! * **Occupied-slot scan** (≤ [`SCAN_TREE_CROSSOVER`] slots): an
//!   occupancy bitmap (one `u64` word per 64 slots) marks the occupied
//!   slots; `set`/`clear` store a key and flip a bit, and `peek`/`drain`
//!   walk only the set bits with a branch-free `(key, index)` minimum,
//!   so their cost follows the occupied count, not the slot count. At
//!   the paper's scales (9–30 classes) a scheduler's sets hold one or
//!   two occupants most of the time — the §4 hybrid's GPS set mostly
//!   drains whole — and a 30-slot key array is 480 B that a full scan
//!   would walk on every call. `len` is the bitmap's popcount.
//! * **Tournament (winner) tree** (above the crossover): any scan is
//!   O(n) per `peek` in the worst case and dies at ISP scale (10⁴–10⁶
//!   subscriber flows), so large sets keep a `win` index over the same
//!   key array — `set`/`clear` replay one leaf-to-root path (O(log n),
//!   ~20 cache lines at 10⁶ slots) and `peek` reads the root. The tree
//!   is the shared [`tournament`] module, also behind the event core's
//!   `IndexedTimers`.
//!
//! Both layouts compute the identical minimum — ordering is
//! `(tag, tie, slot index)` lexicographic, ties preferring the lower
//! slot index — so schedulers (and the golden byte-identity suites)
//! cannot observe which layout is active. Schedulers put the packet
//! `seq` (WFQ, Virtual Clock) or the head `epoch` (WF²Q+) in `tie`,
//! reproducing the exact pop order of the retained `BinaryHeap`-based
//! reference implementations; the slot index makes the comparison total
//! even between equal keys. The structure is still *indexed* — slot `i`
//! belongs to class `i` — so schedulers address it positionally, no
//! lazy-deletion churn.

use crate::tournament;
use crate::vclock::VirtualTime;

/// Empty-slot sentinel: loses to every real key.
const EMPTY: u128 = u128::MAX;

/// Slot count at or below which the occupied-slot scan is kept (DESIGN.md
/// §11.3). Schedulers' sets hold one or two occupants most of the time,
/// and there the scan wins: `sched_scale`'s `active_set_sparse` rows
/// (`BENCH_scale.json`) read it 2.9–4.2× ahead of the tree at 9–64
/// slots (21.1 vs 84.6 ns at the `isp_tree` core's 25). The dense
/// `active_set` rows, every slot occupied, have the tree ahead from 9
/// slots and the scan O(n) behind it past 64, so large per-flow sets
/// take the tree. End to end, forcing the tree at every slot count made
/// perfbench's `isp_tree` and `paper_campaign` slower in every one of
/// 10 alternating 20 s pairs, medians 18–20 % lower in two such sets.
/// At or below it the bitmap is one word.
pub const SCAN_TREE_CROSSOVER: usize = 64;

/// `(tag, tie)` packed so lexicographic order becomes one wide integer
/// compare — the inner comparison of both layouts is a single branch
/// instead of a tuple-comparison chain.
#[inline]
fn pack(tag: VirtualTime, tie: u64) -> u128 {
    ((tag.raw() as u128) << 64) | tie as u128
}

/// The `(tag, tie)` a packed key holds.
#[inline]
fn unpack(key: u128) -> (VirtualTime, u64) {
    (VirtualTime::from_raw((key >> 64) as u64), key as u64)
}

/// Physical layout of an [`ActiveSet`]'s minimum index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// Key array plus occupancy bitmap: O(1) `set`/`clear`, `peek`
    /// over the occupied slots.
    Scan,
    /// Tournament tree over the key array: O(log n) `set`/`clear`,
    /// O(1) `peek`.
    Tree,
    /// [`Layout::Scan`] at or below [`SCAN_TREE_CROSSOVER`] slots,
    /// [`Layout::Tree`] above — the default via
    /// [`ActiveSet::with_slots`].
    Adaptive,
}

/// The minimum index over an [`ActiveSet`]'s keys.
#[derive(Debug, Clone)]
enum Index {
    /// Bit `i % 64` of word `i / 64` is set iff slot `i` is occupied;
    /// a vacant slot's key is never read.
    Scan(Vec<u64>),
    /// [`tournament`] tree over the keys (vacant keys [`EMPTY`]); the
    /// root winner is `win[1]`. `len` counts the occupied slots.
    Tree { win: Vec<u32>, len: usize },
}

/// Indexed set of per-slot `(tag, tie)` keys (see module docs).
#[derive(Debug, Clone)]
pub struct ActiveSet {
    /// Packed key per slot. The tree layout pads to the leaf power of
    /// two (at least two leaves) with permanently-[`EMPTY`] keys, which
    /// lose every comparison and are unaddressable (slot bounds are
    /// checked against `slots`, not `key.len()`).
    key: Vec<u128>,
    index: Index,
    /// Addressable slot count (`key.len()` may be padded).
    slots: usize,
}

impl ActiveSet {
    /// An all-empty set with `n` slots in the [`Layout::Adaptive`]
    /// layout.
    pub fn with_slots(n: usize) -> ActiveSet {
        ActiveSet::with_layout(n, Layout::Adaptive)
    }

    /// An all-empty set with `n` slots in an explicit layout — both
    /// layouts compute identical minima; forcing one exists for the
    /// crossover benchmark (`sched_scale`) and the differential tests.
    pub fn with_layout(n: usize, layout: Layout) -> ActiveSet {
        assert!(n > 0, "no slots");
        let tree = match layout {
            Layout::Scan => false,
            Layout::Tree => true,
            Layout::Adaptive => n > SCAN_TREE_CROSSOVER,
        };
        if !tree {
            return ActiveSet {
                key: vec![EMPTY; n],
                index: Index::Scan(vec![0; n.div_ceil(64)]),
                slots: n,
            };
        }
        // Padding keys are EMPTY and ties resolve to the lower index,
        // so the padding is inert; a 1-slot tree pads to two leaves.
        let leaves = n.next_power_of_two().max(2);
        let key = vec![EMPTY; leaves];
        let mut win = vec![0; leaves];
        tournament::rebuild(&mut win, |a, b| lower(&key, a, b));
        ActiveSet {
            key,
            index: Index::Tree { win, len: 0 },
            slots: n,
        }
    }

    /// Occupy slot `i` with key `(tag, tie)`, replacing any previous
    /// key. `tag` must stay below the [`VirtualTime::MAX`] sentinel.
    #[inline]
    pub fn set(&mut self, i: usize, tag: VirtualTime, tie: u64) {
        debug_assert!(i < self.slots, "slot out of range");
        let key = pack(tag, tie);
        debug_assert!(key != EMPTY, "the sentinel key is reserved for empty slots");
        let Some(k) = self.key.get_mut(i) else {
            debug_assert!(false, "slot out of range");
            return;
        };
        let was = std::mem::replace(k, key);
        match &mut self.index {
            Index::Scan(occ) => {
                if let Some(word) = occ.get_mut(i / 64) {
                    *word |= 1 << (i % 64);
                }
            }
            Index::Tree { win, len } => {
                *len += usize::from(was == EMPTY);
                let key = &self.key;
                tournament::replay(win, i, |a, b| lower(key, a, b));
            }
        }
    }

    /// Vacate slot `i`. No-op if already empty.
    #[inline]
    pub fn clear(&mut self, i: usize) {
        debug_assert!(i < self.slots, "slot out of range");
        match &mut self.index {
            Index::Scan(occ) => {
                if let Some(word) = occ.get_mut(i / 64) {
                    *word &= !(1 << (i % 64));
                }
            }
            Index::Tree { win, len } => {
                let Some(k) = self.key.get_mut(i) else {
                    debug_assert!(false, "slot out of range");
                    return;
                };
                *len -= usize::from(std::mem::replace(k, EMPTY) != EMPTY);
                let key = &self.key;
                tournament::replay(win, i, |a, b| lower(key, a, b));
            }
        }
    }

    /// Whether slot `i` is occupied.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        match &self.index {
            Index::Scan(occ) => occ.get(i / 64).is_some_and(|w| w >> (i % 64) & 1 == 1),
            Index::Tree { .. } => i < self.slots && self.key.get(i).is_some_and(|&k| k != EMPTY),
        }
    }

    /// Vacate every occupied slot, passing each one's `(slot, tag, tie)`
    /// to `visit` (in no promised order). The scan layout walks its
    /// occupied bits once; the tree layout pops its occupants one by
    /// one. Either way the cost is proportional to the occupants (times
    /// `log n` in the tree), not to the slot count.
    pub fn drain(&mut self, mut visit: impl FnMut(usize, VirtualTime, u64)) {
        match &mut self.index {
            Index::Scan(occ) => {
                for (w, word) in occ.iter_mut().enumerate() {
                    let mut bits = std::mem::take(word);
                    while bits != 0 {
                        let i = w * 64 + bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        let Some(&k) = self.key.get(i) else {
                            debug_assert!(false, "occupancy bit past the keys");
                            continue;
                        };
                        let (tag, tie) = unpack(k);
                        visit(i, tag, tie);
                    }
                }
            }
            Index::Tree { .. } => {
                while let Some((i, tag, tie)) = self.peek() {
                    visit(i, tag, tie);
                    self.clear(i);
                }
            }
        }
    }

    /// The occupied slot with the smallest `(tag, tie, index)`, if any.
    #[inline]
    pub fn peek(&self) -> Option<(usize, VirtualTime, u64)> {
        let (w, best) = match &self.index {
            Index::Scan(occ) => {
                let (mut w, mut best) = (usize::MAX, EMPTY);
                for (base, &word) in (0..).step_by(64).zip(occ) {
                    let mut bits = word;
                    while bits != 0 {
                        let i = base + bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        let k = self.key.get(i).copied().unwrap_or(EMPTY);
                        // Slots come in increasing index order, so a
                        // strict `<` keeps the lowest index among equal
                        // keys; selects, not branches.
                        let take = k < best;
                        best = if take { k } else { best };
                        w = if take { i } else { w };
                    }
                }
                (w, best)
            }
            Index::Tree { win, len } => {
                if *len == 0 {
                    return None;
                }
                let w = win.get(1).map_or(usize::MAX, |&w| w as usize);
                (w, self.key.get(w).copied().unwrap_or(EMPTY))
            }
        };
        if best == EMPTY {
            return None;
        }
        let (tag, tie) = unpack(best);
        Some((w, tag, tie))
    }

    /// Number of occupied slots.
    #[inline]
    pub fn len(&self) -> usize {
        match &self.index {
            Index::Scan(occ) => occ.iter().map(|w| w.count_ones() as usize).sum(),
            Index::Tree { len, .. } => *len,
        }
    }

    /// True iff no slot is occupied.
    #[inline]
    pub fn is_empty(&self) -> bool {
        match &self.index {
            Index::Scan(occ) => occ.iter().all(|&w| w == 0),
            Index::Tree { len, .. } => *len == 0,
        }
    }

    /// The resolved physical layout (never [`Layout::Adaptive`]).
    pub fn layout(&self) -> Layout {
        match self.index {
            Index::Scan(_) => Layout::Scan,
            Index::Tree { .. } => Layout::Tree,
        }
    }
}

/// Whether slot `a` beats slot `b`: `(key[a], a) ≤ (key[b], b)` —
/// prefers the lower index on equal keys, matching the scan's
/// strict-`<` discipline, and [`EMPTY`] keys lose to every real key.
#[inline]
fn lower(key: &[u128], a: usize, b: usize) -> bool {
    let at = |i: usize| key.get(i).copied().unwrap_or(EMPTY);
    (at(a), a) <= (at(b), b)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vt(raw: u64) -> VirtualTime {
        VirtualTime::from_raw(raw)
    }

    const LAYOUTS: [Layout; 3] = [Layout::Scan, Layout::Tree, Layout::Adaptive];

    #[test]
    fn min_by_tag_then_tie_then_index() {
        for layout in LAYOUTS {
            let mut s = ActiveSet::with_layout(5, layout);
            s.set(3, vt(10), 7);
            s.set(1, vt(10), 5);
            s.set(4, vt(2), 99);
            assert_eq!(s.peek(), Some((4, vt(2), 99)), "{layout:?}");
            s.clear(4);
            assert_eq!(
                s.peek(),
                Some((1, vt(10), 5)),
                "{layout:?}: tie by tie field"
            );
            s.set(0, vt(10), 5);
            assert_eq!(s.peek(), Some((0, vt(10), 5)), "{layout:?}: tie by index");
        }
    }

    #[test]
    fn overwrite_updates_in_place() {
        for layout in LAYOUTS {
            let mut s = ActiveSet::with_layout(4, layout);
            s.set(0, vt(5), 0);
            s.set(1, vt(9), 0);
            assert_eq!(s.len(), 2);
            s.set(0, vt(20), 1);
            assert_eq!(s.len(), 2, "overwrite is not an insert");
            assert_eq!(s.peek(), Some((1, vt(9), 0)), "{layout:?}");
        }
    }

    #[test]
    fn drain_visits_every_occupant_and_empties() {
        for layout in LAYOUTS {
            let mut s = ActiveSet::with_layout(70, layout);
            for (i, tag) in [(3, 9), (0, 4), (69, 4), (41, 1)] {
                s.set(i, vt(tag), i as u64);
            }
            assert!(s.contains(69) && !s.contains(68));
            let mut seen = Vec::new();
            s.drain(|i, tag, tie| seen.push((i, tag.raw(), tie)));
            seen.sort();
            assert_eq!(seen, vec![(0, 4, 0), (3, 9, 3), (41, 1, 41), (69, 4, 69)]);
            assert!(
                s.is_empty() && s.peek().is_none() && !s.contains(3),
                "{layout:?}"
            );
            s.set(5, vt(2), 0);
            assert_eq!(
                s.peek(),
                Some((5, vt(2), 0)),
                "{layout:?}: usable after drain"
            );
        }
    }

    #[test]
    fn clear_is_idempotent_and_empties() {
        for layout in LAYOUTS {
            let mut s = ActiveSet::with_layout(3, layout);
            assert!(s.is_empty() && s.peek().is_none());
            s.set(2, vt(1), 1);
            s.clear(2);
            s.clear(2);
            assert!(s.is_empty());
            assert_eq!(s.peek(), None);
        }
    }

    #[test]
    fn single_slot_set_works() {
        for layout in LAYOUTS {
            let mut s = ActiveSet::with_layout(1, layout);
            s.set(0, vt(42), 0);
            assert_eq!(s.peek(), Some((0, vt(42), 0)));
            s.clear(0);
            assert_eq!(s.peek(), None);
        }
    }

    #[test]
    fn near_sentinel_keys_survive() {
        // Keys adjacent to the EMPTY sentinel must still round-trip and
        // order correctly — in the tree layout they must also beat the
        // EMPTY padding leaves.
        for layout in LAYOUTS {
            let mut s = ActiveSet::with_layout(5, layout);
            for i in 0..5 {
                s.set(i, vt(u64::MAX - 1), u64::MAX);
            }
            for i in 0..5 {
                assert_eq!(
                    s.peek(),
                    Some((i, vt(u64::MAX - 1), u64::MAX)),
                    "{layout:?}"
                );
                s.clear(i);
            }
            assert!(s.peek().is_none());
        }
    }

    #[test]
    fn adaptive_layout_switches_at_crossover() {
        assert_eq!(
            ActiveSet::with_slots(SCAN_TREE_CROSSOVER).layout(),
            Layout::Scan
        );
        assert_eq!(
            ActiveSet::with_slots(SCAN_TREE_CROSSOVER + 1).layout(),
            Layout::Tree
        );
        assert_eq!(
            ActiveSet::with_layout(8, Layout::Tree).layout(),
            Layout::Tree
        );
        assert_eq!(
            ActiveSet::with_layout(1 << 16, Layout::Scan).layout(),
            Layout::Scan
        );
    }

    #[test]
    fn tree_handles_non_power_of_two_slot_counts() {
        // 5 slots pad to 8 leaves; the padding must never win.
        let mut s = ActiveSet::with_layout(5, Layout::Tree);
        for i in (0..5).rev() {
            s.set(i, vt(100 + i as u64), 0);
        }
        for i in 0..5 {
            assert_eq!(s.peek(), Some((i, vt(100 + i as u64), 0)));
            s.clear(i);
        }
        assert!(s.is_empty());
    }

    #[test]
    fn scan_and_tree_agree_on_dense_churn() {
        // Deterministic mixed workload over a tree-sized set, stepping
        // a SplitMix64 stream from a fixed seed: every layout must
        // report the identical minimum at every step.
        let n = 1000;
        let mut scan = ActiveSet::with_layout(n, Layout::Scan);
        let mut tree = ActiveSet::with_layout(n, Layout::Tree);
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut rnd = || {
            x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        for _ in 0..20_000 {
            let r = rnd();
            let slot = (r as usize >> 8) % n;
            if r % 5 == 0 {
                scan.clear(slot);
                tree.clear(slot);
            } else {
                let tag = vt(rnd() % 64); // dense tags force tie paths
                let tie = rnd() % 8;
                scan.set(slot, tag, tie);
                tree.set(slot, tag, tie);
            }
            assert_eq!(scan.peek(), tree.peek());
            assert_eq!(scan.len(), tree.len());
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    proptest! {
        /// Differential against a keyed `BinaryHeap` model under the
        /// schedulers' slot discipline (one live key per slot, lazily
        /// superseded in the model as `ActiveSet::set` overwrites).
        /// All three layouts are driven in lockstep — slot counts span
        /// the scan/tree crossover so `Adaptive` exercises both sides.
        #[test]
        fn matches_reference_heap(
            n in 1usize..150,
            ops in proptest::collection::vec(
                (0u8..4, 0usize..150, 0u64..40, 0u64..4), 1..300),
        ) {
            let mut sets = [
                ActiveSet::with_layout(n, Layout::Scan),
                ActiveSet::with_layout(n, Layout::Tree),
                ActiveSet::with_layout(n, Layout::Adaptive),
            ];
            // Model: lazy heap of (tag, tie, slot) + live key per slot.
            let mut heap: BinaryHeap<Reverse<(VirtualTime, u64, usize)>> =
                BinaryHeap::new();
            let mut live: Vec<Option<(VirtualTime, u64)>> = vec![None; n];
            for (kind, slot, tag, tie) in ops {
                let i = slot % n;
                match kind {
                    0 | 1 => {
                        let key = (VirtualTime::from_raw(tag), tie);
                        for set in &mut sets {
                            set.set(i, key.0, key.1);
                        }
                        live[i] = Some(key);
                        heap.push(Reverse((key.0, key.1, i)));
                    }
                    2 => {
                        for set in &mut sets {
                            set.clear(i);
                        }
                        live[i] = None;
                    }
                    _ => {
                        // Skim stale model entries, then compare peeks.
                        let model = loop {
                            match heap.peek() {
                                None => break None,
                                Some(&Reverse((t, x, s))) => {
                                    if live[s] == Some((t, x)) {
                                        break Some((s, t, x));
                                    }
                                    heap.pop();
                                }
                            }
                        };
                        for set in &sets {
                            prop_assert_eq!(
                                set.peek(), model,
                                "peek diverged ({:?})", set.layout()
                            );
                        }
                    }
                }
            }
            let expect_len = live.iter().flatten().count();
            for set in &sets {
                prop_assert_eq!(set.len(), expect_len);
            }
        }

        /// The bitmap scan against the tree and a plain per-slot model,
        /// with drains: sparse churn over three of 25 slots (the
        /// hybrid's case: one or two occupants at a time), and forced
        /// scan layouts past one bitmap word (65–1000 slots).
        #[test]
        fn bitmap_scan_matches_tree_sparse_and_multi_word(
            wide in 0u8..2,
            n_wide in 65usize..1000,
            ops in proptest::collection::vec(
                (0u8..6, 0usize..1000, 0u64..40, 0u64..4), 1..300),
        ) {
            let wide = wide == 1;
            let n = if wide { n_wide } else { 25 };
            let mut scan = ActiveSet::with_layout(n, Layout::Scan);
            let mut tree = ActiveSet::with_layout(n, Layout::Tree);
            let mut live: Vec<Option<(VirtualTime, u64)>> = vec![None; n];
            for (kind, slot, tag, tie) in ops {
                let i = if wide { slot % n } else { slot % 3 * 12 };
                match kind {
                    0 | 1 => {
                        let tag = VirtualTime::from_raw(tag);
                        scan.set(i, tag, tie);
                        tree.set(i, tag, tie);
                        live[i] = Some((tag, tie));
                    }
                    2 | 3 => {
                        scan.clear(i);
                        tree.clear(i);
                        live[i] = None;
                    }
                    4 => {
                        let model = live
                            .iter()
                            .enumerate()
                            .filter_map(|(s, k)| k.map(|(t, x)| (t, x, s)))
                            .min()
                            .map(|(t, x, s)| (s, t, x));
                        prop_assert_eq!(scan.peek(), model);
                        prop_assert_eq!(tree.peek(), model);
                        prop_assert_eq!(scan.contains(i), live[i].is_some());
                    }
                    _ => {
                        let mut want: Vec<(usize, VirtualTime, u64)> = live
                            .iter_mut()
                            .enumerate()
                            .filter_map(|(s, k)| k.take().map(|(t, x)| (s, t, x)))
                            .collect();
                        let (mut a, mut b) = (Vec::new(), Vec::new());
                        scan.drain(|s, t, x| a.push((s, t, x)));
                        tree.drain(|s, t, x| b.push((s, t, x)));
                        a.sort();
                        b.sort();
                        want.sort();
                        prop_assert_eq!(&a, &want);
                        prop_assert_eq!(&b, &want);
                        prop_assert!(scan.is_empty() && tree.is_empty());
                    }
                }
                let expect_len = live.iter().flatten().count();
                prop_assert_eq!(scan.len(), expect_len);
                prop_assert_eq!(tree.len(), expect_len);
            }
        }
    }
}
