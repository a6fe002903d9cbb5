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
//! * **Flat scan** (≤ [`SCAN_TREE_CROSSOVER`] slots): `set`/`clear` are
//!   branchless O(1) stores and `peek` is a linear scan. At the paper's
//!   scales (9–30 classes) the keys are one or two contiguous cache
//!   lines and the scan is a short branch-predictable loop of wide
//!   integer compares with no per-update work. `sched_scale`'s
//!   `active_set` rows (`BENCH_scale.json`) put its set+peek cycle level
//!   with the tree's at 9–16 slots, and end to end the two layouts are
//!   at parity up to 64 slots (DESIGN.md §11.3).
//! * **Tournament (winner) tree** (above the crossover): the flat scan
//!   is O(n) per `peek` and dies at ISP scale (10⁴–10⁶ subscriber
//!   flows), so large sets keep a `win` index over the same key array —
//!   `set`/`clear` replay one leaf-to-root path (O(log n), ~20 cache
//!   lines at 10⁶ slots) and `peek` reads the root. The tree is the
//!   shared [`tournament`] module, also behind the event core's
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

/// Slot count at or below which the flat scan is kept, measured by
/// `sched_scale`'s `active_set` sweep (9–2²⁰ slots, `BENCH_scale.json`,
/// DESIGN.md §15): up to 64 slots the two layouts run at parity end to
/// end (the churn microbench has the tree ahead by ≈25 ns at 64), and
/// by 256 slots the tree is several times faster.
pub const SCAN_TREE_CROSSOVER: usize = 64;

/// `(tag, tie)` packed so lexicographic order becomes one wide integer
/// compare — the inner comparison of both layouts is a single branch
/// instead of a tuple-comparison chain.
#[inline]
fn pack(tag: VirtualTime, tie: u64) -> u128 {
    ((tag.raw() as u128) << 64) | tie as u128
}

/// Physical layout of an [`ActiveSet`]'s minimum index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// Flat array: O(1) `set`/`clear`, O(n) `peek`.
    Scan,
    /// Tournament tree over the flat array: O(log n) `set`/`clear`,
    /// O(1) `peek`.
    Tree,
    /// [`Layout::Scan`] at or below [`SCAN_TREE_CROSSOVER`] slots,
    /// [`Layout::Tree`] above — the default via
    /// [`ActiveSet::with_slots`].
    Adaptive,
}

/// Indexed set of per-slot `(tag, tie)` keys (see module docs).
#[derive(Debug, Clone)]
pub struct ActiveSet {
    /// Packed key per slot; [`EMPTY`] = vacant. The tree layout pads to
    /// the leaf power of two (at least two leaves) with
    /// permanently-[`EMPTY`] keys, which lose every comparison and are
    /// unaddressable (slot bounds are checked against `slots`, not
    /// `key.len()`).
    key: Vec<u128>,
    /// [`tournament`] tree over `key` (empty in the scan layout — the
    /// layout dispatch is `win.is_empty()`, one branch on hot paths);
    /// the root winner is `win[1]`.
    win: Vec<u32>,
    /// Addressable slot count (`key.len()` may be padded).
    slots: usize,
    /// Occupied slot count.
    len: usize,
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
                win: Vec::new(),
                slots: n,
                len: 0,
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
            win,
            slots: n,
            len: 0,
        }
    }

    /// Occupy slot `i` with key `(tag, tie)`, replacing any previous
    /// key. `tag` must stay below the [`VirtualTime::MAX`] sentinel.
    #[inline]
    pub fn set(&mut self, i: usize, tag: VirtualTime, tie: u64) {
        debug_assert!(i < self.slots, "slot out of range");
        let key = pack(tag, tie);
        debug_assert!(key != EMPTY, "the sentinel key is reserved for empty slots");
        self.len += usize::from(self.key[i] == EMPTY);
        self.store(i, key);
    }

    /// Vacate slot `i`. No-op if already empty.
    #[inline]
    pub fn clear(&mut self, i: usize) {
        debug_assert!(i < self.slots, "slot out of range");
        self.len -= usize::from(self.key[i] != EMPTY);
        self.store(i, EMPTY);
    }

    /// Whether slot `i` is occupied.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        self.key.get(i).is_some_and(|&k| k != EMPTY)
    }

    /// Vacate every occupied slot, passing each one's `(slot, tag, tie)`
    /// to `visit` (in no promised order). The scan layout sweeps its
    /// array once; the tree layout pops its occupants one by one, so
    /// the cost is O(occupied · log n), not O(n).
    pub fn drain(&mut self, mut visit: impl FnMut(usize, VirtualTime, u64)) {
        if self.win.is_empty() {
            for (i, k) in self.key.iter_mut().enumerate() {
                if *k != EMPTY {
                    visit(i, VirtualTime::from_raw((*k >> 64) as u64), *k as u64);
                    *k = EMPTY;
                }
            }
            self.len = 0;
            return;
        }
        while let Some((i, tag, tie)) = self.peek() {
            visit(i, tag, tie);
            self.clear(i);
        }
    }

    /// The occupied slot with the smallest `(tag, tie, index)`, if any.
    #[inline]
    pub fn peek(&self) -> Option<(usize, VirtualTime, u64)> {
        if self.len == 0 {
            return None;
        }
        let (w, best) = if self.win.is_empty() {
            let mut w = 0;
            let mut best = self.key[0];
            for (i, &k) in self.key.iter().enumerate().skip(1) {
                // Strict `<` keeps the lowest index among equal keys.
                if k < best {
                    best = k;
                    w = i;
                }
            }
            (w, best)
        } else {
            let w = self.win[1] as usize;
            (w, self.key[w])
        };
        debug_assert!(best != EMPTY, "non-empty set with an empty winner");
        Some((w, VirtualTime::from_raw((best >> 64) as u64), best as u64))
    }

    /// Number of occupied slots.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff no slot is occupied.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The resolved physical layout (never [`Layout::Adaptive`]).
    pub fn layout(&self) -> Layout {
        if self.win.is_empty() {
            Layout::Scan
        } else {
            Layout::Tree
        }
    }

    /// Write slot `i`'s key; the tree layout then replays the slot's
    /// leaf-to-root path (O(log n)).
    #[inline]
    fn store(&mut self, i: usize, key: u128) {
        self.key[i] = key;
        if !self.win.is_empty() {
            let key = &self.key;
            tournament::replay(&mut self.win, i, |a, b| lower(key, a, b));
        }
    }
}

/// Whether slot `a` beats slot `b`: `(key[a], a) ≤ (key[b], b)` —
/// prefers the lower index on equal keys, matching the scan's
/// strict-`<` discipline, and [`EMPTY`] keys lose to every real key.
#[inline]
fn lower(key: &[u128], a: usize, b: usize) -> bool {
    (key[a], a) <= (key[b], b)
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
    }
}
