//! The winner (tournament) tree shared by [`ActiveSet`]'s tree layout
//! and the simulator's event core.
//!
//! The caller owns its slot keys and passes their order as `beats(a,
//! b)`: true iff slot `a` wins against slot `b` (for a total order,
//! `a`'s key is at most `b`'s). The tree itself is one `win: [u32]`
//! array with an entry per leaf: `leaves = win.len()` is a power of
//! two, at least 2; `win[k]` holds the winning slot under internal
//! node `k`, so `win[1]` is the overall winner; leaf `i` hangs under
//! node `(leaves + i) / 2`; `win[0]` is unused.
//!
//! [`ActiveSet`]: crate::ActiveSet

/// Recompute the winner path from leaf `i` to the root after slot
/// `i`'s key changed: `log₂ leaves` comparisons, the O(log n) update
/// step.
#[inline]
pub fn replay<F: Fn(usize, usize) -> bool>(win: &mut [u32], i: usize, beats: F) {
    let leaves = win.len();
    let mut node = (leaves + i) / 2;
    // First round pairs two leaves; later rounds pair cached winners.
    let base = node * 2 - leaves;
    let mut w = if beats(base, base + 1) {
        base
    } else {
        base + 1
    };
    loop {
        let Some(k) = win.get_mut(node) else {
            debug_assert!(false, "leaf past the tree");
            return;
        };
        *k = w as u32;
        if node == 1 {
            break;
        }
        let Some(&sibling) = win.get(node ^ 1) else {
            debug_assert!(false, "leaf past the tree");
            return;
        };
        node /= 2;
        if !beats(w, sibling as usize) {
            w = sibling as usize;
        }
    }
}

/// Establish the winner invariant over every slot in one bottom-up
/// pass: O(leaves), against O(leaves · log leaves) for a replay per
/// slot.
pub fn rebuild<F: Fn(usize, usize) -> bool>(win: &mut [u32], beats: F) {
    let leaves = win.len();
    for node in (1..leaves).rev() {
        let child = |c: usize| {
            if c >= leaves {
                Some(c - leaves)
            } else {
                win.get(c).map(|&w| w as usize)
            }
        };
        let (Some(a), Some(b)) = (child(2 * node), child(2 * node + 1)) else {
            continue;
        };
        let w = if beats(a, b) { a } else { b };
        if let Some(k) = win.get_mut(node) {
            *k = w as u32;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_and_rebuild_agree_on_the_minimum() {
        // Eight keys with duplicates: ties go to the lower slot.
        let key = [5u64, 3, 9, 3, 7, 1, 1, 8];
        let beats = |a: usize, b: usize| (key[a], a) <= (key[b], b);
        let mut built = vec![0u32; 8];
        rebuild(&mut built, beats);
        let mut replayed = vec![0u32; 8];
        for i in 0..8 {
            replay(&mut replayed, i, beats);
        }
        assert_eq!(built, replayed);
        assert_eq!(built[1], 5, "lowest key, lower slot on the tie");
    }
}
