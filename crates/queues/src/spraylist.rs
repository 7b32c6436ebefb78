//! SprayList-style relaxed priority queue (Alistarh, Kopinsky, Li, Shavit,
//! PPoPP 2015).
//!
//! The SprayList is a skip list whose `delete-min` performs a **spray**: a
//! random descending walk from a height of roughly `log p` that lands on one
//! of the first `O(p log³ p)` elements almost uniformly, where `p` is the
//! number of threads the structure is tuned for. Spreading the delete-mins
//! over a window of the smallest elements removes the contention hot-spot at
//! the head of the list — at the price of relaxation, which is exactly the
//! trade-off the SPAA 2019 paper quantifies.
//!
//! This implementation is a faithful *sequential-model* SprayList: an
//! arena-based skip list plus the spray walk with the standard parameter
//! shapes (start height `⌊log₂ p⌋ + K`, per-level jump uniform in `[0, M]`,
//! descend `D` levels at a time, and a `1/p` chance of acting as a "cleaner"
//! that performs an exact delete-min — the mechanism the original paper uses
//! to guarantee that the minimum is eventually collected). It plugs into the
//! sequential scheduling model of Sections 2–5. The concurrent experiments
//! of the paper use the MultiQueue, which this crate provides in a fully
//! concurrent form; this sequential-model SprayList stands in for the
//! original lock-free one.

use crate::{RelaxedQueue, NOT_PRESENT};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const NIL: usize = usize::MAX;
const MAX_HEIGHT: usize = 32;

/// Tuning parameters of the spray walk. The defaults follow the shapes in
/// the PPoPP 2015 paper (Section "The SprayList Algorithm").
#[derive(Clone, Copy, Debug)]
pub struct SprayParams {
    /// Added to `⌊log₂ p⌋` to obtain the starting height.
    pub height_offset: usize,
    /// Maximum per-level jump length is `jump_mult · ⌈log₂(p+2)⌉`.
    pub jump_mult: usize,
    /// Number of levels to descend between jumps.
    pub descend: usize,
}

impl Default for SprayParams {
    fn default() -> Self {
        Self {
            height_offset: 1,
            jump_mult: 1,
            descend: 1,
        }
    }
}

#[derive(Clone, Debug)]
struct Node<P> {
    prio: P,
    item: usize,
    /// `next[l]` = arena index of the successor at level `l`.
    next: Vec<usize>,
}

/// A sequential skip-list priority queue with spray-based relaxed delete-min.
///
/// # Examples
///
/// ```
/// use rsched_queues::{SprayList, RelaxedQueue};
///
/// // Tuned as if 8 threads were spraying.
/// let mut sl = SprayList::new(8, 0xFEED);
/// for i in 0..200usize {
///     sl.insert(i, i as u64);
/// }
/// let (item, prio) = sl.pop_relaxed().unwrap();
/// assert_eq!(item as u64, prio);
/// // The spray returns one of the smallest O(p log^3 p) elements.
/// assert!(prio < 200);
/// ```
#[derive(Clone, Debug)]
pub struct SprayList<P> {
    nodes: Vec<Node<P>>,
    /// Head sentinel's forward pointers (conceptually priority −∞).
    head: Vec<usize>,
    /// `slot_of[item]` = arena index, or `NOT_PRESENT`.
    slot_of: Vec<usize>,
    free: Vec<usize>,
    len: usize,
    /// The "thread count" the spray is tuned for.
    p: usize,
    params: SprayParams,
    rng: SmallRng,
}

impl<P: Ord + Copy> SprayList<P> {
    /// A SprayList tuned for `p` simulated threads with default parameters.
    pub fn new(p: usize, seed: u64) -> Self {
        Self::with_params(p, seed, SprayParams::default())
    }

    /// A SprayList with explicit [`SprayParams`].
    pub fn with_params(p: usize, seed: u64, params: SprayParams) -> Self {
        assert!(p > 0, "SprayList thread parameter must be positive");
        assert!(params.descend > 0, "descend must be positive");
        Self {
            nodes: Vec::new(),
            head: vec![NIL; MAX_HEIGHT],
            slot_of: Vec::new(),
            free: Vec::new(),
            len: 0,
            p,
            params,
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// The thread parameter `p` the spray is tuned for.
    pub fn thread_parameter(&self) -> usize {
        self.p
    }

    #[inline]
    fn key(&self, idx: usize) -> (P, usize) {
        let n = &self.nodes[idx];
        (n.prio, n.item)
    }

    /// Successor of `idx` at level `l`, treating `NIL` idx as the head.
    #[inline]
    fn succ(&self, idx: usize, level: usize) -> usize {
        if idx == NIL {
            self.head[level]
        } else {
            self.nodes[idx].next[level]
        }
    }

    fn set_succ(&mut self, idx: usize, level: usize, to: usize) {
        if idx == NIL {
            self.head[level] = to;
        } else {
            self.nodes[idx].next[level] = to;
        }
    }

    /// Geometric height in `1..=MAX_HEIGHT` with ratio 1/2.
    fn random_height(&mut self) -> usize {
        let bits: u32 = self.rng.gen();
        ((bits.trailing_ones() as usize) + 1).min(MAX_HEIGHT)
    }

    /// Find the predecessor of key `(prio, item)` at every level.
    fn predecessors(&self, prio: P, item: usize) -> [usize; MAX_HEIGHT] {
        let mut preds = [NIL; MAX_HEIGHT];
        let mut cur = NIL;
        for level in (0..MAX_HEIGHT).rev() {
            loop {
                let nxt = self.succ(cur, level);
                if nxt != NIL && self.key(nxt) < (prio, item) {
                    cur = nxt;
                } else {
                    break;
                }
            }
            preds[level] = cur;
        }
        preds
    }

    /// Starting height of the spray: `min(⌊log₂ p⌋ + K, current max level)`.
    fn spray_height(&self) -> usize {
        let lg = usize::BITS as usize - 1 - self.p.leading_zeros() as usize;
        let h = lg + self.params.height_offset;
        h.clamp(1, MAX_HEIGHT)
    }

    /// Maximum per-level jump length.
    fn spray_jump(&self) -> usize {
        let lg = usize::BITS as usize - (self.p + 2).leading_zeros() as usize;
        (self.params.jump_mult * lg).max(1)
    }

    /// The spray walk: returns the arena index of the landed node, or the
    /// first node if the walk lands on the head, or `NIL` if empty.
    fn spray(&mut self) -> usize {
        if self.len == 0 {
            return NIL;
        }
        // Cleaner behaviour: with probability 1/p perform an exact peek-min,
        // which guarantees the global minimum is collected regularly (this
        // is the SprayList's fairness mechanism).
        if self.rng.gen_range(0..self.p) == 0 {
            return self.head[0];
        }
        let max_jump = self.spray_jump();
        let mut level = self.spray_height() - 1;
        let mut cur = NIL; // head
        loop {
            let jump = self.rng.gen_range(0..=max_jump);
            for _ in 0..jump {
                let nxt = self.succ(cur, level);
                if nxt == NIL {
                    break;
                }
                cur = nxt;
            }
            if level == 0 {
                break;
            }
            level = level.saturating_sub(self.params.descend);
        }
        if cur == NIL {
            self.head[0]
        } else {
            cur
        }
    }

    fn alloc(&mut self, prio: P, item: usize, height: usize) -> usize {
        let node = Node {
            prio,
            item,
            next: vec![NIL; height],
        };
        if let Some(slot) = self.free.pop() {
            self.nodes[slot] = node;
            slot
        } else {
            self.nodes.push(node);
            self.nodes.len() - 1
        }
    }

    /// Debug helper: check level-0 ordering and the slot table.
    #[doc(hidden)]
    pub fn check_invariants(&self) {
        let mut cur = self.head[0];
        let mut count = 0;
        let mut prev: Option<(P, usize)> = None;
        while cur != NIL {
            let k = self.key(cur);
            if let Some(pk) = prev {
                assert!(pk < k, "skiplist order violated");
            }
            assert_eq!(self.slot_of[self.nodes[cur].item], cur);
            prev = Some(k);
            count += 1;
            cur = self.nodes[cur].next[0];
        }
        assert_eq!(count, self.len);
        // Every higher level must be a sub-sequence of level 0.
        for level in 1..MAX_HEIGHT {
            let mut cur = self.head[level];
            let mut prev: Option<(P, usize)> = None;
            while cur != NIL {
                let k = self.key(cur);
                if let Some(pk) = prev {
                    assert!(pk < k, "skiplist order violated at level {level}");
                }
                prev = Some(k);
                assert!(self.nodes[cur].next.len() > level);
                cur = self.nodes[cur].next[level];
            }
        }
    }
}

#[allow(clippy::needless_range_loop)] // preds is a fixed-size array indexed by level
impl<P: Ord + Copy> RelaxedQueue<P> for SprayList<P> {
    fn insert(&mut self, item: usize, prio: P) {
        if item >= self.slot_of.len() {
            self.slot_of.resize(item + 1, NOT_PRESENT);
        }
        assert_eq!(
            self.slot_of[item], NOT_PRESENT,
            "item {item} is already in the SprayList"
        );
        let height = self.random_height();
        let preds = self.predecessors(prio, item);
        let idx = self.alloc(prio, item, height);
        for level in 0..height {
            let after = self.succ(preds[level], level);
            self.nodes[idx].next[level] = after;
            self.set_succ(preds[level], level, idx);
        }
        self.slot_of[item] = idx;
        self.len += 1;
    }

    fn peek_relaxed(&mut self) -> Option<(usize, P)> {
        let idx = self.spray();
        if idx == NIL {
            None
        } else {
            let n = &self.nodes[idx];
            Some((n.item, n.prio))
        }
    }

    fn delete(&mut self, item: usize) -> bool {
        let Some(&idx) = self.slot_of.get(item) else {
            return false;
        };
        if idx == NOT_PRESENT {
            return false;
        }
        let (prio, _) = self.key(idx);
        let preds = self.predecessors(prio, item);
        let height = self.nodes[idx].next.len();
        for level in 0..height {
            debug_assert_eq!(self.succ(preds[level], level), idx);
            let after = self.nodes[idx].next[level];
            self.set_succ(preds[level], level, after);
        }
        self.slot_of[item] = NOT_PRESENT;
        self.free.push(idx);
        self.len -= 1;
        true
    }

    fn decrease_key(&mut self, item: usize, prio: P) -> bool {
        let Some(&idx) = self.slot_of.get(item) else {
            return false;
        };
        if idx == NOT_PRESENT || prio >= self.nodes[idx].prio {
            return false;
        }
        // Skip lists do not support in-place key updates; remove + reinsert
        // (this is also how hash-partitioned schedulers emulate DecreaseKey).
        let deleted = self.delete(item);
        debug_assert!(deleted);
        self.insert(item, prio);
        true
    }

    fn contains(&self, item: usize) -> bool {
        self.slot_of.get(item).is_some_and(|&s| s != NOT_PRESENT)
    }

    fn len(&self) -> usize {
        self.len
    }

    /// The spray covers the first `O(p log³ p)` elements w.h.p.
    fn relaxation_factor(&self) -> usize {
        let lg = (usize::BITS as usize - (self.p + 1).leading_zeros() as usize).max(1);
        (self.p * lg * lg * lg).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn insert_delete_roundtrip() {
        let mut sl = SprayList::new(4, 1);
        for i in 0..100usize {
            sl.insert(i, (i as u64 * 37) % 61);
        }
        sl.check_invariants();
        assert_eq!(sl.len(), 100);
        for i in (0..100).step_by(2) {
            assert!(RelaxedQueue::delete(&mut sl, i));
        }
        sl.check_invariants();
        assert_eq!(sl.len(), 50);
        for i in 0..100usize {
            assert_eq!(sl.contains(i), i % 2 == 1);
        }
    }

    #[test]
    fn pop_all_unique() {
        let mut sl = SprayList::new(8, 2);
        for i in 0..500usize {
            sl.insert(i, i as u64);
        }
        let mut seen = HashSet::new();
        while let Some((item, _)) = sl.pop_relaxed() {
            assert!(seen.insert(item));
        }
        assert_eq!(seen.len(), 500);
    }

    #[test]
    fn spray_lands_near_front() {
        // With p = 8 the spray range is O(p log^3 p); verify empirically that
        // sprays on a 10_000-element list land well within the first ~1500
        // positions (generous slack over p * lg^3 p = 8 * 4^3 = 512).
        let mut sl = SprayList::new(8, 3);
        for i in 0..10_000usize {
            sl.insert(i, i as u64);
        }
        for _ in 0..2000 {
            let (_, prio) = sl.peek_relaxed().unwrap();
            assert!(
                prio < 4096,
                "spray landed at rank {prio}, far beyond the relaxation window"
            );
        }
    }

    #[test]
    fn spray_hits_minimum_regularly() {
        // The 1/p cleaner path guarantees the minimum is returned with
        // frequency ~1/p; check it is seen at all over many sprays.
        let mut sl = SprayList::new(8, 4);
        for i in 0..1000usize {
            sl.insert(i, i as u64);
        }
        let mut min_hits = 0;
        for _ in 0..1000 {
            if let Some((item, _)) = sl.peek_relaxed() {
                if item == 0 {
                    min_hits += 1;
                }
            }
        }
        assert!(
            min_hits > 20,
            "minimum returned only {min_hits}/1000 times; fairness path broken?"
        );
    }

    #[test]
    fn decrease_key_reorders() {
        let mut sl = SprayList::new(2, 5);
        for i in 0..50usize {
            sl.insert(i, 100 + i as u64);
        }
        assert!(sl.decrease_key(49, 1));
        sl.check_invariants();
        // 49 is now the global minimum: a level-0 head walk must find it first.
        let first = sl.head[0];
        assert_eq!(sl.nodes[first].item, 49);
        assert!(!sl.decrease_key(49, 1000), "increase rejected");
    }

    #[test]
    fn singleton_behaviour() {
        let mut sl = SprayList::new(16, 6);
        assert_eq!(sl.peek_relaxed(), None);
        sl.insert(3, 33u64);
        for _ in 0..10 {
            assert_eq!(sl.peek_relaxed(), Some((3, 33)));
        }
        assert_eq!(sl.pop_relaxed(), Some((3, 33)));
        assert_eq!(sl.pop_relaxed(), None);
    }

    #[test]
    fn arena_slots_are_reused() {
        let mut sl = SprayList::new(2, 7);
        for round in 0..5 {
            for i in 0..100usize {
                sl.insert(i, (i + round) as u64);
            }
            while sl.pop_relaxed().is_some() {}
        }
        // Free-list reuse keeps the arena bounded by the peak size.
        assert!(sl.nodes.len() <= 100);
    }
}
