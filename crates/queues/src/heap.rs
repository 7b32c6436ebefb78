//! Indexed (addressable) binary min-heap with `decrease_key` and
//! remove-by-id, the exact priority queue used throughout this workspace.
//!
//! Items are dense `usize` ids; the heap keeps a position table so that
//! `decrease_key`, `remove` and `contains` run in `O(log n)` / `O(1)`.
//! Priority ties are broken by item id, giving a deterministic total order
//! that the instrumentation layer (and the adversarial scheduler in
//! `rsched-core`) relies on.

use crate::{DecreaseKey, PriorityQueue, NOT_PRESENT};

/// A binary min-heap over `(priority, item)` pairs with an id → slot index,
/// supporting `decrease_key` and arbitrary `remove` in `O(log n)`.
///
/// # Examples
///
/// ```
/// use rsched_queues::{IndexedBinaryHeap, PriorityQueue, DecreaseKey};
///
/// let mut h = IndexedBinaryHeap::new();
/// h.push(7, 70u64);
/// h.push(3, 30);
/// h.push(9, 90);
/// assert_eq!(h.peek(), Some((3, 30)));
/// assert!(h.decrease_key(9, 10));
/// assert_eq!(h.pop(), Some((9, 10)));
/// assert_eq!(h.pop(), Some((3, 30)));
/// assert_eq!(h.pop(), Some((7, 70)));
/// assert_eq!(h.pop(), None);
/// ```
#[derive(Clone, Debug)]
pub struct IndexedBinaryHeap<P> {
    /// Heap-ordered array of `(priority, item)`.
    slots: Vec<(P, usize)>,
    /// `pos[item]` = index into `slots`, or `NOT_PRESENT`.
    pos: Vec<usize>,
}

impl<P: Ord + Copy> Default for IndexedBinaryHeap<P> {
    fn default() -> Self {
        Self::new()
    }
}

impl<P: Ord + Copy> IndexedBinaryHeap<P> {
    /// Create an empty heap.
    pub fn new() -> Self {
        Self {
            slots: Vec::new(),
            pos: Vec::new(),
        }
    }

    /// Create an empty heap with room for items `0..universe` without
    /// reallocating the position table.
    pub fn with_universe(universe: usize) -> Self {
        Self {
            slots: Vec::new(),
            pos: vec![NOT_PRESENT; universe],
        }
    }

    /// Length of the position table (the pre-sized universe, or the
    /// largest item seen plus one).
    #[cfg(test)]
    pub(crate) fn position_table_len(&self) -> usize {
        self.pos.len()
    }

    /// `(priority, item)` of the current minimum without removing it.
    #[inline]
    pub fn min_entry(&self) -> Option<(P, usize)> {
        self.slots.first().copied()
    }

    /// Iterate over all stored `(item, priority)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, P)> + '_ {
        self.slots.iter().map(|&(p, it)| (it, p))
    }

    /// Change the priority of `item` to `prio`, regardless of direction.
    ///
    /// Returns the old priority, or `None` if `item` is absent.
    pub fn change_key(&mut self, item: usize, prio: P) -> Option<P> {
        let slot = *self.pos.get(item)?;
        if slot == NOT_PRESENT {
            return None;
        }
        let old = self.slots[slot].0;
        self.slots[slot].0 = prio;
        if (prio, item) < (old, item) {
            self.sift_up(slot);
        } else {
            self.sift_down(slot);
        }
        Some(old)
    }

    #[inline]
    fn less(&self, a: usize, b: usize) -> bool {
        let (pa, ia) = self.slots[a];
        let (pb, ib) = self.slots[b];
        (pa, ia) < (pb, ib)
    }

    #[inline]
    fn swap_slots(&mut self, a: usize, b: usize) {
        self.slots.swap(a, b);
        self.pos[self.slots[a].1] = a;
        self.pos[self.slots[b].1] = b;
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.less(i, parent) {
                self.swap_slots(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        let n = self.slots.len();
        loop {
            let l = 2 * i + 1;
            let r = 2 * i + 2;
            let mut smallest = i;
            if l < n && self.less(l, smallest) {
                smallest = l;
            }
            if r < n && self.less(r, smallest) {
                smallest = r;
            }
            if smallest == i {
                break;
            }
            self.swap_slots(i, smallest);
            i = smallest;
        }
    }

    fn ensure_pos(&mut self, item: usize) {
        if item >= self.pos.len() {
            self.pos.resize(item + 1, NOT_PRESENT);
        }
    }

    /// Remove the entry at heap slot `slot`, restoring the heap property.
    fn remove_slot(&mut self, slot: usize) -> (P, usize) {
        let last = self.slots.len() - 1;
        if slot != last {
            self.swap_slots(slot, last);
        }
        let (prio, item) = self.slots.pop().expect("slot exists");
        self.pos[item] = NOT_PRESENT;
        if slot < self.slots.len() {
            // The element moved into `slot` may need to travel either way.
            self.sift_down(slot);
            self.sift_up(slot);
        }
        (prio, item)
    }

    /// Debug helper: verify the heap invariant and position table.
    #[doc(hidden)]
    pub fn check_invariants(&self) {
        for i in 1..self.slots.len() {
            let parent = (i - 1) / 2;
            assert!(!self.less(i, parent), "heap property violated at slot {i}");
        }
        for (slot, &(_, item)) in self.slots.iter().enumerate() {
            assert_eq!(self.pos[item], slot, "position table stale for {item}");
        }
    }
}

impl<P: Ord + Copy> PriorityQueue<P> for IndexedBinaryHeap<P> {
    fn len(&self) -> usize {
        self.slots.len()
    }

    fn push(&mut self, item: usize, prio: P) {
        self.ensure_pos(item);
        assert_eq!(
            self.pos[item], NOT_PRESENT,
            "item {item} is already in the heap"
        );
        self.slots.push((prio, item));
        self.pos[item] = self.slots.len() - 1;
        self.sift_up(self.slots.len() - 1);
    }

    fn pop(&mut self) -> Option<(usize, P)> {
        if self.slots.is_empty() {
            return None;
        }
        let (prio, item) = self.remove_slot(0);
        Some((item, prio))
    }

    fn peek(&self) -> Option<(usize, P)> {
        self.slots.first().map(|&(p, it)| (it, p))
    }
}

impl<P: Ord + Copy> DecreaseKey<P> for IndexedBinaryHeap<P> {
    fn contains(&self, item: usize) -> bool {
        self.pos.get(item).is_some_and(|&s| s != NOT_PRESENT)
    }

    fn priority_of(&self, item: usize) -> Option<P> {
        let slot = *self.pos.get(item)?;
        if slot == NOT_PRESENT {
            None
        } else {
            Some(self.slots[slot].0)
        }
    }

    fn decrease_key(&mut self, item: usize, prio: P) -> bool {
        let Some(&slot) = self.pos.get(item) else {
            return false;
        };
        if slot == NOT_PRESENT || prio >= self.slots[slot].0 {
            return false;
        }
        self.slots[slot].0 = prio;
        self.sift_up(slot);
        true
    }

    fn remove(&mut self, item: usize) -> Option<P> {
        let slot = *self.pos.get(item)?;
        if slot == NOT_PRESENT {
            return None;
        }
        let (prio, removed) = self.remove_slot(slot);
        debug_assert_eq!(removed, item);
        Some(prio)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn push_pop_sorted() {
        let mut h = IndexedBinaryHeap::new();
        for (i, p) in [5u64, 1, 4, 2, 3].into_iter().enumerate() {
            h.push(i, p);
        }
        let mut out = Vec::new();
        while let Some((_, p)) = h.pop() {
            out.push(p);
        }
        assert_eq!(out, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn ties_broken_by_item_id() {
        let mut h = IndexedBinaryHeap::new();
        h.push(9, 1u64);
        h.push(2, 1);
        h.push(5, 1);
        assert_eq!(h.pop(), Some((2, 1)));
        assert_eq!(h.pop(), Some((5, 1)));
        assert_eq!(h.pop(), Some((9, 1)));
    }

    #[test]
    fn decrease_key_reorders() {
        let mut h = IndexedBinaryHeap::new();
        h.push(0, 100u64);
        h.push(1, 50);
        h.push(2, 75);
        assert!(h.decrease_key(0, 10));
        assert!(!h.decrease_key(0, 10), "equal key is not a decrease");
        assert!(!h.decrease_key(0, 20), "larger key is not a decrease");
        assert!(!h.decrease_key(42, 1), "absent item");
        assert_eq!(h.pop(), Some((0, 10)));
        assert_eq!(h.priority_of(1), Some(50));
    }

    #[test]
    fn remove_middle_keeps_invariants() {
        let mut h = IndexedBinaryHeap::new();
        for i in 0..64usize {
            h.push(i, (i as u64 * 7919) % 101);
        }
        assert_eq!(h.remove(10), Some((10 * 7919) % 101));
        assert_eq!(h.remove(10), None);
        h.check_invariants();
        assert_eq!(h.len(), 63);
        assert!(!h.contains(10));
        let mut prev = None;
        while let Some((it, p)) = h.pop() {
            if let Some(pp) = prev {
                assert!(pp <= p);
            }
            prev = Some(p);
            assert_ne!(it, 10);
        }
    }

    #[test]
    fn with_universe_preallocates() {
        let mut h = IndexedBinaryHeap::with_universe(100);
        h.push(99, 5u64);
        assert!(h.contains(99));
        assert!(!h.contains(0));
        assert_eq!(h.pop(), Some((99, 5)));
    }

    #[test]
    fn change_key_both_directions() {
        let mut h = IndexedBinaryHeap::new();
        h.push(0, 10u64);
        h.push(1, 20);
        h.push(2, 30);
        assert_eq!(h.change_key(0, 100), Some(10));
        assert_eq!(h.peek(), Some((1, 20)));
        assert_eq!(h.change_key(2, 1), Some(30));
        assert_eq!(h.peek(), Some((2, 1)));
        assert_eq!(h.change_key(42, 1), None);
        h.check_invariants();
    }

    #[test]
    fn randomized_mixed_ops_match_reference() {
        // Reference: a sorted Vec of (prio, item).
        let mut rng = SmallRng::seed_from_u64(0xDECAF);
        let mut h = IndexedBinaryHeap::new();
        let mut reference: Vec<(u64, usize)> = Vec::new();
        let mut next_id = 0usize;
        for _ in 0..5000 {
            match rng.gen_range(0..4) {
                0 => {
                    let p = rng.gen_range(0..1000u64);
                    h.push(next_id, p);
                    reference.push((p, next_id));
                    next_id += 1;
                }
                1 => {
                    reference.sort_unstable();
                    let expect = reference.first().map(|&(p, it)| (it, p));
                    assert_eq!(h.pop(), expect);
                    if !reference.is_empty() {
                        reference.remove(0);
                    }
                }
                2 => {
                    if !reference.is_empty() {
                        let idx = rng.gen_range(0..reference.len());
                        let (old, item) = reference[idx];
                        if old > 0 {
                            let newp = rng.gen_range(0..old);
                            assert!(h.decrease_key(item, newp));
                            reference[idx].0 = newp;
                        }
                    }
                }
                _ => {
                    if !reference.is_empty() {
                        let idx = rng.gen_range(0..reference.len());
                        let (p, item) = reference.remove(idx);
                        assert_eq!(h.remove(item), Some(p));
                    }
                }
            }
        }
        h.check_invariants();
        assert_eq!(h.len(), reference.len());
    }

    #[test]
    #[should_panic(expected = "already in the heap")]
    fn double_push_panics() {
        let mut h = IndexedBinaryHeap::new();
        h.push(0, 1u64);
        h.push(0, 2);
    }
}
