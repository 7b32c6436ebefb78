//! Indexed (addressable) 4-ary min-heap with `decrease_key` and
//! remove-by-id, the exact priority queue used throughout this workspace.
//!
//! Items are dense `usize` ids; the heap keeps a position table so that
//! `decrease_key`, `remove` and `contains` run in `O(log n)` / `O(1)`.
//! Priority ties are broken by item id, giving a deterministic total order
//! that the instrumentation layer (and the adversarial scheduler in
//! `rsched-core`) relies on.
//!
//! Four children per node halve the depth of a binary heap. Sifts move a
//! *hole*: each entry on the path moves, and has its position written,
//! once. Positions are `u32`, which halves the position table and bounds
//! a heap to `u32::MAX` entries.

use crate::{DecreaseKey, PriorityQueue};

/// Children per node.
const ARITY: usize = 4;

/// Position-table sentinel for an item not in the heap.
const ABSENT: u32 = u32::MAX;

/// A 4-ary min-heap over `(priority, item)` pairs with an id → slot
/// index, supporting `decrease_key` and arbitrary `remove` in `O(log n)`.
///
/// The name predates the arity: every pop sequence is fixed by the
/// `(priority, item)` order alone. `push` panics past `u32::MAX` entries.
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
    /// `pos[item]` = index into `slots`, or `ABSENT`.
    pos: Vec<u32>,
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
            pos: vec![ABSENT; universe],
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
        let slot = self.slot_of(item)?;
        let old = self.slots[slot].0;
        self.slots[slot].0 = prio;
        if prio < old {
            self.sift_up(slot);
        } else {
            self.sift_down(slot);
        }
        Some(old)
    }

    /// Heap slot of `item`, if present.
    #[inline]
    fn slot_of(&self, item: usize) -> Option<usize> {
        match self.pos.get(item) {
            Some(&s) if s != ABSENT => Some(s as usize),
            _ => None,
        }
    }

    /// Store `entry` at slot `i` and record its position.
    #[inline]
    fn place(&mut self, i: usize, entry: (P, usize)) {
        self.slots[i] = entry;
        // `push` keeps every slot index below `ABSENT`.
        self.pos[entry.1] = i as u32;
    }

    /// Move the entry at slot `i` up: shift each larger ancestor down one
    /// level into the hole, then fill the hole once.
    fn sift_up(&mut self, mut i: usize) {
        let entry = self.slots[i];
        while i > 0 {
            let parent = (i - 1) / ARITY;
            let above = self.slots[parent];
            if entry >= above {
                break;
            }
            self.place(i, above);
            i = parent;
        }
        self.place(i, entry);
    }

    /// Move the entry at slot `i` down: shift the smallest child up into
    /// the hole while it is smaller than the entry, then fill the hole.
    fn sift_down(&mut self, mut i: usize) {
        let entry = self.slots[i];
        let n = self.slots.len();
        loop {
            let first = ARITY * i + 1;
            if first >= n {
                break;
            }
            let kids = &self.slots[first..n.min(first + ARITY)];
            let mut best = 0;
            for (k, kid) in kids.iter().enumerate().skip(1) {
                if *kid < kids[best] {
                    best = k;
                }
            }
            let below = kids[best];
            if below >= entry {
                break;
            }
            self.place(i, below);
            i = first + best;
        }
        self.place(i, entry);
    }

    /// Remove the entry at heap slot `slot`, restoring the heap property.
    fn remove_slot(&mut self, slot: usize) -> (P, usize) {
        let removed = self.slots.swap_remove(slot);
        self.pos[removed.1] = ABSENT;
        if slot < self.slots.len() {
            // The former last entry may need to travel either way.
            if slot > 0 && self.slots[slot] < self.slots[(slot - 1) / ARITY] {
                self.sift_up(slot);
            } else {
                self.sift_down(slot);
            }
        }
        removed
    }

    /// Debug helper: verify the heap invariant and position table.
    #[doc(hidden)]
    pub fn check_invariants(&self) {
        for i in 1..self.slots.len() {
            let parent = (i - 1) / ARITY;
            assert!(
                self.slots[i] >= self.slots[parent],
                "heap property violated at slot {i}"
            );
        }
        for (slot, &(_, item)) in self.slots.iter().enumerate() {
            assert_eq!(
                self.slot_of(item),
                Some(slot),
                "position table stale for {item}"
            );
        }
        let present = self.pos.iter().filter(|&&s| s != ABSENT).count();
        assert_eq!(
            present,
            self.slots.len(),
            "position table lists absent items"
        );
    }
}

impl<P: Ord + Copy> PriorityQueue<P> for IndexedBinaryHeap<P> {
    fn len(&self) -> usize {
        self.slots.len()
    }

    fn push(&mut self, item: usize, prio: P) {
        if item >= self.pos.len() {
            self.pos.resize(item + 1, ABSENT);
        }
        assert_eq!(self.pos[item], ABSENT, "item {item} is already in the heap");
        let slot = self.slots.len();
        assert!(slot < ABSENT as usize, "heap is full: {slot} entries");
        self.slots.push((prio, item));
        self.sift_up(slot);
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
        self.slot_of(item).is_some()
    }

    fn priority_of(&self, item: usize) -> Option<P> {
        self.slot_of(item).map(|slot| self.slots[slot].0)
    }

    fn decrease_key(&mut self, item: usize, prio: P) -> bool {
        let Some(slot) = self.slot_of(item) else {
            return false;
        };
        if prio >= self.slots[slot].0 {
            return false;
        }
        self.slots[slot].0 = prio;
        self.sift_up(slot);
        true
    }

    fn remove(&mut self, item: usize) -> Option<P> {
        let slot = self.slot_of(item)?;
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

    /// Seed-count multiplier: 1 by default, `4 × RSCHED_STRESS`
    /// (clamped to 1..=64) when the stress knob is set.
    fn stress() -> u64 {
        match std::env::var("RSCHED_STRESS").as_deref() {
            Ok("0") | Err(_) => 1,
            Ok(v) => v.parse::<u64>().unwrap_or(1).clamp(1, 64) * 4,
        }
    }

    /// An id in `0..280` that `model` does not hold.
    fn absent_id(rng: &mut SmallRng, model: &[(u64, usize)]) -> usize {
        loop {
            let id = rng.gen_range(0..280);
            if model.iter().all(|&(_, it)| it != id) {
                return id;
            }
        }
    }

    /// Seeded differential test against a sorted `Vec`. It holds the heap
    /// at every size 0..=70 — every fill of the last internal node's child
    /// group, at four depths — and there mixes push, pop, `decrease_key`,
    /// `change_key` both ways and `remove` at the root, the last slot and
    /// inside, refilling after each removal and checking the invariants
    /// after every op. Priorities come from a small range, so ties on the
    /// priority are common and the id tie-break decides.
    #[test]
    fn differential_against_sorted_vec_at_every_size() {
        for seed in 0..8 * stress() {
            let mut rng = SmallRng::seed_from_u64(0x4A2F ^ seed);
            for size in 0..=70usize {
                let mut h = IndexedBinaryHeap::with_universe(rng.gen_range(0..100));
                let mut model: Vec<(u64, usize)> = Vec::new();
                let refill = |h: &mut IndexedBinaryHeap<u64>,
                              model: &mut Vec<(u64, usize)>,
                              rng: &mut SmallRng| {
                    while model.len() < size {
                        let (id, p) = (absent_id(rng, model), rng.gen_range(0..32));
                        h.push(id, p);
                        model.push((p, id));
                        h.check_invariants();
                    }
                };
                refill(&mut h, &mut model, &mut rng);
                for step in 0..24 {
                    let ctx = format!("seed {seed} size {size} step {step}");
                    // A queued item, or (when empty, or one time in
                    // eight) an absent one.
                    let item = if model.is_empty() || rng.gen_range(0..8) == 0 {
                        absent_id(&mut rng, &model)
                    } else {
                        model[rng.gen_range(0..model.len())].1
                    };
                    let at = model.iter().position(|&(_, it)| it == item);
                    let p = rng.gen_range(0..32u64);
                    match rng.gen_range(0..6) {
                        0 => {
                            let min = model.iter().min().copied();
                            assert_eq!(h.pop(), min.map(|(p, it)| (it, p)), "{ctx}");
                            model.retain(|&e| Some(e) != min);
                        }
                        1 => {
                            let lower = at.filter(|&i| p < model[i].0);
                            assert_eq!(h.decrease_key(item, p), lower.is_some(), "{ctx}");
                            if let Some(i) = lower {
                                model[i].0 = p;
                            }
                        }
                        2 => {
                            let old = at.map(|i| std::mem::replace(&mut model[i].0, p));
                            assert_eq!(h.change_key(item, p), old, "{ctx}");
                        }
                        3 => {
                            let want = at.map(|i| model.remove(i).0);
                            assert_eq!(h.remove(item), want, "{ctx}");
                        }
                        4 => {
                            let root = model.iter().min().map(|&(_, it)| it);
                            if let Some(root) = root {
                                let i = model.iter().position(|&(_, it)| it == root);
                                let want = model.remove(i.expect("root is queued")).0;
                                assert_eq!(h.remove(root), Some(want), "{ctx}");
                            }
                        }
                        _ => {
                            if let Some(&(prio, last)) = h.slots.last() {
                                model.retain(|&(_, it)| it != last);
                                assert_eq!(h.remove(last), Some(prio), "{ctx}");
                            }
                        }
                    }
                    h.check_invariants();
                    assert_eq!(h.len(), model.len(), "{ctx}");
                    let min = model.iter().min().map(|&(p, it)| (it, p));
                    assert_eq!(h.peek(), min, "{ctx}");
                    refill(&mut h, &mut model, &mut rng);
                }
                model.sort_unstable();
                let drained: Vec<_> = std::iter::from_fn(|| h.pop()).collect();
                let want: Vec<_> = model.iter().map(|&(p, it)| (it, p)).collect();
                assert_eq!(drained, want, "seed {seed} size {size}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "already in the heap")]
    fn double_push_panics() {
        let mut h = IndexedBinaryHeap::new();
        h.push(0, 1u64);
        h.push(0, 2);
    }
}
