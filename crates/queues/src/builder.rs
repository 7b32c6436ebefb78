//! One construction path for every relaxed queue in the crate.
//!
//! [`QueueBuilder`] is the only way to build [`ConcurrentMultiQueue`]
//! and [`DCboQueue`]: one fluent spelling in which the terminal method
//! names the structure, the MultiQueue's `_on::<S>()` twin names its
//! priority-shard backend, and every knob has exactly one place to
//! live.
//!
//! ```
//! use rsched_queues::{QueueBuilder, MutexHeapSub};
//!
//! // The default-backend spellings:
//! let mq = QueueBuilder::new(8).universe(1024).multiqueue::<u64>();
//! let dcbo = QueueBuilder::new(4).seed(7).d_cbo::<usize>();
//! assert_eq!(mq.nqueues(), 8);
//! assert_eq!(dcbo.num_shards(), 4);
//!
//! // Typed backend selection — the turbofish picks the priority shard:
//! let mutex_mq = QueueBuilder::new(8).multiqueue_on::<u64, MutexHeapSub<u64>>();
//! assert_eq!(mutex_mq.nqueues(), 8);
//! ```

use crate::fifo::DCboQueue;
use crate::multiqueue::ConcurrentMultiQueue;
use crate::skipshard::{SkipShard, SubPriority};

/// Fluent builder for the relaxed queue family. Construct with
/// [`QueueBuilder::new`] (the shard count — every structure has one),
/// chain knobs, finish with a typed terminal method.
///
/// Knob defaults: `seed = 0x5EED`, no universe pre-allocation. Knobs a
/// structure does not use are ignored by its terminal (a `seed` on a
/// `multiqueue()` changes nothing — the MultiQueue's RNG is
/// per-caller).
#[derive(Clone, Copy, Debug)]
#[must_use = "a QueueBuilder does nothing until a terminal method builds a queue"]
pub struct QueueBuilder {
    shards: usize,
    seed: u64,
    universe: Option<usize>,
}

impl QueueBuilder {
    /// Start a builder for a structure with `shards` internal shards
    /// (sub-queues for the FIFOs, priority shards for the MultiQueue).
    pub fn new(shards: usize) -> Self {
        Self {
            shards,
            seed: 0x5EED,
            universe: None,
        }
    }

    /// RNG seed for structures that keep a sequential-interface RNG.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Pre-allocate item tables for items `0..universe`
    /// (keyed structures only: the MultiQueue's shard registries).
    pub fn universe(mut self, universe: usize) -> Self {
        self.universe = Some(universe);
        self
    }

    /// Build a [`ConcurrentMultiQueue`] on the default lock-free
    /// skiplist backend.
    pub fn multiqueue<P: Ord + Copy + Send + Sync>(self) -> ConcurrentMultiQueue<P, SkipShard<P>> {
        self.multiqueue_on::<P, SkipShard<P>>()
    }

    /// Build a [`ConcurrentMultiQueue`] on shard backend `S`.
    pub fn multiqueue_on<P, S>(self) -> ConcurrentMultiQueue<P, S>
    where
        P: Ord + Copy + Send,
        S: SubPriority<P>,
    {
        ConcurrentMultiQueue::construct(self.shards, self.universe)
    }

    /// Build a [`DCboQueue`] (d-choice-of-best relaxed FIFO).
    pub fn d_cbo<T>(self) -> DCboQueue<T> {
        DCboQueue::construct(self.shards, self.seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::skipshard::{MutexHeapSub, PinSession, TokRef, TryPopMin};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use std::cell::RefCell;

    thread_local! {
        /// The universe each [`UniverseProbe`] shard was built with.
        static BUILT_WITH: RefCell<Vec<Option<usize>>> = const { RefCell::new(Vec::new()) };
    }

    /// A shard that only records how it was constructed: the queues
    /// expose no accessor for the universe, so the test substitutes the
    /// backend to see what the terminal passed down.
    struct UniverseProbe;

    impl SubPriority<u64> for UniverseProbe {
        type Token = ();

        fn token() {}

        fn borrow_token(_session: &PinSession) -> TokRef<'_, ()> {
            TokRef::Owned(())
        }

        fn new() -> Self {
            BUILT_WITH.with(|b| b.borrow_mut().push(None));
            UniverseProbe
        }

        fn with_universe(universe: usize) -> Self {
            BUILT_WITH.with(|b| b.borrow_mut().push(Some(universe)));
            UniverseProbe
        }

        fn min_key(&self, _tok: &()) -> Option<(u64, usize)> {
            unreachable!("probe shards are never operated on")
        }

        fn try_pop_min(&self, _tok: &()) -> TryPopMin<u64> {
            unreachable!("probe shards are never operated on")
        }

        fn pop_min_wait(&self, _tok: &()) -> Option<(usize, u64)> {
            unreachable!("probe shards are never operated on")
        }

        fn push_or_decrease(&self, _item: usize, _prio: u64, _tok: &()) -> bool {
            unreachable!("probe shards are never operated on")
        }

        fn remove(&self, _item: usize, _tok: &()) -> Option<u64> {
            unreachable!("probe shards are never operated on")
        }

        fn contains(&self, _item: usize, _tok: &()) -> bool {
            unreachable!("probe shards are never operated on")
        }

        fn priority_of(&self, _item: usize, _tok: &()) -> Option<u64> {
            unreachable!("probe shards are never operated on")
        }
    }

    #[test]
    fn every_knob_reaches_its_terminal() {
        let mq = QueueBuilder::new(6).universe(100).multiqueue::<u64>();
        assert_eq!(mq.nqueues(), 6);

        let dcbo = QueueBuilder::new(5).d_cbo::<usize>();
        assert_eq!(dcbo.num_shards(), 5);

        let built = || BUILT_WITH.with(|b| std::mem::take(&mut *b.borrow_mut()));
        let _ = QueueBuilder::new(3)
            .universe(100)
            .multiqueue_on::<u64, UniverseProbe>();
        assert_eq!(built(), vec![Some(100); 3]);
        let _ = QueueBuilder::new(2).multiqueue_on::<u64, UniverseProbe>();
        assert_eq!(built(), vec![None; 2]);
    }

    #[test]
    #[should_panic(expected = "a MultiQueue needs at least one queue")]
    fn zero_shards_panic_at_the_terminal() {
        let _ = QueueBuilder::new(0).multiqueue::<u64>();
    }

    #[test]
    fn typed_backend_selection_builds_every_backend() {
        let mq = QueueBuilder::new(2).multiqueue_on::<u64, MutexHeapSub<u64>>();
        mq.push_or_decrease(0, 10);
        assert_eq!(mq.len(), 1);

        let dcbo = QueueBuilder::new(2).d_cbo::<usize>();
        let mut rng = SmallRng::seed_from_u64(1);
        dcbo.enqueue(7, &mut rng);
        assert_eq!(dcbo.dequeue(&mut rng), Some(7));
    }
}
