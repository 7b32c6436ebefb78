//! One construction path for every relaxed queue in the crate.
//!
//! [`QueueBuilder`] is the only way to build [`ConcurrentMultiQueue`]
//! and [`DCboQueue`]: one fluent spelling in which the terminal method
//! names the structure and every knob has exactly one place to live.
//!
//! ```
//! use rsched_queues::QueueBuilder;
//!
//! let mq = QueueBuilder::new(8).universe(1024).multiqueue::<u64>();
//! let dcbo = QueueBuilder::new(4).seed(7).d_cbo::<usize>();
//! assert_eq!(mq.nqueues(), 8);
//! assert_eq!(dcbo.num_shards(), 4);
//! ```

use crate::fifo::DCboQueue;
use crate::multiqueue::ConcurrentMultiQueue;

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
    /// (keyed structures only: the MultiQueue's per-shard heap position
    /// tables).
    pub fn universe(mut self, universe: usize) -> Self {
        self.universe = Some(universe);
        self
    }

    /// Build a [`ConcurrentMultiQueue`] (try-locked heap shards).
    pub fn multiqueue<P: Ord + Copy + Send>(self) -> ConcurrentMultiQueue<P> {
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
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn every_knob_reaches_its_terminal() {
        // `universe` pre-sizes the position table of every shard's heap.
        let mq = QueueBuilder::new(6).universe(100).multiqueue::<u64>();
        assert_eq!(mq.nqueues(), 6);
        assert_eq!(mq.position_table_lens(), vec![100; 6]);
        let mq = QueueBuilder::new(2).multiqueue::<u64>();
        assert_eq!(mq.position_table_lens(), vec![0; 2]);

        let dcbo = QueueBuilder::new(5).d_cbo::<usize>();
        assert_eq!(dcbo.num_shards(), 5);
    }

    #[test]
    #[should_panic(expected = "a MultiQueue needs at least one queue")]
    fn zero_shards_panic_at_the_terminal() {
        let _ = QueueBuilder::new(0).multiqueue::<u64>();
    }

    #[test]
    fn every_terminal_builds_a_working_queue() {
        let mq = QueueBuilder::new(2).multiqueue::<u64>();
        mq.push_or_decrease(0, 10);
        assert_eq!(mq.len(), 1);

        let dcbo = QueueBuilder::new(2).d_cbo::<usize>();
        let mut rng = SmallRng::seed_from_u64(1);
        dcbo.enqueue(7, &mut rng);
        assert_eq!(dcbo.dequeue(&mut rng), Some(7));
    }
}
