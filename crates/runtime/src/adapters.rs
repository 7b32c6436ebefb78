//! [`Scheduler`] implementations for the workspace's concurrent queues.
//!
//! One runtime, many orders: the relaxed *priority* schedulers drive
//! label- and distance-ordered work (iterative algorithms, SSSP), the
//! relaxed *FIFOs* drive frontier-ordered work (BFS, label propagation,
//! k-core peeling). Every adapter maps the queue's native session onto
//! the runtime's [`Scheduler::Session`] and routes the conservation
//! signals ([`PushOutcome`], [`FlushReport`]) through unchanged so the
//! termination counter stays exact.
//!
//! The sharded queues are **backend-generic**: the MultiQueue adapter
//! accepts any [`SubPriority`] priority shard (lock-free skiplist by
//! default, mutex-heap baseline), the FIFO adapters any [`SubFifo`]
//! sub-queue. Their sessions carry the amortized epoch pin, so the
//! worker loop performs zero per-operation epoch entries; the simple
//! schedulers (`DuplicateMultiQueue`, `ConcurrentSprayList`) use a bare
//! `SmallRng` as their session.

use crate::pool::Scheduler;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use rsched_queues::{
    ConcurrentMultiQueue, ConcurrentSprayList, DCboQueue, DRaQueue, DuplicateMultiQueue,
    FifoSession, FlushReport, MqSession, PopSource, PushOutcome, SessionConfig, SessionPush,
    SubFifo, SubPriority,
};

/// Keyed MultiQueue over any priority-shard backend: pushes merge via
/// `push_or_decrease` (locally in the session buffer when batching),
/// pops are the choice-of-two relaxed delete-min with the session's
/// sticky peek cache — mutex-free on the default skiplist backend —
/// and, when batching, its deletion buffer.
impl<P: Ord + Copy + Send, S: SubPriority<P>> Scheduler<P> for ConcurrentMultiQueue<P, S> {
    type Session = MqSession<P>;

    fn open_session(&self, cfg: &SessionConfig) -> MqSession<P> {
        self.session(cfg)
    }

    fn push(&self, session: &mut MqSession<P>, item: usize, prio: P) -> PushOutcome {
        self.push_session(item, prio, session)
    }

    fn pop(&self, session: &mut MqSession<P>) -> Option<((usize, P), PopSource)> {
        self.pop_session(session)
    }

    fn flush(&self, session: &mut MqSession<P>) -> FlushReport {
        self.flush_session(session)
    }
}

/// Duplicate-insertion MultiQueue (the DecreaseKey ablation): every push
/// inserts a fresh copy, so pushes never merge or buffer and the session
/// is just the worker's RNG stream.
impl<P: Ord + Copy + Send> Scheduler<P> for DuplicateMultiQueue<P> {
    type Session = SmallRng;

    fn open_session(&self, cfg: &SessionConfig) -> SmallRng {
        SmallRng::seed_from_u64(cfg.seed)
    }

    fn push(&self, session: &mut SmallRng, item: usize, prio: P) -> PushOutcome {
        DuplicateMultiQueue::push(self, item, prio, session);
        PushOutcome {
            push: SessionPush::Inserted,
            flushed: FlushReport::default(),
        }
    }

    fn pop(&self, session: &mut SmallRng) -> Option<((usize, P), PopSource)> {
        DuplicateMultiQueue::pop(self, session).map(|t| (t, PopSource::Shared))
    }
}

/// Sharded SprayList: merge-on-push, spray-walk pops, RNG-only session.
impl<P: Ord + Copy + Send> Scheduler<P> for ConcurrentSprayList<P> {
    type Session = SmallRng;

    fn open_session(&self, cfg: &SessionConfig) -> SmallRng {
        SmallRng::seed_from_u64(cfg.seed)
    }

    fn push(&self, _session: &mut SmallRng, item: usize, prio: P) -> PushOutcome {
        let push = if self.push_or_decrease(item, prio) {
            SessionPush::Inserted
        } else {
            SessionPush::Merged
        };
        PushOutcome {
            push,
            flushed: FlushReport::default(),
        }
    }

    fn pop(&self, session: &mut SmallRng) -> Option<((usize, P), PopSource)> {
        ConcurrentSprayList::pop(self, session).map(|t| (t, PopSource::Shared))
    }
}

/// Relaxed FIFO (d-CBO, any shard backend): the payload rides along as a
/// carried value (e.g. a BFS depth) rather than an ordering key; the
/// session owns home shards, drains them first and batches spawns.
impl<P: Copy + Send, S: SubFifo<(usize, P)>> Scheduler<P> for DCboQueue<(usize, P), S> {
    type Session = FifoSession<(usize, P)>;

    fn open_session(&self, cfg: &SessionConfig) -> Self::Session {
        self.session(cfg)
    }

    fn push(&self, session: &mut Self::Session, item: usize, prio: P) -> PushOutcome {
        self.push_session((item, prio), session)
    }

    fn pop(&self, session: &mut Self::Session) -> Option<((usize, P), PopSource)> {
        self.pop_session(session)
    }

    fn flush(&self, session: &mut Self::Session) -> FlushReport {
        self.flush_session(session)
    }
}

/// Relaxed FIFO (d-RA, any shard backend): same contract as the d-CBO
/// adapter, with oldest-visible-head dequeues instead of balanced
/// operation counts.
impl<P: Copy + Send, S: SubFifo<(usize, P)>> Scheduler<P> for DRaQueue<(usize, P), S> {
    type Session = FifoSession<(usize, P)>;

    fn open_session(&self, cfg: &SessionConfig) -> Self::Session {
        self.session(cfg)
    }

    fn push(&self, session: &mut Self::Session, item: usize, prio: P) -> PushOutcome {
        self.push_session((item, prio), session)
    }

    fn pop(&self, session: &mut Self::Session) -> Option<((usize, P), PopSource)> {
        self.pop_session(session)
    }

    fn flush(&self, session: &mut Self::Session) -> FlushReport {
        self.flush_session(session)
    }
}
