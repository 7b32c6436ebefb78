//! [`Scheduler`] implementations for the workspace's concurrent queues.
//!
//! One runtime, many orders: the relaxed *priority* schedulers drive
//! label- and distance-ordered work (iterative algorithms, SSSP, label
//! propagation), the relaxed *FIFO* drives frontier-ordered work (BFS,
//! k-core peeling). Every adapter maps the queue's native session onto
//! the runtime's [`Scheduler::Session`] and routes the conservation
//! signals ([`PushOutcome`], [`FlushReport`]) through unchanged so the
//! termination counter stays exact.
//!
//! Both concurrent queues have one shard type each — a locked indexed
//! heap for the MultiQueue, a locked `VecDeque` for the FIFO — so each
//! gets one adapter. The duplicate-insertion `DuplicateMultiQueue` uses
//! a bare `SmallRng` as its session.

use crate::pool::Scheduler;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use rsched_queues::{
    ConcurrentMultiQueue, DCboQueue, DuplicateMultiQueue, FifoSession, FlushReport, MqSession,
    PopSource, PushOutcome, SessionConfig, SessionPush,
};

/// Keyed MultiQueue: pushes merge via `push_or_decrease` (locally in
/// the session buffer when batching), pops are the choice-of-two relaxed
/// delete-min and, when batching, served from the session's deletion
/// buffer.
impl<P: Ord + Copy + Send> Scheduler<P> for ConcurrentMultiQueue<P> {
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

/// Relaxed FIFO (d-CBO): the payload rides along as a carried value
/// (e.g. a BFS depth) rather than an ordering key; the session owns home
/// shards, offers one as each pop's first candidate, and batches spawns
/// and pops.
impl<P: Copy + Send> Scheduler<P> for DCboQueue<(usize, P)> {
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
