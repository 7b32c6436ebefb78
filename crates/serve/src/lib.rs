//! rsched-serve — the open-system serving front-end over the relaxed
//! schedulers.
//!
//! Everything else in this repository measures the schedulers
//! *closed-loop*: seed a queue, drain it to quiescence, divide work by
//! wall-clock. A serving system is the opposite, *open* shape — tasks
//! arrive from outside at their own rate, the pool outlives any one of
//! them, and the quantity that matters is not throughput at saturation
//! but the **sojourn time** each request experiences at a given offered
//! load (the "Practically Wait-Free?" methodology: tails, not means).
//! This crate is that front-end, made of three layers:
//!
//! * [`codec`] — the wire protocol: length-prefixed binary frames
//!   (`u32` LE length, opcode byte, fixed-width LE fields), total
//!   decoding (truncated/oversized/unknown frames are errors, never
//!   panics), `MAX_FRAME`-bounded before any allocation.
//! * [`server`] — the connection machinery: a TCP or Unix-socket
//!   acceptor, a reader+writer thread pair per connection (the reader
//!   decodes from a buffered socket, one `recv` per burst of requests;
//!   the writer coalesces queued responses and flushes when its channel
//!   runs empty, one `send` per burst), bounded
//!   admission (`queue_cap` in-flight tasks, beyond which Submits get
//!   an explicit [`RejectCode::QueueFull`] instead of queueing), and
//!   per-request stamping at *submit*, *inject* and *complete* into
//!   lock-free `PowHistogram`s. Accepted tasks flow into the runtime
//!   through [`rsched_runtime::service()`] — the long-lived worker pool whose
//!   [`Injector`](rsched_runtime::Injector) handles let connection
//!   threads push into a running pool without being workers.
//! * [`client`] — a small synchronous client whose split halves
//!   ([`ClientSender`] / [`ClientReceiver`]) let an open-loop load
//!   generator submit and drain on separate threads.
//!
//! # The handshake
//!
//! A client opens with [`Request::Hello`]`{version, features}`; the
//! server answers [`Response::HelloAck`] with version [`PROTO_V2`], the
//! granted feature bits (the intersection with its own; [`FEAT_EDF`] is
//! the only bit today, and only the key-ordered backend `mq` has it —
//! a `dcbo` server is a FIFO and grants nothing)
//! and its current monotonic clock reading `server_now_ns`, the
//! timebase absolute deadlines are expressed in. A `Hello` below
//! version 2, or a submission before any `Hello`, is refused with
//! [`RejectCode::BadVersion`] and the connection closed. Each
//! [`Request::SubmitV2`] carries a client-set **deadline**, either
//! absolute server-clock nanoseconds or a relative budget (flag bit 0
//! selects). On an EDF-granted connection the deadline *is* the
//! scheduling key — earliest-deadline-first through the relaxed
//! priority queue backing the pool — and every completion comes back
//! as [`Response::CompletedV2`] with the met/missed verdict and the
//! tardiness.
//!
//! The request lifecycle is conservation-checked end to end: every
//! Submit is answered Accepted or Rejected, every Accepted eventually
//! produces exactly one CompletedV2, and a Drain closes the connection
//! only after the two balance. [`Server::shutdown`] extends the same
//! guarantee server-wide by joining connections and gracefully
//! draining the pool before reporting final counters.
//!
//! Beyond per-request stamping, the wire carries **live exposition**:
//! a [`Request::Metrics`] frame is answered with the server's full
//! telemetry snapshot (every per-op histogram with its 64 log₂ buckets,
//! the event counters and GC deltas), its request ledger, its sojourn,
//! inject and tardiness histograms and deadline verdicts, plus gauges
//! sampled at the poll — in-flight tasks and per-worker busy permille
//! since the previous poll — so an operator or a bench harness can
//! watch a running server without touching its filesystem or
//! perturbing its counters (the capture is non-resetting). When `RSCHED_TRACE=1` the server's
//! workers also feed the flight recorder in `rsched_queues::trace`,
//! and a graceful shutdown exports the Chrome-trace JSON.
//!
//! The `rsched-serve` binary wraps [`Server`] with env-knob
//! configuration (`RSCHED_SERVE_ADDR`, `RSCHED_SERVE_BACKEND`,
//! `RSCHED_SERVE_THREADS`, `RSCHED_SERVE_CAP`); the `serve-open` and
//! `serve-closed` workloads of `benchmark/` drive an in-process server
//! through this crate's client.

pub mod client;
pub mod codec;
pub mod server;

pub use client::{ClientReceiver, ClientSender, ServeClient};
pub use codec::{
    CodecError, CompletedV2, Hello, HelloAck, MetricsReply, RejectCode, Request, Response,
    SubmitV2, FEAT_EDF, MAX_FRAME, METRICS_MAX_WORKERS, PROTO_V2,
};
pub use server::{spin_work, Backend, Endpoint, ServeConfig, Server, ServerReport};
