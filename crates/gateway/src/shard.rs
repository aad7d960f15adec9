//! The per-shard driver: one thread, one engine partition, one
//! [`SteppedEngine`] fed from a channel.
//!
//! The driver owns the two decisions that make live runs replayable:
//!
//! - **Shard-local stamping.** A live arrival's virtual stamp is
//!   assigned *here*, at dequeue, from the shard's own pacer read —
//!   never by the router. Clamping monotone against the previous stamp
//!   makes the per-shard stream sorted by construction, eliminating the
//!   race where a router-side stamp is overtaken by channel delivery.
//! - **Advance-then-inject.** Before an arrival enters, the engine is
//!   advanced through every event strictly earlier than its stamp
//!   ([`SteppedEngine::advance_before`]); the pair of those two steps is
//!   the canonical injection rule replay re-executes verbatim.

use flexpipe_serving::{Engine, SteppedEngine};
use flexpipe_sim::{SimDuration, SimTime};
use flexpipe_workload::{Request, RequestId};

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::Receiver;

use crate::pacer::Pacer;

/// A routed request descriptor, as sent to a shard's channel.
pub(crate) struct ShardMsg {
    /// Fleet-global request id.
    pub id: u64,
    /// Pre-assigned virtual stamp (replay and unpaced runs); `None`
    /// means "stamp at dequeue from the pacer" (live runs).
    pub stamp: Option<SimTime>,
    /// Prompt length, tokens.
    pub prompt_tokens: u32,
    /// Generation length, tokens.
    pub output_tokens: u32,
    /// Latency SLO.
    pub slo: SimDuration,
}

/// What one shard thread hands back after its channel closes.
pub(crate) struct ShardRun {
    /// The finished run's artifacts (report + trace).
    pub observed: flexpipe_serving::ObservedRun,
    /// `(global id, assigned stamp)` per arrival, in injection order.
    pub log: Vec<(u64, SimTime)>,
}

/// Drives one shard to completion: drains the channel, stamps and
/// injects every arrival, then finishes the run once all senders hang
/// up. `depth` is the shared outstanding-queue gauge the spillover hook
/// reads; the driver decrements it as arrivals are absorbed.
pub(crate) fn run_shard(
    engine: Engine,
    rx: Receiver<ShardMsg>,
    pacer: Option<&Pacer>,
    depth: &AtomicUsize,
) -> ShardRun {
    let mut live = SteppedEngine::new(engine);
    let mut log = Vec::new();
    let mut last = SimTime::ZERO;
    while let Ok(msg) = rx.recv() {
        let raw = msg
            .stamp
            .or_else(|| pacer.map(Pacer::now))
            .expect("live arrivals need a pacer or a pre-assigned stamp");
        let stamp = raw.max(last);
        last = stamp;
        live.advance_before(stamp);
        let local = live.arrivals() as u64;
        live.push_arrival(Request {
            id: RequestId(local),
            arrival: stamp,
            prompt_tokens: msg.prompt_tokens,
            output_tokens: msg.output_tokens,
            slo: msg.slo,
        });
        log.push((msg.id, stamp));
        depth.fetch_sub(1, Ordering::Relaxed);
    }
    ShardRun {
        observed: live.finish(),
        log,
    }
}
