//! An open-ended engine driver for live serving.
//!
//! [`LiveEngine`] drives the same deterministic [`Engine`] event loop as
//! `Engine::run_observed`, but lets a caller *inject arrivals while the
//! run is in flight* instead of pre-seeding the whole workload. The
//! gateway's shard threads use it to turn a paced, wall-clock request
//! stream into simulated load — and, because injection follows one
//! mechanical rule, to re-execute any recorded stream bit for bit.
//!
//! # The injection rule
//!
//! A live run and its replay are byte-identical iff every arrival `i`
//! enters the queue at the same point of the event sequence in both
//! runs. [`LiveEngine`] enforces the canonical point: arrival `i` is
//! appended after all events with firing time `< stamp(i)` have fired
//! ([`LiveEngine::advance_before`]) and before any event with time
//! `>= stamp(i)` fires. Within one instant, injected arrivals sort
//! after already-queued events (insertion order), deterministically in
//! both live and replay because both go through this same path.
//!
//! Chaining mirrors the offline engine: when `Arrival(i)` fires while
//! `workload[i + 1]` already exists, its dispatch schedules
//! `Arrival(i + 1)` itself (the unchanged engine code path). The driver
//! therefore schedules a pushed arrival directly only when the chain is
//! dead — every previously pushed arrival has already fired — which is
//! exactly the `fired == i` test in [`LiveEngine::push_arrival`].

use flexpipe_sim::{EventQueue, RunOutcome, SimTime, World};
use flexpipe_workload::Request;

use std::sync::Arc;

use super::{Engine, Event, ObservedRun, ReqRuntime};

/// Drives an [`Engine`] with arrivals injected while the run is live.
///
/// Construct it over an engine whose scenario has an *empty* workload
/// (arrivals come exclusively through [`LiveEngine::push_arrival`]);
/// attach tracing to the engine *before* wrapping, since
/// construction primes the queue (policy init fires observable events).
pub struct LiveEngine {
    engine: Engine,
    queue: EventQueue<Event>,
    steps: u64,
    /// Count of `Arrival` events fired so far: the chain-alive test.
    fired: u64,
    outcome: Option<RunOutcome>,
}

impl LiveEngine {
    /// Primes `engine` (policy init + seed events) without firing
    /// anything, exactly like the offline run loop's preamble.
    pub fn new(mut engine: Engine) -> LiveEngine {
        let mut queue: EventQueue<Event> = EventQueue::new();
        engine.prime(&mut queue);
        LiveEngine {
            engine,
            queue,
            steps: 0,
            fired: 0,
            outcome: None,
        }
    }

    /// Current virtual time (the clock of the underlying event queue).
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// Firing time of the next pending event, if any.
    pub fn next_time(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Events fired so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Arrivals accepted so far (fired or still pending).
    pub fn arrivals(&self) -> usize {
        self.engine.state.workload.len()
    }

    /// The run outcome, once the loop has ended (budget exhaustion is
    /// the only way a live run ends before [`LiveEngine::finish`]).
    pub fn outcome(&self) -> Option<RunOutcome> {
        self.outcome
    }

    /// Injects the next arrival, stamped `req.arrival`.
    ///
    /// The caller must first advance the run past everything earlier
    /// ([`LiveEngine::advance_before`]`(req.arrival)`) — that ordering
    /// *is* the determinism contract. Requests must carry dense ids in
    /// push order and monotone non-decreasing stamps.
    ///
    /// # Panics
    ///
    /// Panics when `req.id` is not the next dense index or the stamp
    /// regresses below an already-pushed arrival's.
    pub fn push_arrival(&mut self, req: Request) {
        let i = self.engine.state.workload.len();
        assert_eq!(
            req.id.0, i as u64,
            "live arrivals must carry dense ids in push order"
        );
        if let Some(last) = self.engine.state.workload.last() {
            assert!(
                req.arrival >= last.arrival,
                "live arrival stamps must be monotone non-decreasing"
            );
        }
        let stamp = req.arrival;
        Arc::make_mut(&mut self.engine.state.workload).push(req);
        self.engine.state.reqs.push(ReqRuntime {
            req,
            admitted: None,
            prefill_done: None,
            generated: 0,
            exec_secs: 0.0,
            comm_secs: 0.0,
            done: false,
        });
        // Chain-dead (every earlier arrival already fired): schedule this
        // one directly. Chain-alive: `Arrival(i - 1)`'s own dispatch will
        // schedule it when it fires — scheduling here too would duplicate
        // the event. Never schedule into a finished run.
        if self.fired == i as u64 && self.outcome.is_none() {
            self.queue
                .schedule(stamp.max(self.queue.now()), Event::Arrival(i as u32))
                .expect("stamp clamped to now");
        }
    }

    /// Fires every pending event with time strictly before `t` (capped
    /// at the scenario horizon and the step budget), in canonical
    /// order. Returns `false` once the run has ended.
    ///
    /// Strictly-before matters twice: an arrival stamped exactly at a
    /// queued event's time must sort *after* it (insertion order), and
    /// an equal-stamp arrival chain must stay alive so the engine's own
    /// dispatch does the scheduling.
    pub fn advance_before(&mut self, t: SimTime) -> bool {
        while self.outcome.is_none() {
            match self.queue.peek_time() {
                Some(at) if at < t && at <= self.engine.state.horizon => self.fire_next(),
                _ => break,
            }
        }
        self.outcome.is_none()
    }

    fn fire_next(&mut self) {
        if self.steps >= self.engine.state.config.max_events {
            self.outcome = Some(RunOutcome::StepBudgetExhausted);
            return;
        }
        let (now, event) = self.queue.pop().expect("caller peeked a pending event");
        if matches!(event, Event::Arrival(_)) {
            self.fired += 1;
        }
        self.engine.handle(now, event, &mut self.queue);
        self.steps += 1;
    }

    /// Ends the stream: fires everything left up to and including the
    /// horizon, then folds the run into the same artifacts
    /// `Engine::run_observed` returns (the terminal clock advance and
    /// outcome classification mirror `flexpipe_sim::run` exactly).
    pub fn finish(mut self) -> ObservedRun {
        let horizon = self.engine.state.horizon;
        while self.outcome.is_none() {
            match self.queue.peek_time() {
                Some(at) if at <= horizon => self.fire_next(),
                _ => {
                    let drained = self.queue.pop_until(horizon);
                    debug_assert!(drained.is_none(), "peeked later than the horizon");
                    self.outcome = Some(if self.queue.is_empty() {
                        RunOutcome::Drained {
                            at: self.queue.now(),
                        }
                    } else {
                        RunOutcome::DeadlineReached
                    });
                }
            }
        }
        let outcome = self.outcome.expect("loop above sets the outcome");
        self.engine.finish_observed(outcome, self.steps)
    }
}
