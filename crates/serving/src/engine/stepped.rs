//! The engine driver: the one loop that fires [`Engine`] events.
//!
//! [`SteppedEngine`] runs a primed engine to its horizon under the step
//! budget. Every way of running the engine goes through it:
//! `Engine::run_observed` is `SteppedEngine::new(engine).finish()`, the
//! gateway's shard threads inject arrivals with
//! [`SteppedEngine::push_arrival`], and `flexpipe-check` and the
//! profilers fire one event at a time with [`SteppedEngine::step`]. The
//! budget, the horizon and the end of the run are therefore decided in
//! one place, however the run is driven.
//!
//! # Schedule choice
//!
//! At every [`SteppedEngine::step`] the caller reads the front batch of
//! events tied at the earliest firing time and picks which one fires
//! next. Choosing index 0 at every step reproduces `Engine::run_observed`
//! bit for bit (canonical insertion order); any other choice explores an
//! alternative schedule of the same virtual instant. `flexpipe-check`
//! builds its bounded interleaving exploration on this seam.
//!
//! # The injection rule
//!
//! A live run and its replay are byte-identical iff every arrival `i`
//! enters the queue at the same point of the event sequence in both
//! runs. [`SteppedEngine`] enforces the canonical point: arrival `i` is
//! appended after all events with firing time `< stamp(i)` have fired
//! ([`SteppedEngine::advance_before`]) and before any event with time
//! `>= stamp(i)` fires. Within one instant, injected arrivals sort
//! after already-queued events (insertion order), deterministically in
//! both live and replay because both go through this same path.
//!
//! Chaining mirrors the offline engine: when `Arrival(i)` fires while
//! `workload[i + 1]` already exists, its dispatch schedules
//! `Arrival(i + 1)` itself (the unchanged engine code path). The driver
//! therefore schedules a pushed arrival directly only when the chain is
//! dead — every previously pushed arrival has already fired — which is
//! exactly the `arrivals_fired == i` test in
//! [`SteppedEngine::push_arrival`].
//!
//! Pushing an offline workload this way reproduces the offline run
//! except where an arrival ties an event that is already queued: at
//! t = 0, [`SteppedEngine::new`] queues a pre-seeded `Arrival(0)` ahead
//! of the first `ControlTick`, while a pushed one sorts after it.
//!
//! # The end of a run
//!
//! A run ends when the next event lies past the horizon, when the queue
//! is empty at [`SteppedEngine::step`] or [`SteppedEngine::finish`], or
//! when `max_events` events have fired. The budget is checked first, so
//! a run that has fired exactly `max_events` events reports `truncated`
//! whether or not anything was left to fire.

use flexpipe_chaos::Disruption;
use flexpipe_sim::{EventQueue, SimTime};
use flexpipe_workload::Request;

use std::sync::Arc;

use super::{Engine, Event, ObservedRun, ReqRuntime};

/// Drives an [`Engine`] to the end of its run, one event at a time or
/// all at once, with arrivals pre-seeded or injected while it runs.
///
/// For live injection, construct it over an engine whose scenario has an
/// *empty* workload (arrivals come exclusively through
/// [`SteppedEngine::push_arrival`]). Attach tracing to the engine
/// *before* wrapping, since construction primes the queue (policy init
/// fires observable events).
pub struct SteppedEngine {
    engine: Engine,
    queue: EventQueue<Event>,
    /// Events fired so far.
    steps: u64,
    /// `Arrival` events fired so far: the chain-alive test.
    arrivals_fired: u64,
    /// Set once the run has ended; nothing fires after that.
    ended: bool,
    /// Whether the step budget ended the run.
    truncated: bool,
}

impl SteppedEngine {
    /// Primes `engine` (policy init + seed events) without firing
    /// anything.
    pub fn new(mut engine: Engine) -> SteppedEngine {
        let mut queue: EventQueue<Event> = EventQueue::new();
        // Policy initialisation (deploys the initial configuration).
        engine.with_policy(&mut queue, |p, ctx| p.init(ctx));
        // Seed the event streams.
        let state = &engine.state;
        if let Some(first) = state.workload.first() {
            queue
                .schedule(first.arrival, Event::Arrival(0))
                .expect("arrival in future");
        }
        queue.schedule_now(Event::ControlTick);
        queue
            .schedule_after(state.config.churn_step, Event::Churn)
            .expect("future");
        // Scripted disruptions (already time-sorted). Rate surges are a
        // workload-generation concern and never enter the queue.
        for (i, ev) in state.script.events.iter().enumerate() {
            if matches!(ev.kind, Disruption::RateSurge { .. }) {
                continue;
            }
            let at = SimTime::from_secs_f64(ev.at_secs.max(0.0));
            if at < state.horizon {
                queue
                    .schedule(at, Event::Disruption(i as u32))
                    .expect("script starts at or after t=0");
            }
        }
        SteppedEngine {
            engine,
            queue,
            steps: 0,
            arrivals_fired: 0,
            ended: false,
            truncated: false,
        }
    }

    /// The same-virtual-time batch at the queue front, in canonical
    /// insertion order (index 0 is what the canonical run would fire
    /// next). Empty once the run has ended.
    pub fn batch(&self) -> Vec<&Event> {
        if self.ended {
            return Vec::new();
        }
        self.queue.front_batch()
    }

    /// Fires the `choice`-th event of the front batch (insertion order)
    /// and returns its kind, or `None` once the run is over.
    ///
    /// # Panics
    ///
    /// Panics when `choice` is out of range for a non-empty front batch;
    /// exploration drivers must read [`SteppedEngine::batch`] first.
    pub fn step(&mut self, choice: usize) -> Option<&'static str> {
        if !self.next_may_fire() {
            return None;
        }
        let (now, event) = self
            .queue
            .pop_tied(choice)
            .expect("schedule choice out of range for the front batch");
        let kind = event.kind();
        self.fire(now, event);
        Some(kind)
    }

    /// Arrivals accepted so far (fired or still pending).
    pub fn arrivals(&self) -> usize {
        self.engine.state.workload.len()
    }

    /// Injects the next arrival, stamped `req.arrival`.
    ///
    /// The caller must first advance the run past everything earlier
    /// ([`SteppedEngine::advance_before`]`(req.arrival)`) — that ordering
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
        if self.arrivals_fired == i as u64 && !self.ended {
            self.queue
                .schedule(stamp.max(self.queue.now()), Event::Arrival(i as u32))
                .expect("stamp clamped to now");
        }
    }

    /// Fires every pending event with time strictly before `t`, in
    /// canonical order, until the run ends.
    ///
    /// Strictly-before matters twice: an arrival stamped exactly at a
    /// queued event's time must sort *after* it (insertion order), and
    /// an equal-stamp arrival chain must stay alive so the engine's own
    /// dispatch does the scheduling.
    pub fn advance_before(&mut self, t: SimTime) {
        while self.queue.peek_time().is_some_and(|at| at < t) && self.next_may_fire() {
            let (now, event) = self.queue.pop().expect("peeked a pending event");
            self.fire(now, event);
        }
    }

    /// Finishes the run (canonical order for any remaining events) and
    /// folds it into the report and the trace.
    pub fn finish(mut self) -> ObservedRun {
        while self.next_may_fire() {
            let (now, event) = self.queue.pop().expect("peeked a pending event");
            self.fire(now, event);
        }
        let mut engine = self.engine;
        let trace = std::mem::take(&mut engine.state.obs);
        let report = engine.into_report(self.steps, self.truncated);
        ObservedRun { report, trace }
    }

    /// Whether the next queued event may fire: the step budget first,
    /// then the horizon. Records the end of the run when either says no
    /// (or nothing is queued). The step budget is a first-class watchdog,
    /// not an assertion: a fleet sweep must be able to bound runaway
    /// cells and report them as truncated rather than abort the grid.
    fn next_may_fire(&mut self) -> bool {
        if self.ended {
            return false;
        }
        if self.steps >= self.engine.state.config.max_events {
            self.truncated = true;
        } else if self
            .queue
            .peek_time()
            .is_some_and(|at| at <= self.engine.state.horizon)
        {
            return true;
        }
        self.ended = true;
        false
    }

    /// Fires one popped event.
    fn fire(&mut self, now: SimTime, event: Event) {
        if matches!(event, Event::Arrival(_)) {
            self.arrivals_fired += 1;
        }
        self.engine.handle(now, event, &mut self.queue);
        self.steps += 1;
    }
}
