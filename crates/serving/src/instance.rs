//! Pipeline instances: a set of stages on distinct GPUs serving one model
//! replica, executing recirculating micro-batches.
//!
//! Execution model: requests are grouped into micro-batches. A micro-batch
//! makes *passes* through the stage tandem — one prefill pass first, then
//! one decode pass per generated token — re-entering stage 0 after each
//! pass (autoregressive dependency). Distinct micro-batches overlap inside
//! the pipeline, which is what keeps deep pipelines busy; a single
//! micro-batch alone experiences the full `S·(τ+δ)` per-token latency the
//! paper's Fig. 4 shows for fine-grained pipelines under low load.

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};

use flexpipe_cluster::{GpuId, LeaseId};
use flexpipe_model::{OpRange, StageTerms};
use flexpipe_sim::SimTime;
use flexpipe_workload::RequestId;

use crate::engine::indexes::DecodeSlotTracker;

/// Identifier of a pipeline instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct InstanceId(pub u64);

/// Identifier of a micro-batch within the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct UbatchId(pub u64);

/// Execution phase of a micro-batch pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Phase {
    /// First pass: processing all prompt tokens.
    Prefill,
    /// Steady state: one token per member per pass.
    Decode,
}

/// A micro-batch of requests moving through the pipeline together.
#[derive(Debug, Clone)]
pub struct MicroBatch {
    /// This micro-batch's id.
    pub id: UbatchId,
    /// Member requests still active.
    pub members: Vec<RequestId>,
    /// Current pass phase.
    pub phase: Phase,
    /// Tokens processed per pass (prompt chunk for prefill, member count
    /// for decode); refreshed when membership changes.
    pub pass_tokens: u64,
    /// Prompt tokens still to prefill after the current pass (chunked
    /// prefill); 0 for decode micro-batches.
    pub prefill_remaining: u64,
    /// When the current pass entered stage 0 (for latency attribution).
    pub pass_started: SimTime,
    /// Accumulated compute time of the current pass.
    pub pass_compute_secs: f64,
    /// Accumulated communication time of the current pass.
    pub pass_comm_secs: f64,
}

/// One pipeline stage's runtime state.
///
/// Two input classes keep token generation responsive without starving
/// prompt processing: decode passes are preferred, but after
/// `DECODE_STREAK_LIMIT` consecutive decode passes a waiting prefill chunk
/// runs (weighted round-robin, as production schedulers do).
#[derive(Debug, Clone)]
pub struct StageRuntime {
    /// Operator range this stage executes.
    pub range: OpRange,
    /// The range's cost terms, summed once when the stage is built: every
    /// pass is priced from them instead of re-walking the operator slice.
    pub terms: StageTerms,
    /// Hosting GPU.
    pub gpu: GpuId,
    /// Device-memory lease backing parameters + KV budget.
    pub lease: LeaseId,
    /// Whether the stage is currently computing a pass.
    pub busy: bool,
    /// Decode micro-batches waiting to enter this stage.
    pub input_decode: VecDeque<UbatchId>,
    /// Prefill micro-batches waiting to enter this stage.
    pub input_prefill: VecDeque<UbatchId>,
    /// Consecutive decode passes since the last prefill pass.
    pub decode_streak: u8,
}

/// Consecutive decode passes a stage runs before yielding to prefill.
pub const DECODE_STREAK_LIMIT: u8 = 2;

impl StageRuntime {
    /// Picks the next micro-batch to run under the two-class policy.
    pub fn pop_next(&mut self) -> Option<(UbatchId, Phase)> {
        let prefer_prefill =
            self.decode_streak >= DECODE_STREAK_LIMIT && !self.input_prefill.is_empty();
        if prefer_prefill || self.input_decode.is_empty() {
            if let Some(ub) = self.input_prefill.pop_front() {
                self.decode_streak = 0;
                return Some((ub, Phase::Prefill));
            }
        }
        if let Some(ub) = self.input_decode.pop_front() {
            self.decode_streak = self.decode_streak.saturating_add(1);
            return Some((ub, Phase::Decode));
        }
        None
    }

    /// Total queued micro-batches.
    pub fn queued(&self) -> usize {
        self.input_decode.len() + self.input_prefill.len()
    }
}

/// Lifecycle state of an instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum InstanceState {
    /// GPUs acquired, parameters loading; not serving yet.
    Loading,
    /// Serving traffic.
    Serving,
    /// Serving while a refactor prepares in the background (§6: inflight —
    /// the old topology keeps serving during preparation).
    Preparing,
    /// Brief switchover pause: passes in flight complete, none start.
    Paused,
    /// No longer admitting; draining active requests before release.
    Draining,
    /// A capacity revocation destroyed one or more stages: the surviving
    /// stages hold their devices (and warm parameters) but the pipeline
    /// cannot serve. A policy either refactors the instance back to a full
    /// topology inflight (FlexPipe) or retires it and cold-respawns.
    Crippled,
}

/// A pipeline instance.
#[derive(Debug, Clone)]
pub struct Instance {
    /// This instance's id.
    pub id: InstanceId,
    /// Stage runtimes in pipeline order.
    pub stages: Vec<StageRuntime>,
    /// Lifecycle state.
    pub state: InstanceState,
    /// Maximum admitted requests (memory bound, Table 2's max batch).
    pub batch_cap: u32,
    /// Requests currently admitted (in any micro-batch).
    pub active_requests: u32,
    /// In-flight micro-batches owned by this instance.
    pub ubatches: Vec<UbatchId>,
    /// Requests that finished a pass and await the next decode launch —
    /// the continuous-batching pool that coalesces small batches.
    pub decode_ready: VecDeque<RequestId>,
    /// Incremental count of in-flight decode micro-batches (O(1) decode
    /// dispatch instead of rescanning `ubatches`); maintained on launch /
    /// dissolve / revocation kill, validated against the naive recount in
    /// debug builds on every launch decision.
    pub decode_slots: DecodeSlotTracker,
    /// Policy-requested admission hold (e.g. draining toward a
    /// consolidation whose target capacity is below the live load).
    pub admit_hold: bool,
    /// Compute multiplier from policy-level multiplexing (MuxServe-style
    /// sharing); 1.0 = exclusive.
    pub compute_multiplier: f64,
    /// When the instance was spawned.
    pub spawned_at: SimTime,
    /// When the instance became ready (metrics: initialisation latency).
    pub ready_at: Option<SimTime>,
    /// Generation counter, bumped on refactor (stale events are dropped).
    pub epoch: u64,
}

/// A read-only snapshot handed to policies.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InstanceSnapshot {
    /// Instance id.
    pub id: InstanceId,
    /// Stage count.
    pub stages: u32,
    /// Lifecycle state.
    pub state: InstanceState,
    /// Admission capacity.
    pub batch_cap: u32,
    /// Admitted requests.
    pub active_requests: u32,
    /// Live micro-batches.
    pub ubatches: u32,
    /// Ready time if ready.
    pub ready_at: Option<SimTime>,
}

impl Instance {
    /// Stage count.
    pub fn stage_count(&self) -> u32 {
        self.stages.len() as u32
    }

    /// Whether the instance can admit another request right now.
    pub fn can_admit(&self) -> bool {
        matches!(
            self.state,
            InstanceState::Serving | InstanceState::Preparing
        ) && !self.admit_hold
            && self.active_requests < self.batch_cap
    }

    /// Free admission slots.
    pub fn free_slots(&self) -> u32 {
        self.batch_cap.saturating_sub(self.active_requests)
    }

    /// Admission-index key: the load factor's bit pattern when the
    /// instance can admit, `None` otherwise. Non-negative f64 bits order
    /// exactly like the values, so the index's `(key, id)` ordering
    /// reproduces the naive `(load_factor, id)` scan bit for bit.
    pub fn admit_key(&self) -> Option<u64> {
        if self.can_admit() {
            Some(self.load_factor().to_bits())
        } else {
            None
        }
    }

    /// Load factor (admitted / capacity).
    pub fn load_factor(&self) -> f64 {
        if self.batch_cap == 0 {
            1.0
        } else {
            f64::from(self.active_requests) / f64::from(self.batch_cap)
        }
    }

    /// Builds the policy-facing snapshot.
    pub fn snapshot(&self) -> InstanceSnapshot {
        InstanceSnapshot {
            id: self.id,
            stages: self.stage_count(),
            state: self.state,
            batch_cap: self.batch_cap,
            active_requests: self.active_requests,
            ubatches: self.ubatches.len() as u32,
            ready_at: self.ready_at,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn instance(state: InstanceState, cap: u32, active: u32) -> Instance {
        Instance {
            id: InstanceId(1),
            stages: Vec::new(),
            state,
            batch_cap: cap,
            active_requests: active,
            ubatches: Vec::new(),
            decode_ready: VecDeque::new(),
            decode_slots: DecodeSlotTracker::new(),
            admit_hold: false,
            compute_multiplier: 1.0,
            spawned_at: SimTime::ZERO,
            ready_at: None,
            epoch: 0,
        }
    }

    #[test]
    fn admission_rules() {
        assert!(instance(InstanceState::Serving, 4, 3).can_admit());
        assert!(!instance(InstanceState::Serving, 4, 4).can_admit());
        assert!(!instance(InstanceState::Loading, 4, 0).can_admit());
        assert!(!instance(InstanceState::Draining, 4, 0).can_admit());
        assert!(instance(InstanceState::Preparing, 4, 0).can_admit());
        assert!(!instance(InstanceState::Paused, 4, 0).can_admit());
        assert!(!instance(InstanceState::Crippled, 4, 0).can_admit());
    }

    #[test]
    fn admit_key_tracks_admissibility() {
        assert_eq!(
            instance(InstanceState::Serving, 8, 2).admit_key(),
            Some(0.25f64.to_bits())
        );
        assert_eq!(instance(InstanceState::Serving, 4, 4).admit_key(), None);
        assert_eq!(instance(InstanceState::Paused, 4, 0).admit_key(), None);
    }

    #[test]
    fn load_factor_and_slots() {
        let i = instance(InstanceState::Serving, 8, 2);
        assert_eq!(i.free_slots(), 6);
        assert!((i.load_factor() - 0.25).abs() < 1e-9);
        let z = instance(InstanceState::Serving, 0, 0);
        assert_eq!(z.load_factor(), 1.0);
    }
}
