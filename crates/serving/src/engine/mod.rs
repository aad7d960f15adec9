//! The serving engine: a discrete-event world executing pipelined LLM
//! inference over the simulated cluster under a pluggable control policy.
//!
//! Mechanism lives here (micro-batch passes, admission, instance
//! lifecycle, refactor execution, host-memory parameter cache); decisions
//! live in [`crate::policy::ControlPolicy`] implementations.
//!
//! # Layering
//!
//! The engine is a module tree, one layer per concern:
//!
//! - `mod.rs` (this file) — the [`Event`] vocabulary, [`Scenario`],
//!   [`EngineState`] (all mutable state) with its read-side accessors,
//!   the [`Engine`] event loop and the policy-facing [`Ctx`];
//! - `lifecycle` — spawn / ready / retire / release, the inflight
//!   refactor state machine (prepare → pause → commit/abort) and the
//!   host-memory parameter cache;
//! - `exec` — micro-batch execution: stage scheduling, pass completion,
//!   continuous-batching decode dispatch and gateway admission;
//! - `disruption` — capacity revocation, rescue accounting, restores
//!   and recovery-window tracking;
//! - [`indexes`] — the incrementally maintained hot-path structures
//!   ([`indexes::DecodeSlotTracker`] here; the admission index lives in
//!   [`crate::admission`], the server-load ranking in the cluster crate,
//!   the memoized Table-2 rows in the model crate) plus the deterministic
//!   churn harnesses that hold them to their naive references.
//!
//! Every hot path reads its incremental structure; there is one engine
//! path. The naive scan each structure replaced survives only as a
//! debug-build validator that checks every consultation, and the test
//! profile keeps debug assertions on, so every test run compares every
//! decision against its reference while release builds never pay for it.

mod disruption;
mod exec;
pub mod indexes;
mod lifecycle;
mod live;
mod stepped;

pub use live::LiveEngine;
pub use stepped::SteppedEngine;

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::Arc;

use flexpipe_chaos::{Disruption, DisruptionScript};
use flexpipe_cluster::{
    BackgroundProfile, BackgroundTenants, Cluster, ClusterSpec, GpuId, GpuSet, LeaseId,
    Provisioner, ServerId, TierConfig, TransferEngine,
};
use flexpipe_metrics::{DisruptionLedger, OutcomeLog, Timeline, UtilizationLedger};
use flexpipe_model::{CostModel, MaxBatchTable, ModelGraph, OpRange};
use flexpipe_obs::{TraceEvent, TraceMode, TraceRecorder};
use flexpipe_partition::GranularityLattice;
use flexpipe_sim::{EventQueue, RunOutcome, SimRng, SimTime, World};
use flexpipe_workload::{CvEstimator, Request, RequestId, Workload};

use crate::admission::AdmissionIndex;
use crate::config::EngineConfig;
use crate::instance::{
    Instance, InstanceId, InstanceSnapshot, InstanceState, MicroBatch, UbatchId,
};
use crate::policy::{ActionError, ControlPolicy, Placement, RefactorPlan};
use crate::report::RunReport;

/// Events routed through the simulation queue.
#[derive(Debug, Clone)]
pub enum Event {
    /// Request `workload[i]` arrives at the gateway.
    Arrival(u32),
    /// Periodic control-loop invocation.
    ControlTick,
    /// Background fragmentation churn step.
    Churn,
    /// An instance finished loading parameters.
    InstanceReady {
        /// Target instance.
        id: InstanceId,
        /// Epoch the event belongs to.
        epoch: u64,
    },
    /// A micro-batch reaches a stage's input queue.
    StageArrive {
        /// Target instance.
        id: InstanceId,
        /// Epoch guard.
        epoch: u64,
        /// Stage index.
        stage: u16,
        /// The micro-batch.
        ub: UbatchId,
    },
    /// A stage finishes computing a micro-batch pass.
    StageDone {
        /// Target instance.
        id: InstanceId,
        /// Epoch guard.
        epoch: u64,
        /// Stage index.
        stage: u16,
        /// The micro-batch.
        ub: UbatchId,
    },
    /// A refactor's background preparation completes (switchover begins).
    PrepareDone {
        /// Target instance.
        id: InstanceId,
        /// Epoch guard.
        epoch: u64,
    },
    /// A refactor's switchover pause completes (new topology live).
    PauseDone {
        /// Target instance.
        id: InstanceId,
        /// Epoch guard.
        epoch: u64,
    },
    /// A scripted disruption fires (index into the scenario's script).
    Disruption(u32),
    /// A preemption's grace expired (or a failure had none): the listed
    /// devices are revoked *now*.
    Revoke {
        /// Devices leaving the cluster.
        gpus: Vec<GpuId>,
    },
    /// Previously revoked capacity returns to the pool.
    Restore {
        /// Devices re-entering the cluster.
        gpus: Vec<GpuId>,
    },
    /// A deferred policy decision (scheduled via [`Ctx::defer_action`])
    /// pops as its own queue event, making control-plane decisions
    /// first-class schedule choice points for the equivalence checker.
    PolicyAction {
        /// Policy-defined discriminator for the deferred decision.
        tag: u32,
    },
}

impl Event {
    /// Stable label per variant: what [`SteppedEngine::step`] returns,
    /// so a driver can charge each step to its event kind, and the key
    /// of observability summaries.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::Arrival(_) => "arrival",
            Event::ControlTick => "control_tick",
            Event::Churn => "churn",
            Event::InstanceReady { .. } => "instance_ready",
            Event::StageArrive { .. } => "stage_arrive",
            Event::StageDone { .. } => "stage_done",
            Event::PrepareDone { .. } => "prepare_done",
            Event::PauseDone { .. } => "pause_done",
            Event::Disruption(_) => "disruption",
            Event::Revoke { .. } => "revoke",
            Event::Restore { .. } => "restore",
            Event::PolicyAction { .. } => "policy_action",
        }
    }
}

/// Scenario description bundling everything an engine run needs.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Engine tunables.
    pub config: EngineConfig,
    /// Cluster to simulate.
    pub cluster: ClusterSpec,
    /// Background fragmentation profile.
    pub background: BackgroundProfile,
    /// Dual-tier provisioning parameters.
    pub tier: TierConfig,
    /// Calibrated cost model.
    pub cost: CostModel,
    /// The request stream.
    pub workload: Workload,
    /// Timed cluster disruptions (preemptions, failures, restores). Rate
    /// surges are a workload-generation concern and are ignored here; use
    /// [`flexpipe_chaos::warp_arrivals`] on the workload instead.
    pub disruptions: DisruptionScript,
    /// Simulation horizon.
    pub horizon: SimTime,
    /// Root random seed.
    pub seed: u64,
}

pub(super) struct ReqRuntime {
    pub(super) req: Request,
    pub(super) admitted: Option<SimTime>,
    pub(super) prefill_done: Option<SimTime>,
    pub(super) generated: u32,
    pub(super) exec_secs: f64,
    pub(super) comm_secs: f64,
    pub(super) done: bool,
}

pub(super) struct HostCacheEntry {
    pub(super) server: ServerId,
    pub(super) lease: LeaseId,
    pub(super) expires: SimTime,
}

pub(super) struct PendingRefactor {
    pub(super) plan: RefactorPlan,
    pub(super) fresh_acquired: Vec<GpuId>,
    /// Whether the refactor entered from `Crippled` (a post-revocation
    /// rebuild): the "old topology" is incomplete, so the instance must
    /// not admit during preparation, and an abort must return it to
    /// `Crippled` rather than resurrect a partial pipeline as `Serving`.
    pub(super) from_crippled: bool,
}

/// All mutable engine state (separated from the policy for borrow hygiene).
pub struct EngineState {
    pub(crate) config: EngineConfig,
    pub(crate) graph: Arc<ModelGraph>,
    pub(crate) cost: CostModel,
    pub(crate) lattice: Arc<GranularityLattice>,
    pub(crate) cluster: Cluster,
    pub(crate) transfer: TransferEngine,
    pub(crate) provisioner: Provisioner,
    pub(crate) tier: TierConfig,
    pub(super) bg: BackgroundTenants,
    pub(super) workload: Arc<Vec<Request>>,
    pub(super) gateway: VecDeque<RequestId>,
    pub(super) reqs: Vec<ReqRuntime>,
    pub(super) instances: BTreeMap<InstanceId, Instance>,
    /// Incrementally maintained index over admissible instances (the
    /// high-rate fast path). Every mutation of an instance's state,
    /// capacity, live-request count or admit hold re-keys it via
    /// [`EngineState::reindex`]; [`EngineState::drain_gateway`] selects
    /// from it in O(log instances) instead of rescanning.
    pub(super) admission: AdmissionIndex,
    /// Memoized Table-2 rows ([`MaxBatchTable`]): spawn- and refactor-time
    /// `max_batch` / `stage_mem_bytes` queries reuse per-range profile
    /// sums instead of re-walking the operator slice. Bit-identical to the
    /// uncached cost model (asserted in debug builds on every hit).
    pub(super) max_batch_memo: MaxBatchTable,
    pub(super) ubatches: HashMap<UbatchId, MicroBatch>,
    /// Instances whose snapshot-visible state changed since the control
    /// plane last looked. Every mutation site feeds it (via
    /// [`EngineState::reindex`] or [`EngineState::mark_policy_dirty`]);
    /// [`Ctx::take_dirty`] drains it each tick so a warm-start policy can
    /// update its fleet mirror from deltas instead of re-snapshotting the
    /// whole fleet.
    pub(super) policy_dirty: std::collections::BTreeSet<InstanceId>,
    pub(super) pending_refactors: HashMap<InstanceId, PendingRefactor>,
    pub(super) host_cache: HashMap<(u32, u32), HostCacheEntry>,
    pub(super) gpus_in_use: GpuSet,
    pub(super) script: DisruptionScript,
    pub(super) pending_revocations: BTreeMap<GpuId, SimTime>,
    pub(super) next_instance: u64,
    pub(super) next_ubatch: u64,
    pub(super) horizon: SimTime,
    // Metrics.
    pub(super) disruptions: DisruptionLedger,
    pub(super) outcomes: OutcomeLog,
    pub(super) ledger: UtilizationLedger,
    pub(super) queue_timeline: Timeline,
    pub(super) inflight_timeline: Timeline,
    pub(super) cv_est: CvEstimator,
    pub(super) refactors: u32,
    pub(super) refactor_pause_secs: f64,
    pub(super) spawns: u32,
    pub(super) init_latencies: Vec<f64>,
    pub(super) warm_loads: u32,
    pub(super) cold_loads: u32,
    /// Structured trace recorder. Off by default; hook sites throughout
    /// the engine call [`TraceRecorder::record`], which is a single
    /// branch when disabled. The recorder only *observes* state, so the
    /// report is byte-identical whatever the mode (pinned by the fleet's
    /// trace-determinism tests).
    pub(super) obs: TraceRecorder,
}

impl EngineState {
    /// Current gateway queue length.
    pub fn queue_len(&self) -> usize {
        self.gateway.len()
    }

    /// The model graph.
    pub fn graph(&self) -> &ModelGraph {
        &self.graph
    }

    /// The granularity lattice.
    pub fn lattice(&self) -> &GranularityLattice {
        &self.lattice
    }

    /// The cluster (read-only access for policies).
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// The cost model.
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// Snapshots of all instances.
    pub fn snapshots(&self) -> Vec<InstanceSnapshot> {
        self.instances.values().map(|i| i.snapshot()).collect()
    }

    /// Re-keys `id` in the admission index from its current state (or
    /// removes it when gone / not admissible). Must be called after every
    /// mutation that can change `Instance::admit_key` — state changes,
    /// `active_requests`, `batch_cap`, `admit_hold`, removal.
    pub(super) fn reindex(&mut self, id: InstanceId) {
        let key = self.instances.get(&id).and_then(Instance::admit_key);
        self.admission.apply(id, key);
        self.policy_dirty.insert(id);
    }

    /// Marks `id` dirty for the control plane without touching the
    /// admission index: for mutations that change an instance's snapshot
    /// (micro-batch membership) but not its admissibility key.
    pub(super) fn mark_policy_dirty(&mut self, id: InstanceId) {
        self.policy_dirty.insert(id);
    }

    /// Debug-build invariant: the index holds exactly the admissible
    /// instances under their current keys. Catches any mutation site that
    /// forgot to [`EngineState::reindex`] the moment admission runs, in
    /// every test (the test profile keeps debug assertions on).
    #[cfg(debug_assertions)]
    pub(super) fn debug_validate_admission_index(&self) {
        let expected: Vec<(InstanceId, u64)> = self
            .instances
            .values()
            .filter_map(|i| i.admit_key().map(|k| (i.id, k)))
            .collect();
        let mut indexed: Vec<(InstanceId, u64)> = self.admission.entries().collect();
        indexed.sort_by_key(|&(id, _)| id);
        let mut want = expected;
        want.sort_by_key(|&(id, _)| id);
        debug_assert_eq!(
            indexed, want,
            "admission index diverged from instance state"
        );
    }

    /// Table-2 `max_batch` from the memoized table, which asserts in debug
    /// builds that it matches the uncached cost model bit for bit.
    pub(super) fn max_batch_of(&self, r: OpRange, gpu_mem: u64) -> u32 {
        self.max_batch_memo.max_batch(&self.graph, r, gpu_mem)
    }

    /// Table-2 `stage_mem_bytes` from the memoized table (see
    /// [`EngineState::max_batch_of`]).
    pub(super) fn stage_mem_of(&self, r: OpRange, batch: u32) -> u64 {
        self.max_batch_memo.stage_mem_bytes(&self.graph, r, batch)
    }

    pub(super) fn new_instance_id(&mut self) -> InstanceId {
        self.next_instance += 1;
        InstanceId(self.next_instance)
    }

    pub(super) fn new_ubatch_id(&mut self) -> UbatchId {
        self.next_ubatch += 1;
        UbatchId(self.next_ubatch)
    }

    /// Online arrival statistics: (rate, cv, gradient).
    pub fn monitor(&self, now: SimTime) -> (f64, f64, f64) {
        (
            self.cv_est.rate(now),
            self.cv_est.cv(),
            self.cv_est.rate_gradient(now),
        )
    }

    /// Replaces the always-on GPU set (policy initialisation).
    pub fn set_always_on(&mut self, gpus: Vec<GpuId>) {
        self.provisioner = Provisioner::new(self.tier, gpus);
    }

    /// Sets an instance's compute multiplier (multiplexing interference).
    pub fn set_compute_multiplier(&mut self, id: InstanceId, mult: f64) {
        if let Some(inst) = self.instances.get_mut(&id) {
            inst.compute_multiplier = mult.max(1.0);
        }
    }

    /// Holds or releases admissions to an instance (drain-to-consolidate).
    pub fn set_admit_hold(&mut self, id: InstanceId, hold: bool) {
        if let Some(inst) = self.instances.get_mut(&id) {
            inst.admit_hold = hold;
            self.reindex(id);
        }
    }
}

/// The engine: state + policy, driving a [`Scenario`] to completion.
pub struct Engine {
    pub(super) state: EngineState,
    pub(super) policy: Option<Box<dyn ControlPolicy>>,
    pub(super) events_seen: u64,
    pub(super) truncated: bool,
}

/// Everything one observed run produces: the deterministic report plus
/// the trace side channel (which never feeds back into it).
pub struct ObservedRun {
    /// The run report — byte-identical to an unobserved run's.
    pub report: RunReport,
    /// The trace recorder with its retained records and registry.
    pub trace: TraceRecorder,
}

/// Policy-facing context: state queries plus actions.
pub struct Ctx<'a> {
    /// Mutable engine state.
    pub state: &'a mut EngineState,
    /// The event queue (for time and scheduling through actions).
    pub queue: &'a mut EventQueue<Event>,
}

impl<'a> Ctx<'a> {
    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// Gateway queue length.
    pub fn queue_len(&self) -> usize {
        self.state.queue_len()
    }

    /// Online (rate, cv, gradient) from the arrival monitor.
    pub fn monitor(&self) -> (f64, f64, f64) {
        self.state.monitor(self.queue.now())
    }

    /// Instance snapshots.
    pub fn instances(&self) -> Vec<InstanceSnapshot> {
        self.state.snapshots()
    }

    /// Drains the dirty set accumulated since the last call: the
    /// id-sorted list of instances whose snapshot-visible state changed,
    /// each paired with its current snapshot (`None` = the instance is
    /// gone). A warm-start control plane applies these deltas to its
    /// fleet mirror instead of re-snapshotting everything.
    pub fn take_dirty(&mut self) -> Vec<(InstanceId, Option<InstanceSnapshot>)> {
        let ids = std::mem::take(&mut self.state.policy_dirty);
        ids.into_iter()
            .map(|id| (id, self.state.instances.get(&id).map(|i| i.snapshot())))
            .collect()
    }

    /// Spawns an instance through the elastic path (provisioning +
    /// parameter-loading delays apply).
    pub fn spawn(&mut self, stages: u32, placement: Placement) -> Result<InstanceId, ActionError> {
        self.state.spawn(self.queue, stages, placement, false)
    }

    /// Spawns a standing instance that is ready immediately (the
    /// deployment that exists before measurement starts).
    pub fn spawn_prewarmed(
        &mut self,
        stages: u32,
        placement: Placement,
    ) -> Result<InstanceId, ActionError> {
        self.state.spawn(self.queue, stages, placement, true)
    }

    /// Retires an instance (drain then release).
    pub fn retire(&mut self, id: InstanceId) {
        self.state.retire(self.queue, id)
    }

    /// Starts an inflight refactor.
    pub fn refactor(&mut self, id: InstanceId, plan: RefactorPlan) -> Result<(), ActionError> {
        self.state.refactor(self.queue, id, plan)
    }

    /// Declares the always-on GPU tier (call once from `init`).
    pub fn set_always_on(&mut self, gpus: Vec<GpuId>) {
        self.state.set_always_on(gpus)
    }

    /// Sets multiplexing interference on an instance.
    pub fn set_compute_multiplier(&mut self, id: InstanceId, mult: f64) {
        self.state.set_compute_multiplier(id, mult)
    }

    /// Holds or releases admissions to an instance.
    pub fn set_admit_hold(&mut self, id: InstanceId, hold: bool) {
        self.state.set_admit_hold(id, hold)
    }

    /// Pre-stages parameters into a server's host memory tier.
    pub fn prewarm_host_cache(&mut self, range: flexpipe_model::OpRange, server: ServerId) -> bool {
        let now = self.queue.now();
        self.state.prewarm_host_cache(now, range, server)
    }

    /// Devices under an outstanding preemption notice with their
    /// revocation deadlines (avoid these when placing).
    pub fn doomed_gpus(&self) -> Vec<(GpuId, SimTime)> {
        self.state.doomed_gpus()
    }

    /// Devices currently revoked from the cluster.
    pub fn revoked_gpus(&self) -> Vec<GpuId> {
        self.state.cluster().revoked_gpus()
    }

    /// Defers a policy decision to its own queue event at the current
    /// instant. The decision pops back into
    /// [`crate::policy::ControlPolicy::on_action`]
    /// with the same tag — after everything else already queued at this
    /// instant, and as a first-class choice point for the equivalence
    /// checker, which can permute deferred decisions against the rest of
    /// the same-instant batch.
    pub fn defer_action(&mut self, tag: u32) {
        self.queue.schedule_now(Event::PolicyAction { tag });
    }

    /// Emits a policy-originated trace event (a no-op when tracing is
    /// off). Policies use this to mark named decisions — e.g. a cold
    /// respawn — so traces show *why* the mechanism moved, not just that
    /// it did.
    pub fn trace(&mut self, event: TraceEvent) {
        let now = self.queue.now();
        self.state.obs.record(now, event);
    }
}

impl Engine {
    /// Builds an engine for `scenario` with the given model artefacts and
    /// policy.
    pub fn new(
        scenario: Scenario,
        graph: Arc<ModelGraph>,
        lattice: Arc<GranularityLattice>,
        policy: Box<dyn ControlPolicy>,
    ) -> Self {
        let rng = SimRng::seed(scenario.seed);
        let mut cluster = Cluster::new(scenario.cluster.clone());
        let mut bg = BackgroundTenants::new(scenario.background, rng.stream_named("background"));
        bg.populate(&mut cluster);
        let transfer = TransferEngine::new(scenario.cluster.links);
        let reqs = scenario
            .workload
            .requests
            .iter()
            .map(|&req| ReqRuntime {
                req,
                admitted: None,
                prefill_done: None,
                generated: 0,
                exec_secs: 0.0,
                comm_secs: 0.0,
                done: false,
            })
            .collect();
        let state = EngineState {
            config: scenario.config,
            graph,
            cost: scenario.cost,
            lattice,
            cluster,
            transfer,
            provisioner: Provisioner::new(scenario.tier, Vec::new()),
            tier: scenario.tier,
            bg,
            workload: Arc::new(scenario.workload.requests),
            gateway: VecDeque::new(),
            reqs,
            instances: BTreeMap::new(),
            admission: AdmissionIndex::new(),
            max_batch_memo: scenario.cost.max_batch_table(),
            ubatches: HashMap::new(),
            policy_dirty: std::collections::BTreeSet::new(),
            pending_refactors: HashMap::new(),
            host_cache: HashMap::new(),
            gpus_in_use: GpuSet::new(),
            script: scenario.disruptions.sorted(),
            pending_revocations: BTreeMap::new(),
            next_instance: 0,
            next_ubatch: 0,
            horizon: scenario.horizon,
            disruptions: DisruptionLedger::new(),
            outcomes: OutcomeLog::new(),
            ledger: UtilizationLedger::new(),
            queue_timeline: Timeline::new(),
            inflight_timeline: Timeline::new(),
            cv_est: CvEstimator::new(scenario.config.monitor_window),
            refactors: 0,
            refactor_pause_secs: 0.0,
            spawns: 0,
            init_latencies: Vec::new(),
            warm_loads: 0,
            cold_loads: 0,
            obs: TraceRecorder::off(),
        };
        Engine {
            state,
            policy: Some(policy),
            events_seen: 0,
            truncated: false,
        }
    }

    /// Arms structured tracing for this run (default: [`TraceMode::Off`]).
    /// Tracing is observation-only: the report stays byte-identical in
    /// every mode.
    pub fn set_trace(&mut self, mode: TraceMode) {
        self.state.obs = TraceRecorder::new(mode);
    }

    pub(super) fn with_policy(
        &mut self,
        queue: &mut EventQueue<Event>,
        f: impl FnOnce(&mut dyn ControlPolicy, &mut Ctx<'_>),
    ) {
        let mut policy = self.policy.take().expect("policy present");
        {
            let mut ctx = Ctx {
                state: &mut self.state,
                queue,
            };
            f(policy.as_mut(), &mut ctx);
        }
        self.policy = Some(policy);
    }

    /// Runs the scenario to its horizon and produces the report.
    pub fn run(self) -> RunReport {
        self.run_observed().report
    }

    /// Runs the scenario and returns the report together with the trace
    /// side channel (see [`Engine::set_trace`]).
    pub fn run_observed(mut self) -> ObservedRun {
        let mut queue: EventQueue<Event> = EventQueue::new();
        self.prime(&mut queue);
        let horizon = self.state.horizon;
        let max_events = self.state.config.max_events;
        let (outcome, steps) = flexpipe_sim::run(&mut self, &mut queue, horizon, max_events);
        self.finish_observed(outcome, steps)
    }

    /// Seeds the event queue and runs policy initialisation — everything
    /// `run_observed` does before entering the event loop. Shared with the
    /// step-controllable driver ([`crate::SteppedEngine`]) so both paths
    /// start from bit-identical state.
    pub(crate) fn prime(&mut self, queue: &mut EventQueue<Event>) {
        // Policy initialisation (deploys the initial configuration).
        self.with_policy(queue, |p, ctx| p.init(ctx));
        // Seed the event streams.
        if !self.state.workload.is_empty() {
            let t = self.state.workload[0].arrival;
            queue
                .schedule(t, Event::Arrival(0))
                .expect("arrival in future");
        }
        queue.schedule_now(Event::ControlTick);
        queue
            .schedule_after(self.state.config.churn_step, Event::Churn)
            .expect("future");
        // Scripted disruptions (already time-sorted). Rate surges are a
        // workload-generation concern and never enter the queue.
        for (i, ev) in self.state.script.events.iter().enumerate() {
            if matches!(ev.kind, Disruption::RateSurge { .. }) {
                continue;
            }
            let at = SimTime::from_secs_f64(ev.at_secs.max(0.0));
            if at < self.state.horizon {
                queue
                    .schedule(at, Event::Disruption(i as u32))
                    .expect("script starts at or after t=0");
            }
        }
    }

    /// Folds a finished event loop into the observed-run artifacts — the
    /// tail of `run_observed`, shared with [`crate::SteppedEngine`].
    pub(crate) fn finish_observed(mut self, outcome: RunOutcome, steps: u64) -> ObservedRun {
        let horizon = self.state.horizon;
        self.events_seen = steps;
        // The step budget is a first-class watchdog, not an assertion: a
        // fleet sweep must be able to bound runaway cells and report them
        // as truncated rather than abort the whole grid.
        self.truncated = matches!(outcome, RunOutcome::StepBudgetExhausted);
        let trace = std::mem::take(&mut self.state.obs);
        let report = self.into_report(horizon);
        ObservedRun { report, trace }
    }

    fn into_report(self, horizon: SimTime) -> RunReport {
        let truncated = self.truncated;
        let mut st = self.state;
        st.disruptions.finalize(horizon);
        let span = horizon.as_secs_f64();
        // Canonical order before summarizing: byte-identical reports across
        // semantically equivalent schedules (see OutcomeLog::canonicalize).
        st.outcomes.canonicalize();
        let summary = st.outcomes.summarize(span);
        let policy_name = self
            .policy
            .as_ref()
            .map(|p| p.name().to_string())
            .unwrap_or_default();
        RunReport {
            policy: policy_name,
            horizon_secs: span,
            arrived: st.workload.len(),
            summary,
            outcomes: st.outcomes,
            queue_timeline: st.queue_timeline,
            inflight_timeline: st.inflight_timeline,
            fleet_size: st.cluster.topology().gpu_count() as u32,
            ledger: st.ledger,
            refactors: st.refactors,
            refactor_pause_secs: st.refactor_pause_secs,
            spawns: st.spawns,
            mean_init_secs: if st.init_latencies.is_empty() {
                0.0
            } else {
                st.init_latencies.iter().sum::<f64>() / st.init_latencies.len() as f64
            },
            mean_alloc_wait_secs: st.provisioner.mean_wait_secs(),
            warm_loads: st.warm_loads,
            cold_loads: st.cold_loads,
            disruptions: st.disruptions.into_stats(),
            events: self.events_seen,
            truncated,
        }
    }
}

impl World for Engine {
    type Event = Event;

    fn handle(&mut self, now: SimTime, event: Event, queue: &mut EventQueue<Event>) {
        match event {
            Event::Arrival(i) => {
                let i = i as usize;
                let rid = RequestId(i as u64);
                self.state.cv_est.record(now);
                self.state.gateway.push_back(rid);
                self.state
                    .obs
                    .record(now, TraceEvent::RequestArrival { req: rid.0 });
                if i + 1 < self.state.workload.len() {
                    let t = self.state.workload[i + 1].arrival;
                    queue
                        .schedule(t.max(now), Event::Arrival(i as u32 + 1))
                        .expect("sorted arrivals");
                }
                self.state.drain_gateway(queue);
                self.with_policy(queue, |p, ctx| p.on_arrival(ctx));
            }
            Event::ControlTick => {
                self.state.cv_est.evict(now);
                self.state
                    .queue_timeline
                    .record(now, self.state.gateway.len() as f64);
                let in_system: u32 = self
                    .state
                    .instances
                    .values()
                    .map(|i| i.active_requests)
                    .sum::<u32>()
                    + self.state.gateway.len() as u32;
                self.state
                    .inflight_timeline
                    .record(now, f64::from(in_system));
                self.state.obs.record(
                    now,
                    TraceEvent::ControlTick {
                        queued: self.state.gateway.len() as u32,
                        instances: self.state.instances.len() as u32,
                    },
                );
                self.state.expire_host_cache(now);
                self.state.provisioner.expire_warm(now);
                self.with_policy(queue, |p, ctx| p.on_tick(ctx));
                self.state.drain_gateway(queue);
                self.state.maybe_close_recoveries(now);
                let next = now + self.state.config.control_interval;
                if next < self.state.horizon {
                    queue.schedule(next, Event::ControlTick).expect("future");
                }
            }
            Event::Churn => {
                let step = self.state.config.churn_step;
                let mut bg = self.state.bg.clone();
                bg.step(&mut self.state.cluster, step);
                self.state.bg = bg;
                let next = now + step;
                if next < self.state.horizon {
                    queue.schedule(next, Event::Churn).expect("future");
                }
            }
            Event::InstanceReady { id, epoch } => {
                let ready = {
                    let Some(inst) = self.state.instances.get_mut(&id) else {
                        return;
                    };
                    if inst.epoch != epoch || inst.state != InstanceState::Loading {
                        false
                    } else {
                        inst.state = InstanceState::Serving;
                        inst.ready_at = Some(now);
                        true
                    }
                };
                if ready {
                    self.state
                        .obs
                        .record(now, TraceEvent::InstanceReady { instance: id.0 });
                    self.state.reindex(id);
                    self.state.drain_gateway(queue);
                    self.with_policy(queue, |p, ctx| p.on_instance_ready(ctx, id));
                    self.state.maybe_close_recoveries(queue.now());
                }
            }
            Event::StageArrive {
                id,
                epoch,
                stage,
                ub,
            } => {
                self.state.on_stage_arrive(queue, id, epoch, stage, ub);
            }
            Event::StageDone {
                id,
                epoch,
                stage,
                ub,
            } => {
                self.state.on_stage_done(queue, id, epoch, stage, ub);
            }
            Event::PrepareDone { id, epoch } => {
                self.state.on_prepare_done(queue, id, epoch);
            }
            Event::PauseDone { id, epoch } => {
                self.state.on_pause_done(queue, id, epoch);
                self.state.resume_instance(queue, id);
                self.state.launch_decode(queue, id);
                self.state.drain_gateway(queue);
                self.state.maybe_close_recoveries(queue.now());
            }
            Event::Disruption(idx) => {
                self.on_disruption_event(queue, idx as usize);
            }
            Event::Revoke { gpus } => {
                self.execute_revocation(queue, gpus);
            }
            Event::Restore { gpus } => {
                let restored = self.state.restore_capacity(&gpus);
                if restored > 0 {
                    self.state
                        .obs
                        .record(now, TraceEvent::CapacityRestore { gpus: restored });
                }
            }
            Event::PolicyAction { tag } => {
                self.with_policy(queue, |p, ctx| p.on_action(ctx, tag));
                self.state.drain_gateway(queue);
                self.state.maybe_close_recoveries(now);
            }
        }
    }
}
