//! The FlexPipe control policy — Algorithm 1 of §6 wired end to end.
//!
//! Every control interval the policy:
//!
//! 1. reads the arrival monitor (λ_t, ν_t, ∂λ/∂t) and queue state;
//! 2. scores every lattice level with Eq. (4) and picks `g*`;
//! 3. refactors serving instances toward `g*` when the score improvement
//!    beats the hysteresis margin and the per-instance dwell has elapsed —
//!    placement through the HRG + Eq. (6)–(9) optimizer, timing through the
//!    Eq. (10) consistency/migration model;
//! 4. sizes the replica set with Eq. (5), spawning at the Eq. (11)
//!    burst-aware granularity (checked against the Eq. (12) SLO
//!    constraint) and retiring patiently under sustained low demand.
//!
//! Only 30% of the historical peak GPU count is pinned always-on (§9.6);
//! everything else flows through the elastic tier with warm-start affinity.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use serde::{Deserialize, Serialize};

use flexpipe_cluster::GpuId;
use flexpipe_serving::{
    ActionError, ControlPolicy, CrippledInstance, Ctx, DisruptionNotice, EngineMode, EngineState,
    InstanceId, InstanceSnapshot, InstanceState, Placement, RefactorPlan, StageAssign,
};
use flexpipe_sim::{SimDuration, SimTime};

use crate::allocation::{AllocationOptimizer, AllocationParams, StageNeed};
use crate::consistency::MigrationModel;
use crate::granularity::{
    build_profiles, instances_needed, score, select, GranularityParams, LevelProfile,
};
use crate::hrg::{Hrg, HrgParams};
use crate::scaling::{scaling_granularity, slo_feasible, ScalingParams};

/// FlexPipe's configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FlexPipeConfig {
    /// Eq. (4)/(5) parameters.
    pub granularity: GranularityParams,
    /// Eq. (11)/(12) parameters.
    pub scaling: ScalingParams,
    /// Eq. (6)–(9) parameters.
    pub allocation: AllocationParams,
    /// HRG / Eq. (13) parameters.
    pub hrg: HrgParams,
    /// Eq. (10) migration timing model.
    pub migration: MigrationModel,
    /// Demand headroom when sizing replicas.
    pub headroom: f64,
    /// Refactor hysteresis: `score(g*) > hysteresis × score(current)`.
    pub hysteresis: f64,
    /// Minimum time between refactors of one instance.
    pub min_dwell: SimDuration,
    /// Control ticks of sustained low demand before scaling in.
    pub scale_down_patience: u32,
    /// Fraction of `peak_gpus` pinned always-on (0.30 in §9.6).
    pub always_on_fraction: f64,
    /// Historical peak GPU count of this service.
    pub peak_gpus: u32,
    /// Historical mean request rate — the same offline knowledge the
    /// static baselines receive; sizes the initial standing fleet.
    pub expected_rate: f64,
    /// Burst anticipation: ν_eff = ν_t + boost·max(0, ∂λ/∂t)/λ.
    pub gradient_boost: f64,
    /// Consecutive ticks the Eq. (4) argmax must agree before a refactor
    /// fires (debounces monitor noise around level boundaries).
    pub confirm_ticks: u32,
    /// Monitor warmup: no refactor decisions before this much simulated
    /// time (the CV estimator reads 0 on an empty window).
    pub warmup: SimDuration,
    /// Background-interference coefficient (mirrors the engine config).
    pub interference_coeff: f64,
    /// Hard cap on replicas.
    pub max_replicas: u32,
    /// Floor on the desired replica count. The default (1) preserves the
    /// sizing rule exactly; pinned-fleet configurations (`fleet trace
    /// profile`, scaling benchmarks) raise it to `max_replicas` so the
    /// standing fleet stays calm — `live == desired` — even when the
    /// live monitor correctly reads demand as near zero.
    pub min_replicas: u32,
    /// Deploy the initial standing fleet at this lattice level instead
    /// of the CV=1 argmax. `None` (the default) keeps the Eq. (4) sweet
    /// spot; profiling configurations pin a deliberately off-target
    /// level so every calm tick exercises the full refactor pass.
    pub initial_stages: Option<u32>,
}

impl Default for FlexPipeConfig {
    fn default() -> Self {
        FlexPipeConfig {
            granularity: GranularityParams::default(),
            scaling: ScalingParams::default(),
            allocation: AllocationParams::default(),
            hrg: HrgParams::default(),
            migration: MigrationModel::default(),
            headroom: 1.5,
            hysteresis: 1.25,
            min_dwell: SimDuration::from_secs(8),
            scale_down_patience: 10,
            always_on_fraction: 0.30,
            peak_gpus: 16,
            expected_rate: 20.0,
            gradient_boost: 2.0,
            confirm_ticks: 3,
            warmup: SimDuration::from_secs(20),
            interference_coeff: 0.6,
            max_replicas: 16,
            min_replicas: 1,
            initial_stages: None,
        }
    }
}

/// Warm-start fleet mirror: an id-keyed copy of every instance snapshot,
/// maintained from the engine's per-tick dirty-set deltas instead of a
/// from-scratch fleet walk. Alongside the map it keeps the two aggregates
/// Algorithm 1 consults every tick (live count, loading count) and the
/// off-target set the refactor pass iterates, so a calm tick — the common
/// case — costs O(|dirty|) instead of O(fleet).
///
/// Only the [`EngineMode::Indexed`] path maintains it; under
/// [`EngineMode::NaiveScan`] the policy re-snapshots the whole fleet each
/// tick, which is the retained reference the debug build cross-validates
/// against ([`FleetMirror::validate`]).
#[derive(Debug, Default)]
struct FleetMirror {
    instances: BTreeMap<InstanceId, InstanceSnapshot>,
    /// Replicas in a live state (Serving | Loading | Preparing | Paused).
    live: u32,
    /// Replicas still loading parameters.
    loading: u32,
    /// Serving instances whose depth differs from `target_stages`, in id
    /// order — exactly the set the Algorithm-1 refactor pass visits.
    off_target: BTreeSet<InstanceId>,
    /// The lattice level `off_target` is maintained against.
    target_stages: Option<u32>,
}

impl FleetMirror {
    fn is_live(state: InstanceState) -> bool {
        matches!(
            state,
            InstanceState::Serving
                | InstanceState::Loading
                | InstanceState::Preparing
                | InstanceState::Paused
        )
    }

    /// Folds one tick's dirty-set deltas into the mirror.
    fn apply(&mut self, deltas: &[(InstanceId, Option<InstanceSnapshot>)]) {
        for &(id, snap) in deltas {
            let old = match snap {
                Some(s) => self.instances.insert(id, s),
                None => self.instances.remove(&id),
            };
            if let Some(o) = old {
                if Self::is_live(o.state) {
                    self.live -= 1;
                }
                if o.state == InstanceState::Loading {
                    self.loading -= 1;
                }
            }
            self.off_target.remove(&id);
            if let Some(s) = snap {
                if Self::is_live(s.state) {
                    self.live += 1;
                }
                if s.state == InstanceState::Loading {
                    self.loading += 1;
                }
                if s.state == InstanceState::Serving
                    && self.target_stages.is_some_and(|t| t != s.stages)
                {
                    self.off_target.insert(id);
                }
            }
        }
    }

    /// Points the off-target set at a new lattice level. A full rebuild
    /// happens only when the Eq. (4) argmax actually moves; on the steady
    /// ticks in between, `apply` maintains membership incrementally.
    fn retarget(&mut self, stages: u32) {
        if self.target_stages == Some(stages) {
            return;
        }
        self.target_stages = Some(stages);
        self.off_target = self
            .instances
            .values()
            .filter(|i| i.state == InstanceState::Serving && i.stages != stages)
            .map(|i| i.id)
            .collect();
    }

    /// Debug-build cross-validation: the delta-maintained mirror must
    /// equal a from-scratch fleet snapshot, aggregates included.
    #[cfg(debug_assertions)]
    fn validate(&self, ctx: &Ctx<'_>) {
        let truth = ctx.instances();
        let mirrored: Vec<InstanceSnapshot> = self.instances.values().copied().collect();
        assert_eq!(mirrored, truth, "fleet mirror drifted from engine state");
        let live = truth.iter().filter(|i| Self::is_live(i.state)).count() as u32;
        let loading = truth
            .iter()
            .filter(|i| i.state == InstanceState::Loading)
            .count() as u32;
        assert_eq!(
            (self.live, self.loading),
            (live, loading),
            "fleet mirror counters drifted"
        );
        if let Some(t) = self.target_stages {
            let off: BTreeSet<InstanceId> = truth
                .iter()
                .filter(|i| i.state == InstanceState::Serving && i.stages != t)
                .map(|i| i.id)
                .collect();
            assert_eq!(self.off_target, off, "fleet mirror off-target set drifted");
        }
    }
}

/// Calm-tick plan cache: the memoized outcome of one refactor-pass walk,
/// reusable on later calm ticks for as long as every input that shaped
/// it is provably unchanged. The cache only arms when the walk took no
/// action at all (no admission hold, no refactor attempt) — an acting
/// walk perturbs state the next decision depends on — and it is dropped
/// the moment the engine's dirty set delivers any delta, because a delta
/// is exactly a change to the fleet view the walk read. Two inputs drift
/// even across delta-free ticks and are therefore re-checked, not
/// cached: simulated time (a dwell window may open — `next_dwell` bounds
/// validity) and ν_eff (the Eq. (4) scores move with the monitor — the
/// hysteresis comparison is re-evaluated per distinct *level*, O(#levels),
/// instead of per instance, O(fleet)). When every level still fails the
/// comparison, the whole O(|off_target|) walk is provably a no-op and is
/// skipped.
#[derive(Debug)]
struct PlanCache {
    /// Eq. (4) target level the cached walk ran against.
    target_stages: u32,
    /// Distinct current levels that reached the score comparison.
    score_levels: Vec<u32>,
    /// Earliest instant a dwell-blocked instance leaves its window
    /// ([`SimTime::MAX`] when none was blocked).
    next_dwell: SimTime,
}

/// The FlexPipe policy.
pub struct FlexPipePolicy {
    cfg: FlexPipeConfig,
    profiles: Vec<LevelProfile>,
    optimizer: AllocationOptimizer,
    hrg: Hrg,
    last_refactor: HashMap<InstanceId, SimTime>,
    holds: std::collections::HashSet<InstanceId>,
    mirror: FleetMirror,
    /// Calm-tick refactor-pass memo ([`EngineMode::Indexed`] only; the
    /// naive reference walks from scratch every tick).
    plan_cache: Option<PlanCache>,
    low_demand_ticks: u32,
    pending_target: Option<u32>,
    pending_ticks: u32,
}

impl FlexPipePolicy {
    /// Creates the policy.
    pub fn new(cfg: FlexPipeConfig) -> Self {
        FlexPipePolicy {
            optimizer: AllocationOptimizer::new(cfg.allocation),
            hrg: Hrg::new(cfg.hrg),
            cfg,
            profiles: Vec::new(),
            last_refactor: HashMap::new(),
            holds: std::collections::HashSet::new(),
            mirror: FleetMirror::default(),
            plan_cache: None,
            low_demand_ticks: 0,
            pending_target: None,
            pending_ticks: 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &FlexPipeConfig {
        &self.cfg
    }

    /// The level profiles (built during `init`).
    pub fn profiles(&self) -> &[LevelProfile] {
        &self.profiles
    }

    fn effective_nu(&self, rate: f64, cv: f64, grad: f64) -> f64 {
        // Anticipate building bursts (§6.3: intensity gradients enable
        // proactive adaptation before queues reflect the shift).
        let boost = if rate > 0.1 && grad > 0.0 {
            self.cfg.gradient_boost * grad / rate
        } else {
            0.0
        };
        cv + boost.min(4.0)
    }

    fn level_for_stages(&self, stages: u32) -> Option<LevelProfile> {
        self.profiles.iter().find(|p| p.stages == stages).copied()
    }

    /// Picks the lattice level closest to (and at least) `m` stages.
    fn nearest_level_at_least(&self, m: u32) -> Option<LevelProfile> {
        self.profiles
            .iter()
            .filter(|p| p.stages >= m)
            .min_by_key(|p| p.stages)
            .or_else(|| self.profiles.iter().max_by_key(|p| p.stages))
            .copied()
    }

    fn stage_needs(&self, ctx: &Ctx<'_>, ranges: &[flexpipe_model::OpRange]) -> Vec<StageNeed> {
        ranges
            .iter()
            .map(|&r| StageNeed {
                range: r,
                mem_bytes: ctx.state.cost().stage_mem_bytes(ctx.state.graph(), r, 8),
            })
            .collect()
    }

    fn spawn_replica(
        &mut self,
        ctx: &mut Ctx<'_>,
        stages: u32,
        cv: f64,
        standing: bool,
    ) -> Result<InstanceId, ActionError> {
        let now = ctx.now();
        let ranges = ctx
            .state
            .lattice()
            .level(stages)
            .ok_or(ActionError::UnknownLevel(stages))?
            .ranges
            .clone();
        let needs = self.stage_needs(ctx, &ranges);
        let assignment = self
            .hrg
            .place(
                ctx.state.cluster(),
                ctx.state.graph(),
                ctx.state.cost(),
                &self.optimizer,
                self.cfg.interference_coeff,
                &needs,
                &|g| held_or_doomed(ctx.state, g),
                cv,
                now,
            )
            .ok_or_else(|| ActionError::NoCapacity("HRG found no placement".into()))?;
        if standing {
            ctx.spawn_prewarmed(stages, Placement::Explicit(assignment.gpus))
        } else {
            ctx.spawn(stages, Placement::Explicit(assignment.gpus))
        }
    }

    fn try_refactor(
        &mut self,
        ctx: &mut Ctx<'_>,
        inst: &flexpipe_serving::InstanceSnapshot,
        target: &LevelProfile,
        rate: f64,
        cv: f64,
    ) {
        let now = ctx.now();
        let graph = ctx.state.graph();
        let plan = ctx
            .state
            .lattice()
            .plan_transition(graph, inst.stages, target.stages);

        // Fresh-device placement for transitions without a reused host.
        let fresh_ranges: Vec<flexpipe_model::OpRange> = plan
            .transitions
            .iter()
            .filter(|t| t.reuse_old_stage.is_none())
            .map(|t| plan_range(&plan, ctx, t.new_stage))
            .collect();
        let fresh_gpus = if fresh_ranges.is_empty() {
            Vec::new()
        } else {
            let needs = self.stage_needs(ctx, &fresh_ranges);
            match self.hrg.place(
                ctx.state.cluster(),
                ctx.state.graph(),
                ctx.state.cost(),
                &self.optimizer,
                self.cfg.interference_coeff,
                &needs,
                &|g| held_or_doomed(ctx.state, g),
                cv,
                now,
            ) {
                Some(a) => a.gpus,
                None => return, // no capacity: stay on the current topology
            }
        };

        // Timing: parameter fetches (+ provisioning) overlap the bulk KV
        // copy in prepare; the delta sync bounds the pause (Eq. 10).
        let mut param_load = SimDuration::ZERO;
        let mut fresh_iter = fresh_gpus.iter();
        let new_ranges = ctx
            .state
            .lattice()
            .level(target.stages)
            .expect("level exists")
            .ranges
            .clone();
        let mut assignments = Vec::with_capacity(new_ranges.len());
        for t in &plan.transitions {
            match t.reuse_old_stage {
                Some(old) => assignments.push(StageAssign::Reuse { old_index: old }),
                None => {
                    let gpu = *fresh_iter.next().expect("one gpu per fresh stage");
                    let r = new_ranges[t.new_stage as usize];
                    let load =
                        ctx.state.load_duration(r, gpu) + ctx.state.provisioning_delay(gpu, now);
                    param_load = param_load.max(load);
                    assignments.push(StageAssign::Fresh { gpu });
                }
            }
        }

        // Cached tokens ≈ active requests × (prompt + half the output).
        let gp = &self.cfg.granularity;
        let cached_tokens = (f64::from(inst.active_requests)
            * (gp.mean_prompt_tokens + gp.mean_output_tokens / 2.0))
            as u64;
        let token_rate = rate * gp.mean_output_tokens;
        // Transfers run pairwise-parallel across the stages that receive
        // data (§8's hierarchical engine).
        let lanes = plan
            .transitions
            .iter()
            .filter(|t| t.kv_move_bytes_per_token > 0 || t.reuse_old_stage.is_none())
            .count()
            .max(1) as u32;
        let timing = self.cfg.migration.plan(
            plan.total_kv_bytes_per_token,
            cached_tokens,
            token_rate,
            param_load,
            lanes,
        );

        let refactor_plan = RefactorPlan {
            new_ranges,
            assignments,
            prepare: timing.prepare,
            pause: timing.pause,
        };
        if ctx.refactor(inst.id, refactor_plan).is_ok() {
            self.last_refactor.insert(inst.id, now);
        }
    }

    /// Inflight rescue (§6 under preemption): rebuild `id` at the same
    /// depth with every doomed/dead stage on a fresh HRG-placed device and
    /// every healthy stage reused in place. `cached_tokens` prices the KV
    /// that must move (0 after a revocation already destroyed it). Returns
    /// whether the refactor was accepted.
    fn refactor_onto_fresh(
        &mut self,
        ctx: &mut Ctx<'_>,
        id: InstanceId,
        target_ranges: &[flexpipe_model::OpRange],
        bad: &dyn Fn(GpuId) -> bool,
        cached_tokens: u64,
    ) -> bool {
        let now = ctx.now();
        let surviving = ctx.state.stage_placement(id).unwrap_or_default();
        // Map each target range to a healthy survivor, or mark it fresh.
        let mut reuse: Vec<Option<u32>> = Vec::with_capacity(target_ranges.len());
        let mut fresh_ranges = Vec::new();
        for &r in target_ranges {
            match surviving.iter().position(|&(sr, sg)| sr == r && !bad(sg)) {
                Some(i) => reuse.push(Some(i as u32)),
                None => {
                    reuse.push(None);
                    fresh_ranges.push(r);
                }
            }
        }
        if fresh_ranges.is_empty() {
            return true; // nothing to move
        }
        let (rate, cv, _) = ctx.monitor();
        let needs = self.stage_needs(ctx, &fresh_ranges);
        let Some(assignment) = self.hrg.place(
            ctx.state.cluster(),
            ctx.state.graph(),
            ctx.state.cost(),
            &self.optimizer,
            self.cfg.interference_coeff,
            &needs,
            &|g| held_or_doomed(ctx.state, g) || bad(g),
            cv,
            now,
        ) else {
            return false;
        };
        let mut fresh_iter = assignment.gpus.iter();
        let mut param_load = SimDuration::ZERO;
        let mut moved_kv_per_token: u64 = 0;
        let mut assignments = Vec::with_capacity(target_ranges.len());
        for (slot, &r) in reuse.iter().zip(target_ranges) {
            match slot {
                Some(old_index) => assignments.push(StageAssign::Reuse {
                    old_index: *old_index,
                }),
                None => {
                    let gpu = *fresh_iter.next().expect("one gpu per fresh range");
                    let load =
                        ctx.state.load_duration(r, gpu) + ctx.state.provisioning_delay(gpu, now);
                    param_load = param_load.max(load);
                    moved_kv_per_token += ctx.state.graph().range_kv_bytes_per_token(r);
                    assignments.push(StageAssign::Fresh { gpu });
                }
            }
        }
        let gp = &self.cfg.granularity;
        let token_rate = rate * gp.mean_output_tokens;
        let lanes = fresh_ranges.len() as u32;
        let timing = self.cfg.migration.plan(
            moved_kv_per_token,
            cached_tokens,
            token_rate,
            param_load,
            lanes,
        );
        let plan = RefactorPlan {
            new_ranges: target_ranges.to_vec(),
            assignments,
            prepare: timing.prepare,
            pause: timing.pause,
        };
        if ctx.refactor(id, plan).is_ok() {
            self.last_refactor.insert(id, now);
            true
        } else {
            false
        }
    }
}

/// Whether placement must skip `gpu`: one of our instances holds it, or it
/// is under an outstanding preemption notice.
fn held_or_doomed(state: &EngineState, gpu: GpuId) -> bool {
    state.gpus_in_use().contains(gpu) || state.is_doomed(gpu)
}

/// Range of `new_stage` in the transition plan's target level.
fn plan_range(
    plan: &flexpipe_partition::TransitionPlan,
    ctx: &Ctx<'_>,
    new_stage: u32,
) -> flexpipe_model::OpRange {
    ctx.state
        .lattice()
        .level(plan.to_stages)
        .expect("level exists")
        .ranges[new_stage as usize]
}

impl ControlPolicy for FlexPipePolicy {
    fn name(&self) -> &'static str {
        "FlexPipe"
    }

    fn init(&mut self, ctx: &mut Ctx<'_>) {
        self.profiles = build_profiles(
            ctx.state.graph(),
            ctx.state.cost(),
            ctx.state.lattice(),
            &ctx.state.cluster().topology().spec().links,
            &self.cfg.granularity,
        );
        // Levels whose stages cannot hold a useful batch under realistic
        // free memory are not usable configurations (e.g. 2-stage OPT-66B
        // leaves < 1 GiB of KV room).
        self.profiles.retain(|p| p.batch_cap >= 8);
        assert!(
            !self.profiles.is_empty(),
            "lattice must provide at least one usable level"
        );

        // Pin 30% of historical peak as always-on (§9.6), chosen through
        // the HRG so the pinned set sits on quiet, memory-rich devices.
        let pinned_count =
            ((f64::from(self.cfg.peak_gpus) * self.cfg.always_on_fraction).ceil() as usize).max(1);
        let cap = ctx.state.cluster().gpu_mem_capacity();
        let mut candidates: Vec<GpuId> = ctx
            .state
            .cluster()
            .topology()
            .gpus()
            .iter()
            .map(|g| g.id)
            .collect();
        candidates.sort_by_key(|&g| {
            let load = ctx.state.cluster().load(g);
            (load.bg_mem + (load.bg_sm * cap as f64) as u64, g.0)
        });
        let pinned: Vec<GpuId> = candidates.into_iter().take(pinned_count).collect();
        ctx.set_always_on(pinned);

        // Initial deployment: the standing fleet for the historical mean
        // rate at the CV=1 sweet spot, prewarmed — this is the deployment
        // that exists before measurement starts, exactly like the static
        // baselines' fleets. Eq. (5) takes over from the live monitor.
        let initial = self
            .cfg
            .initial_stages
            .and_then(|s| self.level_for_stages(s))
            .or_else(|| select(&self.profiles, &self.cfg.granularity, 1.0))
            .expect("profiles non-empty");
        let standing = instances_needed(&initial, self.cfg.expected_rate, self.cfg.headroom)
            .min(self.cfg.max_replicas)
            .max(self.cfg.min_replicas)
            .max(1);
        for _ in 0..standing {
            if self.spawn_replica(ctx, initial.stages, 1.0, true).is_err() {
                break;
            }
        }
    }

    fn on_tick(&mut self, ctx: &mut Ctx<'_>) {
        // Drain the engine's dirty set unconditionally so deltas never
        // accumulate across ticks; only the warm-start path consumes them.
        // The from-scratch reference (NaiveScan) re-snapshots the fleet
        // below, exactly as before the incremental solver existed.
        let deltas = ctx.take_dirty();
        let warm = ctx.mode() == EngineMode::Indexed;
        if warm {
            self.mirror.apply(&deltas);
        }
        // Any delta changes the fleet view the cached walk read; the
        // memoized plan is no longer evidence of anything.
        if !deltas.is_empty() || !warm {
            self.plan_cache = None;
        }
        let now = ctx.now();
        let (rate, cv, grad) = ctx.monitor();
        let queue = ctx.queue_len();
        let nu_eff = self.effective_nu(rate, cv, grad);

        let Some(target) = select(&self.profiles, &self.cfg.granularity, nu_eff) else {
            return;
        };

        // Debounce: a refactor only fires once the Eq. (4) argmax has been
        // stable for `confirm_ticks` consecutive ticks. Monitor noise near
        // a level boundary otherwise causes pathological oscillation.
        if self.pending_target == Some(target.stages) {
            self.pending_ticks += 1;
        } else {
            self.pending_target = Some(target.stages);
            self.pending_ticks = 1;
        }
        let confirmed =
            self.pending_ticks >= self.cfg.confirm_ticks && now >= SimTime::ZERO + self.cfg.warmup;

        // --- Replica accounting first: refactors are calm-time actions. ---
        // Warm path: the counters fall out of the delta fold above; no
        // fleet walk. Naive path: snapshot everything from scratch.
        let naive_view: Option<Vec<InstanceSnapshot>> = if warm {
            #[cfg(debug_assertions)]
            self.mirror.validate(ctx);
            None
        } else {
            Some(ctx.instances())
        };
        let (live, any_loading) = match &naive_view {
            Some(instances) => (
                instances
                    .iter()
                    .filter(|i| FleetMirror::is_live(i.state))
                    .count() as u32,
                instances.iter().any(|i| i.state == InstanceState::Loading),
            ),
            None => (self.mirror.live, self.mirror.loading > 0),
        };
        let drain_target_secs = 15.0;
        let pressure_active = queue > 64;
        let pressure = if pressure_active {
            queue as f64 / drain_target_secs
        } else {
            0.0
        };
        let effective_rate = rate + pressure;
        // Rate-adaptive replica cap: `max_replicas` reflects the sizing
        // rate the config was built for. When observed demand outruns that
        // sizing (the 200 QPS saturation bug: a cap sized for 20 QPS
        // starved a 200 QPS arrival stream down to ~5% SLO attainment),
        // scale the ceiling with the demand ratio instead of pinning the
        // fleet at the provisioning-time guess — bounded at 4x so a
        // transient spike cannot commandeer the whole cluster.
        let cap = if self.cfg.expected_rate > 0.0 && effective_rate > self.cfg.expected_rate {
            let ratio = (effective_rate / self.cfg.expected_rate).min(4.0);
            ((f64::from(self.cfg.max_replicas) * ratio).ceil() as u32).max(self.cfg.max_replicas)
        } else {
            self.cfg.max_replicas
        };
        let desired = instances_needed(&target, effective_rate, self.cfg.headroom)
            .min(cap)
            .max(self.cfg.min_replicas)
            .max(1);

        // Release holds that no longer serve a purpose (target moved, the
        // instance reached the target topology, or — critically — backlog
        // pressure demands every slot of capacity: consolidation waits,
        // service does not).
        let stale: Vec<InstanceId> = self
            .holds
            .iter()
            .copied()
            .filter(|id| {
                pressure_active || {
                    let stages = match &naive_view {
                        Some(instances) => instances.iter().find(|i| i.id == *id).map(|i| i.stages),
                        None => self.mirror.instances.get(id).map(|i| i.stages),
                    };
                    stages.is_none_or(|s| s == target.stages)
                }
            })
            .collect();
        for id in stale {
            ctx.set_admit_hold(id, false);
            self.holds.remove(&id);
        }

        // --- Refactor pass (Algorithm 1 lines 10-16). ---
        // Refactor only a calm, stable population: burst absorbers are
        // retired (not refactored) when demand subsides, capacity that is
        // still loading must land first, and backlog pressure means the
        // scaling path — not topology change — is the right tool.
        let calm = !pressure_active && live == desired && !any_loading;
        if confirmed && calm {
            // Calm-tick fast path: an armed plan cache proves the last walk
            // took no action against this exact fleet view (the dirty-set
            // drain above dropped it on any delta). Of the inputs that
            // still drift — time and ν_eff — time is bounded by the cached
            // dwell frontier, and ν_eff only enters through the per-level
            // hysteresis comparison, so re-evaluating that comparison for
            // the cached levels (O(#levels)) re-proves the entire
            // O(|off_target|) walk a no-op and skips it.
            let cached_skip = self.plan_cache.as_ref().is_some_and(|cache| {
                cache.target_stages == target.stages && now < cache.next_dwell && {
                    let s_target = score(&target, &self.profiles, &self.cfg.granularity, nu_eff);
                    cache.score_levels.iter().all(|&stages| {
                        self.level_for_stages(stages).is_some_and(|current| {
                            let s_current =
                                score(&current, &self.profiles, &self.cfg.granularity, nu_eff);
                            s_target <= self.cfg.hysteresis * s_current
                        })
                    })
                }
            });
            if !cached_skip {
                // The warm path walks only the maintained off-target set (in
                // id order, matching the naive snapshot's iteration order);
                // the naive path filters the full snapshot — same set, same
                // order. Retargeting happens here, at the set's only
                // consumer, so a flapping Eq. (4) argmax on non-calm ticks
                // never pays the rebuild; between consumptions `apply`
                // maintains membership against the last consumed level.
                let off_target: Vec<InstanceSnapshot> = match &naive_view {
                    Some(instances) => instances
                        .iter()
                        .filter(|i| i.state == InstanceState::Serving && i.stages != target.stages)
                        .copied()
                        .collect(),
                    None => {
                        self.mirror.retarget(target.stages);
                        self.mirror
                            .off_target
                            .iter()
                            .filter_map(|id| self.mirror.instances.get(id))
                            .copied()
                            .collect()
                    }
                };
                // Eq. (4) scores depend only on the lattice level, never on
                // the individual instance: score the target once and memoize
                // the current-level scores across the pass.
                let s_target = score(&target, &self.profiles, &self.cfg.granularity, nu_eff);
                let mut s_current_memo: HashMap<u32, f64> = HashMap::new();
                let mut acted = false;
                let mut next_dwell = SimTime::MAX;
                for inst in &off_target {
                    // A consolidation below the instance's live load cannot
                    // commit (the merged stages could not hold the admitted
                    // KV): hold admissions so the load drains toward the
                    // target capacity, then refactor on a later tick.
                    if target.batch_cap * 3 / 4 < inst.active_requests {
                        ctx.set_admit_hold(inst.id, true);
                        self.holds.insert(inst.id);
                        acted = true;
                        continue;
                    }
                    if let Some(&t) = self.last_refactor.get(&inst.id) {
                        if now.saturating_since(t) < self.cfg.min_dwell {
                            next_dwell = next_dwell.min(t + self.cfg.min_dwell);
                            continue;
                        }
                    }
                    let Some(current) = self.level_for_stages(inst.stages) else {
                        continue;
                    };
                    let s_current = *s_current_memo.entry(inst.stages).or_insert_with(|| {
                        score(&current, &self.profiles, &self.cfg.granularity, nu_eff)
                    });
                    if s_target > self.cfg.hysteresis * s_current {
                        self.try_refactor(ctx, inst, &target, rate, cv);
                        acted = true;
                    }
                }
                self.plan_cache = if warm && !acted {
                    let mut score_levels: Vec<u32> = s_current_memo.into_keys().collect();
                    score_levels.sort_unstable();
                    Some(PlanCache {
                        target_stages: target.stages,
                        score_levels,
                        next_dwell,
                    })
                } else {
                    None
                };
            }
        }

        if live < desired {
            // One cold spawn in flight at a time: spawning again before the
            // last instance loads only duplicates capacity that is already
            // on the way.
            if any_loading {
                return;
            }
            // Steady-state additions deploy at the Eq. (4) target
            // granularity. Under backlog pressure the Eq. (11) decision
            // kicks in: urgency (cv·q̂) pushes toward fine stages whose
            // parameter shards load quickly, and the Eq. (12) feasibility
            // ladder escalates fineness until the initialisation time fits
            // the drain deadline.
            let level = if !pressure_active {
                target
            } else {
                let g_max = self.profiles.iter().map(|p| p.stages).max().unwrap_or(1);
                let m = scaling_granularity(&self.cfg.scaling, g_max, cv, queue);
                let mut level = self.nearest_level_at_least(m).unwrap_or(target);
                let deadline = 20.0;
                loop {
                    let init_secs = ctx
                        .state
                        .lattice()
                        .level(level.stages)
                        .map(|l| {
                            l.ranges
                                .iter()
                                .map(|&r| {
                                    ctx.state
                                        .cost()
                                        .stage_load(ctx.state.graph(), r, 0.7e9)
                                        .as_secs_f64()
                                })
                                .fold(0.0, f64::max)
                        })
                        .unwrap_or(0.0);
                    if slo_feasible(deadline, init_secs, level.mu, 1, queue, 1)
                        || level.stages >= g_max
                    {
                        break;
                    }
                    match self
                        .profiles
                        .iter()
                        .filter(|p| p.stages > level.stages)
                        .min_by_key(|p| p.stages)
                    {
                        Some(finer) => level = *finer,
                        None => break,
                    }
                }
                level
            };
            // Fall back through coarser (fewer-GPU) levels when the chosen
            // one cannot be placed — a fragmented fleet may lack 16 free
            // devices while easily fitting 4.
            let mut candidates: Vec<u32> = self
                .profiles
                .iter()
                .map(|p| p.stages)
                .filter(|&s| s <= level.stages)
                .collect();
            candidates.sort_unstable_by(|a, b| b.cmp(a));
            candidates.insert(0, level.stages);
            candidates.dedup();
            let mut spawned = false;
            for stages in candidates {
                if self.spawn_replica(ctx, stages, cv, false).is_ok() {
                    spawned = true;
                    break;
                }
            }
            if !spawned {
                return;
            }
            self.low_demand_ticks = 0;
        } else if live > desired {
            self.low_demand_ticks += 1;
            if self.low_demand_ticks >= self.cfg.scale_down_patience {
                // Retire the least-loaded serving replicas.
                let mut serving: Vec<_> = ctx
                    .instances()
                    .into_iter()
                    .filter(|i| i.state == InstanceState::Serving)
                    .collect();
                serving.sort_by(|a, b| {
                    // Retire burst absorbers (off-target granularity) first,
                    // then the least-loaded replicas — "revert to coarse"
                    // happens by attrition, not by refactoring throwaway
                    // instances.
                    let a_off = a.stages != target.stages;
                    let b_off = b.stages != target.stages;
                    b_off
                        .cmp(&a_off)
                        .then(
                            (f64::from(a.active_requests) / f64::from(a.batch_cap.max(1)))
                                .partial_cmp(
                                    &(f64::from(b.active_requests) / f64::from(b.batch_cap.max(1))),
                                )
                                .unwrap(),
                        )
                        .then(a.id.cmp(&b.id))
                });
                let excess = (live - desired) as usize;
                for inst in serving.into_iter().take(excess) {
                    ctx.retire(inst.id);
                }
                self.low_demand_ticks = 0;
            }
        } else {
            self.low_demand_ticks = 0;
        }
    }

    /// Proactive inflight migration: when the platform announces a
    /// preemption, move every stage sitting on a doomed device onto fresh
    /// capacity *during the grace window*, KV and all. If the migration
    /// beats the deadline the revocation hits idle devices and service
    /// never degrades — the static baselines, which ignore the notice,
    /// lose their in-flight work and cold-respawn instead.
    fn on_revoke_notice(&mut self, ctx: &mut Ctx<'_>, gpus: &[GpuId], _deadline: SimTime) {
        let doomed: std::collections::HashSet<GpuId> = gpus
            .iter()
            .copied()
            .chain(ctx.state.doomed_gpus().iter().map(|&(g, _)| g))
            .collect();
        let gp = &self.cfg.granularity;
        let per_req_tokens = gp.mean_prompt_tokens + gp.mean_output_tokens / 2.0;
        let instances = ctx.instances();
        for inst in instances {
            if inst.state != InstanceState::Serving {
                continue;
            }
            let Some(placement) = ctx.state.stage_placement(inst.id) else {
                continue;
            };
            if !placement.iter().any(|&(_, g)| doomed.contains(&g)) {
                continue;
            }
            let ranges: Vec<flexpipe_model::OpRange> = placement.iter().map(|&(r, _)| r).collect();
            let cached = (f64::from(inst.active_requests) * per_req_tokens) as u64;
            let bad = |g: GpuId| doomed.contains(&g);
            self.refactor_onto_fresh(ctx, inst.id, &ranges, &bad, cached);
        }
    }

    /// Reactive inflight recovery: rebuild each crippled instance at its
    /// original depth, reusing every surviving stage (parameters stay
    /// resident — no reload, no respawn) and landing the dead stages on
    /// fresh HRG-placed devices. Falls back to the cold respawn every
    /// other system pays only when the cluster cannot place the fresh
    /// stages.
    fn on_disruption(&mut self, ctx: &mut Ctx<'_>, notice: &DisruptionNotice) {
        for c in &notice.crippled {
            if !self.rebuild_crippled(ctx, c) {
                flexpipe_serving::cold_respawn_instance(ctx, c);
            }
        }
    }
}

impl FlexPipePolicy {
    fn rebuild_crippled(&mut self, ctx: &mut Ctx<'_>, c: &CrippledInstance) -> bool {
        let Some(level) = ctx.state.lattice().level(c.original_stages) else {
            return false;
        };
        let target_ranges = level.ranges.clone();
        // The revocation already destroyed the admitted KV (requests were
        // replayed), so nothing moves in bulk: the pause is metadata-only.
        let bad = |_: GpuId| false;
        self.refactor_onto_fresh(ctx, c.id, &target_ranges, &bad, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_defaults_match_paper_constants() {
        let cfg = FlexPipeConfig::default();
        assert!((cfg.always_on_fraction - 0.30).abs() < 1e-9);
        assert!(cfg.hysteresis > 1.0);
        assert!(cfg.granularity.alpha > 0.0 && cfg.granularity.alpha < 1.0);
    }

    #[test]
    fn effective_nu_boosts_on_positive_gradient() {
        let p = FlexPipePolicy::new(FlexPipeConfig::default());
        let flat = p.effective_nu(20.0, 2.0, 0.0);
        let rising = p.effective_nu(20.0, 2.0, 10.0);
        let falling = p.effective_nu(20.0, 2.0, -10.0);
        assert_eq!(flat, 2.0);
        assert!(rising > flat);
        assert_eq!(falling, flat);
        // Boost saturates.
        let extreme = p.effective_nu(1.0, 2.0, 1e9);
        assert!(extreme <= 6.0 + 1e-9);
    }
}
