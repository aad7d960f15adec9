//! Instance lifecycle: spawn / ready / retire / release, the inflight
//! refactor state machine (prepare → pause → commit/abort) and the
//! host-memory parameter cache.
//!
//! Memory-sizing queries (`max_batch`, `stage_mem_bytes`) route through
//! the [`EngineState::max_batch_of`] / [`EngineState::stage_mem_of`]
//! helpers, which reuse memoized Table-2 rows so a refactor storm
//! re-prices layouts in O(1) per (range, device) instead of re-walking
//! the operator slice.

use std::collections::VecDeque;

use flexpipe_cluster::{GpuId, GpuSet, LeaseId, Route, ServerId};
use flexpipe_model::OpRange;
use flexpipe_obs::TraceEvent;
use flexpipe_sim::{EventQueue, SimDuration, SimTime};

use crate::instance::{Instance, InstanceId, InstanceState, StageRuntime};
use crate::policy::{ActionError, Placement, RefactorPlan, StageAssign};

use super::indexes::DecodeSlotTracker;
use super::{EngineState, Event, HostCacheEntry, PendingRefactor};

impl EngineState {
    pub(super) fn load_route(&self, range: OpRange, gpu: GpuId) -> Route {
        let key = (range.start, range.end);
        match self.host_cache.get(&key) {
            Some(entry) => {
                if self.cluster.topology().gpu(gpu).server == entry.server {
                    Route::PcieHost
                } else {
                    Route::Rdma
                }
            }
            None => Route::Storage,
        }
    }

    /// Load duration of `range` onto `gpu`, using the host cache if warm.
    pub fn load_duration(&self, range: OpRange, gpu: GpuId) -> SimDuration {
        let bytes = self.graph.range_param_bytes(range);
        self.transfer
            .duration_on(self.load_route(range, gpu), bytes)
    }

    /// Whether `range` is warm in some server's host cache.
    pub fn is_cached(&self, range: OpRange) -> Option<ServerId> {
        self.host_cache
            .get(&(range.start, range.end))
            .map(|e| e.server)
    }

    /// GPUs currently holding stages of our instances.
    pub fn gpus_in_use(&self) -> &GpuSet {
        &self.gpus_in_use
    }

    /// Whether `gpu` is under an outstanding preemption notice.
    pub fn is_doomed(&self, gpu: GpuId) -> bool {
        self.pending_revocations.contains_key(&gpu)
    }

    /// Devices under an outstanding preemption notice, with their
    /// revocation deadlines. Placement-aware policies exclude these.
    pub fn doomed_gpus(&self) -> Vec<(GpuId, SimTime)> {
        self.pending_revocations
            .iter()
            .map(|(&g, &t)| (g, t))
            .collect()
    }

    /// Control-plane readiness delay of acquiring `gpu` at `now`.
    pub fn provisioning_delay(&self, gpu: GpuId, now: SimTime) -> SimDuration {
        if self.provisioner.is_instant(gpu, now) {
            SimDuration::ZERO
        } else {
            self.tier.elastic_delay
        }
    }

    /// Per-stage (range, gpu) placement of an instance.
    pub fn stage_placement(&self, id: InstanceId) -> Option<Vec<(OpRange, GpuId)>> {
        self.instances
            .get(id)
            .map(|i| i.stages.iter().map(|s| (s.range, s.gpu)).collect())
    }

    /// Pre-stages the parameters of `range` into `server`'s host memory
    /// (ServerlessLLM-style checkpoint placement). Subsequent loads of the
    /// range onto GPUs of that server run at PCIe speed. Returns whether
    /// host memory could be reserved; refreshing an existing entry always
    /// succeeds.
    pub fn prewarm_host_cache(&mut self, now: SimTime, range: OpRange, server: ServerId) -> bool {
        let key = (range.start, range.end);
        let expires = now + self.config.host_cache_ttl;
        if let Some(entry) = self.host_cache.get_mut(&key) {
            entry.expires = expires;
            return true;
        }
        let bytes = self.graph.range_param_bytes(range);
        match self.cluster.reserve_host(server, bytes) {
            Ok(lease) => {
                self.host_cache.insert(
                    key,
                    HostCacheEntry {
                        server,
                        lease,
                        expires,
                    },
                );
                true
            }
            Err(_) => false,
        }
    }

    fn select_gpus(
        &self,
        ranges: &[OpRange],
        placement: &Placement,
    ) -> Result<Vec<GpuId>, ActionError> {
        match placement {
            Placement::Explicit(gpus) => {
                if gpus.len() != ranges.len() {
                    return Err(ActionError::BadPlan(format!(
                        "{} gpus for {} stages",
                        gpus.len(),
                        ranges.len()
                    )));
                }
                let mut seen = std::collections::HashSet::new();
                for (&g, &r) in gpus.iter().zip(ranges) {
                    if self.gpus_in_use.contains(g) || !seen.insert(g) {
                        return Err(ActionError::NoCapacity(format!("gpu {g:?} already in use")));
                    }
                    let need = self.stage_mem_of(r, 1);
                    if self.cluster.free_mem(g) < need {
                        return Err(ActionError::NoCapacity(format!(
                            "gpu {g:?} lacks {need} bytes"
                        )));
                    }
                }
                Ok(gpus.clone())
            }
            Placement::FirstFit => {
                // Greedy best-fit: each stage takes the feasible GPU with
                // the most free memory. Picking barely-fitting devices
                // would collapse the joint batch capacity (Table 2's max
                // batch is memory-bound), starving admission.
                let mut chosen: Vec<GpuId> = Vec::with_capacity(ranges.len());
                for &r in ranges {
                    let need = self.stage_mem_of(r, 1);
                    let found = self
                        .cluster
                        .topology()
                        .gpus()
                        .iter()
                        .map(|g| g.id)
                        .filter(|&g| !self.gpus_in_use.contains(g) && !chosen.contains(&g))
                        .filter(|&g| self.cluster.free_mem(g) >= need)
                        .max_by_key(|&g| (self.cluster.free_mem(g), std::cmp::Reverse(g.0)))
                        .ok_or_else(|| {
                            ActionError::NoCapacity(format!(
                                "no gpu with {} MiB free for stage",
                                need >> 20
                            ))
                        })?;
                    chosen.push(found);
                }
                Ok(chosen)
            }
        }
    }

    /// Spawns an instance at lattice level `stages`; returns its id.
    ///
    /// `prewarmed` instances come up instantly — they model the standing
    /// deployment that exists before measurement starts (static systems
    /// are always-on; only *elastic* scale-outs pay provisioning and
    /// parameter-loading delays).
    pub fn spawn(
        &mut self,
        queue: &mut EventQueue<Event>,
        stages: u32,
        placement: Placement,
        prewarmed: bool,
    ) -> Result<InstanceId, ActionError> {
        let now = queue.now();
        let ranges: Vec<OpRange> = self
            .lattice
            .level(stages)
            .ok_or(ActionError::UnknownLevel(stages))?
            .ranges
            .clone();
        let gpus = self.select_gpus(&ranges, &placement)?;

        // Joint batch capacity over all stages given each device's memory.
        let batch_cap = ranges
            .iter()
            .zip(&gpus)
            .map(|(&r, &g)| self.max_batch_of(r, self.cluster.free_mem(g)))
            .min()
            .unwrap_or(0);
        if batch_cap == 0 {
            return Err(ActionError::NoCapacity(
                "batch capacity would be zero".into(),
            ));
        }

        let mut stage_runtimes = Vec::with_capacity(ranges.len());
        let mut ready = now;
        for (&r, &g) in ranges.iter().zip(&gpus) {
            let bytes = self.stage_mem_of(r, batch_cap);
            let lease = self
                .cluster
                .reserve_gpu(g, bytes)
                .map_err(|e| ActionError::NoCapacity(e.to_string()))?;
            let acq = self.provisioner.acquire(g, now);
            self.ledger.record_acquire(now);
            self.gpus_in_use.insert(g);
            if !prewarmed {
                let route = self.load_route(r, g);
                if route == Route::Storage {
                    self.cold_loads += 1;
                } else {
                    self.warm_loads += 1;
                }
                let load = self
                    .transfer
                    .duration_on(route, self.graph.range_param_bytes(r));
                ready = ready.max(acq.ready_at + load);
            }
            stage_runtimes.push(StageRuntime {
                range: r,
                terms: self.cost.stage_terms(&self.graph, r),
                gpu: g,
                lease,
                busy: false,
                input_decode: VecDeque::new(),
                input_prefill: VecDeque::new(),
                decode_streak: 0,
            });
        }

        let id = self.new_instance_id();
        self.instances.insert(Instance {
            id,
            stages: stage_runtimes,
            state: InstanceState::Loading,
            batch_cap,
            active_requests: 0,
            ubatches: Vec::new(),
            decode_ready: VecDeque::new(),
            decode_slots: DecodeSlotTracker::new(),
            admit_hold: false,
            compute_multiplier: 1.0,
            spawned_at: now,
            ready_at: None,
            epoch: 0,
        });
        self.reindex(id);
        self.spawns += 1;
        self.obs.record(
            now,
            TraceEvent::InstanceSpawn {
                instance: id.0,
                stages,
                prewarmed,
            },
        );
        if !prewarmed {
            self.init_latencies
                .push(ready.saturating_since(now).as_secs_f64());
        }
        queue
            .schedule(ready, Event::InstanceReady { id, epoch: 0 })
            .expect("ready time is in the future");
        Ok(id)
    }

    /// Marks an instance draining; it is released once empty.
    pub fn retire(&mut self, queue: &mut EventQueue<Event>, id: InstanceId) {
        let Some(inst) = self.instances.get_mut(id) else {
            return;
        };
        if matches!(inst.state, InstanceState::Draining) {
            return;
        }
        inst.state = InstanceState::Draining;
        let empty = inst.active_requests == 0;
        self.obs
            .record(queue.now(), TraceEvent::InstanceRetire { instance: id.0 });
        self.reindex(id);
        if empty {
            self.release_instance(queue.now(), id);
        }
    }

    pub(super) fn release_instance(&mut self, now: SimTime, id: InstanceId) {
        let Some(inst) = self.instances.remove(id) else {
            return;
        };
        self.obs
            .record(now, TraceEvent::InstanceRelease { instance: id.0 });
        // The instance is already gone from the map, so this resolves to a
        // `None` key (dropping it from the admission index) while also
        // recording the removal in the control plane's dirty set.
        self.reindex(id);
        for stage in inst.stages {
            self.release_stage_device(now, stage.gpu, stage.lease, stage.range);
        }
    }

    /// Releases one stage's device: frees the lease, parks parameters in
    /// the host cache (memory permitting) and returns the GPU to the
    /// provisioner's warm pool.
    pub(super) fn release_stage_device(
        &mut self,
        now: SimTime,
        gpu: GpuId,
        lease: LeaseId,
        range: OpRange,
    ) {
        let _ = self.cluster.release(lease);
        let server = self.cluster.topology().gpu(gpu).server;
        let bytes = self.graph.range_param_bytes(range);
        let key = (range.start, range.end);
        // Refresh or install the host-cache entry (memory permitting).
        let expires = now + self.config.host_cache_ttl;
        if let Some(entry) = self.host_cache.get_mut(&key) {
            entry.expires = expires;
        } else if let Ok(host_lease) = self.cluster.reserve_host(server, bytes) {
            self.host_cache.insert(
                key,
                HostCacheEntry {
                    server,
                    lease: host_lease,
                    expires,
                },
            );
        }
        self.provisioner.release(gpu, now);
        self.ledger.record_release(now);
        self.gpus_in_use.remove(gpu);
    }

    pub(super) fn expire_host_cache(&mut self, now: SimTime) {
        let expired: Vec<(u32, u32)> = self
            .host_cache
            .iter()
            .filter(|(_, e)| e.expires <= now)
            .map(|(&k, _)| k)
            .collect();
        for key in expired {
            if let Some(e) = self.host_cache.remove(&key) {
                let _ = self.cluster.release(e.lease);
            }
        }
    }

    /// Initiates an inflight refactor of `id` toward `plan`.
    ///
    /// The old topology keeps serving during `plan.prepare`; the switchover
    /// pauses the instance for `plan.pause`; afterwards the new topology is
    /// live with KV preserved.
    pub fn refactor(
        &mut self,
        queue: &mut EventQueue<Event>,
        id: InstanceId,
        plan: RefactorPlan,
    ) -> Result<(), ActionError> {
        let now = queue.now();
        let inst = self.instances.get(id).ok_or(ActionError::BadInstance(id))?;
        // Crippled instances refactor too: that is the inflight recovery
        // path — surviving stages are reused, dead ones land on fresh
        // devices, and no cold respawn happens.
        if !matches!(inst.state, InstanceState::Serving | InstanceState::Crippled) {
            return Err(ActionError::BadInstance(id));
        }
        if plan.new_ranges.len() != plan.assignments.len() {
            return Err(ActionError::BadPlan(
                "assignment/range length mismatch".into(),
            ));
        }
        // Validate assignments: reuse indices in range and unique; fresh
        // GPUs unused and not duplicated.
        let mut reuse_seen = std::collections::HashSet::new();
        let mut fresh_seen = std::collections::HashSet::new();
        for a in &plan.assignments {
            match *a {
                StageAssign::Reuse { old_index } => {
                    if old_index as usize >= inst.stages.len() || !reuse_seen.insert(old_index) {
                        return Err(ActionError::BadPlan(format!("bad reuse {old_index}")));
                    }
                }
                StageAssign::Fresh { gpu } => {
                    if self.gpus_in_use.contains(gpu)
                        || self.cluster.is_revoked(gpu)
                        || !fresh_seen.insert(gpu)
                    {
                        return Err(ActionError::NoCapacity(format!("gpu {gpu:?} unavailable")));
                    }
                }
            }
        }
        // Acquire fresh GPUs now; they provision and load during prepare.
        let mut fresh_acquired = Vec::new();
        for a in &plan.assignments {
            if let StageAssign::Fresh { gpu } = *a {
                self.provisioner.acquire(gpu, now);
                self.ledger.record_acquire(now);
                self.gpus_in_use.insert(gpu);
                fresh_acquired.push(gpu);
            }
        }
        let epoch = inst.epoch;
        let prepare = plan.prepare;
        let from_crippled = inst.state == InstanceState::Crippled;
        let from_stages = inst.stages.len() as u32;
        let to_stages = plan.new_ranges.len() as u32;
        self.pending_refactors.insert(
            id,
            PendingRefactor {
                plan,
                fresh_acquired,
                from_crippled,
            },
        );
        let inst = self.instances.get_mut(id).expect("checked above");
        inst.state = InstanceState::Preparing;
        if from_crippled {
            // A normal refactor keeps serving on the complete old topology
            // during preparation; a crippled rebuild has no complete
            // topology to serve on. Hold admissions until the commit
            // (which clears the hold) so requests never traverse a
            // pipeline with missing layers.
            inst.admit_hold = true;
        }
        self.reindex(id);
        self.obs.record(
            now,
            TraceEvent::RefactorPrepare {
                instance: id.0,
                from_stages,
                to_stages,
            },
        );
        queue
            .schedule(now + prepare, Event::PrepareDone { id, epoch })
            .expect("future");
        Ok(())
    }

    pub(super) fn on_prepare_done(
        &mut self,
        queue: &mut EventQueue<Event>,
        id: InstanceId,
        epoch: u64,
    ) {
        let Some(inst) = self.instances.get_mut(id) else {
            return;
        };
        if inst.epoch != epoch || inst.state != InstanceState::Preparing {
            return;
        }
        inst.state = InstanceState::Paused;
        self.obs
            .record(queue.now(), TraceEvent::RefactorPause { instance: id.0 });
        self.reindex(id);
        let pause = self
            .pending_refactors
            .get(&id)
            .map(|p| p.plan.pause)
            .unwrap_or(SimDuration::ZERO);
        self.refactor_pause_secs += pause.as_secs_f64();
        queue
            .schedule(queue.now() + pause, Event::PauseDone { id, epoch })
            .expect("future");
    }

    pub(super) fn on_pause_done(
        &mut self,
        queue: &mut EventQueue<Event>,
        id: InstanceId,
        epoch: u64,
    ) {
        let now = queue.now();
        let Some(pending) = self.pending_refactors.remove(&id) else {
            return;
        };
        let Some(inst) = self.instances.get(id) else {
            return;
        };
        if inst.epoch != epoch || inst.state != InstanceState::Paused {
            return;
        }
        let plan = pending.plan;

        // Compute the per-stage available memory: a reused device offers
        // its current free memory plus the old lease being replaced; a
        // fresh device offers its free memory.
        let old_stages: Vec<(GpuId, LeaseId, OpRange)> = inst
            .stages
            .iter()
            .map(|s| (s.gpu, s.lease, s.range))
            .collect();
        let target_gpu = |a: &StageAssign| -> GpuId {
            match *a {
                StageAssign::Reuse { old_index } => old_stages[old_index as usize].0,
                StageAssign::Fresh { gpu } => gpu,
            }
        };
        let mut batch_cap = u32::MAX;
        for (a, &r) in plan.assignments.iter().zip(&plan.new_ranges) {
            let gpu = target_gpu(a);
            let mut avail = self.cluster.free_mem(gpu);
            if let StageAssign::Reuse { old_index } = *a {
                avail += self
                    .cluster
                    .lease(old_stages[old_index as usize].1)
                    .map(|l| l.bytes)
                    .unwrap_or(0);
            }
            batch_cap = batch_cap.min(self.max_batch_of(r, avail));
        }
        // A fresh device that is revoked, past its preemption deadline, or
        // named by a zero-grace scripted revocation firing at this same
        // virtual instant is doomed: committing onto it would race the
        // revocation's cancellation of this very refactor, and the
        // same-time pop order of PauseDone vs the revocation would decide
        // between RefactorCommit-then-Crippled and RefactorAbort. Abort
        // deterministically instead — exactly what `apply_revocation` does
        // when it pops first — so the two orders commute.
        let fresh_doomed = plan.assignments.iter().any(
            |a| matches!(*a, StageAssign::Fresh { gpu } if self.fresh_target_doomed(now, gpu)),
        );
        if fresh_doomed || batch_cap < (inst.active_requests / 2).max(1) {
            // Abort: the new layout sits on doomed capacity, or cannot
            // hold a useful share of the live load (background tenants
            // grew under us, a consolidation raced an admission burst, or
            // a second revocation killed the rebuild's fresh devices).
            // Return fresh GPUs and resume the old topology untouched —
            // unless the refactor was a crippled rebuild, whose "old
            // topology" is incomplete and must stay Crippled (the policy
            // retries or cold-respawns).
            for gpu in pending.fresh_acquired {
                self.provisioner.release(gpu, now);
                self.ledger.record_release(now);
                self.gpus_in_use.remove(gpu);
            }
            self.obs
                .record(now, TraceEvent::RefactorAbort { instance: id.0 });
            if pending.from_crippled {
                // A failed rebuild has no complete topology to fall back
                // to, and no later hook retries an abort: release the
                // survivors (their parameters park in the host cache) so
                // the policy's scaling loop rebuilds capacity through its
                // normal spawn path instead of stranding the instance —
                // and its GPUs — in Crippled forever.
                self.release_instance(now, id);
            } else {
                let inst = self.instances.get_mut(id).expect("present");
                inst.state = InstanceState::Serving;
                self.reindex(id);
                self.resume_instance(queue, id);
            }
            return;
        }

        // Commit: release every old lease, then reserve the new layout.
        let reused: std::collections::HashSet<u32> = plan
            .assignments
            .iter()
            .filter_map(|a| match *a {
                StageAssign::Reuse { old_index } => Some(old_index),
                _ => None,
            })
            .collect();
        for (i, &(gpu, lease, range)) in old_stages.iter().enumerate() {
            if reused.contains(&(i as u32)) {
                let _ = self.cluster.release(lease);
            } else {
                // Device leaves the instance entirely.
                self.release_stage_device(now, gpu, lease, range);
            }
        }
        let mut new_stages = Vec::with_capacity(plan.new_ranges.len());
        for (a, &r) in plan.assignments.iter().zip(&plan.new_ranges) {
            let gpu = target_gpu(a);
            let bytes = self.stage_mem_of(r, batch_cap);
            let lease = self
                .cluster
                .reserve_gpu(gpu, bytes)
                .expect("fit checked via batch_cap computation");
            new_stages.push(StageRuntime {
                range: r,
                terms: self.cost.stage_terms(&self.graph, r),
                gpu,
                lease,
                busy: false,
                input_decode: VecDeque::new(),
                input_prefill: VecDeque::new(),
                decode_streak: 0,
            });
        }

        let inst = self.instances.get_mut(id).expect("present");
        inst.stages = new_stages;
        inst.batch_cap = batch_cap;
        inst.state = InstanceState::Serving;
        inst.admit_hold = false;
        inst.epoch += 1;
        let new_epoch = inst.epoch;
        let ubs = inst.ubatches.clone();
        self.reindex(id);
        self.refactors += 1;
        self.obs.record(
            now,
            TraceEvent::RefactorCommit {
                instance: id.0,
                stages: plan.new_ranges.len() as u32,
                epoch: new_epoch,
            },
        );

        // Relaunch live micro-batches at stage 0 of the new topology; their
        // KV caches were kept consistent by the §6.3 protocol, so decode
        // continues from the current token positions. Membership (and
        // therefore the decode-slot count) is unchanged.
        for ub_id in ubs {
            if let Some(ub) = self.ubatches.get_mut(&ub_id) {
                ub.pass_started = now;
                ub.pass_compute_secs = 0.0;
                ub.pass_comm_secs = 0.0;
                queue.schedule_now(Event::StageArrive {
                    id,
                    epoch: new_epoch,
                    stage: 0,
                    ub: ub_id,
                });
            }
        }
    }
}
