//! Micro-batch execution: stage scheduling, pass completion, the
//! continuous-batching decode dispatcher and gateway admission.
//!
//! Two hot paths here are incremental: admission selects from the
//! [`crate::admission::AdmissionIndex`] (O(log instances) per request),
//! and the decode dispatcher reads the per-instance
//! [`super::indexes::DecodeSlotTracker`] (O(1) per launch) instead of
//! recounting in-flight decode micro-batches. The naive scans they
//! replaced survive only as debug-build validators, checked on every
//! consultation.

use std::collections::BTreeMap;

use flexpipe_cluster::Endpoint;
use flexpipe_metrics::RequestOutcome;
use flexpipe_model::OpId;
use flexpipe_obs::TraceEvent;
use flexpipe_sim::{EventQueue, SimDuration, SimTime};
use flexpipe_workload::RequestId;

use crate::instance::{InstanceId, InstanceState, MicroBatch, Phase, UbatchId};

use super::{EngineState, Event};

impl EngineState {
    pub(super) fn resume_instance(&mut self, queue: &mut EventQueue<Event>, id: InstanceId) {
        let Some(inst) = self.instances.get(id) else {
            return;
        };
        let epoch = inst.epoch;
        for s in 0..inst.stages.len() {
            self.try_start_stage(queue, id, epoch, s as u16);
        }
    }

    pub(super) fn try_start_stage(
        &mut self,
        queue: &mut EventQueue<Event>,
        id: InstanceId,
        epoch: u64,
        stage: u16,
    ) {
        // Iterative (not recursive): a long run of dissolved micro-batches
        // — e.g. after a revocation killed them — must not grow the stack
        // proportionally to the queue length.
        let Some(inst) = self.instances.get_mut(id) else {
            return;
        };
        if inst.epoch != epoch || inst.state == InstanceState::Paused {
            return;
        }
        let s = stage as usize;
        if s >= inst.stages.len() || inst.stages[s].busy {
            return;
        }
        loop {
            let Some((ub_id, _)) = inst.stages[s].pop_next() else {
                return;
            };
            let Some(ub) = self.ubatches.get_mut(&ub_id) else {
                // Dissolved micro-batch: skip and try the next one.
                continue;
            };
            let gpu = inst.stages[s].gpu;
            let terms = inst.stages[s].terms;
            let mult = inst.compute_multiplier;
            inst.stages[s].busy = true;
            let base = self.cost.pass_compute(terms, ub.pass_tokens);
            debug_assert_eq!(
                base,
                self.cost
                    .stage_compute(&self.graph, inst.stages[s].range, ub.pass_tokens),
                "cached stage terms diverged from the cost model"
            );
            let slowdown = 1.0 + self.config.interference_coeff * self.cluster.load(gpu).bg_sm;
            let dur = base.mul_f64(slowdown * mult);
            let secs = dur.as_secs_f64();
            ub.pass_compute_secs += secs;
            *self.gpu_busy[gpu.0 as usize].get_or_insert(0.0) += secs;
            queue
                .schedule_after(
                    dur,
                    Event::StageDone {
                        id,
                        epoch,
                        stage,
                        ub: ub_id,
                    },
                )
                .expect("future");
            return;
        }
    }

    pub(super) fn on_stage_arrive(
        &mut self,
        queue: &mut EventQueue<Event>,
        id: InstanceId,
        epoch: u64,
        stage: u16,
        ub: UbatchId,
    ) {
        let Some(inst) = self.instances.get_mut(id) else {
            return;
        };
        if inst.epoch != epoch {
            return;
        }
        let s = stage as usize;
        if s >= inst.stages.len() {
            return;
        }
        // Two-class scheduling: decode passes are latency-critical and
        // preferred, but the streak limit in `pop_next` guarantees prefill
        // progress (without it either class convoys behind the other).
        let is_decode = self
            .ubatches
            .get(&ub)
            .is_some_and(|u| u.phase == Phase::Decode);
        if is_decode {
            inst.stages[s].input_decode.push_back(ub);
        } else {
            inst.stages[s].input_prefill.push_back(ub);
        }
        self.try_start_stage(queue, id, epoch, stage);
    }

    pub(super) fn on_stage_done(
        &mut self,
        queue: &mut EventQueue<Event>,
        id: InstanceId,
        epoch: u64,
        stage: u16,
        ub_id: UbatchId,
    ) {
        let now = queue.now();
        let Some(inst) = self.instances.get_mut(id) else {
            return;
        };
        if inst.epoch != epoch {
            return;
        }
        let s = stage as usize;
        inst.stages[s].busy = false;
        let stage_count = inst.stages.len();
        let last = s + 1 == stage_count;
        if !last {
            // Forward over the inter-stage hop.
            let src = inst.stages[s].gpu;
            let dst = inst.stages[s + 1].gpu;
            let boundary = OpId(inst.stages[s].range.end - 1);
            let mut ub = self.ubatches.get_mut(&ub_id);
            let tokens = ub.as_ref().map_or(0, |u| u.pass_tokens);
            let bytes = match self.config.batch_scaling {
                // Eq. (3): profiled bytes at b_base, scaled sub-linearly to
                // the actual pass batch.
                Some(scaling) => {
                    let base_tokens = scaling.b_base.max(1.0);
                    let s_base = self
                        .cost
                        .hop_bytes(&self.graph, boundary, base_tokens as u64)
                        as f64;
                    scaling.scale(s_base, tokens as f64) as u64
                }
                None => self.cost.hop_bytes(&self.graph, boundary, tokens),
            };
            let hop = self.transfer.duration(
                &self.cluster,
                Endpoint::Gpu(src),
                Endpoint::Gpu(dst),
                bytes,
            );
            if let Some(ub) = ub.as_mut() {
                ub.pass_comm_secs += hop.as_secs_f64();
            }
            queue
                .schedule_after(
                    hop,
                    Event::StageArrive {
                        id,
                        epoch,
                        stage: stage + 1,
                        ub: ub_id,
                    },
                )
                .expect("future");
        } else {
            self.finish_pass(queue, id, epoch, ub_id, now);
        }
        self.try_start_stage(queue, id, epoch, stage);
    }

    fn finish_pass(
        &mut self,
        queue: &mut EventQueue<Event>,
        id: InstanceId,
        epoch: u64,
        ub_id: UbatchId,
        now: SimTime,
    ) {
        let Some(mut ub) = self.ubatches.remove(&ub_id) else {
            return;
        };
        let generative = self.graph.config().generative;
        let mut completed: Vec<RequestId> = Vec::new();

        // Attribute the pass's compute/comm to every member.
        for &rid in &ub.members {
            let r = &mut self.reqs[rid.0 as usize];
            r.exec_secs += ub.pass_compute_secs;
            r.comm_secs += ub.pass_comm_secs;
        }

        // Chunked prefill: more prompt tokens to process → immediately
        // re-enter stage 0 with the next chunk.
        if ub.phase == Phase::Prefill && ub.prefill_remaining > 0 {
            let chunk = self.config.prefill_token_cap.max(1);
            ub.pass_tokens = ub.prefill_remaining.min(chunk);
            ub.prefill_remaining -= ub.pass_tokens;
            ub.pass_started = now;
            ub.pass_compute_secs = 0.0;
            ub.pass_comm_secs = 0.0;
            self.ubatches.insert(ub_id, ub);
            queue.schedule_now(Event::StageArrive {
                id,
                epoch,
                stage: 0,
                ub: ub_id,
            });
            return;
        }

        // Survivors return to the decode-ready pool; the dispatcher below
        // re-coalesces them into full micro-batches (continuous batching).
        let mut survivors: Vec<RequestId> = Vec::new();
        match ub.phase {
            Phase::Prefill => {
                for &rid in &ub.members {
                    self.reqs[rid.0 as usize].prefill_done = Some(now);
                    self.obs.record(
                        now,
                        TraceEvent::RequestPrefillDone {
                            req: rid.0,
                            instance: id.0,
                        },
                    );
                }
                if generative {
                    survivors.append(&mut ub.members);
                } else {
                    completed.append(&mut ub.members);
                }
            }
            Phase::Decode => {
                for &rid in &ub.members {
                    let r = &mut self.reqs[rid.0 as usize];
                    r.generated += 1;
                    if r.generated >= r.req.output_tokens {
                        completed.push(rid);
                    } else {
                        survivors.push(rid);
                    }
                }
            }
        }

        for rid in completed {
            self.complete_request(now, id, rid);
        }

        // The micro-batch always dissolves; members regroup at launch.
        let _ = epoch;
        if let Some(inst) = self.instances.get_mut(id) {
            inst.ubatches.retain(|&u| u != ub_id);
            if ub.phase == Phase::Decode {
                inst.decode_slots.dissolved();
            }
            inst.decode_ready.extend(survivors);
            // Membership changed but the admission key did not.
            self.mark_policy_dirty(id);
        }
        self.launch_decode(queue, id);

        // Capacity freed → try to admit more traffic; drained instances
        // may now release.
        let release = self
            .instances
            .get(id)
            .map(|i| i.state == InstanceState::Draining && i.active_requests == 0)
            .unwrap_or(false);
        if release {
            self.release_instance(now, id);
        }
        self.drain_gateway(queue);
    }

    /// The continuous-batching dispatcher: launches decode micro-batches
    /// from the ready pool while the pipeline has free slots.
    ///
    /// Launch policy: keep a *small* number of large micro-batches in
    /// flight rather than many small ones — decode passes pay the
    /// weight-read floor regardless of batch size, so splitting the active
    /// set across extra passes wastes HBM bandwidth (Table 2's batching
    /// argument). The slot budget is about half the pipeline depth (prefill
    /// chunks fill the remaining stages), and a launch waits until the
    /// ready pool reaches its fair share of the active set unless the pipe
    /// would otherwise go idle.
    ///
    /// The in-flight decode count reads the per-instance
    /// [`super::indexes::DecodeSlotTracker`] — O(1) instead of rescanning
    /// the instance's micro-batch list with a map lookup per entry; debug
    /// builds recount the list and compare on every launch decision.
    pub(super) fn launch_decode(&mut self, queue: &mut EventQueue<Event>, id: InstanceId) {
        loop {
            let Some(inst) = self.instances.get_mut(id) else {
                return;
            };
            if inst.state == InstanceState::Paused {
                return;
            }
            let limit = (inst.stages.len() / 2 + 1).max(2);
            if inst.decode_ready.is_empty() {
                return;
            }
            let decode_in_flight = inst.decode_slots.in_flight() as usize;
            debug_assert_eq!(
                decode_in_flight,
                inst.ubatches
                    .iter()
                    .filter(|u| {
                        self.ubatches
                            .get(u)
                            .is_some_and(|ub| ub.phase == Phase::Decode)
                    })
                    .count(),
                "decode-slot tracker diverged from the micro-batch list"
            );
            if decode_in_flight >= limit {
                return;
            }
            // Fair-share batching delay: wait for the pool to accumulate
            // ~active/limit members before launching, unless no decode is
            // in flight at all (never idle the pipe for batching).
            let target = ((inst.active_requests as usize) / limit)
                .clamp(1, self.config.ubatch_size as usize);
            if decode_in_flight > 0 && inst.decode_ready.len() < target {
                return;
            }
            let take = (self.config.ubatch_size as usize).min(inst.decode_ready.len());
            let members: Vec<RequestId> = inst.decode_ready.drain(..take).collect();
            let epoch = inst.epoch;
            let ub_id = {
                self.next_ubatch += 1;
                UbatchId(self.next_ubatch)
            };
            let inst = self.instances.get_mut(id).expect("checked above");
            inst.ubatches.push(ub_id);
            inst.decode_slots.launched();
            // Membership changed but the admission key did not.
            self.mark_policy_dirty(id);
            let tokens = members.len() as u64;
            self.ubatches.insert(
                ub_id,
                MicroBatch {
                    id: ub_id,
                    members,
                    phase: Phase::Decode,
                    pass_tokens: tokens,
                    prefill_remaining: 0,
                    pass_started: queue.now(),
                    pass_compute_secs: 0.0,
                    pass_comm_secs: 0.0,
                },
            );
            self.obs.record(
                queue.now(),
                TraceEvent::DecodeLaunch {
                    instance: id.0,
                    ubatch: ub_id.0,
                    members: tokens as u32,
                },
            );
            queue.schedule_now(Event::StageArrive {
                id,
                epoch,
                stage: 0,
                ub: ub_id,
            });
        }
    }

    pub(super) fn complete_request(&mut self, now: SimTime, inst_id: InstanceId, rid: RequestId) {
        let r = &mut self.reqs[rid.0 as usize];
        if r.done {
            return;
        }
        r.done = true;
        let generated = r.generated;
        let admitted = r.admitted.unwrap_or(r.req.arrival);
        let latency = now.saturating_since(r.req.arrival).as_secs_f64();
        let exec = r.exec_secs.min(latency);
        let comm = r.comm_secs.min(latency - exec);
        let queue_secs = (latency - exec - comm).max(0.0);
        let prefill = r
            .prefill_done
            .map(|p| p.saturating_since(admitted))
            .unwrap_or(SimDuration::ZERO);
        self.outcomes.record(RequestOutcome {
            id: rid.0,
            arrival: r.req.arrival,
            completion: now,
            queue: SimDuration::from_secs_f64(queue_secs),
            execution: SimDuration::from_secs_f64(exec),
            communication: SimDuration::from_secs_f64(comm),
            prefill,
            slo: r.req.slo,
            prompt_tokens: r.req.prompt_tokens,
            output_tokens: r.req.output_tokens,
        });
        self.obs.record(
            now,
            TraceEvent::RequestComplete {
                req: rid.0,
                instance: inst_id.0,
                generated,
            },
        );
        if let Some(inst) = self.instances.get_mut(inst_id) {
            inst.active_requests = inst.active_requests.saturating_sub(1);
            self.reindex(inst_id);
        }
    }

    /// Admits queued requests to instances with capacity and launches
    /// prefill micro-batches.
    ///
    /// Selection is least-loaded-first with id tie-break, read from the
    /// incrementally maintained [`crate::admission::AdmissionIndex`] —
    /// O(log instances) per admission instead of a rescan of every
    /// instance per request. The index keys on the load factor's bit
    /// pattern, so it picks exactly what the rescan would; debug builds
    /// check it against instance state at the start of every drain.
    pub fn drain_gateway(&mut self, queue: &mut EventQueue<Event>) {
        #[cfg(debug_assertions)]
        self.debug_validate_admission_index();
        let now = queue.now();
        // Per-instance groups formed this round (BTreeMap: launch order
        // must not depend on hash order).
        let mut formed: BTreeMap<InstanceId, Vec<RequestId>> = BTreeMap::new();
        while let Some(&rid) = self.gateway.front() {
            // Least-loaded admissible instance.
            let Some(target) = self.admission.best() else {
                break;
            };
            self.gateway.pop_front();
            let r = &mut self.reqs[rid.0 as usize];
            r.admitted = Some(now);
            let inst = self.instances.get_mut(target).expect("selected above");
            inst.active_requests += 1;
            self.obs.record(
                now,
                TraceEvent::RequestAdmit {
                    req: rid.0,
                    instance: target.0,
                },
            );
            self.reindex(target);
            formed.entry(target).or_default().push(rid);
        }
        // Launch prefill micro-batches per instance, respecting the
        // prefill batch/token caps.
        for (inst_id, rids) in formed {
            let epoch = match self.instances.get(inst_id) {
                Some(i) => i.epoch,
                None => continue,
            };
            let mut group: Vec<RequestId> = Vec::new();
            let mut tokens = 0u64;
            let launch = |state: &mut EngineState,
                          queue: &mut EventQueue<Event>,
                          group: &mut Vec<RequestId>,
                          tokens: &mut u64| {
                if group.is_empty() {
                    return;
                }
                let ub_id = state.new_ubatch_id();
                let members = std::mem::take(group);
                let chunk = state.config.prefill_token_cap.max(1);
                let first = (*tokens).min(chunk);
                state.ubatches.insert(
                    ub_id,
                    MicroBatch {
                        id: ub_id,
                        members,
                        phase: Phase::Prefill,
                        pass_tokens: first,
                        prefill_remaining: *tokens - first,
                        pass_started: queue.now(),
                        pass_compute_secs: 0.0,
                        pass_comm_secs: 0.0,
                    },
                );
                if let Some(inst) = state.instances.get_mut(inst_id) {
                    inst.ubatches.push(ub_id);
                }
                queue.schedule_now(Event::StageArrive {
                    id: inst_id,
                    epoch,
                    stage: 0,
                    ub: ub_id,
                });
                *tokens = 0;
            };
            for rid in rids {
                let prompt = u64::from(self.reqs[rid.0 as usize].req.prompt_tokens);
                if group.len() as u32 >= self.config.prefill_batch {
                    launch(self, queue, &mut group, &mut tokens);
                }
                group.push(rid);
                tokens += prompt;
            }
            launch(self, queue, &mut group, &mut tokens);
        }
    }
}
