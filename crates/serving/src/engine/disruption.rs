//! Capacity disruption handling: revocation execution, rescue accounting,
//! capacity restores, preemption grace windows and recovery tracking.
//!
//! The hot-server query that resolves rank-targeted preemptions reads the
//! cluster's incrementally maintained server-load ranking
//! ([`flexpipe_cluster::ServerLoadIndex`], updated on every serving-lease
//! change) — O(rank + log servers) instead of rebuilding and sorting the
//! full server list per query. The naive rebuild survives only as a
//! debug-build validator, checked on every consultation.

use std::collections::BTreeSet;

use flexpipe_chaos::Disruption;
use flexpipe_cluster::{GpuId, ServerId};
use flexpipe_obs::TraceEvent;
use flexpipe_sim::{EventQueue, SimDuration, SimTime};
use flexpipe_workload::RequestId;

use crate::instance::{InstanceId, InstanceState, Phase};
use crate::policy::{CrippledInstance, DisruptionNotice, StageAssign};

use super::{Engine, EngineState, Event};

impl EngineState {
    /// Resolves the `rank`-th busiest server by serving-leased bytes
    /// (ties toward the lowest id), skipping fully revoked servers.
    ///
    /// Reads the cluster's server-load ranking; debug builds assert on
    /// every query that the naive rebuild-and-sort picks the same server.
    pub(super) fn hottest_server(&self, rank: u32) -> Option<ServerId> {
        let picked = self.cluster.nth_hottest_server(rank);
        debug_assert_eq!(
            picked,
            self.hottest_server_naive(rank),
            "server-load index diverged from the naive ranking at rank {rank}"
        );
        picked
    }

    /// The naive reference the debug build checks against: rebuild the
    /// (bytes, server) list and sort it per query — O(servers × GPUs +
    /// servers log servers).
    fn hottest_server_naive(&self, rank: u32) -> Option<ServerId> {
        let topo = self.cluster.topology();
        let mut servers: Vec<(u64, ServerId)> = (0..topo.server_count() as u32)
            .map(ServerId)
            .filter(|&s| topo.gpus_on(s).iter().any(|&g| !self.cluster.is_revoked(g)))
            .map(|s| {
                let bytes: u64 = topo
                    .gpus_on(s)
                    .iter()
                    .map(|&g| self.cluster.load(g).serving_mem)
                    .sum();
                (bytes, s)
            })
            .collect();
        servers.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        servers.get(rank as usize).map(|&(_, s)| s)
    }

    /// Whether a refactor's fresh target device is doomed at `now`: already
    /// revoked, past a preemption deadline, or named by a zero-grace
    /// scripted revocation firing at this same virtual instant (whose
    /// `Disruption` pop may still be behind us in the same-time batch).
    ///
    /// This is what makes the refactor commit commute with a same-instant
    /// revocation of its fresh device: whichever pops first, the refactor
    /// aborts — `apply_revocation` cancels it outright, and
    /// [`EngineState::on_pause_done`] consults this predicate instead of
    /// committing a stage onto a device that is gone in the same instant.
    /// (A zero-grace `HotServerPreempt` stays rank-resolved at its own pop
    /// and is not predicted here; no committed scenario overlaps one with
    /// a commit instant.)
    pub(super) fn fresh_target_doomed(&self, now: SimTime, gpu: GpuId) -> bool {
        if self.cluster.is_revoked(gpu) {
            return true;
        }
        if self
            .pending_revocations
            .get(&gpu)
            .is_some_and(|&deadline| deadline <= now)
        {
            return true;
        }
        let server = self.cluster.topology().gpu(gpu).server;
        self.script.events.iter().any(|ev| {
            let at = SimTime::from_secs_f64(ev.at_secs.max(0.0));
            if at != now || at >= self.horizon {
                return false;
            }
            match ev.kind {
                Disruption::GpuFail { gpu: g } => GpuId(g) == gpu,
                Disruption::ServerPreempt {
                    server: s,
                    grace_secs,
                } => grace_secs <= 0.0 && ServerId(s) == server,
                _ => false,
            }
        })
    }

    /// Executes a capacity revocation: invalidates cluster state, evicts
    /// the devices from the provisioner, kills in-flight micro-batches on
    /// dead stages (epoch-guarded, so their stale events no-op) and
    /// replays the destroyed requests at the gateway front. Returns the
    /// notice handed to the policy.
    pub(super) fn apply_revocation(
        &mut self,
        queue: &mut EventQueue<Event>,
        gpus: &[GpuId],
    ) -> DisruptionNotice {
        let now = queue.now();
        let mut revoked: Vec<GpuId> = Vec::new();
        for &g in gpus {
            if self.cluster.is_revoked(g) {
                continue;
            }
            self.cluster.revoke_gpu(g);
            revoked.push(g);
            if self.gpus_in_use.remove(g) {
                self.ledger.record_release(now);
            }
            self.provisioner.evict(g);
            self.pending_revocations.remove(&g);
        }
        if revoked.is_empty() {
            return DisruptionNotice {
                revoked_gpus: revoked,
                crippled: Vec::new(),
            };
        }

        // A fully revoked server takes its host-memory parameter cache
        // down with it.
        let dead_servers: BTreeSet<ServerId> = revoked
            .iter()
            .map(|&g| self.cluster.topology().gpu(g).server)
            .filter(|&s| {
                self.cluster
                    .topology()
                    .gpus_on(s)
                    .iter()
                    .all(|&g| self.cluster.is_revoked(g))
            })
            .collect();
        for &s in &dead_servers {
            self.cluster.revoke_host(s);
        }
        self.host_cache
            .retain(|_, e| !dead_servers.contains(&e.server));

        // A pending refactor whose *plan* targets a revoked device is
        // void — even on instances that are not wounded. Cancel it
        // outright: leaving the stale `Fresh` assignment in place would
        // let a capacity *restore* before PauseDone commit a stage onto a
        // device nobody tracks as in use. Remaining fresh acquisitions
        // return to the pool (revoked ones were already evicted above).
        let cancelled: Vec<InstanceId> = self
            .pending_refactors
            .iter()
            .filter(|(_, p)| {
                p.plan
                    .assignments
                    .iter()
                    .any(|a| matches!(a, StageAssign::Fresh { gpu } if revoked.contains(gpu)))
            })
            .map(|(&id, _)| id)
            .collect();
        for id in cancelled {
            let pending = self.pending_refactors.remove(&id).expect("listed above");
            for g in pending.fresh_acquired {
                if revoked.contains(&g) {
                    continue;
                }
                self.provisioner.release(g, now);
                if self.gpus_in_use.remove(g) {
                    self.ledger.record_release(now);
                }
            }
            let Some(inst) = self.instances.get_mut(id) else {
                continue;
            };
            if inst.stages.iter().any(|s| revoked.contains(&s.gpu)) {
                // The instance itself is wounded too: the wound loop
                // below owns its state transition.
                continue;
            }
            // The revocation aborted this refactor even though the
            // instance survives; record the abort so trace consumers (the
            // schedule-equivalence checker in particular) can see the
            // cancel-vs-commit race instead of a silent no-op.
            self.obs
                .record(now, TraceEvent::RefactorAbort { instance: id.0 });
            if pending.from_crippled {
                // A cancelled rebuild leaves no complete topology and no
                // retry hook: release the survivors so the policy's
                // scaling loop replaces the capacity.
                self.release_instance(now, id);
            } else {
                // The complete old topology kept serving during
                // preparation; resume it. The already-scheduled
                // PrepareDone/PauseDone events no-op (state mismatch /
                // missing pending entry).
                inst.state = InstanceState::Serving;
                self.reindex(id);
                self.resume_instance(queue, id);
                self.launch_decode(queue, id);
            }
        }

        // Wound every instance with a stage on a revoked device.
        let wounded: Vec<InstanceId> = self
            .instances
            .values()
            .filter(|i| i.stages.iter().any(|s| revoked.contains(&s.gpu)))
            .map(|i| i.id)
            .collect();
        let mut crippled = Vec::new();
        for id in wounded {
            // A refactor in flight toward a now-dead device is void: its
            // fresh acquisitions return to the pool.
            if let Some(pending) = self.pending_refactors.remove(&id) {
                for g in pending.fresh_acquired {
                    self.provisioner.release(g, now);
                    if self.gpus_in_use.remove(g) {
                        self.ledger.record_release(now);
                    }
                }
            }
            let inst = self.instances.get_mut(id).expect("listed above");
            inst.epoch += 1; // stale StageArrive/StageDone/Prepare/Pause events drop
            let original = inst.stages.len() as u32;
            let prior_state = inst.state;

            // Collect the requests whose progress dies with the stages:
            // everything admitted to this instance (KV spans all stages,
            // losing one loses the layers it held).
            let mut rids: Vec<RequestId> = inst.decode_ready.drain(..).collect();
            let mut lost: u64 = 0;
            for ub_id in std::mem::take(&mut inst.ubatches) {
                if let Some(ub) = self.ubatches.remove(&ub_id) {
                    if ub.phase == Phase::Prefill {
                        // Prompt tokens already prefilled by earlier chunks.
                        let total: u64 = ub
                            .members
                            .iter()
                            .map(|r| u64::from(self.reqs[r.0 as usize].req.prompt_tokens))
                            .sum();
                        lost += total.saturating_sub(ub.prefill_remaining + ub.pass_tokens);
                    }
                    rids.extend(ub.members);
                }
            }
            // Every in-flight micro-batch (decode ones included) just
            // dissolved with the list above.
            inst.decode_slots.reset();
            rids.sort_unstable();
            rids.dedup();
            for &rid in &rids {
                let r = &mut self.reqs[rid.0 as usize];
                if r.prefill_done.is_some() {
                    lost += u64::from(r.req.prompt_tokens);
                }
                lost += u64::from(r.generated);
                r.generated = 0;
                r.prefill_done = None;
                r.admitted = None;
            }
            // Replay at the gateway *front*, oldest first: these are the
            // system's oldest outstanding requests.
            for &rid in rids.iter().rev() {
                self.gateway.push_front(rid);
            }
            inst.active_requests = 0;
            for &rid in &rids {
                self.obs.record(
                    now,
                    TraceEvent::RequestAbort {
                        req: rid.0,
                        instance: id.0,
                    },
                );
            }

            self.disruptions.record_aborted(rids.len() as u32);
            self.disruptions.record_replayed(rids.len() as u32);
            self.disruptions.record_tokens_lost(lost);

            match prior_state {
                InstanceState::Loading => {
                    // Parameters never finished loading, so the surviving
                    // devices hold nothing worth keeping: the spawn is a
                    // total loss. Release survivors raw — no host-cache
                    // parking of parameters that were never resident — and
                    // do not report the instance as crippled (there is
                    // nothing to rebuild around; the policy's scaling loop
                    // re-spawns through its normal path).
                    let inst = self.instances.remove(id).expect("listed above");
                    for s in inst.stages {
                        if revoked.contains(&s.gpu) {
                            continue;
                        }
                        let _ = self.cluster.release(s.lease);
                        self.provisioner.release(s.gpu, now);
                        if self.gpus_in_use.remove(s.gpu) {
                            self.ledger.record_release(now);
                        }
                    }
                }
                InstanceState::Draining => {
                    // The policy already decided to shed this instance;
                    // the revocation merely finishes the job. Complete the
                    // retirement (survivors park their parameters) instead
                    // of resurrecting capacity the policy did not want.
                    let inst = self.instances.get_mut(id).expect("listed above");
                    inst.stages.retain(|s| !revoked.contains(&s.gpu));
                    self.release_instance(now, id);
                }
                _ => {
                    // Dead stages vanish (their leases were invalidated by
                    // the cluster); survivors keep devices and parameters
                    // but clear transient pass state.
                    let inst = self.instances.get_mut(id).expect("listed above");
                    let stages = std::mem::take(&mut inst.stages);
                    inst.stages = stages
                        .into_iter()
                        .filter(|s| !revoked.contains(&s.gpu))
                        .map(|mut s| {
                            s.busy = false;
                            s.input_decode.clear();
                            s.input_prefill.clear();
                            s.decode_streak = 0;
                            s
                        })
                        .collect();
                    inst.state = InstanceState::Crippled;
                    let surviving = inst.stages.len() as u32;
                    crippled.push(CrippledInstance {
                        id,
                        original_stages: original,
                        surviving_stages: surviving,
                    });
                    self.obs.record(
                        now,
                        TraceEvent::InstanceCrippled {
                            instance: id.0,
                            original_stages: original,
                            surviving_stages: surviving,
                        },
                    );
                }
            }
            // Every arm above changed admissibility (active_requests
            // cleared, state moved or the instance vanished): re-key.
            self.reindex(id);
        }
        self.disruptions
            .record_revocation(now, revoked.len() as u32);
        self.obs.record(
            now,
            TraceEvent::Revocation {
                gpus: revoked.len() as u32,
            },
        );
        DisruptionNotice {
            revoked_gpus: revoked,
            crippled,
        }
    }

    /// Restores previously revoked devices to the pool (cold elastic; the
    /// policy re-acquires them through its normal scaling path). Returns
    /// how many devices actually came back.
    pub(super) fn restore_capacity(&mut self, gpus: &[GpuId]) -> u32 {
        let mut restored = 0u32;
        for &g in gpus {
            if self.cluster.is_revoked(g) {
                self.cluster.restore_gpu(g);
                restored += 1;
            }
        }
        self.disruptions.record_restored(restored);
        restored
    }

    /// Closes open recovery windows once the deployment is back to full
    /// service: nothing mid-lifecycle (loading / preparing / paused /
    /// crippled) and at least one instance serving.
    pub(super) fn maybe_close_recoveries(&mut self, now: SimTime) {
        if !self.disruptions.has_open() {
            return;
        }
        let any_serving = self
            .instances
            .values()
            .any(|i| i.state == InstanceState::Serving);
        let in_flux = self.instances.values().any(|i| {
            matches!(
                i.state,
                InstanceState::Loading
                    | InstanceState::Preparing
                    | InstanceState::Paused
                    | InstanceState::Crippled
            )
        });
        if any_serving && !in_flux {
            self.disruptions.close_open(now);
            self.obs.record(now, TraceEvent::RecoveryClosed);
        }
    }
}

impl Engine {
    /// Fires scripted disruption `idx`.
    pub(super) fn on_disruption_event(&mut self, queue: &mut EventQueue<Event>, idx: usize) {
        let Some(event) = self.state.script.events.get(idx).cloned() else {
            return;
        };
        match event.kind {
            Disruption::GpuFail { gpu } => {
                // Hardware loss: no grace, no notice.
                self.execute_revocation(queue, vec![GpuId(gpu)]);
            }
            Disruption::ServerPreempt { server, grace_secs } => {
                let gpus = self.server_gpus(ServerId(server));
                self.preempt(queue, gpus, SimDuration::from_secs_f64(grace_secs.max(0.0)));
            }
            Disruption::HotServerPreempt { rank, grace_secs } => {
                let Some(server) = self.state.hottest_server(rank) else {
                    return;
                };
                let gpus = self.server_gpus(server);
                self.preempt(queue, gpus, SimDuration::from_secs_f64(grace_secs.max(0.0)));
            }
            Disruption::CapacityReturn { gpus, servers } => {
                let mut targets: Vec<GpuId> = gpus.into_iter().map(GpuId).collect();
                for s in servers {
                    targets.extend(self.server_gpus(ServerId(s)));
                }
                targets.sort_unstable();
                targets.dedup();
                // Routed through the queue like revocations, so restores
                // interleave deterministically with same-instant events.
                queue.schedule_now(Event::Restore { gpus: targets });
            }
            Disruption::RateSurge { .. } => {}
        }
    }

    fn server_gpus(&self, server: ServerId) -> Vec<GpuId> {
        self.state.cluster.topology().gpus_on(server).to_vec()
    }

    /// Announces a preemption: with grace, the policy gets the notice now
    /// and the revocation fires at the deadline; without, it fires
    /// immediately.
    fn preempt(&mut self, queue: &mut EventQueue<Event>, gpus: Vec<GpuId>, grace: SimDuration) {
        let gpus: Vec<GpuId> = gpus
            .into_iter()
            .filter(|&g| !self.state.cluster.is_revoked(g))
            .collect();
        if gpus.is_empty() {
            return;
        }
        if grace == SimDuration::ZERO {
            self.execute_revocation(queue, gpus);
            return;
        }
        let deadline = queue.now() + grace;
        for &g in &gpus {
            self.state.pending_revocations.insert(g, deadline);
        }
        self.state.obs.record(
            queue.now(),
            TraceEvent::RevokeNotice {
                gpus: gpus.len() as u32,
                deadline_secs: deadline.as_secs_f64(),
            },
        );
        queue
            .schedule(deadline, Event::Revoke { gpus: gpus.clone() })
            .expect("future");
        self.with_policy(queue, |p, ctx| p.on_revoke_notice(ctx, &gpus, deadline));
    }

    /// Revokes capacity now and lets the policy rebuild.
    pub(super) fn execute_revocation(&mut self, queue: &mut EventQueue<Event>, gpus: Vec<GpuId>) {
        let notice = self.state.apply_revocation(queue, &gpus);
        if notice.revoked_gpus.is_empty() {
            return;
        }
        self.with_policy(queue, |p, ctx| p.on_disruption(ctx, &notice));
        self.state.drain_gateway(queue);
        self.state.maybe_close_recoveries(queue.now());
    }
}
