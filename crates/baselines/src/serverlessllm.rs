//! ServerlessLLM-like baseline: fast checkpoint loading + reactive
//! whole-instance scaling.
//!
//! ServerlessLLM (OSDI '24) attacks cold starts with a multi-tier
//! checkpoint store (host-memory staging, loading-optimised formats) and
//! locality-aware scheduling, but scales in whole static-pipeline
//! instances reactively on queue depth. Here: checkpoints are pre-staged
//! into host memory on a set of servers (so loads run at PCIe speed —
//! their headline win), spawns prefer those servers, and scaling triggers
//! when the gateway queue crosses thresholds. No pipeline reconfiguration.

use flexpipe_cluster::{GpuId, ServerId};
use flexpipe_serving::{ControlPolicy, Ctx, InstanceState, Placement};

use crate::common::quiet_gpus;

/// ServerlessLLM-like configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerlessLlmConfig {
    /// Pipeline depth of every replica.
    pub stages: u32,
    /// Replicas kept at all times.
    pub min_replicas: u32,
    /// Hard replica cap.
    pub max_replicas: u32,
    /// Queue depth that triggers a scale-out.
    pub queue_hi: usize,
    /// Consecutive idle ticks before scaling in.
    pub idle_patience: u32,
    /// Servers to pre-stage checkpoints on.
    pub prewarm_servers: u32,
    /// Fraction of (min-replica) capacity pinned always-on.
    pub always_on_fraction: f64,
}

impl Default for ServerlessLlmConfig {
    fn default() -> Self {
        ServerlessLlmConfig {
            stages: 4,
            min_replicas: 1,
            max_replicas: 4,
            queue_hi: 32,
            idle_patience: 20,
            prewarm_servers: 6,
            always_on_fraction: 0.75,
        }
    }
}

/// The ServerlessLLM-like policy.
#[derive(Debug, Clone)]
pub struct ServerlessLlmLike {
    cfg: ServerlessLlmConfig,
    idle_ticks: u32,
    prewarmed: Vec<ServerId>,
}

impl ServerlessLlmLike {
    /// Creates the policy.
    pub fn new(cfg: ServerlessLlmConfig) -> Self {
        ServerlessLlmLike {
            cfg,
            idle_ticks: 0,
            prewarmed: Vec::new(),
        }
    }

    fn prewarm(&mut self, ctx: &mut Ctx<'_>) {
        if self.cfg.prewarm_servers == 0 {
            return; // no fast-load tier configured
        }
        let ranges = match ctx.state.lattice().level(self.cfg.stages) {
            Some(l) => l.ranges.clone(),
            None => return,
        };
        if self.prewarmed.is_empty() {
            // Spread stage checkpoints across distinct multi-GPU servers.
            let servers: Vec<ServerId> = (0..ctx.state.cluster().topology().server_count())
                .map(|s| ServerId(s as u32))
                .take(self.cfg.prewarm_servers as usize)
                .collect();
            self.prewarmed = servers;
        }
        for (i, &r) in ranges.iter().enumerate() {
            let server = self.prewarmed[i % self.prewarmed.len()];
            let _ = ctx.prewarm_host_cache(r, server);
        }
    }

    fn spawn_preferring_prewarmed(&self, ctx: &mut Ctx<'_>, standing: bool) -> bool {
        let ranges = match ctx.state.lattice().level(self.cfg.stages) {
            Some(l) => l.ranges.clone(),
            None => return false,
        };
        // Locality-aware: for each stage, try a free GPU on the server
        // holding its checkpoint.
        let mut gpus: Vec<GpuId> = Vec::with_capacity(ranges.len());
        let in_use = ctx.state.gpus_in_use();
        for &r in &ranges {
            let need = ctx.state.cost().stage_mem_bytes(ctx.state.graph(), r, 8);
            let prefer = ctx.state.is_cached(r);
            let cluster = ctx.state.cluster();
            let pick = cluster
                .topology()
                .gpus()
                .iter()
                .map(|g| g.id)
                .filter(|&g| !in_use.contains(g) && !gpus.contains(&g))
                .filter(|&g| cluster.free_mem(g) >= need)
                .min_by_key(|&g| {
                    let on_prewarmed = Some(cluster.topology().gpu(g).server) == prefer;
                    (!on_prewarmed, g.0)
                });
            match pick {
                Some(g) => gpus.push(g),
                None => return false,
            }
        }
        if standing {
            ctx.spawn_prewarmed(self.cfg.stages, Placement::Explicit(gpus))
                .is_ok()
        } else {
            ctx.spawn(self.cfg.stages, Placement::Explicit(gpus))
                .is_ok()
        }
    }
}

impl ControlPolicy for ServerlessLlmLike {
    fn name(&self) -> &'static str {
        "ServerlessLLM"
    }

    fn init(&mut self, ctx: &mut Ctx<'_>) {
        let pinned = ((f64::from(self.cfg.min_replicas * self.cfg.stages)
            * self.cfg.always_on_fraction)
            .ceil() as usize)
            .max(1);
        ctx.set_always_on(quiet_gpus(ctx, pinned));
        self.prewarm(ctx);
        for _ in 0..self.cfg.min_replicas {
            if !self.spawn_preferring_prewarmed(ctx, true) {
                let _ = ctx.spawn_prewarmed(self.cfg.stages, Placement::FirstFit);
            }
        }
    }

    fn on_tick(&mut self, ctx: &mut Ctx<'_>) {
        // Keep checkpoints staged (TTL refresh).
        self.prewarm(ctx);

        let queue = ctx.queue_len();
        let instances = ctx.instances();
        let live = instances
            .iter()
            .filter(|i| matches!(i.state, InstanceState::Serving | InstanceState::Loading))
            .count() as u32;

        if queue >= self.cfg.queue_hi && live < self.cfg.max_replicas {
            if !self.spawn_preferring_prewarmed(ctx, false) {
                let _ = ctx.spawn(self.cfg.stages, Placement::FirstFit);
            }
            self.idle_ticks = 0;
            return;
        }

        // Scale in when the remaining replicas could absorb the load with
        // room to spare (utilisation-based; waiting for full idleness never
        // triggers under continuous traffic).
        let total_active: u32 = instances.iter().map(|i| i.active_requests).sum();
        let shrunk_capacity: u32 = instances
            .iter()
            .filter(|i| i.state == InstanceState::Serving)
            .map(|i| i.batch_cap)
            .sum::<u32>()
            .saturating_sub(
                instances
                    .iter()
                    .filter(|i| i.state == InstanceState::Serving)
                    .map(|i| i.batch_cap)
                    .min()
                    .unwrap_or(0),
            );
        let underloaded = queue == 0 && u64::from(total_active) * 4 < u64::from(shrunk_capacity);
        if underloaded && live > self.cfg.min_replicas {
            self.idle_ticks += 1;
            if self.idle_ticks >= self.cfg.idle_patience {
                if let Some(victim) = instances
                    .iter()
                    .filter(|i| i.state == InstanceState::Serving)
                    .min_by_key(|i| (i.active_requests, i.id))
                {
                    ctx.retire(victim.id);
                }
                self.idle_ticks = 0;
            }
        } else {
            self.idle_ticks = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults() {
        let cfg = ServerlessLlmConfig::default();
        assert!(cfg.queue_hi > 0);
        assert!(cfg.max_replicas >= cfg.min_replicas);
        let p = ServerlessLlmLike::new(cfg);
        assert_eq!(p.name(), "ServerlessLLM");
    }
}
