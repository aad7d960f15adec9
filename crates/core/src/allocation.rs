//! Fragmented-GPU assignment — the Eq. (6)–(9) optimizer of §6.2.
//!
//! Maximises `Σ T_ij/m_j − γ(CV_i)·I(shared)` subject to memory capacity
//! (Eq. 7) and the balance constraint (Eq. 8), with the hard rule that two
//! stages of the same model never share a GPU. The multiplexing penalty
//! `γ(CV) = γ0·(1 + α·CV²)` (Eq. 9) makes the optimizer consolidate onto
//! busy GPUs under stable traffic and insist on isolation under bursty
//! traffic.
//!
//! Solved greedily with a local-search improvement pass, so decisions stay
//! inside the paper's < 5 ms budget on clusters of thousands of GPUs. The
//! caller passes only the candidates it may place on, in ascending id
//! order, so exclusion costs the optimizer nothing. One assignment then
//! costs one pass over the candidates to group them, one score per group
//! per stage for the greedy pass, and O(stages²) full-assignment scores
//! per local-search round.
//!
//! **Identical-GPU grouping.** A stage's score on a GPU (plus the caller's
//! bias) depends on the GPU only through four values: its server's bias,
//! its free memory, its background SM load and its background service
//! count. Consecutive candidates on one server that agree on the three
//! loads therefore score the same for every stage, and form one group.
//! For each stage the greedy pass scores only each group's lowest id not
//! yet taken, and compares those with the same comparator a scan of every
//! candidate uses (score first, then the lowest id). A group's members are
//! taken lowest id first, so its representative beats its other members
//! on the tie-break, and the winner — score bits included — is the full
//! scan's. On an idle 8-GPU server this is one score instead of eight.

use serde::{Deserialize, Serialize};

use flexpipe_cluster::{Cluster, GpuId, ServerId};
use flexpipe_model::{CostModel, ModelGraph, OpRange};

/// Parameters of the assignment objective.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AllocationParams {
    /// Base multiplexing penalty γ0 (Eq. 9).
    pub gamma0: f64,
    /// CV sensitivity α of the penalty (Eq. 9).
    pub alpha_mux: f64,
    /// Balance tolerance ε (Eq. 8): max relative throughput spread within
    /// a granularity group.
    pub epsilon: f64,
    /// Weight of memory headroom in the per-GPU score.
    pub headroom_weight: f64,
}

impl Default for AllocationParams {
    fn default() -> Self {
        AllocationParams {
            gamma0: 0.15,
            alpha_mux: 0.5,
            epsilon: 0.25,
            headroom_weight: 0.2,
        }
    }
}

/// The Eq. (9) multiplexing penalty.
pub fn multiplexing_penalty(params: &AllocationParams, cv: f64) -> f64 {
    params.gamma0 * (1.0 + params.alpha_mux * cv * cv)
}

/// One stage's placement requirement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageNeed {
    /// Operator range of the stage.
    pub range: OpRange,
    /// Device bytes it needs (params + reserve + planned KV).
    pub mem_bytes: u64,
}

/// Result of an assignment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Assignment {
    /// Chosen GPU per stage, in stage order.
    pub gpus: Vec<GpuId>,
    /// Total objective value achieved.
    pub score: f64,
    /// Max/min stage throughput ratio − 1 (Eq. 8 slack).
    pub imbalance: f64,
}

/// The assignment optimizer.
#[derive(Debug, Clone)]
pub struct AllocationOptimizer {
    params: AllocationParams,
}

impl AllocationOptimizer {
    /// Creates an optimizer.
    pub fn new(params: AllocationParams) -> Self {
        AllocationOptimizer { params }
    }

    /// The parameters in use.
    pub fn params(&self) -> &AllocationParams {
        &self.params
    }

    /// Per-(stage, gpu) score: normalised throughput density minus the
    /// multiplexing penalty when the GPU already hosts other tenants.
    pub(crate) fn score_one(
        &self,
        cluster: &Cluster,
        interference_coeff: f64,
        need: &StageNeed,
        gpu: GpuId,
        cv: f64,
    ) -> Option<f64> {
        let free = cluster.free_mem(gpu);
        if free < need.mem_bytes {
            return None;
        }
        let load = cluster.load(gpu);
        // Throughput of this stage on this GPU degrades with background SM
        // contention (T_ij), normalised by memory consumed (the T_ij/m_j
        // density of Eq. 6).
        let slowdown = 1.0 + interference_coeff * load.bg_sm;
        let t_ij = 1.0 / slowdown;
        let density = t_ij / (need.mem_bytes as f64 / (1u64 << 30) as f64).max(0.05);
        let shared = load.bg_services > 0;
        let penalty = if shared {
            multiplexing_penalty(&self.params, cv)
        } else {
            0.0
        };
        // Mild preference for GPUs with more post-placement headroom.
        let headroom = (free - need.mem_bytes) as f64 / cluster.gpu_mem_capacity() as f64;
        Some(density - penalty + self.params.headroom_weight * headroom)
    }

    /// Assigns `needs` to GPUs from `candidates` under workload CV `cv`.
    ///
    /// `candidates` must be in ascending id order without repeats, and
    /// hold only GPUs this model may use: the caller leaves out devices
    /// already hosting its stages (the §6.2 anti-colocation rule). Returns
    /// `None` when any stage cannot be placed.
    #[allow(clippy::too_many_arguments)]
    pub fn assign(
        &self,
        cluster: &Cluster,
        graph: &ModelGraph,
        cost: &CostModel,
        interference_coeff: f64,
        needs: &[StageNeed],
        candidates: &[GpuId],
        cv: f64,
    ) -> Option<Assignment> {
        self.assign_biased(
            cluster,
            graph,
            cost,
            interference_coeff,
            needs,
            candidates,
            cv,
            &|_| 0.0,
        )
    }

    /// [`AllocationOptimizer::assign`] with an additive per-server bias,
    /// shared by every GPU of the server.
    ///
    /// The Hierarchical Resource Graph composes its topology terms
    /// (contention markers, host-cache affinity) through `bias`, keeping
    /// the Eq. (6)-(9) objective and the HRG layer separable.
    #[allow(clippy::too_many_arguments)]
    pub fn assign_biased(
        &self,
        cluster: &Cluster,
        graph: &ModelGraph,
        cost: &CostModel,
        interference_coeff: f64,
        needs: &[StageNeed],
        candidates: &[GpuId],
        cv: f64,
        bias: &dyn Fn(ServerId) -> f64,
    ) -> Option<Assignment> {
        debug_assert!(
            candidates.windows(2).all(|w| w[0] < w[1]),
            "candidates must be ascending and distinct"
        );
        if candidates.len() < needs.len() {
            return None;
        }
        let topo = cluster.topology();
        let mut groups = group_candidates(cluster, candidates, bias);
        // Greedy: place the most memory-demanding stage first on its best
        // scoring GPU.
        let mut order: Vec<usize> = (0..needs.len()).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(needs[i].mem_bytes));
        let mut gpus = vec![GpuId(0); needs.len()];
        for &i in &order {
            let (_, g, k) = groups
                .iter()
                .enumerate()
                .filter(|(_, group)| group.next < group.end)
                .filter_map(|(k, group)| {
                    let g = candidates[group.next];
                    self.score_one(cluster, interference_coeff, &needs[i], g, cv)
                        .map(|s| (s + group.bias, g, k))
                })
                .max_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(b.1.cmp(&a.1)))?;
            groups[k].next += 1;
            gpus[i] = g;
        }

        // Local search: single-swap improvements between stage pairs.
        let score_of = |gpus: &[GpuId]| -> Option<f64> {
            let mut total = 0.0;
            for (need, &g) in needs.iter().zip(gpus) {
                total += self.score_one(cluster, interference_coeff, need, g, cv)?
                    + bias(topo.gpu(g).server);
            }
            Some(total)
        };
        let mut best_score = score_of(&gpus)?;
        let mut improved = true;
        while improved {
            improved = false;
            for a in 0..gpus.len() {
                for b in (a + 1)..gpus.len() {
                    gpus.swap(a, b);
                    match score_of(&gpus) {
                        Some(s) if s > best_score + 1e-12 => {
                            best_score = s;
                            improved = true;
                        }
                        _ => gpus.swap(a, b),
                    }
                }
            }
        }

        // Eq. (8): relative throughput spread across stages.
        let throughputs: Vec<f64> = needs
            .iter()
            .zip(&gpus)
            .map(|(need, &g)| {
                let load = cluster.load(g);
                let slowdown = 1.0 + interference_coeff * load.bg_sm;
                let compute = cost.stage_compute(graph, need.range, 1024).as_secs_f64() * slowdown;
                1.0 / compute
            })
            .collect();
        let max_t = throughputs.iter().cloned().fold(f64::MIN, f64::max);
        let min_t = throughputs.iter().cloned().fold(f64::MAX, f64::min);
        let imbalance = if min_t > 0.0 {
            max_t / min_t - 1.0
        } else {
            f64::INFINITY
        };

        Some(Assignment {
            gpus,
            score: best_score,
            imbalance,
        })
    }
}

/// Candidates that score the same for every stage: consecutive candidates
/// on one server with equal free memory, background SM load and
/// background service count (the module doc's grouping rule).
struct Group {
    /// Bias of the members' server.
    bias: f64,
    /// Candidate index of the lowest member no stage has taken yet.
    next: usize,
    /// One past the candidate index of the last member.
    end: usize,
}

fn group_candidates(
    cluster: &Cluster,
    candidates: &[GpuId],
    bias: &dyn Fn(ServerId) -> f64,
) -> Vec<Group> {
    let topo = cluster.topology();
    let mut groups: Vec<Group> = Vec::new();
    let mut last_key = None;
    for (i, &g) in candidates.iter().enumerate() {
        let server = topo.gpu(g).server;
        let load = cluster.load(g);
        let key = (
            server,
            cluster.free_mem(g),
            load.bg_sm.to_bits(),
            load.bg_services,
        );
        match groups.last_mut() {
            Some(group) if last_key == Some(key) => group.end = i + 1,
            _ => {
                groups.push(Group {
                    bias: bias(server),
                    next: i,
                    end: i + 1,
                });
                last_key = Some(key);
            }
        }
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexpipe_cluster::ClusterSpec;
    use flexpipe_model::{even_layer_ranges, zoo};

    fn setup() -> (Cluster, ModelGraph, CostModel, AllocationOptimizer) {
        (
            Cluster::new(ClusterSpec::paper_testbed()),
            zoo::llama2_7b(),
            CostModel::default(),
            AllocationOptimizer::new(AllocationParams::default()),
        )
    }

    fn needs_for(graph: &ModelGraph, cost: &CostModel, stages: u32) -> Vec<StageNeed> {
        even_layer_ranges(graph, stages)
            .into_iter()
            .map(|r| StageNeed {
                range: r,
                mem_bytes: cost.stage_mem_bytes(graph, r, 8),
            })
            .collect()
    }

    #[test]
    fn penalty_grows_quadratically_with_cv() {
        let p = AllocationParams::default();
        let g1 = multiplexing_penalty(&p, 1.0);
        let g4 = multiplexing_penalty(&p, 4.0);
        // (1 + 0.5·16) / (1 + 0.5·1) = 6.
        assert!((g4 / g1 - 6.0).abs() < 1e-9);
    }

    #[test]
    fn assigns_distinct_gpus() {
        let (cluster, graph, cost, opt) = setup();
        let needs = needs_for(&graph, &cost, 4);
        let candidates: Vec<GpuId> = cluster.topology().gpus().iter().map(|g| g.id).collect();
        let a = opt
            .assign(&cluster, &graph, &cost, 0.6, &needs, &candidates, 1.0)
            .unwrap();
        let mut gpus = a.gpus.clone();
        gpus.sort();
        gpus.dedup();
        assert_eq!(gpus.len(), 4);
        assert!(a.imbalance < 0.25, "imbalance {}", a.imbalance);
    }

    #[test]
    fn forbidden_gpus_are_never_used() {
        let (cluster, graph, cost, opt) = setup();
        let needs = needs_for(&graph, &cost, 2);
        // The caller leaves the forbidden GPUs 0..40 out of the candidates.
        let candidates: Vec<GpuId> = cluster
            .topology()
            .gpus()
            .iter()
            .map(|g| g.id)
            .filter(|g| g.0 >= 40)
            .collect();
        let a = opt
            .assign(&cluster, &graph, &cost, 0.6, &needs, &candidates, 1.0)
            .unwrap();
        assert!(a.gpus.iter().all(|g| g.0 >= 40));
    }

    #[test]
    fn high_cv_prefers_isolated_gpus() {
        let (mut cluster, graph, cost, opt) = setup();
        // GPUs 0..40 are busy-but-roomy (shared); 40.. are empty.
        let cap = cluster.gpu_mem_capacity();
        for g in 0..40u32 {
            cluster.set_background(GpuId(g), cap / 10, 0.05, 2);
        }
        let needs = needs_for(&graph, &cost, 2);
        let candidates: Vec<GpuId> = cluster.topology().gpus().iter().map(|g| g.id).collect();
        let stable = opt
            .assign(&cluster, &graph, &cost, 0.6, &needs, &candidates, 0.3)
            .unwrap();
        let bursty = opt
            .assign(&cluster, &graph, &cost, 0.6, &needs, &candidates, 6.0)
            .unwrap();
        // Under bursty traffic every chosen GPU must be unshared.
        assert!(
            bursty
                .gpus
                .iter()
                .all(|&g| cluster.load(g).bg_services == 0),
            "bursty chose shared GPUs: {:?}",
            bursty.gpus
        );
        // Under stable traffic the penalty is small enough that shared,
        // otherwise-attractive GPUs may win; at minimum the score ordering
        // must hold.
        assert!(stable.score >= bursty.score - 1e9_f64.recip());
    }

    #[test]
    fn memory_pressure_fails_gracefully() {
        let (mut cluster, graph, cost, opt) = setup();
        let cap = cluster.gpu_mem_capacity();
        for info in cluster.topology().gpus().to_vec() {
            cluster.set_background(info.id, cap - (1 << 20), 0.9, 4);
        }
        let needs = needs_for(&graph, &cost, 2);
        let candidates: Vec<GpuId> = cluster.topology().gpus().iter().map(|g| g.id).collect();
        assert!(opt
            .assign(&cluster, &graph, &cost, 0.6, &needs, &candidates, 1.0)
            .is_none());
    }

    #[test]
    fn avoids_compute_hot_gpus() {
        let (mut cluster, graph, cost, opt) = setup();
        // Make half the GPUs compute-hot but memory-free.
        for g in 0..41u32 {
            cluster.set_background(GpuId(g * 2), 0, 0.9, 0);
        }
        let needs = needs_for(&graph, &cost, 4);
        let candidates: Vec<GpuId> = cluster.topology().gpus().iter().map(|g| g.id).collect();
        let a = opt
            .assign(&cluster, &graph, &cost, 0.6, &needs, &candidates, 1.0)
            .unwrap();
        for &g in &a.gpus {
            assert!(cluster.load(g).bg_sm < 0.5, "placed on hot gpu {g:?}");
        }
    }
}
