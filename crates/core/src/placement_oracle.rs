//! The placement oracle: the full scan that HRG placement used to run,
//! kept as the reference the grouped per-server path is held to.
//!
//! The reference filters every cluster GPU through a `forbidden` slice,
//! then evaluates the HRG bias and the Eq. (6)–(9) score of every usable
//! GPU for every stage. [`Hrg::place`] must return the same
//! `Option<Assignment>` — equal GPUs, and score and imbalance equal bit
//! for bit — and leave the same HRG state behind.

use flexpipe_cluster::{
    Cluster, ClusterSpec, GpuId, GpuSet, GpuSpec, LinkSpec, RackId, ServerId, ServerSpec,
};
use flexpipe_model::{even_layer_ranges, zoo, CostModel, ModelGraph};
use flexpipe_sim::SimTime;
use proptest::prelude::*;

use crate::allocation::{AllocationOptimizer, AllocationParams, Assignment, StageNeed};
use crate::hrg::{Hrg, HrgParams};

/// The optimizer's former full scan: every candidate not in `forbidden`,
/// scored with its own per-GPU bias for every stage.
#[allow(clippy::too_many_arguments)]
fn assign_full_scan(
    opt: &AllocationOptimizer,
    cluster: &Cluster,
    graph: &ModelGraph,
    cost: &CostModel,
    interference_coeff: f64,
    needs: &[StageNeed],
    candidates: &[GpuId],
    forbidden: &[GpuId],
    cv: f64,
    bias: &dyn Fn(GpuId) -> f64,
) -> Option<Assignment> {
    let usable: Vec<GpuId> = candidates
        .iter()
        .copied()
        .filter(|g| !forbidden.contains(g))
        .collect();
    if usable.len() < needs.len() {
        return None;
    }
    let mut order: Vec<usize> = (0..needs.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(needs[i].mem_bytes));
    let mut chosen: Vec<Option<GpuId>> = vec![None; needs.len()];
    let mut taken: Vec<GpuId> = Vec::new();
    for &i in &order {
        let best = usable
            .iter()
            .copied()
            .filter(|g| !taken.contains(g))
            .filter_map(|g| {
                opt.score_one(cluster, interference_coeff, &needs[i], g, cv)
                    .map(|s| (s + bias(g), g))
            })
            .max_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(b.1.cmp(&a.1)));
        let (_, g) = best?;
        chosen[i] = Some(g);
        taken.push(g);
    }
    let mut gpus: Vec<GpuId> = chosen.into_iter().map(|c| c.expect("placed")).collect();

    let score_of = |gpus: &[GpuId]| -> Option<f64> {
        let mut total = 0.0;
        for (need, &g) in needs.iter().zip(gpus) {
            total += opt.score_one(cluster, interference_coeff, need, g, cv)? + bias(g);
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

/// `Hrg::place`'s former body: all GPUs as candidates, `forbidden` as a
/// slice, the bias evaluated per GPU.
#[allow(clippy::too_many_arguments)]
fn place_full_scan(
    hrg: &mut Hrg,
    cluster: &Cluster,
    graph: &ModelGraph,
    cost: &CostModel,
    opt: &AllocationOptimizer,
    needs: &[StageNeed],
    forbidden: &[GpuId],
    cv: f64,
    now: SimTime,
) -> Option<Assignment> {
    let candidates: Vec<GpuId> = cluster.topology().gpus().iter().map(|g| g.id).collect();
    let per_gpu = |g: GpuId| hrg.bias(cluster, cluster.topology().gpu(g).server, now);
    let assignment = assign_full_scan(
        opt,
        cluster,
        graph,
        cost,
        INTERFERENCE,
        needs,
        &candidates,
        forbidden,
        cv,
        &per_gpu,
    )?;
    for &g in &assignment.gpus {
        let server = cluster.topology().gpu(g).server;
        hrg.record_scaling(cluster, server, now);
        hrg.record_hosting(server, now);
    }
    Some(assignment)
}

const INTERFERENCE: f64 = 0.6;

fn needs(graph: &ModelGraph, cost: &CostModel, stages: u32) -> Vec<StageNeed> {
    even_layer_ranges(graph, stages)
        .into_iter()
        .map(|r| StageNeed {
            range: r,
            mem_bytes: cost.stage_mem_bytes(graph, r, 8),
        })
        .collect()
}

/// Places `needs` through both paths and compares what they return and
/// the HRG state they leave. `forbidden` lists the same GPUs `excluded`
/// rejects.
#[allow(clippy::too_many_arguments)]
fn place_both(
    reference: &mut Hrg,
    grouped: &mut Hrg,
    cluster: &Cluster,
    needs: &[StageNeed],
    forbidden: &[GpuId],
    excluded: &dyn Fn(GpuId) -> bool,
    cv: f64,
    now: SimTime,
) -> Result<Option<Assignment>, String> {
    let graph = zoo::llama2_7b();
    let cost = CostModel::default();
    let opt = AllocationOptimizer::new(AllocationParams::default());
    let want = place_full_scan(
        reference, cluster, &graph, &cost, &opt, needs, forbidden, cv, now,
    );
    let got = grouped.place(
        cluster,
        &graph,
        &cost,
        &opt,
        INTERFERENCE,
        needs,
        excluded,
        cv,
        now,
    );
    let bits = |a: &Option<Assignment>| {
        a.as_ref()
            .map(|a| (a.gpus.clone(), a.score.to_bits(), a.imbalance.to_bits()))
    };
    if bits(&want) != bits(&got) {
        return Err(format!("full scan chose {want:?}, grouped path {got:?}"));
    }
    if reference != grouped {
        return Err("the two paths left different HRG state".into());
    }
    Ok(got)
}

// The small value sets the proptest draws from. Each GPU draws a
// background memory level (leaving 80, 40, 16 or 1 GiB free), an SM level
// and a service count, or copies the previous GPU's load, so that ties and
// runs of identical GPUs occur.
const BG_MEM_GIB: [u64; 4] = [0, 40, 64, 79];
const SM_LEVELS: [f64; 3] = [0.0, 0.3, 0.9];
const SERVER_SIZES: [u32; 3] = [1, 2, 8];
const CVS: [f64; 4] = [0.3, 1.0, 2.0, 6.0];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random heterogeneous clusters of 1-, 2- and 8-GPU servers with
    /// background loads from a small value set, revoked, in-use and
    /// doomed GPUs, an HRG history, and a sequence of 1–4-stage
    /// placements at several CVs: the grouped path returns exactly what
    /// the full scan returns.
    #[test]
    fn grouped_placement_matches_the_full_scan(
        sizes in prop::collection::vec(0usize..3, 1..10),
        loads in prop::collection::vec((0usize..4, 0usize..3, 0u32..3, any::<bool>()), 80),
        status in prop::collection::vec(0u8..10, 80),
        history in prop::collection::vec((any::<bool>(), 0usize..10, 0u64..240), 0..8),
        placements in prop::collection::vec((1u32..5, 0usize..4), 1..4),
    ) {
        let servers: Vec<ServerSpec> = sizes
            .iter()
            .enumerate()
            .map(|(i, &k)| ServerSpec {
                rack: RackId(i as u32 / 3),
                gpus: SERVER_SIZES[k],
                host_mem_bytes: 256 << 30,
                nvlink: SERVER_SIZES[k] == 8,
            })
            .collect();
        let mut cluster = Cluster::new(ClusterSpec {
            name: "oracle".into(),
            servers,
            gpu: GpuSpec::a100_80g(),
            links: LinkSpec::default(),
        });
        let n = cluster.topology().gpu_count();
        let mut load = (0, 0.0, 0);
        for (i, &(mem, sm, services, copy)) in loads.iter().take(n).enumerate() {
            if !copy || i == 0 {
                load = (BG_MEM_GIB[mem] << 30, SM_LEVELS[sm], services);
            }
            cluster.set_background(GpuId(i as u32), load.0, load.1, load.2);
        }
        let mut in_use = GpuSet::new();
        let mut doomed = Vec::new();
        for (i, &s) in status.iter().take(n).enumerate() {
            let g = GpuId(i as u32);
            match s {
                0 => {
                    cluster.revoke_gpu(g);
                }
                1 => {
                    in_use.insert(g);
                }
                2 => doomed.push(g),
                _ => {}
            }
        }
        let mut hrg = Hrg::new(HrgParams::default());
        for &(scaling, server, at) in &history {
            let server = ServerId((server % sizes.len()) as u32);
            if scaling {
                hrg.record_scaling(&cluster, server, SimTime::from_secs(at));
            } else {
                hrg.record_hosting(server, SimTime::from_secs(at));
            }
        }
        let mut reference = hrg.clone();
        let graph = zoo::llama2_7b();
        let cost = CostModel::default();
        for (k, &(stages, cv)) in placements.iter().enumerate() {
            let mut forbidden: Vec<GpuId> = in_use.iter().collect();
            forbidden.extend(&doomed);
            let placed = place_both(
                &mut reference,
                &mut hrg,
                &cluster,
                &needs(&graph, &cost, stages),
                &forbidden,
                &|g| in_use.contains(g) || doomed.contains(&g),
                CVS[cv],
                SimTime::from_secs(240 + 5 * k as u64),
            )?;
            for g in placed.map(|a| a.gpus).unwrap_or_default() {
                in_use.insert(g);
            }
        }
    }
}

/// The fleet-scale shape: standing 4-stage replicas spawned onto an idle
/// cluster of mostly 8-GPU servers until it is nearly full, then rescues
/// off a doomed server. Idle servers collapse to one group each here, so
/// this exercises the representatives' cursors over long runs.
#[test]
fn grouped_placement_matches_the_full_scan_on_an_idle_fleet() {
    let cluster = Cluster::new(ClusterSpec::heterogeneous("idle", 40, 264, 8));
    let graph = zoo::llama2_7b();
    let cost = CostModel::default();
    let four = needs(&graph, &cost, 4);
    let mut hrg = Hrg::new(HrgParams::default());
    let mut reference = hrg.clone();
    let mut in_use = GpuSet::new();
    let mut spawns = 0;
    let now = SimTime::from_secs(0);
    while let Some(a) = place_both(
        &mut reference,
        &mut hrg,
        &cluster,
        &four,
        &in_use.iter().collect::<Vec<_>>(),
        &|g| in_use.contains(g),
        1.0,
        now,
    )
    .unwrap()
    {
        for g in a.gpus {
            in_use.insert(g);
        }
        spawns += 1;
    }
    assert_eq!(spawns, 264 / 4, "every GPU is used once the fleet is full");
    // Free one server's worth of GPUs, doom another server, and rescue
    // one stage at a time at later instants.
    let freed: Vec<GpuId> = cluster.topology().gpus_on(ServerId(3)).to_vec();
    for &g in &freed {
        in_use.remove(g);
    }
    let doomed: Vec<GpuId> = cluster.topology().gpus_on(ServerId(5)).to_vec();
    for k in 1..=6u64 {
        let mut forbidden: Vec<GpuId> = in_use.iter().collect();
        forbidden.extend(&doomed);
        let a = place_both(
            &mut reference,
            &mut hrg,
            &cluster,
            &needs(&graph, &cost, 1),
            &forbidden,
            &|g| in_use.contains(g) || doomed.contains(&g),
            2.0,
            SimTime::from_secs(10 * k),
        )
        .unwrap()
        .expect("freed GPUs take the rescues");
        assert!(freed.contains(&a.gpus[0]));
        in_use.insert(a.gpus[0]);
    }
}
