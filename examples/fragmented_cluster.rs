//! Fragmented cluster exploration: reproduce the §3.1 measurement study on
//! a synthetic Alibaba-like cluster and show how the HRG placer navigates
//! the fragmentation.
//!
//! ```sh
//! cargo run --release --example fragmented_cluster
//! ```

use flexpipe::cluster::{BackgroundTenants, Endpoint, Route};
use flexpipe::core::{AllocationOptimizer, AllocationParams, StageNeed};
use flexpipe::model::even_layer_ranges;
use flexpipe::prelude::*;

fn main() {
    // Build the C1-like inference cluster and let tenants fragment it.
    let mut cluster = Cluster::new(ClusterSpec::alibaba_c1());
    let mut bg = BackgroundTenants::new(BackgroundProfile::c1_like(), SimRng::seed(11));
    bg.populate(&mut cluster);

    let stats = BackgroundTenants::stats(&cluster);
    println!("== fragmentation snapshot (C1-like, 430 nodes / 468 GPUs) ==");
    println!(
        "GPU subscription rate:     {:.0}% (paper: 216%)",
        stats.subscription_pct
    );
    println!(
        "mean SM utilisation:       {:.1}% (paper: 16.9%)",
        stats.sm_mean
    );
    println!(
        "mean memory utilisation:   {:.1}% (paper: 43.5%)",
        stats.mem_mean
    );
    println!(
        "P(single GPU >85% free):   {:.1}% (paper: 8.7%)",
        stats.p_single_free * 100.0
    );
    println!(
        "P(4-GPU co-location):      {:.4}% (paper: 0.02%)",
        stats.p_colocate4 * 100.0
    );

    // Why tensor parallelism degrades here: transfer paths between the few
    // free GPUs are cross-server.
    let engine = TransferEngine::new(cluster.topology().spec().links);
    let cap = cluster.gpu_mem_capacity();
    let free: Vec<GpuId> = cluster.gpus_with_free(cap * 85 / 100).collect();
    if free.len() >= 2 {
        // How often can two securable GPUs talk over NVLink? Almost never —
        // that is the §3.1 argument against tensor parallelism here.
        let mut nvlink_pairs = 0usize;
        let mut pairs = 0usize;
        for (i, &a) in free.iter().enumerate() {
            for &b in &free[i + 1..] {
                pairs += 1;
                if engine.route(&cluster, Endpoint::Gpu(a), Endpoint::Gpu(b)) == Route::NvLink {
                    nvlink_pairs += 1;
                }
            }
        }
        let d = engine.duration(
            &cluster,
            Endpoint::Gpu(free[0]),
            Endpoint::Gpu(free[1]),
            1 << 30,
        );
        println!("\nsecurable GPUs: {}", free.len());
        println!(
            "securable pairs with NVLink connectivity: {nvlink_pairs}/{pairs} ({:.2}%)",
            nvlink_pairs as f64 / pairs.max(1) as f64 * 100.0
        );
        println!("example cross-pair 1 GiB transfer: {d}");
    }

    // Place an 8-stage OPT-66B pipeline with the Eq. (6)-(9) optimizer at
    // two burstiness levels and observe the isolation/consolidation switch.
    let graph = flexpipe::model::zoo::opt_66b();
    let cost = CostModel::default();
    let needs: Vec<StageNeed> = even_layer_ranges(&graph, 8)
        .into_iter()
        .map(|r| StageNeed {
            range: r,
            mem_bytes: cost.stage_mem_bytes(&graph, r, 8),
        })
        .collect();
    let optimizer = AllocationOptimizer::new(AllocationParams::default());
    let candidates: Vec<GpuId> = cluster.topology().gpus().iter().map(|g| g.id).collect();
    println!("\n== Eq. (6)-(9) placement of an 8-stage OPT-66B pipeline ==");
    for cv in [0.3, 6.0] {
        match optimizer.assign(&cluster, &graph, &cost, 0.6, &needs, &candidates, cv) {
            Some(a) => {
                let shared = a
                    .gpus
                    .iter()
                    .filter(|&&g| cluster.load(g).bg_services > 0)
                    .count();
                println!(
                    "cv={cv:>3}: placed on {} GPUs, {} shared with other tenants, imbalance {:.2}",
                    a.gpus.len(),
                    shared,
                    a.imbalance
                );
            }
            None => println!("cv={cv:>3}: no feasible placement"),
        }
    }
    println!("(bursty traffic forces isolation; stable traffic tolerates consolidation)");
}
