//! Shared helpers for the baseline policies.

use flexpipe_cluster::GpuId;
use flexpipe_model::{CostModel, ModelGraph, OpRange};
use flexpipe_serving::Ctx;

/// Rough per-instance request-rate capacity of a pipeline configuration.
///
/// Mirrors the profiling arithmetic the systems under comparison all use
/// for capacity planning: the bottleneck stage's busy time per request,
/// counting prefill and decode compute plus per-pass overheads amortised
/// over micro-batch members.
pub fn estimate_capacity(
    graph: &ModelGraph,
    cost: &CostModel,
    ranges: &[OpRange],
    ubatch: u32,
    mean_prompt_tokens: f64,
    mean_output_tokens: f64,
    hop_secs: f64,
) -> f64 {
    let chunk_tokens = 1024u32;
    // Plan against memory realistically free under background tenants.
    let gpu_mem = 60u64 << 30;
    let batch_cap = ranges
        .iter()
        .map(|&r| cost.max_batch(graph, r, gpu_mem))
        .min()
        .unwrap_or(1)
        .max(1);
    let decode_batch = ubatch.min(batch_cap).max(1);
    let busy_per_req = ranges
        .iter()
        .map(|&r| {
            let chunk_pass = cost
                .stage_compute(graph, r, u64::from(chunk_tokens))
                .as_secs_f64()
                + hop_secs;
            let decode_pass = cost
                .stage_compute(graph, r, u64::from(decode_batch))
                .as_secs_f64()
                + hop_secs;
            mean_prompt_tokens * chunk_pass / f64::from(chunk_tokens)
                + mean_output_tokens * decode_pass / f64::from(decode_batch)
        })
        .fold(0.0, f64::max);
    // Autoregressive bound: cap/cycle limits coarse configurations.
    let decode_cycle: f64 = ranges
        .iter()
        .map(|&r| {
            cost.stage_compute(graph, r, u64::from(decode_batch))
                .as_secs_f64()
                + hop_secs
        })
        .sum();
    let cycle_bound = mean_output_tokens * decode_cycle / f64::from(batch_cap);
    1.0 / busy_per_req.max(cycle_bound).max(1e-9)
}

/// Picks the always-on GPU set: the first `count` least-loaded devices.
pub fn quiet_gpus(ctx: &Ctx<'_>, count: usize) -> Vec<GpuId> {
    let cluster = ctx.state.cluster();
    let mut ids: Vec<GpuId> = cluster.topology().gpus().iter().map(|g| g.id).collect();
    ids.sort_by_key(|&g| {
        let l = cluster.load(g);
        (l.bg_mem, (l.bg_sm * 1e6) as u64, g.0)
    });
    ids.truncate(count);
    ids
}

/// Picks GPUs *preferring already-subscribed devices* (bin-packing style,
/// as memory-efficiency-oriented systems do), subject to fitting
/// `min_free` bytes; skips GPUs in `exclude`.
pub fn packed_gpus(
    ctx: &Ctx<'_>,
    count: usize,
    min_free: u64,
    exclude: &[GpuId],
) -> Option<Vec<GpuId>> {
    let cluster = ctx.state.cluster();
    let in_use = ctx.state.gpus_in_use();
    let mut candidates: Vec<GpuId> = cluster
        .topology()
        .gpus()
        .iter()
        .map(|g| g.id)
        .filter(|&g| !in_use.contains(g) && !exclude.contains(&g))
        .filter(|&g| cluster.free_mem(g) >= min_free)
        .collect();
    // Busiest-first: highest subscription, then least free memory.
    candidates.sort_by_key(|&g| {
        let l = cluster.load(g);
        (std::cmp::Reverse(l.bg_services), cluster.free_mem(g), g.0)
    });
    candidates.truncate(count);
    (candidates.len() == count).then_some(candidates)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexpipe_model::{even_layer_ranges, zoo};

    #[test]
    fn capacity_estimate_scales_with_depth() {
        let g = zoo::opt_66b();
        let cost = CostModel::default();
        let coarse = estimate_capacity(
            &g,
            &cost,
            &even_layer_ranges(&g, 4),
            16,
            1024.0,
            64.0,
            0.002,
        );
        let fine = estimate_capacity(
            &g,
            &cost,
            &even_layer_ranges(&g, 16),
            16,
            1024.0,
            64.0,
            0.002,
        );
        assert!(fine > coarse, "fine {fine} coarse {coarse}");
        assert!(coarse > 0.0);
    }
}
