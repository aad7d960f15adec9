//! Engine configuration.

use serde::{Deserialize, Serialize};

use flexpipe_model::BatchScaling;
use flexpipe_sim::SimDuration;

/// Tunables of the serving engine.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EngineConfig {
    /// Period of the policy control loop (Algorithm 1's optimisation
    /// interval).
    pub control_interval: SimDuration,
    /// Decode micro-batch size: requests grouped into one recirculating
    /// micro-batch.
    pub ubatch_size: u32,
    /// Maximum requests co-prefilled in one pass.
    pub prefill_batch: u32,
    /// Maximum prompt tokens processed per prefill pass (Sarathi-style
    /// chunked prefill: bounds stage occupancy so decode passes are not
    /// stuck behind long prompt convoys).
    pub prefill_token_cap: u64,
    /// Sliding window of the arrival monitor (ν_t, λ_t).
    pub monitor_window: SimDuration,
    /// Background fragmentation churn step.
    pub churn_step: SimDuration,
    /// How long evicted parameters stay cached in host memory.
    pub host_cache_ttl: SimDuration,
    /// Per-unit slowdown from background SM contention: stage compute is
    /// multiplied by `1 + interference_coeff * bg_sm`.
    pub interference_coeff: f64,
    /// Upper bound on simulation events (runaway guard).
    pub max_events: u64,
    /// Optional Eq. (3) batch-aware transmission scaling: when set,
    /// inter-stage activation bytes grow sub-linearly with the micro-batch
    /// size (transport compression / padding amortisation). `None`
    /// preserves the linear model the published experiments use.
    pub batch_scaling: Option<BatchScaling>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            control_interval: SimDuration::from_millis(1000),
            ubatch_size: 128,
            prefill_batch: 16,
            prefill_token_cap: 1024,
            monitor_window: SimDuration::from_secs(30),
            churn_step: SimDuration::from_secs(10),
            host_cache_ttl: SimDuration::from_secs(120),
            interference_coeff: 0.6,
            max_events: 200_000_000,
            batch_scaling: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_consistent() {
        let c = EngineConfig::default();
        assert!(c.ubatch_size >= 1);
        assert!(c.prefill_batch >= 1);
        assert!(c.control_interval > SimDuration::ZERO);
        assert!(c.monitor_window > c.control_interval);
    }
}
