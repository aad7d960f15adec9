//! FlexPipe itself: the paper's contribution, implemented as a control
//! policy over the `flexpipe-serving` substrate.
//!
//! - [`granularity`] — Eq. (4) granularity scoring with the
//!   `exp(−|ν_t − ν_k|/σ)` CV-affinity term and the Eq. (5) instance
//!   planner;
//! - [`allocation`] — the Eq. (6)–(9) fragmented-GPU assignment optimizer
//!   with the quadratic multiplexing penalty and anti-colocation rule;
//! - [`hrg`] — the Hierarchical Resource Graph (§7): scaling-event markers
//!   over server/rack/cluster plus the Eq. (13) warm-start affinity
//!   scheduler;
//! - [`consistency`] — the Eq. (10) token-level KV validity masks and the
//!   bulk/delta migration timing model that keeps switchover pauses in the
//!   milliseconds;
//! - [`scaling`] — Eq. (11) sigmoid scaling-granularity decision and the
//!   Eq. (12) SLO feasibility constraint;
//! - [`policy`] — [`policy::FlexPipePolicy`], Algorithm 1 tying it all
//!   together.

#![warn(missing_docs)]

pub mod allocation;
pub mod consistency;
pub mod granularity;
pub mod hrg;
#[cfg(test)]
mod placement_oracle;
pub mod policy;
pub mod scaling;

pub use allocation::{
    multiplexing_penalty, AllocationOptimizer, AllocationParams, Assignment, StageNeed,
};
pub use consistency::{MigrationModel, MigrationTiming, ValidityMask};
pub use granularity::{
    build_profiles, instances_needed, score, select, GranularityParams, LevelProfile,
};
pub use hrg::{Hrg, HrgParams};
pub use policy::{FlexPipeConfig, FlexPipePolicy};
pub use scaling::{min_feasible_expansion, scaling_granularity, slo_feasible, ScalingParams};
