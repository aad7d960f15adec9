//! FlexPipe: a full-system reproduction of *"FlexPipe: Adapting Dynamic
//! LLM Serving Through Inflight Pipeline Refactoring in Fragmented
//! Serverless Clusters"* (EuroSys '26) in Rust.
//!
//! The facade re-exports every subsystem crate:
//!
//! - [`sim`] — deterministic discrete-event engine (time, events, RNG);
//! - [`cluster`] — fragmented serverless GPU cluster model;
//! - [`model`] — operator-level LLM graphs + the Table-2-calibrated cost
//!   model;
//! - [`partition`] — the §5 constrained partitioner and granularity
//!   lattice;
//! - [`workload`] — CV-controlled arrival processes and trace synthesis;
//! - [`metrics`] — latency/goodput/stall/utilisation instrumentation;
//! - [`chaos`] — scriptable disruptions: preemptions, GPU loss, surges;
//! - [`obs`] — engine-native tracing, event registry, wall-clock profiler;
//! - [`serving`] — the pipelined serving engine and policy interface;
//! - [`core`] — FlexPipe itself (Eq. 4-13, Algorithm 1);
//! - [`baselines`] — AlpaServe-, MuxServe-, ServerlessLLM- and Tetris-like
//!   policies;
//! - [`mod@bench`] — the paper's figure/table harness and system registry;
//! - [`check`] — the schedule-equivalence checker: semantic trace
//!   equivalence and bounded interleaving exploration;
//! - [`fleet`] — parallel scenario-fleet orchestration: declarative
//!   sweeps (CV × rate × cluster × policy), a thread-pool grid runner,
//!   per-policy comparison reports, a regression gate, and distributed
//!   campaigns over a shared cell cache.
//!
//! The crate walk with the full dependency diagram lives in
//! `docs/ARCHITECTURE.md`.
//!
//! # Quickstart
//!
//! ```
//! use std::sync::Arc;
//! use flexpipe::prelude::*;
//!
//! // Model + granularity lattice.
//! let graph = Arc::new(flexpipe::model::zoo::llama2_7b());
//! let cost = CostModel::default();
//! let partitioner = Partitioner::new(PartitionParams::default(), cost);
//! let lattice = Arc::new(
//!     GranularityLattice::build(&partitioner, &graph, 8, &[1, 2, 4, 8], &cost).unwrap(),
//! );
//!
//! // A 60-second bursty workload on the paper's 82-GPU testbed.
//! let workload = WorkloadSpec {
//!     arrivals: ArrivalSpec::GammaRenewal { rate: 4.0, cv: 2.0 },
//!     lengths: LengthProfile::fixed(256, 16),
//!     slo: SimDuration::from_secs(5),
//!     slo_per_output_token: SimDuration::ZERO,
//!     horizon_secs: 60.0,
//! }
//! .generate(&mut SimRng::seed(42));
//!
//! let scenario = Scenario {
//!     config: EngineConfig::default(),
//!     cluster: ClusterSpec::paper_testbed(),
//!     background: BackgroundProfile::testbed_like(),
//!     tier: TierConfig::default(),
//!     cost,
//!     workload,
//!     disruptions: Default::default(),
//!     horizon: SimTime::from_secs(90),
//!     seed: 42,
//! };
//!
//! // Serve it with FlexPipe.
//! let policy = FlexPipePolicy::new(FlexPipeConfig {
//!     granularity: GranularityParams { base_stages: 2, ..Default::default() },
//!     peak_gpus: 8,
//!     ..Default::default()
//! });
//! let report = Engine::new(scenario, graph, lattice, Box::new(policy)).run();
//! assert!(report.completed() > 0);
//! ```

pub use flexpipe_baselines as baselines;
pub use flexpipe_bench as bench;
pub use flexpipe_chaos as chaos;
pub use flexpipe_check as check;
pub use flexpipe_cluster as cluster;
pub use flexpipe_core as core;
pub use flexpipe_fleet as fleet;
pub use flexpipe_metrics as metrics;
pub use flexpipe_model as model;
pub use flexpipe_obs as obs;
pub use flexpipe_partition as partition;
pub use flexpipe_serving as serving;
pub use flexpipe_sim as sim;
pub use flexpipe_workload as workload;

/// The most common imports for building and running experiments.
pub mod prelude {
    pub use flexpipe_baselines::{
        AlpaServeConfig, AlpaServeLike, MuxServeConfig, MuxServeLike, ServerlessLlmConfig,
        ServerlessLlmLike, StaticPipeline, TetrisConfig, TetrisLike,
    };
    pub use flexpipe_bench::SystemId;
    pub use flexpipe_chaos::{Disruption, DisruptionEvent, DisruptionScript, RandomDisruptions};
    pub use flexpipe_cluster::{
        BackgroundProfile, Cluster, ClusterSpec, GpuId, ServerId, TierConfig, TransferEngine,
    };
    pub use flexpipe_core::{
        FlexPipeConfig, FlexPipePolicy, GranularityParams, Hrg, HrgParams, MigrationModel,
        ValidityMask,
    };
    pub use flexpipe_fleet::{
        run_sweep, BackgroundShape, ClusterShape, DisruptionShape, FleetReport, GateConfig,
        PolicySpec, RunOptions, SweepSpec,
    };
    pub use flexpipe_metrics::{analyze_stalls, Digest, OutcomeLog, StallConfig, Table};
    pub use flexpipe_model::{CostModel, ModelGraph, ModelId, OpRange};
    pub use flexpipe_partition::{GranularityLattice, Partition, PartitionParams, Partitioner};
    pub use flexpipe_serving::{
        ControlPolicy, Ctx, Engine, EngineConfig, InstanceState, Placement, RunReport, Scenario,
    };
    pub use flexpipe_sim::{SimDuration, SimRng, SimTime};
    pub use flexpipe_workload::{ArrivalSpec, CvEstimator, LengthProfile, Workload, WorkloadSpec};
}
