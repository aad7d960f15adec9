//! The pipelined LLM serving engine of the FlexPipe reproduction.
//!
//! Mechanism/policy split: this crate owns every *mechanism* — request
//! admission and continuous batching ([`engine`]), micro-batch pipeline
//! execution over simulated GPUs ([`instance`]), instance lifecycle
//! including the inflight-refactor state machine, and the host-memory
//! parameter cache — while *decisions* (when to scale, which granularity,
//! where to place) are delegated to [`policy::ControlPolicy`]
//! implementations: FlexPipe in `flexpipe-core` and the baselines in
//! `flexpipe-baselines`. All systems therefore compare on identical
//! substrate, as in the paper's testbed.

#![warn(missing_docs)]

pub mod admission;
pub mod config;
pub mod engine;
pub mod instance;
pub mod policy;
pub mod queueing;
pub mod report;
pub mod version;

pub use admission::{churn, AdmissionIndex};
pub use config::EngineConfig;
pub use engine::indexes::{decode_slot_churn, server_load_churn, DecodeSlotTracker};
pub use engine::{
    Ctx, Engine, EngineState, Event, LiveEngine, ObservedRun, Scenario, SteppedEngine,
};
pub use flexpipe_obs::{TraceEvent, TraceMode, TraceRecord, TraceRecorder};
pub use instance::{
    Instance, InstanceId, InstanceSnapshot, InstanceState, MicroBatch, Phase, UbatchId,
};
pub use policy::{
    cold_respawn, cold_respawn_instance, ActionError, ControlPolicy, CrippledInstance,
    DisruptionNotice, Placement, RefactorPlan, StageAssign,
};
pub use queueing::{optimal_depth_heuristic, predict, GgsParams, GgsPrediction};
pub use report::RunReport;
pub use version::{engine_fingerprint, ENGINE_SEMANTICS_VERSION};
