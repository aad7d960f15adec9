//! Operator-level LLM computation graphs and the analytic cost model for
//! the FlexPipe reproduction.
//!
//! FlexPipe's partitioner (§5) consumes three per-operator profiles —
//! compute time, parameter size, activation size — plus the block structure
//! that makes refactoring-friendly cuts identifiable. With no GPUs in this
//! environment, profiles come from an analytic model calibrated to the
//! paper's own Table 2 measurements of OPT-66B (see [`cost`]).
//!
//! - [`ops`] — operator taxonomy with per-op cost annotations;
//! - [`graph`] — linearised computation graphs, cut pricing, block structure;
//! - [`zoo`] — OPT-66B, LLAMA2-7B, BERT-21B, WHISPER-9B generators;
//! - [`cost`] — the calibrated [`cost::CostModel`];
//! - [`batch`] — Eq. (3) batch-aware transmission scaling;
//! - [`partitioning_helpers`] — uniform layer splits used for calibration
//!   and as the baseline the optimising partitioner must beat.

#![warn(missing_docs)]

pub mod batch;
pub mod cost;
pub mod graph;
pub mod ops;
pub mod partitioning_helpers;
pub mod zoo;

pub use batch::BatchScaling;
pub use cost::{CostModel, MaxBatchTable, StageTerms};
pub use graph::{ModelConfig, ModelGraph, OpRange};
pub use ops::{BlockId, OpId, OpKind, Operator};
pub use partitioning_helpers::{boundaries_of, even_layer_ranges, validate_partition};
pub use zoo::ModelId;
