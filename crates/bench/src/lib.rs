//! Experiment harness regenerating every table and figure of the FlexPipe
//! paper.
//!
//! One binary per artefact lives in `src/bin/` (`table1`, `table2`,
//! `fig1`–`fig13`, `eq1`, `case_study`, plus `run_all`). This library
//! holds the shared setup: the paper's evaluation scenario
//! (42-server/82-GPU testbed, OPT-66B, 20 QPS Splitwise-like workload),
//! system constructors, and result output helpers.

#![warn(missing_docs)]

pub mod output;
pub mod setup;
pub mod systems;

pub use output::{results_dir, write_result, SteadyWindow};
pub use setup::{env_f64, env_u64, E2eParams, PaperSetup};
pub use systems::SystemId;
