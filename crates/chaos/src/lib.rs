//! `flexpipe-chaos`: cluster disruption and resilience scripting.
//!
//! FlexPipe's central claim is that pipelines can be refactored *inflight*
//! while fragmented serverless capacity shifts under the tenant. Background
//! load drift alone never exercises the hardest case — capacity being
//! *revoked* while micro-batches are in flight. This crate provides the
//! scenario vocabulary for exactly that:
//!
//! - [`script`] — the declarative [`DisruptionScript`]: timed
//!   [`Disruption`] events (GPU failures, spot preemptions with a grace
//!   window, capacity returns, arrival-rate surges) expressible in JSON;
//! - [`gen`] — seed-derived MTBF-style stochastic generators
//!   ([`RandomDisruptions`]) that realize a script deterministically from a
//!   fleet cell seed, so every policy in a cell group faces the identical
//!   disruption trace;
//! - [`surge`] — rate-surge application: a piecewise time-warp that maps a
//!   workload generated over a *virtual* horizon onto the real horizon so
//!   arrival density multiplies inside surge windows.
//!
//! The execution side lives in `flexpipe-cluster` (capacity revocation) and
//! `flexpipe-serving` (`Event::Revoke` / `Event::Restore`, in-flight
//! micro-batch kill/rescue and recovery accounting); this crate is pure
//! description and stays free of engine dependencies.

#![warn(missing_docs)]

pub mod gen;
pub mod script;
pub mod surge;

pub use gen::RandomDisruptions;
pub use script::{Disruption, DisruptionEvent, DisruptionScript, SurgeWindow};
pub use surge::{virtual_horizon, warp_arrivals};
