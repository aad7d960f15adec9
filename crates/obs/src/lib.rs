//! Observability for the FlexPipe serving engine: structured
//! virtual-time-stamped traces, a per-event-kind counter/histogram
//! registry, and wall-clock per-scope statistics for profiling drivers.
//!
//! The crate is deliberately engine-independent — trace records carry
//! plain integer ids and seconds, not engine types — so the same format
//! serves the `fleet trace` CLI and the schedule-equivalence checker
//! (`flexpipe-check`), which decides whether two traces mean the same
//! run modulo the order of commuting events.
//!
//! Three layers; the first two are always compiled into the engine and
//! cheaply disableable, the third lives outside it:
//!
//! - [`TraceRecorder`] — the structured event log. `Off` costs one branch
//!   per hook; `Ring(n)` keeps the last `n` records in constant memory
//!   (counters still see everything); `Full` retains the whole run for
//!   JSONL export. Records are stamped with *virtual* time only, so a
//!   trace is byte-stable across machines and thread counts.
//! - [`EventRegistry`] — per-event-kind counts plus P² quantiles of the
//!   virtual-time gap each kind closes (how simulated time distributes
//!   over the engine's handlers). Fed by the recorder in every mode,
//!   recomputable offline from a parsed trace.
//! - [`Profiler`] — per-scope *wall-clock* statistics fed by a driver
//!   that times the engine from outside (`fleet trace profile` times
//!   each `SteppedEngine` step per event kind). The engine itself never
//!   reads a clock. Wall times are inherently non-deterministic, so
//!   profiler output stays outside every cached or byte-compared
//!   artifact, like the fleet's per-cell wall-clock rows.

#![warn(missing_docs)]

pub mod event;
pub mod profile;
pub mod recorder;
pub mod registry;
pub mod summary;

pub use event::{TraceEvent, TraceRecord};
pub use profile::Profiler;
pub use recorder::{TraceMode, TraceRecorder};
pub use registry::{EventRegistry, KindStats};
pub use summary::{parse_jsonl, ParseError, TraceSummary};
