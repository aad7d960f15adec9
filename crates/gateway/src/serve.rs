//! Serve orchestration: the open-loop generator, the shard fleet, and
//! the record/replay entry points.
//!
//! A run is one [`std::thread::scope`]: `N` shard threads each driving
//! an independent engine partition through a `crate::shard` channel,
//! and the calling thread acting as the generator — pacing the arrival
//! schedule against the wall clock (or releasing it immediately in
//! virtual mode), routing each request through the consistent-hash ring
//! and the spillover hook, and sending it to its shard. When the
//! generator hangs up, shards drain to the horizon and report.
//!
//! [`serve_with`] records; [`replay_with`] re-executes a recording through the
//! *same* shard driver with stamps and placements read from the
//! recording instead of decided live — which is why a replay's
//! per-shard reports (and its own re-assembled recording) are
//! byte-identical to the live run's.

use flexpipe_chaos::DisruptionScript;
use flexpipe_cluster::{BackgroundProfile, ClusterSpec};
use flexpipe_metrics::Digest;
use flexpipe_serving::{
    Engine, EngineConfig, RunReport, Scenario, TraceEvent, TraceMode, TraceRecord, TraceRecorder,
};
use flexpipe_sim::SimTime;
use flexpipe_workload::{Request, RequestId, Workload};

use serde::{Deserialize, Serialize};

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::time::Duration;

use crate::pacer::Pacer;
use crate::record::{RecordedArrival, Recording, ServeSpec, RECORDING_VERSION};
use crate::router::{HashRing, NoSpillover, SpilloverPolicy};
use crate::shard::{run_shard, ShardMsg, ShardRun};
use crate::{GatewayError, PaperSetup};

/// How the generator releases the arrival schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pacing {
    /// Pace against the wall clock at `time_scale` virtual seconds per
    /// wall second; shards stamp arrivals at dequeue. The live mode.
    Wall {
        /// Virtual seconds per wall second.
        time_scale: f64,
    },
    /// Release the whole schedule immediately with its generated
    /// virtual stamps: deterministic, as fast as the engines can go.
    /// The bench and CI mode.
    Virtual,
}

/// One shard's byte-stable result artifact. (No `PartialEq`: equality
/// checks run on the serialized JSON — that is the actual contract.)
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ShardReport {
    /// Shard index.
    pub shard: u32,
    /// The shard's cluster partition name.
    pub cluster: String,
    /// Arrivals this shard absorbed.
    pub arrivals: u64,
    /// Steady-state completions (post-warmup arrivals).
    pub completed: usize,
    /// Steady-state completions within SLO.
    pub within_slo: usize,
    /// Steady-state p50 time-to-first-token, seconds.
    pub p50_ttft: f64,
    /// Steady-state p99 time-to-first-token, seconds.
    pub p99_ttft: f64,
    /// The full deterministic engine report.
    pub report: RunReport,
}

/// Everything a live (or replayed) run produces.
pub struct ServeOutcome {
    /// The replayable trace: spec + every recorded arrival.
    pub recording: Recording,
    /// Per-shard byte-stable reports, in shard order.
    pub reports: Vec<ShardReport>,
    /// Per-shard structured traces (empty unless tracing was armed).
    pub traces: Vec<TraceRecorder>,
}

/// Runs a live serve against a pre-built model setup (share it across
/// runs — lattice construction dwarfs a short serve) with tracing
/// optionally armed on every shard engine.
pub fn serve_with(
    spec: &ServeSpec,
    pacing: Pacing,
    spill: &dyn SpilloverPolicy,
    setup: &PaperSetup,
    trace_mode: TraceMode,
) -> Result<ServeOutcome, GatewayError> {
    spec.validate()?;
    let schedule = spec.schedule();
    let ring = HashRing::new(spec.shards, spec.vnodes);
    let pacer = match pacing {
        Pacing::Wall { time_scale } => {
            if !(time_scale.is_finite() && time_scale > 0.0) {
                return Err(GatewayError(format!(
                    "time scale must be finite and positive, got {time_scale}"
                )));
            }
            // The pacer sleeps up to span ÷ scale wall seconds, which
            // must fit a `Duration`.
            let span = spec.span_secs();
            if Duration::try_from_secs_f64(span / time_scale).is_err() {
                return Err(GatewayError(format!(
                    "time scale {time_scale:?} stretches the {span} s arrival span \
                     past the longest wall-clock wait"
                )));
            }
            Some(Pacer::new(time_scale))
        }
        Pacing::Virtual => None,
    };

    let n = schedule.len();
    let mut assignments = vec![0u32; n];
    let runs = run_sharded(spec, setup, trace_mode, pacer.as_ref(), |txs, depths| {
        let pacer = pacer.as_ref();
        for (gi, req) in schedule.requests.iter().enumerate() {
            if let Some(p) = pacer {
                p.sleep_until(req.arrival);
            }
            let home = ring.route(req.id.0);
            let snapshot: Vec<usize> = depths.iter().map(|d| d.load(Ordering::Relaxed)).collect();
            let shard = spill.place(home, &snapshot).min(spec.shards - 1);
            assignments[gi] = shard;
            depths[shard as usize].fetch_add(1, Ordering::Relaxed);
            txs[shard as usize]
                .send(ShardMsg {
                    id: req.id.0,
                    // Wall mode: shards stamp at dequeue. Virtual mode:
                    // the generated schedule is the stamp.
                    stamp: pacer.is_none().then_some(req.arrival),
                    prompt_tokens: req.prompt_tokens,
                    output_tokens: req.output_tokens,
                    slo: req.slo,
                })
                .expect("shard thread alive until its sender drops");
        }
    });

    assemble(spec, &schedule.requests, &assignments, runs)
}

/// Re-executes a recording against a pre-built model setup: same shard
/// drivers, same injection rule, with every stamp and placement read
/// from the recording, and tracing optionally armed on every shard
/// engine.
///
/// The returned outcome's recording is re-assembled from the replayed
/// shards and is byte-identical to the input — a built-in self-check.
pub fn replay_with(
    recording: &Recording,
    setup: &PaperSetup,
    trace_mode: TraceMode,
) -> Result<ServeOutcome, GatewayError> {
    let spec = &recording.spec;
    spec.validate()?;
    for (i, a) in recording.arrivals.iter().enumerate() {
        if a.id != i as u64 {
            return Err(GatewayError(format!(
                "recording arrivals must be dense in id order (index {i} holds id {})",
                a.id
            )));
        }
        if a.shard >= spec.shards {
            return Err(GatewayError(format!(
                "arrival {i} assigned to shard {} of {}",
                a.shard, spec.shards
            )));
        }
    }

    let assignments: Vec<u32> = recording.arrivals.iter().map(|a| a.shard).collect();
    let runs = run_sharded(spec, setup, trace_mode, None, |txs, depths| {
        for a in &recording.arrivals {
            depths[a.shard as usize].fetch_add(1, Ordering::Relaxed);
            txs[a.shard as usize]
                .send(ShardMsg {
                    id: a.id,
                    stamp: Some(a.stamp),
                    prompt_tokens: a.prompt_tokens,
                    output_tokens: a.output_tokens,
                    slo: a.slo,
                })
                .expect("shard thread alive until its sender drops");
        }
    });

    // Reconstruct the schedule-side facts from the recording itself.
    // Not a `Workload`: wall-derived stamps are monotone per shard, not
    // globally, and this list only feeds re-assembly — no engine runs it.
    let requests: Vec<Request> = recording
        .arrivals
        .iter()
        .map(|a| Request {
            id: RequestId(a.id),
            arrival: a.stamp,
            prompt_tokens: a.prompt_tokens,
            output_tokens: a.output_tokens,
            slo: a.slo,
        })
        .collect();
    assemble(spec, &requests, &assignments, runs)
}

/// Spawns the shard fleet, runs `feed` on the calling thread to drive
/// it, and joins: the structural core shared by serve and replay.
fn run_sharded<F>(
    spec: &ServeSpec,
    setup: &PaperSetup,
    trace_mode: TraceMode,
    pacer: Option<&Pacer>,
    feed: F,
) -> Vec<ShardRun>
where
    F: FnOnce(&[Sender<ShardMsg>], &[AtomicUsize]),
{
    let clusters = spec.shard_clusters();
    let horizon = SimTime::from_secs_f64(spec.span_secs() + 30.0);
    let depths: Vec<AtomicUsize> = (0..spec.shards).map(|_| AtomicUsize::new(0)).collect();
    let mut txs = Vec::with_capacity(spec.shards as usize);
    let mut rxs = Vec::with_capacity(spec.shards as usize);
    for _ in 0..spec.shards {
        let (tx, rx) = channel::<ShardMsg>();
        txs.push(tx);
        rxs.push(rx);
    }

    std::thread::scope(|s| {
        let depths = &depths;
        let handles: Vec<_> = rxs
            .into_iter()
            .zip(clusters)
            .enumerate()
            .map(|(i, (rx, cluster))| {
                s.spawn(move || {
                    let mut engine = build_shard_engine(spec, setup, cluster, horizon, i as u64);
                    engine.set_trace(trace_mode);
                    run_shard(engine, rx, pacer, &depths[i])
                })
            })
            .collect();
        feed(&txs, depths);
        drop(txs);
        handles
            .into_iter()
            .map(|h| h.join().expect("shard thread must not panic"))
            .collect()
    })
}

/// Builds shard `i`'s engine over its cluster partition: an empty
/// workload (arrivals come through the live channel), no disruptions,
/// idle background.
fn build_shard_engine(
    spec: &ServeSpec,
    setup: &PaperSetup,
    cluster: ClusterSpec,
    horizon: SimTime,
    shard: u64,
) -> Engine {
    let scenario = Scenario {
        config: EngineConfig {
            max_events: spec.max_events,
            ubatch_size: spec.ubatch_size,
            ..EngineConfig::default()
        },
        cluster,
        background: BackgroundProfile::none(),
        tier: Default::default(),
        cost: setup.cost,
        workload: Workload::default(),
        disruptions: DisruptionScript::default(),
        horizon,
        seed: crate::router::mix64(spec.seed ^ shard),
    };
    Engine::new(
        scenario,
        setup.graph.clone(),
        setup.lattice.clone(),
        spec.shard_policy(),
    )
}

/// Folds shard runs into the outcome: recording assembly (stamps merged
/// back in global id order) plus per-shard summaries.
fn assemble(
    spec: &ServeSpec,
    requests: &[Request],
    assignments: &[u32],
    runs: Vec<ShardRun>,
) -> Result<ServeOutcome, GatewayError> {
    let mut stamps: Vec<Option<SimTime>> = vec![None; requests.len()];
    for (shard, run) in runs.iter().enumerate() {
        for &(id, stamp) in &run.log {
            let slot = stamps
                .get_mut(id as usize)
                .ok_or_else(|| GatewayError(format!("shard {shard} logged unknown id {id}")))?;
            *slot = Some(stamp);
        }
    }
    let arrivals: Vec<RecordedArrival> = requests
        .iter()
        .enumerate()
        .map(|(gi, req)| {
            Ok(RecordedArrival {
                id: req.id.0,
                shard: assignments[gi],
                stamp: stamps[gi]
                    .ok_or_else(|| GatewayError(format!("arrival {gi} was never absorbed")))?,
                prompt_tokens: req.prompt_tokens,
                output_tokens: req.output_tokens,
                slo: req.slo,
            })
        })
        .collect::<Result<_, GatewayError>>()?;

    let mut reports = Vec::with_capacity(runs.len());
    let mut traces = Vec::with_capacity(runs.len());
    for (shard, run) in runs.into_iter().enumerate() {
        reports.push(summarize_shard(
            shard as u32,
            spec,
            run.log.len() as u64,
            run.observed.report,
        ));
        traces.push(run.observed.trace);
    }
    Ok(ServeOutcome {
        recording: Recording {
            version: RECORDING_VERSION,
            spec: spec.clone(),
            arrivals,
        },
        reports,
        traces,
    })
}

/// Computes one shard's steady-state summary (post-warmup arrivals
/// only, matching the fleet's windowing convention).
fn summarize_shard(shard: u32, spec: &ServeSpec, arrivals: u64, report: RunReport) -> ShardReport {
    let cut = SimTime::from_secs_f64(spec.warmup_secs);
    let mut ttft = Digest::new();
    let mut completed = 0usize;
    let mut within = 0usize;
    for o in report.outcomes.outcomes() {
        if o.arrival < cut {
            continue;
        }
        completed += 1;
        if o.within_slo() {
            within += 1;
        }
        ttft.record(o.queue.as_secs_f64() + o.prefill.as_secs_f64());
    }
    ShardReport {
        shard,
        cluster: format!("{}-cluster-shard{shard}of{}", spec.name, spec.shards),
        arrivals,
        completed,
        within_slo: within,
        p50_ttft: ttft.quantile(0.5),
        p99_ttft: ttft.quantile(0.99),
        report,
    }
}

impl ShardReport {
    /// Serializes to pretty JSON with a trailing newline (the byte-
    /// compared artifact form).
    pub fn to_json(&self) -> String {
        let mut s = serde_json::to_string_pretty(self).expect("shard report serializes");
        s.push('\n');
        s
    }
}

impl ServeOutcome {
    /// Shard `shard`'s trace with request ids rewritten from shard-local
    /// to fleet-global.
    ///
    /// Each shard engine sees a dense local id space (arrivals are
    /// appended in absorb order), so its trace's `req` payloads are
    /// local. The recording holds the global ids each shard absorbed, in
    /// absorb order (per-shard channel FIFO = the recording's id-order
    /// subsequence for that shard) — exactly the local→global map. With
    /// one shard the map is the identity. Requires tracing to have been
    /// armed on the run ([`TraceMode`] other than `Off`).
    pub fn global_trace(&self, shard: u32) -> Vec<TraceRecord> {
        let globals: Vec<u64> = self
            .recording
            .arrivals
            .iter()
            .filter(|a| a.shard == shard)
            .map(|a| a.id)
            .collect();
        self.traces[shard as usize]
            .records()
            .map(|r| {
                let mut r = r.clone();
                if let TraceEvent::RequestArrival { req }
                | TraceEvent::RequestAdmit { req, .. }
                | TraceEvent::RequestPrefillDone { req, .. }
                | TraceEvent::RequestComplete { req, .. }
                | TraceEvent::RequestAbort { req, .. } = &mut r.event
                {
                    *req = *globals
                        .get(*req as usize)
                        .expect("shard trace mentions only absorbed arrivals");
                }
                r
            })
            .collect()
    }
}

/// Convenience: a virtual-paced serve with no spillover — the fully
/// deterministic configuration tests build on.
pub fn serve_virtual(spec: &ServeSpec, setup: &PaperSetup) -> Result<ServeOutcome, GatewayError> {
    serve_with(spec, Pacing::Virtual, &NoSpillover, setup, TraceMode::Off)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_pacing_rejects_scales_it_cannot_pace() {
        let spec = ServeSpec::template();
        let setup = PaperSetup::for_model(spec.model);
        for time_scale in [0.0, -1.0, f64::NAN, f64::INFINITY, 1e-300] {
            let err = serve_with(
                &spec,
                Pacing::Wall { time_scale },
                &NoSpillover,
                &setup,
                TraceMode::Off,
            )
            .err()
            .unwrap_or_else(|| panic!("time scale {time_scale} must be rejected"));
            assert!(err.0.contains("time scale"), "{err}");
        }
    }
}
