//! The live workload, `live-paced`: one engine shard behind the gateway,
//! fed an open-loop stream paced against the wall clock, then replayed
//! from its recording.
//!
//! Untraced, `serve_with` runs with the default (no-spillover) hook.
//! Traced, an observing [`SpilloverPolicy`] times the generator: it is
//! called once per arrival, in schedule order, right after the pacer
//! released it.

use std::sync::Mutex;
use std::time::Instant;

use flexpipe_bench::PaperSetup;
use flexpipe_gateway::{
    replay_with, serve_with, NoSpillover, Pacing, ServeOutcome, ServeSpec, ShardPolicy,
    SpilloverPolicy, TraceMode,
};
use flexpipe_model::ModelId;
use flexpipe_sim::SimTime;
use flexpipe_workload::{LengthProfile, Request, Workload};

use crate::host;
use crate::output::{Fnv, Rep};
use crate::stats::{self, Agg, LinHist, LogHist};
use crate::timing;

/// Virtual seconds served per wall second.
pub const TIME_SCALE: f64 = 500.0;

/// `live-paced`: four static single-stage Llama2-7B replicas on one
/// shard, 256/64-token requests at 40 req/s with CV 2 (the shard meets
/// its SLO; 60 req/s saturates it), micro-batches of 8, a 30-minute
/// stream paced at [`TIME_SCALE`].
pub fn live_paced(seed: u64) -> ServeSpec {
    ServeSpec {
        name: "live-paced".into(),
        model: ModelId::Llama2_7B,
        seed,
        shards: 1,
        vnodes: 64,
        horizon_secs: 1800.0,
        warmup_secs: 5.0,
        rate: 30.0,
        cv: 2.0,
        lengths: LengthProfile::fixed(256, 64),
        slo_secs: 2.0,
        slo_per_output_token_ms: 100.0,
        policy: ShardPolicy::Static {
            stages: 1,
            replicas: 4,
        },
        nodes: 12,
        total_gpus: 16,
        servers_per_rack: 4,
        max_events: 200_000_000,
        ubatch_size: 8,
    }
}

/// Absorption lag of one arrival, milliseconds of wall time: how long
/// after its due time the shard stamped it, `(stamp - due) / time scale`.
pub fn absorb_lag_ms(stamp: SimTime, due: SimTime, time_scale: f64) -> f64 {
    stamp.saturating_since(due).as_secs_f64() / time_scale * 1e3
}

/// Bucket width and count of the generator-lag histogram: 1 µs over
/// 150 ms, which holds the pre-pacing set-up inside `serve_with` plus
/// any lag worth resolving.
const GEN_LAG_BUCKET_S: f64 = 1e-6;
const GEN_LAG_BUCKETS: usize = 150_000;

/// A spillover hook that keeps every request home and measures the
/// generator: how late each arrival is released against its due time,
/// and the shard queue depth it sees.
///
/// The pacer's anchor is internal to `serve_with`, so lag is read
/// against this observer's own start and shifted by the smallest lag
/// seen: it is lag relative to the least-late release, which understates
/// the true lag by that release's (a few microseconds when any arrival
/// was released without sleeping).
pub struct GenObserver<'a> {
    due: &'a [Request],
    time_scale: f64,
    start: Instant,
    state: Mutex<GenState>,
}

struct GenState {
    next: usize,
    lag: LinHist,
    depth: Agg,
}

impl<'a> GenObserver<'a> {
    /// Starts observing a stream whose arrivals are due at `due`.
    pub fn new(due: &'a [Request], time_scale: f64) -> GenObserver<'a> {
        GenObserver {
            due,
            time_scale,
            start: Instant::now(),
            state: Mutex::new(GenState {
                next: 0,
                lag: LinHist::new(0.0, GEN_LAG_BUCKET_S, GEN_LAG_BUCKETS),
                depth: Agg::default(),
            }),
        }
    }

    /// Records one release at `elapsed_s` after the observer started.
    fn release(&self, elapsed_s: f64, depth: usize) {
        let mut s = self.state.lock().expect("observer lock");
        if let Some(r) = self.due.get(s.next) {
            let x = elapsed_s - r.arrival.as_secs_f64() / self.time_scale;
            s.lag.add(x);
        }
        s.next += 1;
        s.depth.add(depth as f64);
    }

    /// Releases seen, generator lag p50 and p99 (ms), and the queue
    /// depth aggregate.
    pub fn finish(self) -> (usize, f64, f64, Agg) {
        let s = self.state.into_inner().expect("observer lock");
        let origin = s.lag.min();
        let ms = |q| s.lag.shifted(q, origin).value * 1e3;
        (s.next, ms(0.5), ms(0.99), s.depth)
    }
}

impl SpilloverPolicy for GenObserver<'_> {
    fn name(&self) -> &'static str {
        "observe"
    }

    fn place(&self, home: u32, depths: &[usize]) -> u32 {
        self.release(self.start.elapsed().as_secs_f64(), depths.iter().sum());
        home
    }
}

/// What a served stream measured, outside of timing.
struct Served {
    /// Arrivals due after warmup.
    offered: usize,
    /// Of those, completions within SLO timed from the due time.
    within: usize,
    absorb: LogHist,
}

/// Folds a served stream against its schedule: absorption lag per
/// arrival, and SLO attainment timed from each request's due time.
fn fold(spec: &ServeSpec, schedule: &Workload, outcome: &ServeOutcome) -> Served {
    let cut = SimTime::from_secs_f64(spec.warmup_secs);
    let mut absorb = LogHist::default();
    for (a, r) in outcome.recording.arrivals.iter().zip(&schedule.requests) {
        absorb.add(absorb_lag_ms(a.stamp, r.arrival, TIME_SCALE));
    }
    let (mut offered, mut within) = (0, 0);
    for (shard, report) in outcome.reports.iter().enumerate() {
        // A shard numbers its arrivals densely in absorb order, which is
        // the recording's id order restricted to the shard; its outcomes
        // are sorted by that local id.
        let outcomes = report.report.outcomes.outcomes();
        let mut next = 0;
        let mine = outcome
            .recording
            .arrivals
            .iter()
            .filter(|a| a.shard == shard as u32);
        for (local, a) in mine.enumerate() {
            let Some(due) = schedule.requests.get(a.id as usize).map(|r| r.arrival) else {
                continue;
            };
            while outcomes.get(next).is_some_and(|o| o.id < local as u64) {
                next += 1;
            }
            if due < cut {
                continue;
            }
            offered += 1;
            if let Some(o) = outcomes.get(next).filter(|o| o.id == local as u64) {
                if o.completion.saturating_since(due) <= o.slo {
                    within += 1;
                }
            }
        }
    }
    Served {
        offered,
        within,
        absorb,
    }
}

/// Conservation and replay checks for one served stream.
fn check(
    rep: &mut Rep,
    label: &str,
    schedule: &Workload,
    outcome: &ServeOutcome,
    setup: &PaperSetup,
) {
    let arrivals = &outcome.recording.arrivals;
    rep.check(arrivals.len() == schedule.len(), || {
        format!(
            "{label}: recorded {} of {} arrivals",
            arrivals.len(),
            schedule.len()
        )
    });
    let faithful = arrivals
        .iter()
        .zip(&schedule.requests)
        .enumerate()
        .all(|(i, (a, r))| {
            a.id == i as u64
                && a.prompt_tokens == r.prompt_tokens
                && a.output_tokens == r.output_tokens
                && a.slo == r.slo
        });
    rep.check(faithful, || {
        format!("{label}: recording does not match the schedule")
    });
    let absorbed: u64 = outcome.reports.iter().map(|r| r.arrivals).sum();
    rep.check(absorbed == schedule.len() as u64, || {
        format!(
            "{label}: shards absorbed {absorbed} of {} arrivals",
            schedule.len()
        )
    });
    let mut digest = Fnv::default();
    for r in &outcome.reports {
        crate::check_report(rep, label, &r.report, r.arrivals as usize, &mut digest);
    }
    match replay_with(&outcome.recording, setup, TraceMode::Off) {
        Ok(replayed) => {
            rep.check(replayed.recording == outcome.recording, || {
                format!("{label}: replay re-assembled a different recording")
            });
            let same = replayed.reports.len() == outcome.reports.len()
                && replayed
                    .reports
                    .iter()
                    .zip(&outcome.reports)
                    .all(|(a, b)| a.to_json() == b.to_json());
            rep.check(same, || {
                format!("{label}: replayed reports differ from the live run's")
            });
        }
        Err(e) => rep.check(false, || format!("{label}: replay failed: {e}")),
    }
}

/// What the untraced pass hands the traced one.
pub struct Untraced {
    /// Set-up plus serve wall time, seconds.
    pub wall_s: f64,
}

/// One untraced repetition: end-to-end metrics plus output checks.
///
/// `setup_s` is the median of `setups` set-ups: the served stream's own,
/// then `setups - 1` more once every other reading is taken.
pub fn run_untraced(spec: &ServeSpec, setups: usize, rep: &mut Rep) -> Untraced {
    let t0 = Instant::now();
    let setup = PaperSetup::for_model(spec.model);
    let schedule = spec.schedule();
    let set_up = Instant::now();
    let cpu0 = host::cpu_secs();
    let pacing = Pacing::Wall {
        time_scale: TIME_SCALE,
    };
    let served = serve_with(spec, pacing, &NoSpillover, &setup, TraceMode::Off);
    let serve_end = Instant::now();
    rep.sent = schedule.len() as u64;
    let outcome = match served {
        Ok(o) => o,
        Err(e) => {
            rep.check(false, || format!("serve failed: {e}"));
            return Untraced { wall_s: 0.0 };
        }
    };
    let folded = fold(spec, &schedule, &outcome);
    let end = Instant::now();
    let cpu_s = host::cpu_secs() - cpu0;
    let peak = host::peak_rss_mb();

    let mut setup_s = vec![(set_up - t0).as_secs_f64()];
    for _ in 1..setups {
        let t = Instant::now();
        drop((PaperSetup::for_model(spec.model), spec.schedule()));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let first = &outcome.reports[0];
    rep.put("setup_s", stats::median(&mut setup_s));
    rep.put("run_s", (end - set_up).as_secs_f64());
    rep.put("peak_rss_mb", peak);
    rep.put("cpu_s", cpu_s);
    rep.put("ttft_p50_s", first.p50_ttft);
    rep.put("ttft_p99_s", first.p99_ttft);
    rep.put(
        "slo_attainment",
        folded.within as f64 / folded.offered.max(1) as f64,
    );
    rep.put(
        "gpus_held_mean",
        outcome
            .reports
            .iter()
            .map(|r| r.report.mean_gpus_held())
            .sum(),
    );
    rep.succeeded = outcome
        .reports
        .iter()
        .map(|r| r.report.outcomes.len() as u64)
        .sum();
    check(rep, "untraced", &schedule, &outcome, &setup);
    Untraced {
        wall_s: (serve_end - t0).as_secs_f64(),
    }
}

/// One traced repetition: the untraced pass, then a second live serve
/// with the generator observed and every gateway call timed.
pub fn run_traced(spec: &ServeSpec, setups: usize, rep: &mut Rep) {
    let untraced = run_untraced(spec, setups, rep);
    let t0 = Instant::now();
    let setup = PaperSetup::for_model(spec.model);
    let lattice_s = t0.elapsed().as_secs_f64();
    let t = Instant::now();
    let schedule = spec.schedule();
    let generate_s = t.elapsed().as_secs_f64();
    let observer = GenObserver::new(&schedule.requests, TIME_SCALE);
    let pacing = Pacing::Wall {
        time_scale: TIME_SCALE,
    };
    let t = Instant::now();
    let served = serve_with(spec, pacing, &observer, &setup, TraceMode::Off);
    let serve_s = t.elapsed().as_secs_f64();
    let wall_s = t0.elapsed().as_secs_f64();
    let outcome = match served {
        Ok(o) => o,
        Err(e) => return rep.check(false, || format!("traced serve failed: {e}")),
    };
    let (released, gen_p50, gen_p99, depth) = observer.finish();
    rep.check(released == schedule.len(), || {
        format!(
            "generator released {released} of {} arrivals",
            schedule.len()
        )
    });
    let folded = fold(spec, &schedule, &outcome);
    let t = Instant::now();
    check(rep, "traced", &schedule, &outcome, &setup);
    let replay_s = t.elapsed().as_secs_f64();

    let events: u64 = outcome.reports.iter().map(|r| r.report.events).sum();
    let attributed = lattice_s + generate_s + serve_s;
    rep.put("traced.coverage", timing::coverage(attributed, wall_s));
    rep.put("traced.overhead", wall_s / untraced.wall_s);
    rep.put("partition.lattice_s", lattice_s);
    rep.put("workload.generate_s", generate_s);
    rep.put("workload.requests", schedule.len() as f64);
    rep.put("sim.events", events as f64);
    rep.put("gateway.serve_s", serve_s);
    rep.put("gateway.gen_lag_p50_ms", gen_p50);
    rep.put("gateway.gen_lag_p99_ms", gen_p99);
    rep.put("gateway.depth_max", depth.max);
    rep.put("gateway.depth_mean", depth.mean());
    rep.put(
        "gateway.absorb_lag_p50_ms",
        folded.absorb.quantile(0.5).value,
    );
    rep.put(
        "gateway.absorb_lag_p99_ms",
        folded.absorb.quantile(0.99).value,
    );
    rep.put(
        "gateway.absorb_lag_p999_ms",
        folded.absorb.quantile(0.999).value,
    );
    rep.put("gateway.arrivals", folded.absorb.count() as f64);
    rep.put("gateway.events", events as f64);
    rep.put("gateway.replay_s", replay_s);
    let reports: Vec<_> = outcome.reports.iter().map(|r| &r.report).collect();
    crate::put_sim_latency(rep, &reports, spec.warmup_secs);
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexpipe_sim::SimDuration;
    use flexpipe_workload::RequestId;

    fn req(id: u64, due_s: f64) -> Request {
        Request {
            id: RequestId(id),
            arrival: SimTime::from_secs_f64(due_s),
            prompt_tokens: 1,
            output_tokens: 1,
            slo: SimDuration::from_secs_f64(1.0),
        }
    }

    #[test]
    fn absorb_lag_is_stamp_minus_due_over_time_scale() {
        // Stamped 0.05 virtual seconds late at 500x: 0.1 ms of wall.
        let lag = absorb_lag_ms(
            SimTime::from_secs_f64(10.05),
            SimTime::from_secs_f64(10.0),
            500.0,
        );
        assert!((lag - 0.1).abs() < 1e-9, "{lag}");
        // A stamp can never precede its due time; rounding saturates at 0.
        assert_eq!(
            absorb_lag_ms(SimTime::ZERO, SimTime::from_secs_f64(1.0), 500.0),
            0.0
        );
    }

    #[test]
    fn generator_lag_is_measured_from_the_least_late_release() {
        // Due at 0, 1, 2, 3 ms of wall (time scale 1); released with a
        // constant 5 ms offset (set-up before pacing) plus lags of
        // 20, 0, 50 and 10 µs.
        let due: Vec<Request> = (0..4).map(|i| req(i, f64::from(i as u32) * 1e-3)).collect();
        let obs = GenObserver::new(&due, 1.0);
        for (i, lag_us) in [20.0, 0.0, 50.0, 10.0].iter().enumerate() {
            obs.release(5e-3 + i as f64 * 1e-3 + lag_us * 1e-6, i);
        }
        let (released, p50, p99, depth) = obs.finish();
        assert_eq!(released, 4);
        // Nearest-rank p50 of {0, 10, 20, 50} µs is 10 µs; p99 is 50 µs.
        assert!((p50 - 0.010).abs() <= 0.001, "{p50}");
        assert!((p99 - 0.050).abs() <= 0.001, "{p99}");
        assert_eq!((depth.max, depth.mean()), (3.0, 1.5));
    }
}
