//! The offline workloads, `paper-cv8` and `fleet-1k`: one fleet cell
//! each, built from public crate items the way `flexpipe-fleet run`
//! builds a cell.
//!
//! Untraced, the cell runs on the production path (`Engine::run`, the
//! indexed engine mode); the policy is wrapped only to stamp the end of
//! `ControlPolicy::init`, which splits set-up from run. Traced, the same
//! inputs run through `SteppedEngine::step(0)` (bit-identical to
//! `Engine::run`) with each call timed under the event kind it returns
//! and every policy hook timed by the [`TimedPolicy`] decorator.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use flexpipe_bench::{PaperSetup, SystemId};
use flexpipe_chaos::{
    virtual_horizon, warp_arrivals, Disruption, DisruptionEvent, DisruptionScript,
};
use flexpipe_fleet::{
    realize_disruptions, summarize_cell, BackgroundShape, Cell, CellMetrics, CellResult,
    ClusterShape, DisruptionShape, FleetReport, PolicySpec, SweepSpec,
};
use flexpipe_model::ModelId;
use flexpipe_serving::{Engine, EngineConfig, RunReport, Scenario, SteppedEngine};
use flexpipe_sim::{SimDuration, SimRng, SimTime};
use flexpipe_workload::{ArrivalSpec, LengthProfile, Workload, WorkloadSpec};

use crate::host;
use crate::output::{Fnv, Rep};
use crate::stats::{self, Agg};
use crate::timing::{self, lock, PolicyTimes, SharedTimes, TimedPolicy, HOOKS, KINDS};

/// `paper-cv8`: FlexPipe serving OPT-66B on the paper's 82-GPU testbed
/// with its background tenants, Gamma arrivals at 50 req/s with CV 8 and
/// the paper's length profile, for an hour of simulated time.
pub fn paper_cv8(seed: u64) -> SweepSpec {
    SweepSpec {
        name: "paper-cv8".into(),
        model: ModelId::Opt66B,
        seed,
        horizon_secs: 3600.0,
        warmup_secs: 60.0,
        slo_secs: 2.0,
        slo_per_output_token_ms: 100.0,
        background: BackgroundShape::TestbedLike,
        lengths: LengthProfile::splitwise_like(),
        max_events: 200_000_000,
        cvs: vec![8.0],
        rates: vec![50.0],
        clusters: vec![ClusterShape::PaperTestbed],
        policies: vec![PolicySpec::Paper(SystemId::FlexPipe)],
        disruptions: vec![DisruptionShape::None],
        replicas: 1,
    }
}

/// `fleet-1k`: FlexPipe pinned at 1,000 standing 4-stage Llama2-7B
/// replicas on 4,064 idle GPUs, 20 req/s at CV 2 with log-normal prompts
/// (median 1,536 tokens) and 4 output tokens, for 30 simulated minutes,
/// under server preemptions every 30 s ([`preemptions`]).
pub fn fleet_1k(seed: u64) -> SweepSpec {
    let total_gpus = 4064;
    let servers = total_gpus / 8;
    let horizon_secs = 1800.0;
    SweepSpec {
        name: "fleet-1k".into(),
        model: ModelId::Llama2_7B,
        seed,
        horizon_secs,
        warmup_secs: 2.0,
        slo_secs: 2.0,
        slo_per_output_token_ms: 100.0,
        background: BackgroundShape::Idle,
        // On this never-queueing fleet TTFT is a function of prompt length
        // alone, stepping at every 1,024-token prefill chunk: fixed prompts
        // would give every seed the same TTFT, and a quantile near a step
        // (or the length clamp) would jump between seeds. Log-normal
        // prompts around 1,536 tokens keep p50 and p99 (~3,470 tokens)
        // inside a step.
        lengths: LengthProfile {
            prompt_median: 1536.0,
            prompt_sigma: 0.35,
            prompt_range: (16, 8192),
            output_mean: 4.0,
            output_range: (4, 4),
        },
        max_events: 200_000_000,
        cvs: vec![2.0],
        rates: vec![20.0],
        clusters: vec![ClusterShape::Custom {
            nodes: servers,
            total_gpus,
            servers_per_rack: 8,
        }],
        policies: vec![PolicySpec::FlexPipeFleet { replicas: 1000 }],
        disruptions: vec![DisruptionShape::Script(preemptions(
            seed,
            servers,
            horizon_secs,
        ))],
        replicas: 1,
    }
}

/// Spot preemptions of seed-chosen servers every 30 s from t = 10 s, each
/// with an 8 s grace window, each server returning 60 s after it was
/// revoked. A fixed period rather than an exponential one keeps the
/// number of preemptions, and so the rescue work, the same for every
/// seed.
pub fn preemptions(seed: u64, servers: u32, horizon_secs: f64) -> DisruptionScript {
    let mut rng = SimRng::seed(seed).stream_named("preemptions");
    let mut events = Vec::new();
    let mut at_secs = 10.0;
    while at_secs < horizon_secs {
        let server = rng.below(u64::from(servers)) as u32;
        events.push(DisruptionEvent {
            at_secs,
            kind: Disruption::ServerPreempt {
                server,
                grace_secs: 8.0,
            },
        });
        events.push(DisruptionEvent {
            at_secs: at_secs + 8.0 + 60.0,
            kind: Disruption::CapacityReturn {
                gpus: Vec::new(),
                servers: vec![server],
            },
        });
        at_secs += 30.0;
    }
    DisruptionScript {
        name: "preempt-every-30s".into(),
        events,
    }
    .sorted()
}

/// Counts describing a cell's generated inputs (the inputs themselves
/// move into the engine, as in the fleet runner).
struct Inputs {
    cell: Cell,
    /// Requests generated.
    requests: usize,
    /// Requests arriving after warmup: the SLO-attainment denominator.
    offered: usize,
    /// Disruption events realized.
    disruptions: usize,
}

/// Generates a cell's workload and disruption trace from its seed,
/// exactly as the fleet runner does.
fn generate(spec: &SweepSpec) -> (Inputs, Workload, DisruptionScript) {
    let cell = spec.expand().remove(0);
    let span = spec.warmup_secs + spec.horizon_secs;
    let script = realize_disruptions(spec, &cell);
    let mut workload = WorkloadSpec {
        arrivals: ArrivalSpec::GammaRenewal {
            rate: cell.rate,
            cv: cell.cv,
        },
        lengths: spec.lengths,
        slo: SimDuration::from_secs_f64(spec.slo_secs),
        slo_per_output_token: SimDuration::from_secs_f64(spec.slo_per_output_token_ms / 1e3),
        horizon_secs: virtual_horizon(span, &script),
    }
    .generate(&mut SimRng::seed(cell.seed));
    warp_arrivals(&mut workload, &script, span);
    let cut = SimTime::from_secs_f64(spec.warmup_secs);
    let inputs = Inputs {
        cell,
        requests: workload.len(),
        offered: workload
            .requests
            .iter()
            .filter(|r| r.arrival >= cut)
            .count(),
        disruptions: script.events.len(),
    };
    (inputs, workload, script)
}

/// Builds the cell's engine around a timing-wrapped policy.
fn build(
    spec: &SweepSpec,
    setup: &PaperSetup,
    inputs: &Inputs,
    (workload, disruptions): (Workload, DisruptionScript),
    times: &SharedTimes,
    traced: bool,
) -> Engine {
    let span = spec.warmup_secs + spec.horizon_secs;
    let scenario = Scenario {
        config: EngineConfig {
            max_events: spec.max_events,
            ..EngineConfig::default()
        },
        cluster: inputs.cell.cluster.cluster(),
        background: spec.background.profile(),
        tier: Default::default(),
        cost: setup.cost,
        workload,
        disruptions,
        horizon: SimTime::from_secs_f64(span + 30.0),
        seed: inputs.cell.seed,
    };
    let policy = inputs.cell.policy.build(inputs.cell.rate);
    Engine::new(
        scenario,
        setup.graph.clone(),
        setup.lattice.clone(),
        Box::new(TimedPolicy::new(policy, times.clone(), traced)),
    )
}

/// The fleet artifact `flexpipe-fleet run` would write for this cell.
fn report_json(spec: &SweepSpec, cell: &Cell, metrics: &CellMetrics) -> String {
    FleetReport::assemble(
        spec.clone(),
        vec![CellResult {
            cell: cell.clone(),
            metrics: metrics.clone(),
        }],
    )
    .to_json()
}

/// Output checks shared by both passes; returns the report digest.
fn check(
    rep: &mut Rep,
    label: &str,
    report: &RunReport,
    inputs: &Inputs,
    metrics: &CellMetrics,
    json: &str,
) -> u64 {
    let mut digest = Fnv::default();
    crate::check_report(rep, label, report, inputs.requests, &mut digest);
    rep.check(metrics.completed <= metrics.offered, || {
        format!(
            "{label}: {} post-warmup completions of {} offered",
            metrics.completed, metrics.offered
        )
    });
    digest.bytes(json.as_bytes());
    digest.finish()
}

/// What the untraced pass hands the traced one.
pub struct Untraced {
    /// Set-up plus run wall time, seconds.
    pub wall_s: f64,
    /// The fleet artifact's bytes.
    pub json: String,
}

/// Times one more set-up of the cell, through `ControlPolicy::init`,
/// and drops it unrun. Seconds.
fn set_up_again(spec: &SweepSpec) -> f64 {
    let t0 = Instant::now();
    let setup = PaperSetup::for_model(spec.model);
    let (inputs, workload, script) = generate(spec);
    let times: SharedTimes = Arc::new(Mutex::new(PolicyTimes::default()));
    let engine = build(spec, &setup, &inputs, (workload, script), &times, false);
    drop(SteppedEngine::new(engine));
    let init_done = lock(&times).init_done.unwrap_or(t0);
    (init_done - t0).as_secs_f64()
}

/// One untraced repetition: end-to-end metrics plus output checks.
/// `setup_s` is the median of `setups` set-ups: the measured run's own,
/// then `setups - 1` more once every other reading is taken.
pub fn run_untraced(spec: &SweepSpec, setups: usize, rep: &mut Rep) -> Untraced {
    let t0 = Instant::now();
    let setup = PaperSetup::for_model(spec.model);
    let (inputs, workload, script) = generate(spec);
    let times: SharedTimes = Arc::new(Mutex::new(PolicyTimes::default()));
    let engine = build(spec, &setup, &inputs, (workload, script), &times, false);
    let report = engine.run();
    let metrics = summarize_cell(&report, spec.warmup_secs, spec.horizon_secs, inputs.offered);
    let json = report_json(spec, &inputs.cell, &metrics);
    let end = Instant::now();
    let cpu_s = host::cpu_secs() - lock(&times).init_cpu_s;
    let peak = host::peak_rss_mb();

    let init_done = lock(&times).init_done.unwrap_or(t0);
    let mut setup_s = vec![(init_done - t0).as_secs_f64()];
    for _ in 1..setups {
        setup_s.push(set_up_again(spec));
    }
    rep.put("setup_s", stats::median(&mut setup_s));
    rep.put("run_s", (end - init_done).as_secs_f64());
    rep.put("peak_rss_mb", peak);
    rep.put("cpu_s", cpu_s);
    rep.put("ttft_p50_s", metrics.p50_ttft);
    rep.put("ttft_p99_s", metrics.p99_ttft);
    rep.put("slo_attainment", metrics.slo_attainment);
    rep.put("gpus_held_mean", metrics.mean_gpus_held);

    rep.sent = inputs.requests as u64;
    rep.succeeded = report.outcomes.len() as u64;
    rep.report_digest = check(rep, "untraced", &report, &inputs, &metrics, &json);
    Untraced {
        wall_s: (end - t0).as_secs_f64(),
        json,
    }
}

/// One traced repetition: the untraced pass, then the same inputs with
/// every layer call timed. Fails the checks when the two passes'
/// reports differ.
pub fn run_traced(spec: &SweepSpec, setups: usize, rep: &mut Rep) {
    let untraced = run_untraced(spec, setups, rep);
    let untraced_digest = rep.report_digest;
    let mut attributed = 0.0;
    let mut lap = |from: Instant| {
        let s = from.elapsed().as_secs_f64();
        attributed += s;
        s
    };

    let t0 = Instant::now();
    let t = Instant::now();
    let setup = PaperSetup::for_model(spec.model);
    let lattice_s = lap(t);
    let t = Instant::now();
    let (inputs, workload, script) = generate(spec);
    let generate_s = lap(t);
    let times: SharedTimes = Arc::new(Mutex::new(PolicyTimes::default()));
    let t = Instant::now();
    let engine = build(spec, &setup, &inputs, (workload, script), &times, true);
    let engine_new_s = lap(t);
    let t = Instant::now();
    let mut stepped = SteppedEngine::new(engine);
    lap(t);

    // One clock read per event: each step is charged from the previous
    // step's end, so the loop's own cost lands in the kinds it serves.
    let mut kinds = [Agg::default(); KINDS.len() + 1];
    let mut last = Instant::now();
    while let Some(kind) = stepped.step(0) {
        let now = Instant::now();
        kinds[timing::kind_index(kind)].add((now - last).as_secs_f64());
        last = now;
    }
    lap(last);
    let t = Instant::now();
    let observed = stepped.finish();
    let report_s = lap(t);
    let t = Instant::now();
    let metrics = summarize_cell(
        &observed.report,
        spec.warmup_secs,
        spec.horizon_secs,
        inputs.offered,
    );
    let summarize_s = lap(t);
    let t = Instant::now();
    let json = report_json(spec, &inputs.cell, &metrics);
    let json_s = lap(t);
    let wall_s = t0.elapsed().as_secs_f64();

    let digest = check(rep, "traced", &observed.report, &inputs, &metrics, &json);
    rep.check(json == untraced.json && digest == untraced_digest, || {
        "traced report differs from the untraced report".into()
    });

    let pt = lock(&times).clone();
    let busy: f64 = kinds.iter().map(|a| a.sum).sum();
    rep.put(
        "traced.coverage",
        timing::coverage(attributed + busy, wall_s),
    );
    rep.put("traced.overhead", wall_s / untraced.wall_s);
    rep.put("partition.lattice_s", lattice_s);
    rep.put("workload.generate_s", generate_s);
    rep.put("workload.requests", inputs.requests as f64);
    rep.put("serving.engine_new_s", engine_new_s);
    rep.put(
        "serving.dispatch_self_s",
        timing::self_time(busy, pt.nested_s()),
    );
    rep.put("serving.report_s", report_s);
    for (kind, agg) in KINDS.iter().zip(&kinds) {
        rep.put(format!("serving.{kind}.n"), agg.n as f64);
        rep.put(format!("serving.{kind}.busy_s"), agg.sum);
    }
    rep.put("core.init_s", pt.init_s);
    rep.put("core.init_spawns", pt.init_spawns as f64);
    for (hook, agg) in HOOKS.iter().zip(&pt.hooks) {
        rep.put(format!("core.{hook}.n"), agg.n as f64);
        rep.put(format!("core.{hook}.busy_s"), agg.sum);
    }
    rep.put("core.on_tick.max_ms", pt.hooks[0].max * 1e3);
    rep.put("sim.events", observed.report.events as f64);
    rep.put("chaos.disruptions", inputs.disruptions as f64);
    rep.put("fleet.summarize_s", summarize_s);
    rep.put("fleet.report_json_s", json_s);
    rep.put("fleet.report_bytes", json.len() as f64);
    crate::put_sim_latency(rep, &[&observed.report], spec.warmup_secs);
}
