//! End-to-end tests of the FlexPipe policy on the serving substrate.

use std::sync::Arc;

use flexpipe_baselines::StaticPipeline;
use flexpipe_cluster::{BackgroundProfile, ClusterSpec, TierConfig};
use flexpipe_core::{FlexPipeConfig, FlexPipePolicy, GranularityParams};
use flexpipe_model::{zoo, CostModel, ModelGraph};
use flexpipe_partition::{GranularityLattice, PartitionParams, Partitioner};
use flexpipe_serving::{ControlPolicy, Engine, EngineConfig, RunReport, Scenario};
use flexpipe_sim::{SimDuration, SimRng, SimTime};
use flexpipe_workload::{ArrivalSpec, LengthProfile, Workload, WorkloadSpec};

fn artifacts() -> (Arc<ModelGraph>, Arc<GranularityLattice>) {
    let graph = zoo::llama2_7b();
    let cm = CostModel::default();
    let p = Partitioner::new(PartitionParams::default(), cm);
    let lattice = GranularityLattice::build(&p, &graph, 8, &[1, 2, 4, 8], &cm).unwrap();
    (Arc::new(graph), Arc::new(lattice))
}

fn workload(cv: f64, rate: f64, horizon: f64, seed: u64) -> Workload {
    WorkloadSpec {
        arrivals: ArrivalSpec::GammaRenewal { rate, cv },
        lengths: LengthProfile::fixed(256, 24),
        slo: SimDuration::from_secs(5),
        slo_per_output_token: SimDuration::ZERO,
        horizon_secs: horizon,
    }
    .generate(&mut SimRng::seed(seed))
}

fn run(workload: Workload, horizon: f64, policy: Box<dyn ControlPolicy>, seed: u64) -> RunReport {
    let (graph, lattice) = artifacts();
    let scenario = Scenario {
        config: EngineConfig::default(),
        cluster: ClusterSpec::paper_testbed(),
        background: BackgroundProfile::testbed_like(),
        tier: TierConfig::default(),
        cost: CostModel::default(),
        workload,
        disruptions: Default::default(),
        horizon: SimTime::from_secs_f64(horizon + 40.0),
        seed,
    };
    Engine::new(scenario, graph, lattice, policy).run()
}

fn flexpipe_cfg() -> FlexPipeConfig {
    FlexPipeConfig {
        granularity: GranularityParams {
            base_stages: 2,
            mean_prompt_tokens: 256.0,
            mean_output_tokens: 24.0,
            ..GranularityParams::default()
        },
        peak_gpus: 8,
        min_dwell: SimDuration::from_secs(6),
        ..FlexPipeConfig::default()
    }
}

#[test]
fn flexpipe_serves_stable_traffic_without_thrashing() {
    let w = workload(0.8, 6.0, 120.0, 11);
    let report = run(w, 120.0, Box::new(FlexPipePolicy::new(flexpipe_cfg())), 11);
    assert!(
        report.completion_rate() > 0.97,
        "rate {}",
        report.completion_rate()
    );
    // Stable CV near the base level: the policy must not oscillate.
    assert!(report.refactors <= 2, "refactors {}", report.refactors);
    assert!(report.summary.goodput_rate > 0.85);
}

#[test]
fn flexpipe_adapts_when_burstiness_rises() {
    // Calm first half, violent bursts second half.
    let mut w = workload(0.8, 6.0, 100.0, 13);
    let bursty = WorkloadSpec {
        arrivals: ArrivalSpec::Burst {
            calm_rate: 2.0,
            burst_rate: 80.0,
            calm_secs: 12.0,
            burst_secs: 4.0,
        },
        lengths: LengthProfile::fixed(256, 24),
        slo: SimDuration::from_secs(5),
        slo_per_output_token: SimDuration::ZERO,
        horizon_secs: 120.0,
    }
    .generate(&mut SimRng::seed(14));
    let offset = SimTime::from_secs(100);
    let base_len = w.requests.len() as u64;
    for (i, r) in bursty.requests.iter().enumerate() {
        let mut r = *r;
        r.arrival = offset + (r.arrival - SimTime::ZERO);
        r.id = flexpipe_workload::RequestId(base_len + i as u64);
        w.requests.push(r);
    }

    let report = run(w, 220.0, Box::new(FlexPipePolicy::new(flexpipe_cfg())), 13);
    // The CV shift must trigger at least one inflight refactor, and the
    // system must keep serving through it.
    assert!(report.refactors >= 1, "no refactor happened");
    assert!(
        report.completion_rate() > 0.9,
        "rate {}",
        report.completion_rate()
    );
    // Switchover pauses stay in the milliseconds per event.
    let per_refactor_pause = report.refactor_pause_secs / f64::from(report.refactors.max(1));
    assert!(per_refactor_pause < 0.25, "pause {per_refactor_pause}");
}

#[test]
fn flexpipe_beats_static_under_bursts() {
    // Heavy requests (4k prompt, 256 output tokens) at 28 req/s mean with
    // CV=5 bursts overwhelm a static single-replica deployment.
    let make = || {
        WorkloadSpec {
            arrivals: ArrivalSpec::GammaRenewal {
                rate: 28.0,
                cv: 5.0,
            },
            lengths: LengthProfile::fixed(4096, 256),
            slo: SimDuration::from_secs(8),
            slo_per_output_token: SimDuration::ZERO,
            horizon_secs: 180.0,
        }
        .generate(&mut SimRng::seed(21))
    };
    let mut cfg = flexpipe_cfg();
    cfg.granularity.mean_prompt_tokens = 4096.0;
    cfg.granularity.mean_output_tokens = 256.0;
    cfg.expected_rate = 28.0;
    let flex = run(make(), 180.0, Box::new(FlexPipePolicy::new(cfg)), 21);
    let stat = run(make(), 180.0, Box::new(StaticPipeline::new(2, 1)), 21);
    // FlexPipe may not complete literally everything mid-burst but must
    // dominate the static single-replica deployment on goodput.
    assert!(
        flex.summary.within_slo as f64 >= stat.summary.within_slo as f64 * 1.1,
        "flex {} vs static {}",
        flex.summary.within_slo,
        stat.summary.within_slo
    );
    // And it must have actually used elasticity.
    assert!(flex.spawns > 1 || flex.refactors > 0);
}

#[test]
fn flexpipe_decision_latency_is_fast() {
    // The paper claims < 5 ms decisions for 2-32 stage configurations;
    // our scoring pass over 4 levels must be far below that even in debug
    // builds. The wrapper times each tick from outside the policy.
    use std::sync::{Arc, Mutex};
    use std::time::Instant;

    struct Instrumented {
        inner: FlexPipePolicy,
        sink: Arc<Mutex<Vec<f64>>>,
    }
    impl ControlPolicy for Instrumented {
        fn name(&self) -> &'static str {
            "FlexPipe"
        }
        fn init(&mut self, ctx: &mut flexpipe_serving::Ctx<'_>) {
            self.inner.init(ctx)
        }
        fn on_tick(&mut self, ctx: &mut flexpipe_serving::Ctx<'_>) {
            let started = Instant::now();
            self.inner.on_tick(ctx);
            let secs = started.elapsed().as_secs_f64();
            self.sink.lock().unwrap().push(secs);
        }
    }

    let w = workload(2.0, 8.0, 60.0, 31);
    let sink = Arc::new(Mutex::new(Vec::new()));
    let policy = Instrumented {
        inner: FlexPipePolicy::new(flexpipe_cfg()),
        sink: sink.clone(),
    };
    let report = run(w, 60.0, Box::new(policy), 31);
    assert!(report.completed() > 0);
    let decisions = sink.lock().unwrap().clone();
    assert!(!decisions.is_empty());
    let max = decisions.iter().cloned().fold(0.0, f64::max);
    assert!(max < 0.005, "slowest decision {max}s");
}
