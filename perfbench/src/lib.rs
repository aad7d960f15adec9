//! Benchmark harness for the FlexPipe reproduction.
//!
//! The harness links the workspace crates as a library and drives them
//! through their public functions only. One process runs one repetition
//! of one workload (see `README.md` for the workloads and metrics):
//!
//! - untraced, it measures the end-to-end metrics on the production path
//!   and checks the outputs;
//! - traced, it first runs the untraced repetition, then runs the same
//!   inputs again with every call into a layer timed from outside
//!   ([`timing`]), checks that both runs produced the same report, and
//!   reports per-layer metrics with their coverage and overhead.
//!
//! Everything the harness accumulates is bounded ([`stats`]): no
//! per-event state is kept by the harness itself.

pub mod host;
pub mod live;
pub mod offline;
pub mod output;
pub mod stats;
pub mod timing;

use flexpipe_serving::RunReport;
use flexpipe_sim::SimTime;

use crate::output::{Fnv, Rep};
use crate::stats::{Agg, LogHist};
use crate::timing::{HOOKS, KINDS};

/// The workloads, by name.
pub const WORKLOADS: [&str; 3] = ["paper-cv8", "fleet-1k", "live-paced"];

/// The end-to-end metrics every untraced repetition reports.
pub const END_TO_END: [&str; 8] = [
    "setup_s",
    "run_s",
    "peak_rss_mb",
    "cpu_s",
    "ttft_p50_s",
    "ttft_p99_s",
    "slo_attainment",
    "gpus_held_mean",
];

/// Every per-layer metric a traced repetition reports, in report order.
/// Layers a workload does not exercise read 0.
pub fn per_layer_names() -> Vec<String> {
    let mut names: Vec<String> = [
        "host.probe_s",
        "traced.coverage",
        "traced.overhead",
        "partition.lattice_s",
        "workload.generate_s",
        "workload.requests",
        "serving.engine_new_s",
        "serving.dispatch_self_s",
        "serving.report_s",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    for kind in KINDS {
        names.push(format!("serving.{kind}.n"));
        names.push(format!("serving.{kind}.busy_s"));
    }
    names.extend(["core.init_s".to_string(), "core.init_spawns".to_string()]);
    for hook in HOOKS {
        names.push(format!("core.{hook}.n"));
        names.push(format!("core.{hook}.busy_s"));
    }
    names.extend(
        [
            "core.on_tick.max_ms",
            "sim.events",
            "chaos.disruptions",
            "fleet.summarize_s",
            "fleet.report_json_s",
            "fleet.report_bytes",
            "gateway.serve_s",
            "gateway.gen_lag_p50_ms",
            "gateway.gen_lag_p99_ms",
            "gateway.depth_max",
            "gateway.depth_mean",
            "gateway.absorb_lag_p50_ms",
            "gateway.absorb_lag_p99_ms",
            "gateway.absorb_lag_p999_ms",
            "gateway.arrivals",
            "gateway.events",
            "gateway.replay_s",
            "serving.completed",
            "serving.queue_p50_s",
            "serving.queue_p99_s",
            "model.prefill_p50_s",
            "model.prefill_p99_s",
            "model.exec_mean_s",
            "cluster.comm_mean_s",
            "serving.refactor_pause_s",
            "serving.requests_replayed",
            "core.refactors",
            "core.spawns",
        ]
        .iter()
        .map(|s| s.to_string()),
    );
    names
}

/// Records the simulated-latency decomposition of a run's post-warmup
/// requests (arrivals at or after `warmup_secs`): queue and prefill
/// quantiles, mean execution and communication time, and the control
/// plane's refactor and spawn counts.
pub fn put_sim_latency(rep: &mut Rep, reports: &[&RunReport], warmup_secs: f64) {
    let cut = SimTime::from_secs_f64(warmup_secs);
    let (mut queue, mut prefill) = (LogHist::default(), LogHist::default());
    let (mut exec, mut comm) = (Agg::default(), Agg::default());
    for report in reports {
        for o in report
            .outcomes
            .outcomes()
            .iter()
            .filter(|o| o.arrival >= cut)
        {
            queue.add(o.queue.as_secs_f64());
            prefill.add(o.prefill.as_secs_f64());
            exec.add(o.execution.as_secs_f64());
            comm.add(o.communication.as_secs_f64());
        }
    }
    let sum = |f: fn(&RunReport) -> f64| reports.iter().map(|r| f(r)).sum::<f64>();
    rep.put("serving.completed", queue.count() as f64);
    rep.put("serving.queue_p50_s", queue.quantile(0.5).value);
    rep.put("serving.queue_p99_s", queue.quantile(0.99).value);
    rep.put("model.prefill_p50_s", prefill.quantile(0.5).value);
    rep.put("model.prefill_p99_s", prefill.quantile(0.99).value);
    rep.put("model.exec_mean_s", exec.mean());
    rep.put("cluster.comm_mean_s", comm.mean());
    rep.put("serving.refactor_pause_s", sum(|r| r.refactor_pause_secs));
    rep.put(
        "serving.requests_replayed",
        sum(|r| f64::from(r.disruptions.requests_replayed)),
    );
    rep.put("core.refactors", sum(|r| f64::from(r.refactors)));
    rep.put("core.spawns", sum(|r| f64::from(r.spawns)));
}

/// Checks that a run conserved its requests and mixes its per-request
/// outcomes into `digest`. Reports sort outcomes by request id, so every
/// id must be below `arrived` and strictly above its predecessor; the
/// summary must count exactly the outcomes listed.
pub fn check_report(rep: &mut Rep, label: &str, report: &RunReport, sent: usize, digest: &mut Fnv) {
    rep.check(!report.truncated, || {
        format!(
            "{label}: run hit its step budget after {} events",
            report.events
        )
    });
    rep.check(report.arrived == sent, || {
        format!(
            "{label}: {} requests arrived of {sent} sent",
            report.arrived
        )
    });
    let outcomes = report.outcomes.outcomes();
    let ordered = outcomes.windows(2).all(|w| w[0].id < w[1].id);
    let known = outcomes.last().is_none_or(|o| o.id < sent as u64);
    rep.check(ordered && known, || {
        format!("{label}: completions are not a set of distinct sent requests")
    });
    rep.check(report.summary.completed == outcomes.len(), || {
        format!(
            "{label}: summary counts {} completions, log holds {}",
            report.summary.completed,
            outcomes.len()
        )
    });
    for o in outcomes {
        digest.word(o.id);
        for t in [o.arrival.as_secs_f64(), o.completion.as_secs_f64()] {
            digest.word(t.to_bits());
        }
        for d in [o.queue, o.execution, o.communication, o.prefill, o.slo] {
            digest.word(d.as_secs_f64().to_bits());
        }
        digest.word(u64::from(o.prompt_tokens) << 32 | u64::from(o.output_tokens));
    }
    digest.word(report.events);
    digest.word(u64::from(report.spawns) << 32 | u64::from(report.refactors));
    digest.word(report.mean_gpus_held().to_bits());
}
