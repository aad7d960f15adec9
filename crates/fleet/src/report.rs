//! Fleet result aggregation: per-cell steady-state metrics, per-policy
//! comparison summaries, table rendering and the JSON artifact.
//!
//! Metric definitions follow the paper's evaluation (§9):
//!
//! - **TTFT** (time to first token) per request is queue time + prefill
//!   latency — everything before the first output token exists.
//! - **TPOT** (time per output token) is the decode-phase latency spread
//!   over the generated tokens.
//! - **SLO attainment** is within-SLO completions over *offered* load in
//!   the measured window (a system that sheds load cannot look good by
//!   completing only what it kept).
//! - All steady-state metrics exclude the warmup window, so deployment
//!   cold start does not pollute the comparison.

use flexpipe_metrics::{fmt_f, fmt_pct, fmt_secs, Digest, Table};
use flexpipe_serving::RunReport;
use flexpipe_sim::SimTime;
use serde::{Deserialize, Serialize};

use crate::spec::{Cell, SweepSpec};

/// Steady-state metrics of one executed cell.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CellMetrics {
    /// Requests offered (arrivals in the measured window).
    pub offered: usize,
    /// Requests completed in the measured window.
    pub completed: usize,
    /// Completions within SLO in the measured window.
    pub within_slo: usize,
    /// Within-SLO completions / offered (the goodput ratio).
    pub slo_attainment: f64,
    /// Within-SLO completions per second.
    pub goodput_per_sec: f64,
    /// Median time-to-first-token, seconds.
    pub p50_ttft: f64,
    /// 99th-percentile time-to-first-token, seconds.
    pub p99_ttft: f64,
    /// Median time-per-output-token, seconds.
    pub p50_tpot: f64,
    /// 99th-percentile time-per-output-token, seconds.
    pub p99_tpot: f64,
    /// Median end-to-end latency, seconds.
    pub p50_latency: f64,
    /// 99th-percentile end-to-end latency, seconds.
    pub p99_latency: f64,
    /// Inflight refactors completed over the whole run.
    pub refactors: u32,
    /// Total refactor switchover pause, seconds.
    pub refactor_pause_secs: f64,
    /// Mean GPUs held over the run.
    pub mean_gpus_held: f64,
    /// Instances spawned over the run.
    pub spawns: u32,
    /// Capacity-revocation events executed.
    pub revocations: u32,
    /// In-flight requests destroyed by revocations and replayed.
    pub requests_replayed: u32,
    /// Tokens of work discarded by revocations.
    pub tokens_lost: u64,
    /// Mean time-to-recover per revocation, seconds (0 without chaos).
    pub mean_ttr_secs: f64,
    /// Worst time-to-recover, seconds.
    pub max_ttr_secs: f64,
    /// Completions landing inside a disruption recovery window.
    pub disrupted_completed: usize,
    /// Of those, completions still within their SLO (the per-disruption
    /// SLO-violation window in ratio form).
    pub disrupted_within_slo: usize,
    /// Simulation events processed.
    pub events: u64,
    /// Whether the cell hit its step budget (watchdog truncation).
    pub truncated: bool,
    /// Whether the cell's engine run panicked (metrics are zeroed).
    /// Distinct from [`CellMetrics::truncated`]: a failed cell needs a
    /// bug fix, a truncated one needs a bigger step budget.
    pub failed: bool,
}

/// One executed cell: its coordinate plus measured metrics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellResult {
    /// The grid coordinate.
    pub cell: Cell,
    /// Steady-state measurements.
    pub metrics: CellMetrics,
}

/// Aggregate of one policy across every cell it ran in.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PolicySummary {
    /// Policy label.
    pub policy: String,
    /// Cells this policy ran.
    pub cells: usize,
    /// Mean SLO attainment across cells.
    pub mean_slo_attainment: f64,
    /// Worst (minimum) SLO attainment across cells.
    pub worst_slo_attainment: f64,
    /// Mean within-SLO throughput across cells, requests/second.
    pub mean_goodput_per_sec: f64,
    /// Mean p99 TTFT across cells, seconds.
    pub mean_p99_ttft: f64,
    /// Worst p99 TTFT across cells, seconds.
    pub worst_p99_ttft: f64,
    /// Mean p99 TPOT across cells, seconds.
    pub mean_p99_tpot: f64,
    /// Half-width of the 95% confidence interval on SLO attainment across
    /// cells (0 with fewer than two cells; meaningful with the `replicas`
    /// axis).
    pub slo_attainment_ci95: f64,
    /// Half-width of the 95% confidence interval on goodput across cells.
    pub goodput_ci95: f64,
    /// Total refactors across cells.
    pub total_refactors: u32,
    /// Total switchover pause across cells, seconds.
    pub total_refactor_pause_secs: f64,
    /// Total revocation events faced across cells.
    pub total_revocations: u32,
    /// Total requests replayed after revocations.
    pub total_replays: u32,
    /// Mean time-to-recover across disrupted cells, seconds (0 when no
    /// cell saw a disruption).
    pub mean_ttr_secs: f64,
    /// Mean GPUs held, averaged across cells.
    pub mean_gpus_held: f64,
    /// Cells cut short by the step-budget watchdog.
    pub truncated_cells: usize,
    /// Cells whose engine run panicked.
    pub failed_cells: usize,
}

/// The complete fleet artifact: the spec that produced it, every cell
/// result in expansion order, and per-policy summaries.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetReport {
    /// Artifact format version (bump on breaking metric changes).
    pub version: u32,
    /// The sweep that produced this report.
    pub spec: SweepSpec,
    /// Per-cell results, in grid expansion order.
    pub cells: Vec<CellResult>,
    /// Per-policy aggregates, sorted by policy label.
    pub policies: Vec<PolicySummary>,
}

/// Current [`FleetReport::version`]. Version 2 added the disruption /
/// recovery metrics and the replica confidence intervals.
pub const REPORT_VERSION: u32 = 2;

/// Computes steady-state cell metrics from a raw engine report.
///
/// `offered` is the arrival count inside the measured window (computed by
/// the runner from the workload it generated, so shed requests count
/// against the system). `span_secs` is the measured window length — the
/// arrival horizon minus warmup, *excluding* any drain grace the engine
/// ran past the last arrival (throughput denominators must match the
/// window the offered load was counted in).
pub fn summarize_cell(
    report: &RunReport,
    warmup_secs: f64,
    span_secs: f64,
    offered: usize,
) -> CellMetrics {
    let cut = SimTime::from_secs_f64(warmup_secs);
    let span = span_secs.max(1e-9);

    let mut ttft = Digest::new();
    let mut tpot = Digest::new();
    let mut latency = Digest::new();
    let mut completed = 0usize;
    let mut within = 0usize;
    let mut disrupted_completed = 0usize;
    let mut disrupted_within = 0usize;
    for o in report.outcomes.outcomes() {
        // Window membership is by *arrival*, matching the offered-load
        // denominator: every measured completion is one of the offered
        // requests, so attainment can never exceed 100%.
        if o.arrival < cut {
            continue;
        }
        completed += 1;
        if o.within_slo() {
            within += 1;
        }
        // Completions landing inside a disruption recovery window measure
        // the per-disruption SLO-violation window.
        if report
            .disruptions
            .in_disruption_window(o.completion.as_secs_f64())
        {
            disrupted_completed += 1;
            if o.within_slo() {
                disrupted_within += 1;
            }
        }
        let lat = o.latency().as_secs_f64();
        let first_token = o.queue.as_secs_f64() + o.prefill.as_secs_f64();
        latency.record(lat);
        ttft.record(first_token);
        if o.output_tokens > 0 {
            tpot.record(((lat - first_token).max(0.0)) / f64::from(o.output_tokens));
        }
    }

    CellMetrics {
        offered,
        completed,
        within_slo: within,
        slo_attainment: if offered == 0 {
            0.0
        } else {
            within as f64 / offered as f64
        },
        goodput_per_sec: within as f64 / span,
        p50_ttft: ttft.quantile(0.5),
        p99_ttft: ttft.quantile(0.99),
        p50_tpot: tpot.quantile(0.5),
        p99_tpot: tpot.quantile(0.99),
        p50_latency: latency.quantile(0.5),
        p99_latency: latency.quantile(0.99),
        refactors: report.refactors,
        refactor_pause_secs: report.refactor_pause_secs,
        mean_gpus_held: report.mean_gpus_held(),
        spawns: report.spawns,
        revocations: report.disruptions.revocation_events,
        requests_replayed: report.disruptions.requests_replayed,
        tokens_lost: report.disruptions.tokens_lost,
        mean_ttr_secs: report.disruptions.mean_time_to_recover(),
        max_ttr_secs: report.disruptions.max_time_to_recover(),
        disrupted_completed,
        disrupted_within_slo: disrupted_within,
        events: report.events,
        truncated: report.truncated,
        failed: false,
    }
}

/// Half-width of a 95% confidence interval on the mean of `xs` (normal
/// approximation, sample standard deviation); 0 below two samples.
fn ci95(xs: &[f64]) -> f64 {
    let n = xs.len();
    if n < 2 {
        return 0.0;
    }
    let mean = xs.iter().sum::<f64>() / n as f64;
    let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n as f64 - 1.0);
    1.96 * (var / n as f64).sqrt()
}

impl FleetReport {
    /// Assembles the artifact from executed cells (already in expansion
    /// order) and computes the per-policy rollup.
    pub fn assemble(spec: SweepSpec, cells: Vec<CellResult>) -> FleetReport {
        let mut labels: Vec<String> = cells
            .iter()
            .map(|c| c.cell.policy.label())
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        labels.sort();
        let policies = labels
            .into_iter()
            .map(|label| {
                let mine: Vec<&CellResult> = cells
                    .iter()
                    .filter(|c| c.cell.policy.label() == label)
                    .collect();
                let n = mine.len().max(1) as f64;
                let mean = |f: &dyn Fn(&CellMetrics) -> f64| -> f64 {
                    mine.iter().map(|c| f(&c.metrics)).sum::<f64>() / n
                };
                let slo_samples: Vec<f64> = mine.iter().map(|c| c.metrics.slo_attainment).collect();
                let goodput_samples: Vec<f64> =
                    mine.iter().map(|c| c.metrics.goodput_per_sec).collect();
                let disrupted: Vec<&&CellResult> =
                    mine.iter().filter(|c| c.metrics.revocations > 0).collect();
                let mean_ttr_secs = if disrupted.is_empty() {
                    0.0
                } else {
                    disrupted
                        .iter()
                        .map(|c| c.metrics.mean_ttr_secs)
                        .sum::<f64>()
                        / disrupted.len() as f64
                };
                PolicySummary {
                    policy: label,
                    cells: mine.len(),
                    mean_slo_attainment: mean(&|m| m.slo_attainment),
                    worst_slo_attainment: mine
                        .iter()
                        .map(|c| c.metrics.slo_attainment)
                        .fold(f64::INFINITY, f64::min),
                    mean_goodput_per_sec: mean(&|m| m.goodput_per_sec),
                    mean_p99_ttft: mean(&|m| m.p99_ttft),
                    worst_p99_ttft: mine.iter().map(|c| c.metrics.p99_ttft).fold(0.0, f64::max),
                    mean_p99_tpot: mean(&|m| m.p99_tpot),
                    slo_attainment_ci95: ci95(&slo_samples),
                    goodput_ci95: ci95(&goodput_samples),
                    total_refactors: mine.iter().map(|c| c.metrics.refactors).sum(),
                    total_refactor_pause_secs: mine
                        .iter()
                        .map(|c| c.metrics.refactor_pause_secs)
                        .sum(),
                    total_revocations: mine.iter().map(|c| c.metrics.revocations).sum(),
                    total_replays: mine.iter().map(|c| c.metrics.requests_replayed).sum(),
                    mean_ttr_secs,
                    mean_gpus_held: mean(&|m| m.mean_gpus_held),
                    truncated_cells: mine.iter().filter(|c| c.metrics.truncated).count(),
                    failed_cells: mine.iter().filter(|c| c.metrics.failed).count(),
                }
            })
            .collect();
        FleetReport {
            version: REPORT_VERSION,
            spec,
            cells,
            policies,
        }
    }

    /// The byte-stable JSON artifact.
    pub fn to_json(&self) -> String {
        let mut s = serde_json::to_string_pretty(self).expect("report serializes");
        s.push('\n');
        s
    }

    /// Parses a JSON artifact. An artifact written by a different format
    /// version is rejected with the version mismatch named explicitly —
    /// not an obscure missing-field error — so stale committed baselines
    /// fail the gate with an actionable message.
    pub fn from_json(s: &str) -> Result<FleetReport, serde_json::Error> {
        let version_of = |s: &str| -> Option<u64> {
            match serde_json::from_str::<serde::Value>(s).ok()?.get("version") {
                Some(serde::Value::UInt(v)) => Some(*v),
                _ => None,
            }
        };
        let mismatch = |version: u64, detail: &str| {
            serde_json::Error(format!(
                "report is format version {version}, this build expects {REPORT_VERSION} — \
                 regenerate the artifact{detail}"
            ))
        };
        match serde_json::from_str::<FleetReport>(s) {
            Ok(report) if u64::from(report.version) == u64::from(REPORT_VERSION) => Ok(report),
            Ok(report) => Err(mismatch(u64::from(report.version), "")),
            Err(e) => match version_of(s) {
                Some(version) if version != u64::from(REPORT_VERSION) => {
                    Err(mismatch(version, &format!(" ({e})")))
                }
                _ => Err(e),
            },
        }
    }

    /// The per-cell comparison table.
    pub fn cell_table(&self) -> Table {
        let mut t = Table::new(
            &format!("Fleet `{}`: per-cell results", self.spec.name),
            &[
                "cell",
                "policy",
                "cv",
                "rate",
                "cluster",
                "offered",
                "SLO att.",
                "goodput/s",
                "p50 TTFT",
                "p99 TTFT",
                "p99 TPOT",
                "p99 lat",
                "refactors",
                "revs",
                "replays",
                "TTR",
                "GPUs",
                "status",
            ],
        );
        for c in &self.cells {
            let m = &c.metrics;
            t.row(vec![
                c.cell.index.to_string(),
                c.cell.policy.label(),
                fmt_f(c.cell.cv, 1),
                fmt_f(c.cell.rate, 1),
                c.cell.cluster.label(),
                m.offered.to_string(),
                fmt_pct(m.slo_attainment),
                fmt_f(m.goodput_per_sec, 2),
                fmt_secs(m.p50_ttft),
                fmt_secs(m.p99_ttft),
                fmt_secs(m.p99_tpot),
                fmt_secs(m.p99_latency),
                m.refactors.to_string(),
                m.revocations.to_string(),
                m.requests_replayed.to_string(),
                fmt_secs(m.mean_ttr_secs),
                fmt_f(m.mean_gpus_held, 1),
                if m.failed {
                    "FAIL"
                } else if m.truncated {
                    "TRUNC"
                } else {
                    "-"
                }
                .to_string(),
            ]);
        }
        t
    }

    /// The per-policy rollup table.
    pub fn policy_table(&self) -> Table {
        let mut t = Table::new(
            &format!("Fleet `{}`: per-policy summary", self.spec.name),
            &[
                "policy",
                "cells",
                "mean SLO att.",
                "±95%",
                "worst SLO att.",
                "mean goodput/s",
                "mean p99 TTFT",
                "worst p99 TTFT",
                "mean p99 TPOT",
                "refactors",
                "pause total",
                "revs",
                "replays",
                "mean TTR",
                "mean GPUs",
                "trunc",
                "fail",
            ],
        );
        for p in &self.policies {
            t.row(vec![
                p.policy.clone(),
                p.cells.to_string(),
                fmt_pct(p.mean_slo_attainment),
                fmt_pct(p.slo_attainment_ci95),
                fmt_pct(p.worst_slo_attainment),
                fmt_f(p.mean_goodput_per_sec, 2),
                fmt_secs(p.mean_p99_ttft),
                fmt_secs(p.worst_p99_ttft),
                fmt_secs(p.mean_p99_tpot),
                p.total_refactors.to_string(),
                fmt_secs(p.total_refactor_pause_secs),
                p.total_revocations.to_string(),
                p.total_replays.to_string(),
                fmt_secs(p.mean_ttr_secs),
                fmt_f(p.mean_gpus_held, 1),
                p.truncated_cells.to_string(),
                p.failed_cells.to_string(),
            ]);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SweepSpec;
    use flexpipe_metrics::{OutcomeLog, RequestOutcome};
    use flexpipe_sim::SimDuration;

    fn fake_report(latency_ms: &[u64]) -> RunReport {
        let mut outcomes = OutcomeLog::new();
        for (i, &ms) in latency_ms.iter().enumerate() {
            let arrival = SimTime::from_secs(40 + i as u64);
            outcomes.record(RequestOutcome {
                id: i as u64,
                arrival,
                completion: arrival + SimDuration::from_millis(ms),
                queue: SimDuration::from_millis(ms / 4),
                execution: SimDuration::from_millis(ms / 2),
                communication: SimDuration::from_millis(ms / 8),
                prefill: SimDuration::from_millis(ms / 4),
                slo: SimDuration::from_secs(2),
                prompt_tokens: 512,
                output_tokens: 16,
            });
        }
        let summary = outcomes.summarize(100.0);
        RunReport {
            policy: "test".into(),
            horizon_secs: 100.0,
            arrived: latency_ms.len(),
            summary,
            outcomes,
            queue_timeline: Default::default(),
            inflight_timeline: Default::default(),
            fleet_size: 8,
            ledger: Default::default(),
            refactors: 2,
            refactor_pause_secs: 0.05,
            spawns: 3,
            mean_init_secs: 1.0,
            mean_alloc_wait_secs: 0.1,
            warm_loads: 1,
            cold_loads: 1,
            disruptions: Default::default(),
            events: 1000,
            truncated: false,
        }
    }

    #[test]
    fn ttft_and_tpot_are_computed() {
        let report = fake_report(&[1000, 1000, 1000, 4000]);
        let m = summarize_cell(&report, 30.0, 70.0, 4);
        assert_eq!(m.completed, 4);
        assert_eq!(m.within_slo, 3);
        assert!((m.slo_attainment - 0.75).abs() < 1e-9);
        // TTFT of a 1000 ms request: 250 queue + 250 prefill = 500 ms.
        assert!((m.p50_ttft - 0.5).abs() < 1e-6, "p50 ttft {}", m.p50_ttft);
        // TPOT: remaining 500 ms over 16 tokens = 31.25 ms.
        assert!(
            (m.p50_tpot - 0.03125).abs() < 1e-6,
            "p50 tpot {}",
            m.p50_tpot
        );
        assert!(m.p99_latency >= m.p50_latency);
    }

    #[test]
    fn warmup_window_excludes_early_completions() {
        let report = fake_report(&[1000, 1000]);
        // Warmup cut beyond both completions (arrivals at 40/41 s).
        let m = summarize_cell(&report, 60.0, 40.0, 0);
        assert_eq!(m.completed, 0);
        assert_eq!(m.slo_attainment, 0.0);
    }

    #[test]
    fn report_assembles_sorted_policy_rollup() {
        let spec = SweepSpec::template();
        let cells: Vec<CellResult> = spec
            .expand()
            .into_iter()
            .map(|cell| {
                let report = fake_report(&[800, 1200]);
                let metrics = summarize_cell(&report, 0.0, 100.0, 2);
                CellResult { cell, metrics }
            })
            .collect();
        let report = FleetReport::assemble(spec, cells);
        assert_eq!(report.policies.len(), 3);
        let labels: Vec<&str> = report.policies.iter().map(|p| p.policy.as_str()).collect();
        let mut sorted = labels.clone();
        sorted.sort();
        assert_eq!(labels, sorted);
        assert_eq!(report.policies[0].cells, 8);
        assert!(!report.cell_table().is_empty());
        assert!(!report.policy_table().is_empty());
    }

    #[test]
    fn old_format_versions_fail_with_a_version_message() {
        let spec = SweepSpec::template();
        let report = FleetReport::assemble(spec, Vec::new());
        let mut json = report.to_json();
        // Emulate a v1 artifact: old version number, missing new fields.
        json = json.replacen("\"version\": 2", "\"version\": 1", 1);
        let err = FleetReport::from_json(&json).unwrap_err();
        assert!(
            err.to_string().contains("format version 1"),
            "unhelpful error: {err}"
        );
    }

    #[test]
    fn json_round_trip_is_byte_identical() {
        let spec = SweepSpec::template();
        let cells: Vec<CellResult> = spec
            .expand()
            .into_iter()
            .take(4)
            .map(|cell| {
                let report = fake_report(&[900, 1100, 3000]);
                let metrics = summarize_cell(&report, 0.0, 100.0, 3);
                CellResult { cell, metrics }
            })
            .collect();
        let report = FleetReport::assemble(spec, cells);
        let json = report.to_json();
        let back = FleetReport::from_json(&json).unwrap();
        assert_eq!(back, report);
        assert_eq!(back.to_json(), json);
    }
}
