//! The regression gate: diffs a fresh fleet report against a committed
//! baseline and fails on meaningful degradations.
//!
//! Cells are matched by their stable id ([`crate::spec::Cell::id`]); for
//! each matched cell the gate checks the quality metrics in both
//! directions that matter:
//!
//! - SLO attainment and goodput may not *drop* by more than the tolerance;
//! - p99 TTFT and p99 latency may not *grow* by more than the tolerance;
//! - on cells that faced disruptions in both reports, the recovery
//!   metrics may not regress: mean time-to-recover may not grow beyond
//!   the tolerance (past an absolute jitter floor), and the replayed
//!   request count may not grow beyond the tolerance (past one request
//!   of slack — replay counts are small integers);
//! - a cell newly hitting its step budget (truncation) is always a
//!   failure.
//!
//! Improvements never fail the gate. Cells present in only one report are
//! reported (the grid changed) but only fail the gate when `strict` cell
//! matching is requested.

use flexpipe_metrics::{fmt_f, Table};
use serde::{Deserialize, Serialize};

use crate::report::FleetReport;

/// Gate configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GateConfig {
    /// Allowed relative degradation before a metric fails (e.g. `0.02` =
    /// 2%).
    pub tolerance: f64,
    /// Absolute floor below which latency growth is ignored, seconds
    /// (sub-millisecond p99 jitter should not fail anyone).
    pub latency_floor_secs: f64,
    /// Absolute floor below which mean time-to-recover growth is ignored,
    /// seconds (recovery windows close on discrete engine events; small
    /// absolute shifts are quantisation, not regression).
    pub ttr_floor_secs: f64,
    /// Whether a changed cell grid (cells added/removed) fails the gate.
    pub strict_cells: bool,
}

impl Default for GateConfig {
    fn default() -> Self {
        GateConfig {
            tolerance: 0.02,
            latency_floor_secs: 0.005,
            ttr_floor_secs: 0.5,
            strict_cells: false,
        }
    }
}

/// One metric regression found by the gate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Regression {
    /// Cell id.
    pub cell: String,
    /// Metric name.
    pub metric: String,
    /// Baseline value.
    pub baseline: f64,
    /// Candidate value.
    pub candidate: f64,
    /// Relative change (positive = worse).
    pub degradation: f64,
}

/// The gate's verdict.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GateOutcome {
    /// Regressions found (empty = pass).
    pub regressions: Vec<Regression>,
    /// Cells only in the baseline.
    pub missing_cells: Vec<String>,
    /// Cells only in the candidate.
    pub new_cells: Vec<String>,
    /// Cells compared.
    pub compared: usize,
}

impl GateOutcome {
    /// Whether the candidate passes under `cfg`.
    pub fn passed(&self, cfg: &GateConfig) -> bool {
        self.regressions.is_empty()
            && (!cfg.strict_cells || (self.missing_cells.is_empty() && self.new_cells.is_empty()))
    }

    /// Renders the verdict as a table plus grid-change notes.
    pub fn render(&self, cfg: &GateConfig) -> String {
        let mut out = String::new();
        if self.passed(cfg) {
            out.push_str(&format!(
                "GATE PASS: {} cells compared, no regression beyond {:.1}%\n",
                self.compared,
                cfg.tolerance * 100.0
            ));
        } else {
            let mut t = Table::new(
                &format!(
                    "GATE FAIL: {} regression(s) beyond {:.1}%",
                    self.regressions.len(),
                    cfg.tolerance * 100.0
                ),
                &["cell", "metric", "baseline", "candidate", "degradation"],
            );
            for r in &self.regressions {
                t.row(vec![
                    r.cell.clone(),
                    r.metric.clone(),
                    fmt_f(r.baseline, 4),
                    fmt_f(r.candidate, 4),
                    format!("{:+.1}%", r.degradation * 100.0),
                ]);
            }
            out.push_str(&t.render());
        }
        if !self.missing_cells.is_empty() {
            out.push_str(&format!(
                "cells missing from candidate: {}\n",
                self.missing_cells.join(", ")
            ));
        }
        if !self.new_cells.is_empty() {
            out.push_str(&format!(
                "cells new in candidate: {}\n",
                self.new_cells.join(", ")
            ));
        }
        out
    }
}

/// Relative degradation of a lower-is-better metric.
fn rel_increase(baseline: f64, candidate: f64) -> f64 {
    if baseline <= 0.0 {
        if candidate > 0.0 {
            f64::INFINITY
        } else {
            0.0
        }
    } else {
        (candidate - baseline) / baseline
    }
}

/// Compares `candidate` against `baseline` under `cfg`.
pub fn gate(baseline: &FleetReport, candidate: &FleetReport, cfg: &GateConfig) -> GateOutcome {
    let mut regressions = Vec::new();
    let mut missing = Vec::new();
    let mut compared = 0usize;

    let by_id: std::collections::HashMap<String, &crate::report::CellResult> =
        candidate.cells.iter().map(|c| (c.cell.id(), c)).collect();

    for base in &baseline.cells {
        let id = base.cell.id();
        let Some(&cand) = by_id.get(&id) else {
            missing.push(id);
            continue;
        };
        compared += 1;
        let b = &base.metrics;
        let c = &cand.metrics;

        // Higher-is-better metrics: fail on drops beyond tolerance.
        for (metric, bv, cv) in [
            ("slo_attainment", b.slo_attainment, c.slo_attainment),
            ("goodput_per_sec", b.goodput_per_sec, c.goodput_per_sec),
        ] {
            if bv > 0.0 && (bv - cv) / bv > cfg.tolerance {
                regressions.push(Regression {
                    cell: id.clone(),
                    metric: metric.into(),
                    baseline: bv,
                    candidate: cv,
                    degradation: (bv - cv) / bv,
                });
            }
        }
        // Lower-is-better metrics: fail on growth beyond tolerance (and
        // beyond the absolute jitter floor).
        for (metric, bv, cv) in [
            ("p99_ttft", b.p99_ttft, c.p99_ttft),
            ("p99_latency", b.p99_latency, c.p99_latency),
        ] {
            let grew = rel_increase(bv, cv);
            if grew > cfg.tolerance && (cv - bv) > cfg.latency_floor_secs {
                regressions.push(Regression {
                    cell: id.clone(),
                    metric: metric.into(),
                    baseline: bv,
                    candidate: cv,
                    degradation: grew,
                });
            }
        }
        // Recovery metrics, on cells that faced disruptions in both
        // reports (a changed disruption axis is a grid change, not a
        // regression). Mean TTR growth is a slower rebuild; replay growth
        // means revocations destroyed more in-flight work.
        if b.revocations > 0 && c.revocations > 0 {
            let ttr_grew = rel_increase(b.mean_ttr_secs, c.mean_ttr_secs);
            if ttr_grew > cfg.tolerance && (c.mean_ttr_secs - b.mean_ttr_secs) > cfg.ttr_floor_secs
            {
                regressions.push(Regression {
                    cell: id.clone(),
                    metric: "mean_ttr_secs".into(),
                    baseline: b.mean_ttr_secs,
                    candidate: c.mean_ttr_secs,
                    degradation: ttr_grew,
                });
            }
            let (breplay, creplay) = (
                f64::from(b.requests_replayed),
                f64::from(c.requests_replayed),
            );
            let replay_grew = rel_increase(breplay, creplay);
            if replay_grew > cfg.tolerance && creplay - breplay > 1.0 {
                regressions.push(Regression {
                    cell: id.clone(),
                    metric: "requests_replayed".into(),
                    baseline: breplay,
                    candidate: creplay,
                    degradation: replay_grew,
                });
            }
        }
        // Fresh truncation is always a failure: the cell no longer
        // finishes within its step budget.
        if c.truncated && !b.truncated {
            regressions.push(Regression {
                cell: id.clone(),
                metric: "truncated".into(),
                baseline: 0.0,
                candidate: 1.0,
                degradation: f64::INFINITY,
            });
        }
        // Likewise a cell that newly panics.
        if c.failed && !b.failed {
            regressions.push(Regression {
                cell: id.clone(),
                metric: "failed".into(),
                baseline: 0.0,
                candidate: 1.0,
                degradation: f64::INFINITY,
            });
        }
    }

    let new_cells = candidate
        .cells
        .iter()
        .map(|c| c.cell.id())
        .filter(|id| !baseline.cells.iter().any(|b| &b.cell.id() == id))
        .collect();

    GateOutcome {
        regressions,
        missing_cells: missing,
        new_cells,
        compared,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{CellMetrics, CellResult, FleetReport};
    use crate::spec::SweepSpec;

    fn metrics(slo: f64, p99: f64) -> CellMetrics {
        CellMetrics {
            offered: 100,
            completed: 100,
            within_slo: (slo * 100.0) as usize,
            slo_attainment: slo,
            goodput_per_sec: slo * 10.0,
            p50_ttft: p99 / 4.0,
            p99_ttft: p99 / 2.0,
            p50_tpot: 0.02,
            p99_tpot: 0.05,
            p50_latency: p99 / 2.0,
            p99_latency: p99,
            refactors: 1,
            refactor_pause_secs: 0.01,
            mean_gpus_held: 4.0,
            spawns: 2,
            revocations: 0,
            requests_replayed: 0,
            tokens_lost: 0,
            mean_ttr_secs: 0.0,
            max_ttr_secs: 0.0,
            disrupted_completed: 0,
            disrupted_within_slo: 0,
            events: 10_000,
            truncated: false,
            failed: false,
        }
    }

    fn report_with(slo: f64, p99: f64) -> FleetReport {
        let spec = SweepSpec::template();
        let cells = spec
            .expand()
            .into_iter()
            .take(4)
            .map(|cell| CellResult {
                cell,
                metrics: metrics(slo, p99),
            })
            .collect();
        FleetReport::assemble(spec, cells)
    }

    #[test]
    fn identical_reports_pass() {
        let cfg = GateConfig::default();
        let a = report_with(0.9, 1.0);
        let out = gate(&a, &a, &cfg);
        assert!(out.passed(&cfg), "{:?}", out.regressions);
        assert_eq!(out.compared, 4);
    }

    #[test]
    fn slo_drop_fails() {
        let cfg = GateConfig::default();
        let base = report_with(0.9, 1.0);
        let cand = report_with(0.8, 1.0);
        let out = gate(&base, &cand, &cfg);
        assert!(!out.passed(&cfg));
        assert!(out.regressions.iter().any(|r| r.metric == "slo_attainment"));
    }

    #[test]
    fn latency_growth_fails_but_improvement_passes() {
        let cfg = GateConfig::default();
        let base = report_with(0.9, 1.0);
        let worse = report_with(0.9, 1.2);
        assert!(!gate(&base, &worse, &cfg).passed(&cfg));
        let better = report_with(0.95, 0.8);
        assert!(gate(&base, &better, &cfg).passed(&cfg));
    }

    #[test]
    fn tiny_jitter_is_tolerated() {
        let cfg = GateConfig::default();
        let base = report_with(0.9, 0.010);
        // +20% relative but only +2 ms absolute: under the floor.
        let cand = report_with(0.9, 0.012);
        assert!(gate(&base, &cand, &cfg).passed(&cfg));
    }

    #[test]
    fn fresh_truncation_fails() {
        let cfg = GateConfig::default();
        let base = report_with(0.9, 1.0);
        let mut cand = report_with(0.9, 1.0);
        cand.cells[0].metrics.truncated = true;
        let out = gate(&base, &cand, &cfg);
        assert!(!out.passed(&cfg));
        assert!(out.regressions.iter().any(|r| r.metric == "truncated"));
    }

    fn chaos_report(slo: f64, ttr: f64, replays: u32) -> FleetReport {
        let mut r = report_with(slo, 1.0);
        for c in &mut r.cells {
            c.metrics.revocations = 2;
            c.metrics.mean_ttr_secs = ttr;
            c.metrics.requests_replayed = replays;
        }
        r
    }

    #[test]
    fn worsened_mean_ttr_fails() {
        let cfg = GateConfig::default();
        let base = chaos_report(0.9, 10.0, 4);
        let worse = chaos_report(0.9, 14.0, 4);
        let out = gate(&base, &worse, &cfg);
        assert!(!out.passed(&cfg));
        assert!(out.regressions.iter().any(|r| r.metric == "mean_ttr_secs"));
        // Improvement and identity both pass.
        assert!(gate(&base, &chaos_report(0.9, 6.0, 4), &cfg).passed(&cfg));
        assert!(gate(&base, &base, &cfg).passed(&cfg));
    }

    #[test]
    fn ttr_jitter_under_the_floor_is_tolerated() {
        let cfg = GateConfig::default();
        let base = chaos_report(0.9, 2.0, 4);
        // +15% relative but only +0.3 s absolute: under the floor.
        let cand = chaos_report(0.9, 2.3, 4);
        assert!(gate(&base, &cand, &cfg).passed(&cfg));
    }

    #[test]
    fn replay_growth_fails_but_one_request_of_slack_passes() {
        let cfg = GateConfig::default();
        let base = chaos_report(0.9, 10.0, 4);
        assert!(gate(&base, &chaos_report(0.9, 10.0, 5), &cfg).passed(&cfg));
        let out = gate(&base, &chaos_report(0.9, 10.0, 9), &cfg);
        assert!(!out.passed(&cfg));
        assert!(out
            .regressions
            .iter()
            .any(|r| r.metric == "requests_replayed"));
    }

    #[test]
    fn recovery_metrics_ignore_undisrupted_cells() {
        let cfg = GateConfig::default();
        // Baseline saw no revocations: TTR/replays are not comparable.
        let base = report_with(0.9, 1.0);
        let cand = chaos_report(0.9, 50.0, 100);
        let out = gate(&base, &cand, &cfg);
        assert!(
            !out.regressions
                .iter()
                .any(|r| r.metric == "mean_ttr_secs" || r.metric == "requests_replayed"),
            "{:?}",
            out.regressions
        );
    }

    #[test]
    fn grid_changes_are_reported() {
        let cfg = GateConfig {
            strict_cells: true,
            ..GateConfig::default()
        };
        let base = report_with(0.9, 1.0);
        let mut cand = report_with(0.9, 1.0);
        cand.cells.pop();
        let out = gate(&base, &cand, &cfg);
        assert_eq!(out.missing_cells.len(), 1);
        assert!(!out.passed(&cfg));
        assert!(out.passed(&GateConfig::default()));
    }
}
