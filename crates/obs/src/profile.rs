//! Wall-clock per-scope statistics for profiling drivers.
//!
//! The profiler never reads a clock itself: a driver outside the engine
//! times whatever it steps (`fleet trace profile` times each
//! `SteppedEngine::step` and charges it to the event kind the step
//! returns) and feeds the measurements in with [`Profiler::observe`].
//! Wall times vary run to run, so profiler output must never enter a
//! cached or byte-compared artifact — it is reported beside them,
//! like the fleet's per-cell wall-clock rows.

use std::collections::BTreeMap;

use flexpipe_metrics::{fmt_f, P2Quantile, Table};

/// Aggregated wall-clock statistics for one named scope.
#[derive(Debug, Clone)]
pub struct ScopeStats {
    /// Times the scope ran.
    pub calls: u64,
    /// Total wall time, seconds.
    pub total_secs: f64,
    /// Longest single call, seconds.
    pub max_secs: f64,
    /// Median call estimator.
    pub p50: P2Quantile,
    /// Tail call estimator.
    pub p99: P2Quantile,
}

impl ScopeStats {
    fn new() -> Self {
        ScopeStats {
            calls: 0,
            total_secs: 0.0,
            max_secs: 0.0,
            p50: P2Quantile::new(0.5),
            p99: P2Quantile::new(0.99),
        }
    }
}

/// Named wall-clock scopes, each aggregating the observations fed to it.
#[derive(Debug, Clone, Default)]
pub struct Profiler {
    scopes: BTreeMap<String, ScopeStats>,
}

impl Profiler {
    /// Records one observation of `secs` wall seconds under `name`.
    pub fn observe(&mut self, name: &str, secs: f64) {
        let st = self
            .scopes
            .entry(name.to_string())
            .or_insert_with(ScopeStats::new);
        st.calls += 1;
        st.total_secs += secs;
        if secs > st.max_secs {
            st.max_secs = secs;
        }
        st.p50.observe(secs);
        st.p99.observe(secs);
    }

    /// Call count for one scope (0 when never seen).
    pub fn calls(&self, name: &str) -> u64 {
        self.scopes.get(name).map_or(0, |s| s.calls)
    }

    /// Total wall seconds attributed to one scope.
    pub fn total_secs(&self, name: &str) -> f64 {
        self.scopes.get(name).map_or(0.0, |s| s.total_secs)
    }

    /// Iterates scopes in name order.
    pub fn scopes(&self) -> impl Iterator<Item = (&str, &ScopeStats)> {
        self.scopes.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Whether any scope recorded anything.
    pub fn is_empty(&self) -> bool {
        self.scopes.is_empty()
    }

    /// Renders the per-scope table, heaviest scope first (total wall
    /// time descending, ties by name).
    pub fn table(&self, title: &str) -> Table {
        let mut t = Table::new(
            title,
            &[
                "scope", "calls", "total ms", "mean us", "p50 us", "p99 us", "max us",
            ],
        );
        let mut rows: Vec<(&str, &ScopeStats)> = self.scopes().collect();
        rows.sort_by(|(na, a), (nb, b)| {
            b.total_secs
                .partial_cmp(&a.total_secs)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(na.cmp(nb))
        });
        for (name, st) in rows {
            let mean_us = if st.calls == 0 {
                0.0
            } else {
                st.total_secs / st.calls as f64 * 1e6
            };
            t.row(vec![
                name.to_string(),
                st.calls.to_string(),
                fmt_f(st.total_secs * 1e3, 2),
                fmt_f(mean_us, 1),
                fmt_f(st.p50.estimate().unwrap_or(0.0) * 1e6, 1),
                fmt_f(st.p99.estimate().unwrap_or(0.0) * 1e6, 1),
                fmt_f(st.max_secs * 1e6, 1),
            ]);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enabled_profiler_aggregates() {
        let mut p = Profiler::default();
        assert!(p.is_empty());
        p.observe("dispatch", 0.002);
        p.observe("dispatch", 0.004);
        p.observe("on_tick", 0.001);
        assert_eq!(p.calls("dispatch"), 2);
        assert!((p.total_secs("dispatch") - 0.006).abs() < 1e-12);
        let rendered = p.table("per-kind wall time").render();
        // Heaviest scope leads.
        assert!(rendered.find("dispatch").unwrap() < rendered.find("on_tick").unwrap());
    }
}
