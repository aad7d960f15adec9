//! GPU utilisation and allocation accounting.
//!
//! Fig. 12 plots goodput against *GPU utilisation*: the fraction of
//! GPU-seconds the deployment held that were spent computing. The ledger
//! records busy intervals per GPU plus the allocation timeline (how many
//! GPUs were held at each moment), from which both utilisation and the
//! "always-on reservation" case-study numbers (§9.6) derive.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use flexpipe_sim::{SimDuration, SimTime};

/// Busy-time and allocation ledger.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct UtilizationLedger {
    /// Total busy seconds per GPU id. Ordered, so the ledger's `Debug`
    /// output and [`UtilizationLedger::total_busy_secs`] do not depend on
    /// hash order.
    busy: BTreeMap<u32, f64>,
    /// Allocation change events: (time, +1/-1).
    alloc_events: Vec<(SimTime, i32)>,
}

impl UtilizationLedger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `busy` seconds of compute on `gpu`.
    pub fn record_busy(&mut self, gpu: u32, busy: SimDuration) {
        self.add_busy_secs(gpu, busy.as_secs_f64());
    }

    /// Adds `secs` busy seconds to `gpu`. An engine that sums each GPU's
    /// passes in a dense table of its own hands each total over once, at
    /// report time; the first addition to a GPU is exact (`0.0 + secs`).
    pub fn add_busy_secs(&mut self, gpu: u32, secs: f64) {
        *self.busy.entry(gpu).or_insert(0.0) += secs;
    }

    /// Records that one GPU was acquired at `at`.
    pub fn record_acquire(&mut self, at: SimTime) {
        self.alloc_events.push((at, 1));
    }

    /// Records that one GPU was released at `at`.
    pub fn record_release(&mut self, at: SimTime) {
        self.alloc_events.push((at, -1));
    }

    /// Total busy GPU-seconds.
    pub fn total_busy_secs(&self) -> f64 {
        self.busy.values().sum()
    }

    /// Number of distinct GPUs that did any work.
    pub fn gpus_used(&self) -> usize {
        self.busy.len()
    }

    /// Integral of allocated GPUs over time, in GPU-seconds, up to `end`.
    pub fn allocated_gpu_secs(&self, end: SimTime) -> f64 {
        let mut events = self.alloc_events.clone();
        events.sort();
        let mut held = 0i64;
        let mut last = SimTime::ZERO;
        let mut total = 0.0;
        for (t, delta) in events {
            let t = t.min(end);
            total += held as f64 * t.saturating_since(last).as_secs_f64();
            held += i64::from(delta);
            last = t;
        }
        total += held as f64 * end.saturating_since(last).as_secs_f64();
        total
    }

    /// Peak number of simultaneously allocated GPUs.
    pub fn peak_allocated(&self) -> u32 {
        let mut events = self.alloc_events.clone();
        events.sort();
        let mut held = 0i64;
        let mut peak = 0i64;
        for (_, delta) in events {
            held += i64::from(delta);
            peak = peak.max(held);
        }
        peak.max(0) as u32
    }

    /// Mean number of allocated GPUs over `[0, end)`.
    pub fn mean_allocated(&self, end: SimTime) -> f64 {
        if end == SimTime::ZERO {
            return 0.0;
        }
        self.allocated_gpu_secs(end) / end.as_secs_f64()
    }

    /// Utilisation: busy GPU-seconds / allocated GPU-seconds (0..1+).
    ///
    /// Values near 1 mean held GPUs computed constantly; static systems
    /// holding peak capacity idle show low values here.
    pub fn utilization(&self, end: SimTime) -> f64 {
        let alloc = self.allocated_gpu_secs(end);
        if alloc <= 0.0 {
            return 0.0;
        }
        (self.total_busy_secs() / alloc).min(1.0)
    }

    /// Utilisation against a fixed fleet of `fleet` GPUs over `[0, end)`
    /// (the denominator Fig. 12 uses: the whole testbed).
    pub fn fleet_utilization(&self, fleet: u32, end: SimTime) -> f64 {
        let denom = f64::from(fleet) * end.as_secs_f64();
        if denom <= 0.0 {
            return 0.0;
        }
        (self.total_busy_secs() / denom).min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn busy_accumulates_per_gpu() {
        let mut l = UtilizationLedger::new();
        l.record_busy(0, SimDuration::from_secs(2));
        l.record_busy(0, SimDuration::from_secs(3));
        l.record_busy(1, SimDuration::from_secs(1));
        assert_eq!(l.total_busy_secs(), 6.0);
        assert_eq!(l.gpus_used(), 2);
    }

    #[test]
    fn allocation_integral() {
        let mut l = UtilizationLedger::new();
        l.record_acquire(SimTime::from_secs(0));
        l.record_acquire(SimTime::from_secs(10));
        l.record_release(SimTime::from_secs(20));
        // [0,10): 1 GPU; [10,20): 2 GPUs; [20,30): 1 GPU = 10+20+10.
        assert_eq!(l.allocated_gpu_secs(SimTime::from_secs(30)), 40.0);
        assert_eq!(l.peak_allocated(), 2);
        assert!((l.mean_allocated(SimTime::from_secs(30)) - 4.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn utilization_ratio() {
        let mut l = UtilizationLedger::new();
        l.record_acquire(SimTime::ZERO);
        l.record_busy(0, SimDuration::from_secs(25));
        assert!((l.utilization(SimTime::from_secs(100)) - 0.25).abs() < 1e-9);
        assert!((l.fleet_utilization(10, SimTime::from_secs(100)) - 0.025).abs() < 1e-9);
    }

    #[test]
    fn empty_ledger_is_zero() {
        let l = UtilizationLedger::new();
        assert_eq!(l.utilization(SimTime::from_secs(10)), 0.0);
        assert_eq!(l.peak_allocated(), 0);
    }

    #[test]
    fn out_of_order_events_are_sorted() {
        let mut l = UtilizationLedger::new();
        l.record_release(SimTime::from_secs(20));
        l.record_acquire(SimTime::from_secs(0));
        assert_eq!(l.allocated_gpu_secs(SimTime::from_secs(30)), 20.0);
    }
}
