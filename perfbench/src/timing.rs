//! Wall-time attribution from outside the program: a timing
//! [`ControlPolicy`] decorator for the `core` layer, per-event-kind
//! accounting for the `serving` layer, and the arithmetic that turns
//! them into self times and coverage.

use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use flexpipe_cluster::GpuId;
use flexpipe_serving::{ControlPolicy, Ctx, DisruptionNotice, InstanceId};
use flexpipe_sim::SimTime;

use crate::stats::Agg;

/// The policy hooks the decorator times, in report order.
pub const HOOKS: [&str; 6] = [
    "on_tick",
    "on_arrival",
    "on_instance_ready",
    "on_action",
    "on_revoke_notice",
    "on_disruption",
];

/// The event kinds `SteppedEngine::step` returns, in report order.
pub const KINDS: [&str; 12] = [
    "arrival",
    "control_tick",
    "churn",
    "instance_ready",
    "stage_arrive",
    "stage_done",
    "prepare_done",
    "pause_done",
    "disruption",
    "revoke",
    "restore",
    "policy_action",
];

/// What the decorator measured.
#[derive(Debug, Clone, Default)]
pub struct PolicyTimes {
    /// When `init` returned: the end of set-up.
    pub init_done: Option<Instant>,
    /// Process CPU seconds when `init` returned.
    pub init_cpu_s: f64,
    /// Wall time inside `init`, seconds.
    pub init_s: f64,
    /// Instances standing when `init` returned.
    pub init_spawns: usize,
    /// Per-hook call count, busy seconds and longest call, in
    /// [`HOOKS`] order.
    pub hooks: [Agg; 6],
}

impl PolicyTimes {
    /// Busy seconds of every hook together: the policy time nested inside
    /// engine dispatch.
    pub fn nested_s(&self) -> f64 {
        self.hooks.iter().map(|a| a.sum).sum()
    }
}

/// Shared handle to a decorator's measurements.
pub type SharedTimes = Arc<Mutex<PolicyTimes>>;

/// Locks the shared measurements.
pub fn lock(times: &SharedTimes) -> MutexGuard<'_, PolicyTimes> {
    times
        .lock()
        .expect("policy timer lock: no thread panics while holding it")
}

/// A [`ControlPolicy`] that forwards every hook to the wrapped policy.
/// It always stamps the end of `init`; when `traced`, it also times each
/// hook call. Forwarding changes nothing the engine sees, so reports are
/// byte-identical with and without it.
pub struct TimedPolicy {
    inner: Box<dyn ControlPolicy>,
    times: SharedTimes,
    traced: bool,
}

impl TimedPolicy {
    /// Wraps `inner`, recording into `times`.
    pub fn new(inner: Box<dyn ControlPolicy>, times: SharedTimes, traced: bool) -> TimedPolicy {
        TimedPolicy {
            inner,
            times,
            traced,
        }
    }

    fn timed(&mut self, hook: usize, f: impl FnOnce(&mut dyn ControlPolicy)) {
        if !self.traced {
            return f(self.inner.as_mut());
        }
        let start = Instant::now();
        f(self.inner.as_mut());
        let secs = start.elapsed().as_secs_f64();
        lock(&self.times).hooks[hook].add(secs);
    }
}

impl ControlPolicy for TimedPolicy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn init(&mut self, ctx: &mut Ctx<'_>) {
        let start = Instant::now();
        self.inner.init(ctx);
        let done = Instant::now();
        let cpu_s = crate::host::cpu_secs();
        let spawns = if self.traced {
            ctx.instances().len()
        } else {
            0
        };
        let mut t = lock(&self.times);
        t.init_done = Some(done);
        t.init_cpu_s = cpu_s;
        t.init_s = (done - start).as_secs_f64();
        t.init_spawns = spawns;
    }

    fn on_tick(&mut self, ctx: &mut Ctx<'_>) {
        self.timed(0, |p| p.on_tick(ctx));
    }

    fn on_arrival(&mut self, ctx: &mut Ctx<'_>) {
        self.timed(1, |p| p.on_arrival(ctx));
    }

    fn on_instance_ready(&mut self, ctx: &mut Ctx<'_>, id: InstanceId) {
        self.timed(2, |p| p.on_instance_ready(ctx, id));
    }

    fn on_action(&mut self, ctx: &mut Ctx<'_>, tag: u32) {
        self.timed(3, |p| p.on_action(ctx, tag));
    }

    fn on_revoke_notice(&mut self, ctx: &mut Ctx<'_>, gpus: &[GpuId], deadline: SimTime) {
        self.timed(4, |p| p.on_revoke_notice(ctx, gpus, deadline));
    }

    fn on_disruption(&mut self, ctx: &mut Ctx<'_>, notice: &DisruptionNotice) {
        self.timed(5, |p| p.on_disruption(ctx, notice));
    }
}

/// Index of an event kind in [`KINDS`]; kinds added to the engine later
/// land in the extra slot at `KINDS.len()`.
pub fn kind_index(kind: &str) -> usize {
    KINDS.iter().position(|k| *k == kind).unwrap_or(KINDS.len())
}

/// Dispatch self time: engine busy time minus the policy time nested
/// inside it, floored at zero against timer jitter.
pub fn self_time(busy_s: f64, nested_s: f64) -> f64 {
    (busy_s - nested_s).max(0.0)
}

/// Share of a traced run's wall time attributed to named layers.
pub fn coverage(attributed_s: f64, wall_s: f64) -> f64 {
    if wall_s > 0.0 {
        attributed_s / wall_s
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_busy_minus_nested_policy_time() {
        let mut t = PolicyTimes::default();
        t.hooks[0].add(0.25);
        t.hooks[0].add(0.5);
        t.hooks[4].add(0.25);
        assert_eq!(t.nested_s(), 1.0);
        assert_eq!(self_time(3.0, t.nested_s()), 2.0);
        // Timer jitter can make nested exceed busy by a hair: never negative.
        assert_eq!(self_time(1.0, 1.0 + 1e-9), 0.0);
    }

    #[test]
    fn coverage_is_attributed_over_wall() {
        assert_eq!(coverage(9.5, 10.0), 0.95);
        assert_eq!(coverage(1.0, 0.0), 0.0);
    }

    #[test]
    fn every_kind_has_its_own_slot_and_unknown_kinds_share_one() {
        for (i, k) in KINDS.iter().enumerate() {
            assert_eq!(kind_index(k), i);
        }
        assert_eq!(kind_index("new_kind"), KINDS.len());
    }
}
