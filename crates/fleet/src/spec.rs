//! The declarative sweep DSL: what to run, expanded into a deterministic
//! grid of scenario cells.
//!
//! A [`SweepSpec`] names a model, a workload envelope and five sweep axes
//! — arrival CV × request rate × cluster shape × disruption trace × policy
//! — optionally fanned into seed-derived replicas, and expands into the
//! full cross product via [`SweepSpec::expand`]. Expansion is pure: the
//! same spec always yields the same cells in the same order, and each
//! cell's root seed is derived by hashing the spec seed with the cell's
//! *workload-defining* coordinates (CV, rate, cluster, disruption, replica
//! — **not** the policy), so every policy in a cell group faces
//! byte-identical traffic, background churn *and disruption trace*. That
//! is what makes per-policy comparisons apples-to-apples and whole reports
//! reproducible.

use flexpipe_bench::SystemId;
use flexpipe_chaos::{DisruptionScript, RandomDisruptions};
use flexpipe_cluster::{BackgroundProfile, ClusterSpec};
use flexpipe_model::ModelId;
use flexpipe_serving::ControlPolicy;
use flexpipe_workload::LengthProfile;
use serde::{DeError, Deserialize, Serialize, Value};

/// Cluster shapes a sweep can run on.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ClusterShape {
    /// The paper's 42-server / 82-GPU evaluation testbed (§9).
    PaperTestbed,
    /// Alibaba inference cluster C1 (Table 1): 430 nodes, 468 GPUs.
    AlibabaC1,
    /// Alibaba hybrid cluster C2 (Table 1): 927 nodes, 1175 GPUs.
    AlibabaC2,
    /// A custom heterogeneous cluster (multi-GPU boxes first).
    Custom {
        /// Server count.
        nodes: u32,
        /// Total GPUs across all servers (>= nodes).
        total_gpus: u32,
        /// Servers per rack.
        servers_per_rack: u32,
    },
}

impl ClusterShape {
    /// Materializes the cluster specification.
    pub fn cluster(&self) -> ClusterSpec {
        match self {
            ClusterShape::PaperTestbed => ClusterSpec::paper_testbed(),
            ClusterShape::AlibabaC1 => ClusterSpec::alibaba_c1(),
            ClusterShape::AlibabaC2 => ClusterSpec::alibaba_c2(),
            ClusterShape::Custom {
                nodes,
                total_gpus,
                servers_per_rack,
            } => ClusterSpec::heterogeneous(
                &format!("custom-{nodes}n-{total_gpus}g"),
                *nodes,
                *total_gpus,
                *servers_per_rack,
            ),
        }
    }

    /// Checks that the shape builds a cluster: a `Custom` one needs at
    /// least one server, one GPU per server and one server per rack.
    pub(crate) fn validate(&self) -> Result<(), String> {
        match *self {
            ClusterShape::Custom {
                nodes,
                total_gpus,
                servers_per_rack,
            } if nodes == 0 || total_gpus < nodes || servers_per_rack == 0 => Err(format!(
                "cluster `{}` needs nodes > 0, total_gpus >= nodes and servers_per_rack > 0",
                self.label()
            )),
            _ => Ok(()),
        }
    }

    /// Stable label used in reports and seed derivation.
    pub fn label(&self) -> String {
        match self {
            ClusterShape::PaperTestbed => "paper-testbed".into(),
            ClusterShape::AlibabaC1 => "alibaba-c1".into(),
            ClusterShape::AlibabaC2 => "alibaba-c2".into(),
            ClusterShape::Custom {
                nodes,
                total_gpus,
                servers_per_rack,
            } => format!("custom-{nodes}n-{total_gpus}g-{servers_per_rack}r"),
        }
    }
}

/// Background-tenant fragmentation profile selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BackgroundShape {
    /// No background tenants (dedicated cluster).
    Idle,
    /// The paper testbed's fragmentation level.
    TestbedLike,
    /// Alibaba C1-calibrated utilisation distribution.
    C1Like,
    /// Alibaba C2-calibrated utilisation distribution.
    C2Like,
}

impl BackgroundShape {
    /// Materializes the background profile.
    pub fn profile(&self) -> BackgroundProfile {
        match self {
            BackgroundShape::Idle => BackgroundProfile::none(),
            BackgroundShape::TestbedLike => BackgroundProfile::testbed_like(),
            BackgroundShape::C1Like => BackgroundProfile::c1_like(),
            BackgroundShape::C2Like => BackgroundProfile::c2_like(),
        }
    }
}

/// A policy under test.
///
/// The paper systems come from `flexpipe-bench`'s registry
/// ([`SystemId::policy`]) so the fleet and the figure harnesses always
/// agree on system sizing; `Static` exposes the §3.3 fixed-pipeline
/// baseline of the motivation experiments.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PolicySpec {
    /// One of the five compared systems, paper-faithful sizing.
    Paper(SystemId),
    /// A fixed pipeline: `stages` deep, `replicas` wide, never
    /// reconfigured.
    Static {
        /// Pipeline depth.
        stages: u32,
        /// Replica count.
        replicas: u32,
    },
    /// FlexPipe pinned at a standing fleet of `replicas`: sized as if
    /// historical demand required exactly that many replicas and with
    /// scale-in patience disabled, so the full Algorithm-1 control loop
    /// runs every tick over a fleet that never shrinks. The repository
    /// benchmark's `fleet-1k` workload deploys its standing fleet this
    /// way.
    FlexPipeFleet {
        /// Standing replica count the policy is pinned at.
        replicas: u32,
    },
    /// FlexPipe pinned like [`PolicySpec::FlexPipeFleet`] but deployed
    /// at an explicit (deliberately off-target) lattice level with
    /// hysteresis set unreachably high: under near-zero traffic every
    /// control tick is calm, the whole fleet is off-target, and the
    /// Algorithm-1 refactor pass walks it end to end without ever
    /// acting: the calm-tick regime the plan cache collapses to
    /// O(#levels), checked against the naive reference's full walk in
    /// `fleet/tests/on_tick_equivalence.rs`.
    FlexPipeCalm {
        /// Standing replica count the policy is pinned at.
        replicas: u32,
        /// Lattice level the standing fleet deploys at.
        stages: u32,
    },
}

impl PolicySpec {
    /// Stable label used in reports.
    pub fn label(&self) -> String {
        match self {
            PolicySpec::Paper(id) => id.name().to_string(),
            PolicySpec::Static { stages, replicas } => format!("Static-{stages}x{replicas}"),
            PolicySpec::FlexPipeFleet { replicas } => format!("FlexPipeFleet-{replicas}"),
            PolicySpec::FlexPipeCalm { replicas, stages } => {
                format!("FlexPipeCalm-{replicas}x{stages}")
            }
        }
    }

    /// Builds the policy, sized for `rate` requests/second mean demand.
    pub fn build(&self, rate: f64) -> Box<dyn ControlPolicy> {
        match self {
            PolicySpec::Paper(id) => id.policy(rate),
            PolicySpec::Static { stages, replicas } => {
                flexpipe_bench::systems::static_pipeline(*stages, *replicas)
            }
            PolicySpec::FlexPipeFleet { replicas } => {
                let mut cfg = flexpipe_bench::systems::flexpipe_config(rate);
                cfg.max_replicas = *replicas;
                // A sizing rate far above any offered load pins the
                // standing fleet at `max_replicas`, and infinite scale-in
                // patience keeps it there when the monitor (correctly)
                // reads demand as low.
                cfg.expected_rate = 1e9;
                cfg.scale_down_patience = u32::MAX;
                Box::new(flexpipe_core::FlexPipePolicy::new(cfg))
            }
            PolicySpec::FlexPipeCalm { replicas, stages } => {
                let mut cfg = flexpipe_bench::systems::flexpipe_config(rate);
                cfg.max_replicas = *replicas;
                // Sizing floor AND ceiling at `replicas`: with the floor,
                // `desired == live` even when the monitor reads demand as
                // zero — every tick is calm, so the refactor pass runs on
                // every tick.
                cfg.min_replicas = *replicas;
                cfg.expected_rate = 1e9;
                cfg.scale_down_patience = u32::MAX;
                // Deploy at an explicit level and make the hysteresis
                // comparison unwinnable: the pass walks a fully off-target
                // fleet and provably never acts — the calm-tick shape the
                // plan cache collapses to O(#levels).
                cfg.initial_stages = Some(*stages);
                cfg.hysteresis = 1e18;
                Box::new(flexpipe_core::FlexPipePolicy::new(cfg))
            }
        }
    }
}

/// A disruption-trace axis entry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum DisruptionShape {
    /// No disruptions (the pre-chaos behaviour, byte-identical results).
    None,
    /// An explicit timed script, identical across every cell that names it.
    Script(DisruptionScript),
    /// An MTBF-style stochastic process, realized per cell from the cell
    /// seed — which excludes the policy axis, so every policy in a cell
    /// group faces the identical realized trace.
    Random(RandomDisruptions),
}

/// Label characters that survive into cell ids and file names.
fn sanitize_label(s: &str) -> String {
    s.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
        .collect()
}

impl DisruptionShape {
    /// Stable label used in cell ids and seed derivation.
    pub fn label(&self) -> String {
        match self {
            DisruptionShape::None => "none".into(),
            DisruptionShape::Script(s) => format!("s-{}", sanitize_label(&s.name)),
            DisruptionShape::Random(r) => format!("m-{}", sanitize_label(&r.label)),
        }
    }
}

/// A declarative sweep: one model and workload envelope, five grid axes
/// plus an optional per-cell replica fan-out.
///
/// `Deserialize` is implemented by hand (not derived) so that the two
/// post-v1 fields — `disruptions` and `replicas` — default when a spec
/// file omits them: every pre-chaos spec keeps parsing, and keeps
/// producing the identical report.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SweepSpec {
    /// Sweep name (used in report headers and artifact names).
    pub name: String,
    /// Model under test.
    pub model: ModelId,
    /// Root seed; every cell seed derives from it.
    pub seed: u64,
    /// Measured horizon per cell, seconds.
    pub horizon_secs: f64,
    /// Warmup excluded from steady-state metrics, seconds.
    pub warmup_secs: f64,
    /// Base latency SLO, seconds.
    pub slo_secs: f64,
    /// Additional SLO budget per generated token, milliseconds.
    pub slo_per_output_token_ms: f64,
    /// Background fragmentation profile.
    pub background: BackgroundShape,
    /// Request length distribution.
    pub lengths: LengthProfile,
    /// Per-cell event step budget (the runaway-cell watchdog).
    pub max_events: u64,
    /// Arrival-CV axis.
    pub cvs: Vec<f64>,
    /// Request-rate axis (requests/second).
    pub rates: Vec<f64>,
    /// Cluster-shape axis.
    pub clusters: Vec<ClusterShape>,
    /// Policy axis.
    pub policies: Vec<PolicySpec>,
    /// Disruption-trace axis; `[None]` (the default when the field is
    /// omitted from a spec file) reproduces pre-chaos sweeps exactly.
    pub disruptions: Vec<DisruptionShape>,
    /// Seed-derived replicas per cell coordinate (default 1). Replica 0
    /// keeps the coordinate's base seed, so `replicas = 1` sweeps are
    /// byte-identical to sweeps that predate the axis; the per-policy
    /// rollup reports 95% confidence intervals across replicas.
    pub replicas: u32,
}

/// One expanded grid cell: a (cv, rate, cluster, disruption, replica,
/// policy) coordinate plus its derived seed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Cell {
    /// Index in expansion order (also the report row order).
    pub index: usize,
    /// Arrival coefficient of variation.
    pub cv: f64,
    /// Mean request rate, requests/second.
    pub rate: f64,
    /// Cluster shape.
    pub cluster: ClusterShape,
    /// Policy under test.
    pub policy: PolicySpec,
    /// Disruption trace applied to this cell.
    pub disruption: DisruptionShape,
    /// Replica index within the coordinate (0 = the base seed).
    pub replica: u32,
    /// Derived root seed (identical for all policies sharing a workload
    /// coordinate, so systems compete on the same traffic and the same
    /// disruption trace).
    pub seed: u64,
}

impl Cell {
    /// Stable human-readable cell id, e.g. `cv2-r20-paper-testbed-FlexPipe`.
    /// Disruption and replica suffixes only appear when non-default, so
    /// pre-chaos baselines keep matching by id.
    pub fn id(&self) -> String {
        let mut id = format!(
            "cv{}-r{}-{}-{}",
            fmt_axis(self.cv),
            fmt_axis(self.rate),
            self.cluster.label(),
            self.policy.label()
        );
        let dlabel = self.disruption.label();
        if dlabel != "none" {
            id.push('-');
            id.push_str(&dlabel);
        }
        if self.replica > 0 {
            id.push_str(&format!("-rep{}", self.replica));
        }
        id
    }
}

/// Axis value formatting that is filesystem- and label-safe (no `.` for
/// integral values, `p` for the decimal point otherwise).
pub(crate) fn fmt_axis(x: f64) -> String {
    if x == x.trunc() {
        format!("{}", x as i64)
    } else {
        format!("{x}").replace('.', "p")
    }
}

/// SplitMix64 finalizer used for seed derivation.
pub(crate) fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Derives a cell's workload seed from the spec seed and the cell's
/// workload-defining coordinates (policy excluded deliberately). The
/// disruption label only enters the hash when non-default, so every seed
/// produced before the disruption axis existed is reproduced exactly.
pub fn derive_cell_seed(
    root: u64,
    cv: f64,
    rate: f64,
    cluster_label: &str,
    disruption_label: &str,
) -> u64 {
    let mut h = mix64(root ^ 0xF1EE7F1EE7F1EE7);
    h = mix64(h ^ cv.to_bits());
    h = mix64(h ^ rate.to_bits());
    for b in cluster_label.as_bytes() {
        h = mix64(h ^ u64::from(*b));
    }
    if disruption_label != "none" {
        for b in disruption_label.as_bytes() {
            h = mix64(h ^ u64::from(*b));
        }
    }
    h
}

/// Derives the seed of replica `replica` from a coordinate's base seed.
/// Replica 0 *is* the base seed (backward-compatible single-replica
/// sweeps); later replicas decorrelate through the mixer.
pub fn replica_seed(base: u64, replica: u32) -> u64 {
    if replica == 0 {
        base
    } else {
        mix64(base ^ 0x5EED5EED5EED5EED ^ u64::from(replica))
    }
}

impl SweepSpec {
    /// Expands the sweep into its full cell grid, in deterministic order:
    /// clusters (outer) × disruptions × cvs × rates × replicas × policies
    /// (inner). Policies are the innermost axis so consecutive cells share
    /// a workload coordinate — and therefore a seed and disruption trace.
    pub fn expand(&self) -> Vec<Cell> {
        let mut cells = Vec::new();
        for cluster in &self.clusters {
            for disruption in &self.disruptions {
                for &cv in &self.cvs {
                    for &rate in &self.rates {
                        let base = derive_cell_seed(
                            self.seed,
                            cv,
                            rate,
                            &cluster.label(),
                            &disruption.label(),
                        );
                        for replica in 0..self.replicas.max(1) {
                            let seed = replica_seed(base, replica);
                            for policy in &self.policies {
                                cells.push(Cell {
                                    index: cells.len(),
                                    cv,
                                    rate,
                                    cluster: cluster.clone(),
                                    policy: policy.clone(),
                                    disruption: disruption.clone(),
                                    replica,
                                    seed,
                                });
                            }
                        }
                    }
                }
            }
        }
        cells
    }

    /// The canonical semantic content of one expanded cell: every spec
    /// field and cell coordinate that can change the cell's metrics, and
    /// nothing that cannot. This is what the campaign cache hashes into
    /// the cell's content key ([`crate::cache::cell_key`]).
    ///
    /// Deliberately excluded:
    ///
    /// - `name` — cosmetic (renaming a sweep must keep its cache warm);
    /// - `max_events` — a watchdog, not a parameter: a cell that finishes
    ///   under one budget finishes identically under any larger one, and
    ///   truncated cells are never cached. This is the resume mechanism —
    ///   a budget-killed campaign re-run recomputes exactly the cells the
    ///   budget cut short. (Lowered budgets are handled at replay time
    ///   instead: [`crate::cache::CellCache::load`] refuses entries whose
    ///   event count no longer fits the current budget);
    /// - the axis vectors and `replicas` — the cell coordinate plus its
    ///   derived `seed` capture them (so appending an axis value dirties
    ///   only the new cells);
    /// - the admission mode — proven byte-identical across modes by the
    ///   equivalence suites.
    pub fn cell_semantics(&self, cell: &Cell) -> serde::Value {
        let field = |k: &str, v: serde::Value| (k.to_string(), v);
        serde::Value::Map(vec![
            field("experiment", serde::Value::Str("sweep".into())),
            field("model", self.model.to_value()),
            field("horizon_secs", self.horizon_secs.to_value()),
            field("warmup_secs", self.warmup_secs.to_value()),
            field("slo_secs", self.slo_secs.to_value()),
            field(
                "slo_per_output_token_ms",
                self.slo_per_output_token_ms.to_value(),
            ),
            field("background", self.background.to_value()),
            field("lengths", self.lengths.to_value()),
            field("cv", cell.cv.to_value()),
            field("rate", cell.rate.to_value()),
            field("cluster", cell.cluster.to_value()),
            field("policy", cell.policy.to_value()),
            field("disruption", cell.disruption.to_value()),
            field("seed", cell.seed.to_value()),
        ])
    }

    /// Validates axis sanity, returning a description of the first
    /// problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.cvs.is_empty()
            || self.rates.is_empty()
            || self.clusters.is_empty()
            || self.policies.is_empty()
        {
            return Err("every sweep axis needs at least one entry".into());
        }
        if self.cvs.iter().any(|&cv| !(cv.is_finite() && cv > 0.0)) {
            return Err("arrival CVs must be finite and positive".into());
        }
        if self.rates.iter().any(|&r| !(r.is_finite() && r > 0.0)) {
            return Err("rates must be finite and positive".into());
        }
        validate_run_window(
            self.horizon_secs,
            self.warmup_secs,
            self.slo_secs,
            self.slo_per_output_token_ms,
        )?;
        for c in &self.clusters {
            c.validate()?;
        }
        if self.max_events == 0 {
            return Err("max_events watchdog budget must be positive".into());
        }
        if self.disruptions.is_empty() {
            return Err("disruptions axis needs at least one entry (use \"None\")".into());
        }
        // Labels feed both cell ids and seed derivation; two axis entries
        // collapsing to one label (e.g. names differing only in
        // punctuation) would silently alias cells.
        let mut labels = std::collections::BTreeSet::new();
        for d in &self.disruptions {
            if !labels.insert(d.label()) {
                return Err(format!(
                    "duplicate disruption label `{}` (names must differ alphanumerically)",
                    d.label()
                ));
            }
        }
        if self.replicas == 0 {
            return Err("replicas must be at least 1".into());
        }
        // Disruption targets must be valid on *every* cluster of the sweep
        // so the same trace stays meaningful across the whole grid.
        for d in &self.disruptions {
            match d {
                DisruptionShape::None => {}
                DisruptionShape::Script(s) => {
                    for c in &self.clusters {
                        let spec = c.cluster();
                        s.validate(spec.total_gpus(), spec.servers.len() as u32)
                            .map_err(|e| format!("disruption script `{}`: {e}", s.name))?;
                    }
                }
                DisruptionShape::Random(r) => r
                    .validate()
                    .map_err(|e| format!("disruption generator `{}`: {e}", r.label))?,
            }
        }
        Ok(())
    }

    /// The template sweep written by `flexpipe-fleet init`: a 24-cell grid
    /// (4 CVs × 2 rates × 1 cluster × 3 policies) matching the paper's
    /// §9.2 sensitivity axis.
    pub fn template() -> SweepSpec {
        SweepSpec {
            name: "cv-rate-sensitivity".into(),
            model: ModelId::Opt66B,
            seed: 42,
            horizon_secs: 120.0,
            warmup_secs: 30.0,
            slo_secs: 2.0,
            slo_per_output_token_ms: 100.0,
            background: BackgroundShape::TestbedLike,
            lengths: LengthProfile::splitwise_like(),
            max_events: 200_000_000,
            cvs: vec![0.5, 2.0, 4.0, 8.0],
            rates: vec![10.0, 20.0],
            clusters: vec![ClusterShape::PaperTestbed],
            policies: vec![
                PolicySpec::Paper(SystemId::FlexPipe),
                PolicySpec::Paper(SystemId::AlpaServe),
                PolicySpec::Paper(SystemId::ServerlessLlm),
            ],
            disruptions: vec![DisruptionShape::None],
            replicas: 1,
        }
    }
}

/// Checks the run length and SLO fields sweep and bench specs share:
/// `horizon_secs` and `slo_secs` finite and positive, `warmup_secs` and
/// `slo_per_output_token_ms` finite and non-negative.
pub(crate) fn validate_run_window(
    horizon_secs: f64,
    warmup_secs: f64,
    slo_secs: f64,
    slo_per_output_token_ms: f64,
) -> Result<(), String> {
    let checks = [
        ("horizon_secs", horizon_secs, false),
        ("warmup_secs", warmup_secs, true),
        ("slo_secs", slo_secs, false),
        ("slo_per_output_token_ms", slo_per_output_token_ms, true),
    ];
    for (name, v, zero_ok) in checks {
        if !(v.is_finite() && if zero_ok { v >= 0.0 } else { v > 0.0 }) {
            let want = if zero_ok { "non-negative" } else { "positive" };
            return Err(format!("{name} must be finite and {want}, got {v}"));
        }
    }
    Ok(())
}

/// Required-field lookup for the hand-written [`SweepSpec`] deserializer.
fn req<T: Deserialize>(m: &[(String, Value)], key: &str) -> Result<T, DeError> {
    match serde::value_get(m, key) {
        Some(v) => T::from_value(v).map_err(|e| e.in_field(&format!("SweepSpec.{key}"))),
        None => Err(DeError::missing("SweepSpec", key)),
    }
}

/// Optional-field lookup with a default.
fn opt<T: Deserialize>(m: &[(String, Value)], key: &str, default: T) -> Result<T, DeError> {
    match serde::value_get(m, key) {
        Some(Value::Null) | None => Ok(default),
        Some(v) => T::from_value(v).map_err(|e| e.in_field(&format!("SweepSpec.{key}"))),
    }
}

impl Deserialize for SweepSpec {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let m = v
            .as_map()
            .ok_or_else(|| DeError::expected("map", "SweepSpec", v))?;
        Ok(SweepSpec {
            name: req(m, "name")?,
            model: req(m, "model")?,
            seed: req(m, "seed")?,
            horizon_secs: req(m, "horizon_secs")?,
            warmup_secs: req(m, "warmup_secs")?,
            slo_secs: req(m, "slo_secs")?,
            slo_per_output_token_ms: req(m, "slo_per_output_token_ms")?,
            background: req(m, "background")?,
            lengths: req(m, "lengths")?,
            max_events: req(m, "max_events")?,
            cvs: req(m, "cvs")?,
            rates: req(m, "rates")?,
            clusters: req(m, "clusters")?,
            policies: req(m, "policies")?,
            disruptions: opt(m, "disruptions", vec![DisruptionShape::None])?,
            replicas: opt(m, "replicas", 1)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expansion_is_deterministic_and_complete() {
        let spec = SweepSpec::template();
        let a = spec.expand();
        let b = spec.expand();
        assert_eq!(a, b);
        assert_eq!(a.len(), 4 * 2 * 3);
        for (i, c) in a.iter().enumerate() {
            assert_eq!(c.index, i);
        }
    }

    #[test]
    fn policies_share_workload_seeds() {
        let spec = SweepSpec::template();
        let cells = spec.expand();
        // Consecutive policy cells of one coordinate share the seed...
        assert_eq!(cells[0].seed, cells[1].seed);
        assert_eq!(cells[0].seed, cells[2].seed);
        // ...while different coordinates get different seeds.
        assert_ne!(cells[0].seed, cells[3].seed);
    }

    #[test]
    fn seed_derivation_depends_on_every_coordinate() {
        let base = derive_cell_seed(1, 2.0, 20.0, "paper-testbed", "none");
        assert_ne!(
            base,
            derive_cell_seed(2, 2.0, 20.0, "paper-testbed", "none")
        );
        assert_ne!(
            base,
            derive_cell_seed(1, 4.0, 20.0, "paper-testbed", "none")
        );
        assert_ne!(
            base,
            derive_cell_seed(1, 2.0, 10.0, "paper-testbed", "none")
        );
        assert_ne!(base, derive_cell_seed(1, 2.0, 20.0, "alibaba-c1", "none"));
        assert_ne!(
            base,
            derive_cell_seed(1, 2.0, 20.0, "paper-testbed", "s-preempt")
        );
    }

    #[test]
    fn replica_zero_keeps_the_base_seed() {
        let base = derive_cell_seed(1, 2.0, 20.0, "paper-testbed", "none");
        assert_eq!(replica_seed(base, 0), base);
        assert_ne!(replica_seed(base, 1), base);
        assert_ne!(replica_seed(base, 1), replica_seed(base, 2));
    }

    #[test]
    fn replicas_fan_out_and_share_seeds_per_policy() {
        let mut spec = SweepSpec::template();
        spec.replicas = 3;
        let cells = spec.expand();
        assert_eq!(cells.len(), 4 * 2 * 3 * 3);
        // Within one replica, policies share the seed...
        assert_eq!(cells[0].seed, cells[1].seed);
        // ...across replicas seeds differ...
        assert_ne!(cells[0].seed, cells[3].seed);
        // ...and replica 0 matches the unreplicated sweep.
        let mut single = SweepSpec::template();
        single.replicas = 1;
        assert_eq!(single.expand()[0].seed, cells[0].seed);
        // Ids stay unique.
        let ids: std::collections::BTreeSet<String> = cells.iter().map(|c| c.id()).collect();
        assert_eq!(ids.len(), cells.len());
    }

    #[test]
    fn disruption_axis_expands_with_stable_labels() {
        use flexpipe_chaos::{Disruption, DisruptionEvent};
        let mut spec = SweepSpec::template();
        spec.disruptions = vec![
            DisruptionShape::None,
            DisruptionShape::Script(DisruptionScript {
                name: "preempt one".into(),
                events: vec![DisruptionEvent {
                    at_secs: 30.0,
                    kind: Disruption::HotServerPreempt {
                        rank: 0,
                        grace_secs: 10.0,
                    },
                }],
            }),
        ];
        assert!(spec.validate().is_ok());
        let cells = spec.expand();
        assert_eq!(cells.len(), 2 * 4 * 2 * 3);
        // The undisrupted half keeps pre-chaos ids and seeds.
        assert_eq!(cells[0].id(), "cv0p5-r10-paper-testbed-FlexPipe");
        let old = derive_cell_seed(spec.seed, 0.5, 10.0, "paper-testbed", "none");
        assert_eq!(cells[0].seed, old);
        // The disrupted half is labelled and reseeded.
        let disrupted = cells
            .iter()
            .find(|c| c.disruption != DisruptionShape::None)
            .unwrap();
        assert!(disrupted.id().ends_with("-s-preempt-one"));
        // Policies within a disrupted coordinate still share the seed.
        let twins: Vec<&Cell> = cells
            .iter()
            .filter(|c| c.disruption != DisruptionShape::None && c.cv == 0.5 && c.rate == 10.0)
            .collect();
        assert_eq!(twins.len(), 3);
        assert!(twins.iter().all(|c| c.seed == twins[0].seed));
    }

    #[test]
    fn validate_checks_disruption_targets_against_every_cluster() {
        use flexpipe_chaos::{Disruption, DisruptionEvent};
        let mut spec = SweepSpec::template();
        spec.disruptions = vec![DisruptionShape::Script(DisruptionScript {
            name: "oob".into(),
            events: vec![DisruptionEvent {
                at_secs: 1.0,
                kind: Disruption::GpuFail { gpu: 999 },
            }],
        })];
        assert!(spec.validate().is_err());
        let mut spec = SweepSpec::template();
        spec.disruptions.clear();
        assert!(spec.validate().is_err());
        let mut spec = SweepSpec::template();
        spec.replicas = 0;
        assert!(spec.validate().is_err());
        // Colliding labels (names differing only in punctuation) refused.
        let mut spec = SweepSpec::template();
        let script = |name: &str| {
            DisruptionShape::Script(DisruptionScript {
                name: name.into(),
                events: Vec::new(),
            })
        };
        spec.disruptions = vec![script("hot 1"), script("hot-1")];
        assert!(spec.validate().is_err());
    }

    #[test]
    fn old_specs_without_new_fields_still_parse() {
        let spec = SweepSpec::template();
        let mut json = serde_json::to_string_pretty(&spec).unwrap();
        // Strip the new fields, emulating a pre-chaos spec file.
        assert!(json.contains("\"disruptions\""));
        let v: serde::Value = serde_json::from_str(&json).unwrap();
        let serde::Value::Map(m) = v else { panic!() };
        let m: Vec<(String, serde::Value)> = m
            .into_iter()
            .filter(|(k, _)| k != "disruptions" && k != "replicas")
            .collect();
        json = serde_json::to_string(&serde::Value::Map(m)).unwrap();
        let back: SweepSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, spec, "defaults must reproduce the template");
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(
            PolicySpec::Static {
                stages: 4,
                replicas: 2
            }
            .label(),
            "Static-4x2"
        );
        assert_eq!(PolicySpec::Paper(SystemId::FlexPipe).label(), "FlexPipe");
        assert_eq!(ClusterShape::PaperTestbed.label(), "paper-testbed");
        let cell = &SweepSpec::template().expand()[0];
        assert_eq!(cell.id(), "cv0p5-r10-paper-testbed-FlexPipe");
    }

    #[test]
    fn validation_rejects_unbuildable_clusters_and_bad_run_windows() {
        let custom = |nodes, total_gpus, servers_per_rack| ClusterShape::Custom {
            nodes,
            total_gpus,
            servers_per_rack,
        };
        for bad in [custom(0, 0, 4), custom(8, 7, 4), custom(8, 12, 0)] {
            let mut spec = SweepSpec::template();
            spec.clusters.push(bad.clone());
            let err = spec.validate().unwrap_err();
            assert!(err.contains(&bad.label()), "{err}");
        }
        let mut spec = SweepSpec::template();
        spec.clusters = vec![custom(8, 8, 1), custom(1, 64, 1)];
        assert!(spec.validate().is_ok());

        type Field = fn(&mut SweepSpec) -> &mut f64;
        let fields: [(&str, Field, bool); 4] = [
            ("horizon_secs", |s| &mut s.horizon_secs, false),
            ("warmup_secs", |s| &mut s.warmup_secs, true),
            ("slo_secs", |s| &mut s.slo_secs, false),
            (
                "slo_per_output_token_ms",
                |s| &mut s.slo_per_output_token_ms,
                true,
            ),
        ];
        for (name, field, zero_ok) in fields {
            for v in [f64::INFINITY, f64::NAN, -1.0, 0.0] {
                let mut spec = SweepSpec::template();
                *field(&mut spec) = v;
                match spec.validate() {
                    Ok(()) => assert!(zero_ok && v == 0.0, "{name} = {v} accepted"),
                    Err(e) => assert!(e.starts_with(name), "{name} = {v}: {e}"),
                }
            }
        }
    }

    #[test]
    fn validation_catches_bad_axes() {
        let mut spec = SweepSpec::template();
        spec.cvs.clear();
        assert!(spec.validate().is_err());
        let mut spec = SweepSpec::template();
        spec.rates = vec![-1.0];
        assert!(spec.validate().is_err());
        let mut spec = SweepSpec::template();
        spec.max_events = 0;
        assert!(spec.validate().is_err());
        assert!(SweepSpec::template().validate().is_ok());
    }

    #[test]
    fn spec_round_trips_through_json() {
        let spec = SweepSpec::template();
        let json = serde_json::to_string_pretty(&spec).unwrap();
        let back: SweepSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, spec);
    }
}
