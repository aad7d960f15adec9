//! Cache-invalidation coverage for the campaign cell keys: mutating any
//! semantically meaningful spec field must change the affected cells'
//! content keys, while cosmetic variation — JSON key order, numeric
//! spelling, spec renames, watchdog budgets — must not. Precision matters in both directions: a key that misses a
//! meaningful field replays stale results; a key that includes a
//! cosmetic one defeats resume.

use std::collections::BTreeMap;
use std::collections::BTreeSet;

use flexpipe_chaos::{Disruption, DisruptionEvent, DisruptionScript};
use flexpipe_fleet::spec::DisruptionShape;
use flexpipe_fleet::{cell_key, BenchSpec, ClusterShape, PolicySpec, SweepSpec};
use flexpipe_model::ModelId;
use proptest::prelude::*;
use serde::{Serialize, Value};

/// Every cell key of a sweep, as a set (mutations may add/remove cells).
fn sweep_keys(spec: &SweepSpec) -> BTreeSet<String> {
    spec.expand()
        .iter()
        .map(|c| cell_key(&spec.cell_semantics(c)))
        .collect()
}

/// Cell-id → key map, for dirty-cell precision checks.
fn sweep_key_map(spec: &SweepSpec) -> BTreeMap<String, String> {
    spec.expand()
        .iter()
        .map(|c| (c.id(), cell_key(&spec.cell_semantics(c))))
        .collect()
}

fn bench_keys(spec: &BenchSpec) -> BTreeSet<String> {
    spec.expand()
        .iter()
        .map(|c| cell_key(&spec.cell_semantics(c)))
        .collect()
}

/// Number of distinct semantically meaningful sweep mutations below.
const SWEEP_MUTATIONS: u64 = 14;

/// Applies meaningful mutation `k` to `spec`.
fn mutate_sweep(spec: &mut SweepSpec, k: u64) -> &'static str {
    match k {
        0 => {
            spec.seed += 1;
            "seed"
        }
        1 => {
            spec.horizon_secs += 1.0;
            "horizon_secs"
        }
        2 => {
            spec.warmup_secs += 1.0;
            "warmup_secs"
        }
        3 => {
            spec.slo_secs += 0.5;
            "slo_secs"
        }
        4 => {
            spec.slo_per_output_token_ms += 10.0;
            "slo_per_output_token_ms"
        }
        5 => {
            spec.background = flexpipe_fleet::BackgroundShape::C1Like;
            "background"
        }
        6 => {
            spec.lengths.prompt_median += 1.0;
            "lengths.prompt_median"
        }
        7 => {
            spec.lengths.output_mean += 1.0;
            "lengths.output_mean"
        }
        8 => {
            let last = spec.cvs.len() - 1;
            spec.cvs[last] += 0.25;
            "cvs"
        }
        9 => {
            let last = spec.rates.len() - 1;
            spec.rates[last] += 1.0;
            "rates"
        }
        10 => {
            spec.clusters = vec![ClusterShape::AlibabaC1];
            "clusters"
        }
        11 => {
            spec.policies[0] = PolicySpec::Static {
                stages: 4,
                replicas: 2,
            };
            "policies"
        }
        12 => {
            spec.disruptions = vec![DisruptionShape::Script(DisruptionScript {
                name: "one-preempt".into(),
                events: vec![DisruptionEvent {
                    at_secs: 5.0,
                    kind: Disruption::HotServerPreempt {
                        rank: 0,
                        grace_secs: 2.0,
                    },
                }],
            })];
            "disruptions"
        }
        13 => {
            spec.model = ModelId::Llama2_7B;
            "model"
        }
        _ => unreachable!("mutation index out of range"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(28))]

    /// Any semantically meaningful spec edit moves at least one cell key
    /// (usually every key of the touched coordinate), under every
    /// mutation in the catalogue.
    #[test]
    fn meaningful_mutations_change_cell_keys(k in 0u64..SWEEP_MUTATIONS) {
        let base = SweepSpec::template();
        let base_keys = sweep_keys(&base);
        let mut mutated = base.clone();
        let field = mutate_sweep(&mut mutated, k);
        let mutated_keys = sweep_keys(&mutated);
        prop_assert!(
            base_keys != mutated_keys,
            "mutating `{}` left every cell key unchanged", field
        );
    }
}

#[test]
fn cosmetic_fields_leave_every_key_unchanged() {
    let base = SweepSpec::template();
    let base_keys = sweep_keys(&base);

    let mut renamed = base.clone();
    renamed.name = "renamed-but-identical".into();
    assert_eq!(
        sweep_keys(&renamed),
        base_keys,
        "spec rename must not re-key"
    );

    // The step budget is a watchdog, not a parameter: raising it must keep
    // the cache warm (that exclusion is the resume-after-truncation
    // mechanism — incomplete cells are never cached in the first place).
    let mut budget = base.clone();
    budget.max_events *= 2;
    assert_eq!(
        sweep_keys(&budget),
        base_keys,
        "watchdog budget must not re-key"
    );
}

#[test]
fn json_key_order_and_toml_formatting_do_not_re_key() {
    let base = SweepSpec::template();
    let base_keys = sweep_keys(&base);

    // Reverse every map's key order recursively (sequence order is
    // semantic and stays). The reparsed spec must key identically.
    fn reverse_maps(v: &Value) -> Value {
        match v {
            Value::Map(m) => Value::Map(
                m.iter()
                    .rev()
                    .map(|(k, x)| (k.clone(), reverse_maps(x)))
                    .collect(),
            ),
            Value::Seq(xs) => Value::Seq(xs.iter().map(reverse_maps).collect()),
            other => other.clone(),
        }
    }
    let reordered = serde_json::to_string(&reverse_maps(&base.to_value())).unwrap();
    let reparsed: SweepSpec = serde_json::from_str(&reordered).unwrap();
    assert_eq!(reparsed, base);
    assert_eq!(
        sweep_keys(&reparsed),
        base_keys,
        "JSON key order must not re-key"
    );
}

#[test]
fn integral_number_spelling_does_not_re_key() {
    // `120` and `120.0` parse to the same f64 field; keys hash the typed
    // struct, so the spelling cannot leak in.
    let base = SweepSpec::template();
    let json = serde_json::to_string(&base.to_value()).unwrap();
    assert!(json.contains("\"horizon_secs\":120.0"), "{json}");
    let respelled = json.replace("\"horizon_secs\":120.0", "\"horizon_secs\":120");
    let reparsed: SweepSpec = serde_json::from_str(&respelled).unwrap();
    assert_eq!(sweep_keys(&reparsed), sweep_keys(&base));
}

#[test]
fn editing_one_axis_value_dirties_only_that_coordinate() {
    let base = SweepSpec::template();
    let before = sweep_key_map(&base);

    // Append a rate: every pre-existing cell keeps its key; only the new
    // coordinate's cells are new. This is the "edited specs only
    // recompute dirty cells" contract at key granularity.
    let mut appended = base.clone();
    appended.rates.push(40.0);
    let after = sweep_key_map(&appended);
    for (id, key) in &before {
        assert_eq!(
            after.get(id),
            Some(key),
            "cell {id} was dirtied by an append"
        );
    }
    assert_eq!(
        after.len(),
        before.len() + base.cvs.len() * base.policies.len()
    );

    // Edit one CV in place: cells of other CVs keep their keys, cells of
    // the edited CV all move.
    let mut edited = base.clone();
    edited.cvs[0] = 1.0;
    let after = sweep_key_map(&edited);
    for (id, key) in &before {
        if id.starts_with("cv0p5-") {
            assert!(
                !after.values().any(|k| k == key),
                "stale key survived for {id}"
            );
        } else {
            assert_eq!(after.get(id), Some(key), "undirtied cell {id} moved");
        }
    }
}

#[test]
fn policies_do_not_share_keys_even_with_shared_seeds() {
    // Policies in one cell group share traffic seeds by design, but their
    // metrics differ — their cache entries must too.
    let base = SweepSpec::template();
    let cells = base.expand();
    assert_eq!(cells[0].seed, cells[1].seed);
    assert_ne!(
        cell_key(&base.cell_semantics(&cells[0])),
        cell_key(&base.cell_semantics(&cells[1]))
    );
}

#[test]
fn bench_keys_track_tunables_and_modes() {
    let base = BenchSpec::template();
    let base_keys = bench_keys(&base);

    // Tunable edits re-key.
    let mut m = base.clone();
    m.ubatch_sizes[0] += 1;
    assert_ne!(bench_keys(&m), base_keys);
    let mut m = base.clone();
    m.prefill_token_caps[0] += 1;
    assert_ne!(bench_keys(&m), base_keys);
    let mut m = base.clone();
    m.cv += 1.0;
    assert_ne!(bench_keys(&m), base_keys);
    let mut m = base.clone();
    m.seed += 1;
    assert_ne!(bench_keys(&m), base_keys);

    // Cosmetics stay cosmetic.
    let mut renamed = base.clone();
    renamed.name = "other".into();
    assert_eq!(bench_keys(&renamed), base_keys);
    let mut budget = base.clone();
    budget.max_events *= 2;
    assert_eq!(bench_keys(&budget), base_keys);

    // Sweep and bench cells can never collide: the semantics are tagged.
    let sweep = SweepSpec::template();
    let sweep_all = sweep_keys(&sweep);
    assert!(base_keys.is_disjoint(&sweep_all));
}
