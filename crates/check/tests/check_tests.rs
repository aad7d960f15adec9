//! Integration tests for the schedule-equivalence checker: the stepped
//! driver's fidelity, the committed scenarios' confluence/divergence
//! contracts, and the pinned semantic fingerprint backstop.

use flexpipe_check::{
    check_equiv, explore, replay, semantic_fingerprint, CheckScenario, ExploreConfig, ScheduleSpec,
    PINNED_SEMANTIC_FINGERPRINT,
};
use flexpipe_obs::{TraceEvent, TraceRecord};
use flexpipe_serving::ENGINE_SEMANTICS_VERSION;

/// The all-zeros stepped schedule IS `run_observed`: same trace bytes,
/// same report bytes. Both go through `SteppedEngine`, so this pins that
/// stepping with `step(0)` fires the same events as `finish`'s own
/// loop — the property that makes explored schedules comparable against
/// ordinary runs at all.
#[test]
fn stepped_canonical_schedule_matches_run_observed() {
    for sc in [
        CheckScenario::three_instance_disruption(),
        CheckScenario::independent_stages(),
    ] {
        let observed = sc.engine().run_observed();
        let mut stepped = sc.stepped();
        while stepped.step(0).is_some() {}
        let stepped_run = stepped.finish();
        assert_eq!(
            observed.trace.to_jsonl(),
            stepped_run.trace.to_jsonl(),
            "trace drift in {}",
            sc.name
        );
        assert_eq!(
            serde_json::to_string(&observed.report).unwrap(),
            serde_json::to_string(&stepped_run.report).unwrap(),
            "report drift in {}",
            sc.name
        );
    }
}

/// Exhaustively permute the three-instance scenario's same-instant
/// batches (admission vs refactor commit vs revocation at t=16): every
/// schedule must converge.
#[test]
fn three_instance_disruption_is_confluent() {
    let sc = CheckScenario::three_instance_disruption();
    assert!(!sc.expect_divergence);
    let out = explore(
        &sc,
        &ExploreConfig {
            max_schedules: 2048,
            prune: true,
        },
    );
    assert!(
        out.completed,
        "frontier must drain: {}",
        out.render(sc.name)
    );
    assert!(out.converged(), "{}", out.render(sc.name));
    assert!(
        out.schedules > 100,
        "expected a real tree, got {}",
        out.schedules
    );
    assert!(out.max_batch >= 3, "the t=16 batch has 3 events");
}

/// Independent per-instance stage work: exploration converges with and
/// without pruning, and the persistent-set filter actually fires.
#[test]
fn independent_stage_work_prunes_and_converges() {
    let sc = CheckScenario::independent_stages();
    let pruned = explore(
        &sc,
        &ExploreConfig {
            max_schedules: 2048,
            prune: true,
        },
    );
    assert!(
        pruned.completed && pruned.converged(),
        "{}",
        pruned.render(sc.name)
    );
    assert!(pruned.pruned > 0, "expected persistent-set pruning to fire");

    let full = explore(
        &sc,
        &ExploreConfig {
            max_schedules: 2048,
            prune: false,
        },
    );
    assert!(
        full.completed && full.converged(),
        "{}",
        full.render(sc.name)
    );
    assert!(
        full.schedules > pruned.schedules,
        "pruning must shrink the tree: {} vs {}",
        full.schedules,
        pruned.schedules
    );
}

/// The race the checker originally characterized — a refactor's commit
/// instant vs a revocation of its fresh device — is fixed: `on_pause_done`
/// now aborts deterministically when a `Fresh` target is doomed at the
/// commit instant, matching what `apply_revocation` does when it pops
/// first. Every interleaving must converge, the canonical trace must show
/// the abort (never a commit for the racing instance), and the explorer
/// must find zero counterexamples.
#[test]
fn abort_revoke_overlap_is_confluent() {
    let sc = CheckScenario::abort_revoke_overlap();
    assert!(!sc.expect_divergence);
    let out = explore(
        &sc,
        &ExploreConfig {
            max_schedules: 256,
            prune: true,
        },
    );
    assert!(
        out.completed,
        "frontier must drain: {}",
        out.render(sc.name)
    );
    assert!(out.converged(), "{}", out.render(sc.name));
    assert!(out.counterexample.is_none());

    // Whichever order the t=16 batch pops in, the refactor aborts and the
    // instance keeps its old single-stage topology.
    let canonical = replay(
        &sc,
        &ScheduleSpec {
            scenario: sc.name.to_string(),
            choices: vec![],
        },
    );
    let records: Vec<TraceRecord> = canonical.trace.records().cloned().collect();
    assert!(
        records
            .iter()
            .any(|r| r.event == TraceEvent::RefactorAbort { instance: 1 }),
        "canonical run must abort the doomed refactor"
    );
    assert!(
        !records
            .iter()
            .any(|r| matches!(r.event, TraceEvent::RefactorCommit { instance: 1, .. })),
        "the racing refactor must never commit onto the doomed device"
    );
}

/// Policy decisions as choice points: the deferred-decision scenario's
/// t=14 batch is three `PolicyAction` queue events (retire, admit-hold,
/// trace marker). The explorer must actually permute them — a real tree,
/// not a single path — and every order must converge.
#[test]
fn deferred_policy_decisions_are_confluent_choice_points() {
    let sc = CheckScenario::deferred_policy_decisions();
    assert!(!sc.expect_divergence);
    let out = explore(
        &sc,
        &ExploreConfig {
            max_schedules: 256,
            prune: true,
        },
    );
    assert!(
        out.completed,
        "frontier must drain: {}",
        out.render(sc.name)
    );
    assert!(out.converged(), "{}", out.render(sc.name));
    assert!(
        out.max_batch >= 3,
        "the three deferred decisions must form one same-instant batch, got {}",
        out.max_batch
    );
    assert!(
        out.schedules > 1,
        "deferred decisions must be explored as choice points"
    );

    // The canonical run carries the decisions' effects: the retire lands
    // and the marker is recorded.
    let canonical = replay(
        &sc,
        &ScheduleSpec {
            scenario: sc.name.to_string(),
            choices: vec![],
        },
    );
    let records: Vec<TraceRecord> = canonical.trace.records().cloned().collect();
    assert!(records
        .iter()
        .any(|r| r.event == TraceEvent::InstanceRetire { instance: 1 }));
    assert!(records.iter().any(|r| matches!(
        &r.event,
        TraceEvent::PolicyAction { action, instance: 0 } if action == "deferred-mark"
    )));
}

/// The fingerprint backstop: the probe scenario's canonical trace hashes
/// to the pinned value. If this fails and you changed engine behavior on
/// purpose, bump `ENGINE_SEMANTICS_VERSION` and re-pin
/// `PINNED_SEMANTIC_FINGERPRINT` in the same commit; if you did not
/// change behavior on purpose, you just found an unintended semantics
/// drift.
#[test]
fn probe_fingerprint_matches_the_pinned_value() {
    let run = CheckScenario::probe().engine().run_observed();
    let records: Vec<TraceRecord> = run.trace.records().cloned().collect();
    assert!(records.len() > 1000, "probe must exercise a real run");
    let fp = semantic_fingerprint(&records);
    assert_eq!(
        fp, PINNED_SEMANTIC_FINGERPRINT,
        "engine semantics drifted: probe fingerprint moved without a \
         matching re-pin (and, if behavior changed, an \
         ENGINE_SEMANTICS_VERSION bump)"
    );
    // The pin itself must reference the current semantics version, so a
    // version bump without a re-pin also fails loudly.
    assert!(
        PINNED_SEMANTIC_FINGERPRINT.starts_with(&format!("sem-v{ENGINE_SEMANTICS_VERSION}-")),
        "ENGINE_SEMANTICS_VERSION bumped without re-pinning \
         PINNED_SEMANTIC_FINGERPRINT"
    );
}

/// Equivalence holds between a run and itself, and the probe's semantic
/// fingerprint is insensitive to the recorder's seq numbering.
#[test]
fn probe_run_is_self_equivalent() {
    let sc = CheckScenario::probe();
    let a = sc.engine().run_observed();
    let b = sc.engine().run_observed();
    let ra: Vec<TraceRecord> = a.trace.records().cloned().collect();
    let rb: Vec<TraceRecord> = b.trace.records().cloned().collect();
    let rep = check_equiv(&ra, &rb);
    assert!(rep.equivalent(), "{}", rep.render("a", "b"));
    assert_eq!(semantic_fingerprint(&ra), semantic_fingerprint(&rb));
}
