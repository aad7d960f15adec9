//! The high-rate admission fast path's equivalence contract, tested
//! head-on: the indexed path picks exactly the instances the retained
//! naive reference scan picks, under randomized churn (admissions,
//! completions, instances entering and leaving the admissible set — the
//! structure-level shadow of arrivals and disruptions). Property-based
//! over small fleets, plus one pinned run at fleet scale; the
//! engine-level twin lives in `crates/fleet/tests/admission_equivalence.rs`.
//! Speed is the benchmark's business (`perfbench/`), not this test's.

use flexpipe_serving::{churn, AdmissionMode};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Indexed and naive admission agree decision-for-decision across
    /// random fleet sizes and op-sequence lengths (the churn driver flips
    /// slots in and out of admissibility and frees capacity as it goes).
    #[test]
    fn indexed_matches_naive_under_random_churn(
        n in 1usize..160,
        ops in 1usize..4000,
    ) {
        prop_assert_eq!(
            churn(n, ops, AdmissionMode::Indexed),
            churn(n, ops, AdmissionMode::NaiveScan),
            "assignment divergence at n={}, ops={}", n, ops
        );
    }
}

#[test]
fn indexed_admission_matches_naive_scan_at_fleet_scale() {
    // 1500 instances × 120k admission decisions: fleet scale, far past
    // the proptest's fleet sizes.
    const N: usize = 1500;
    const OPS: usize = 120_000;
    assert_eq!(
        churn(N, OPS, AdmissionMode::Indexed),
        churn(N, OPS, AdmissionMode::NaiveScan),
        "the two paths must make identical decisions"
    );
}
