//! The decode-slot tracker and the server-load ranking, held to the
//! equivalence contract the admission index established
//! (`admission_fast_path.rs`): both make bit-identical decisions to their
//! retained naive reference scans under randomized churn (launches,
//! dissolutions, revocation kills; lease churn, GPU revoke/restore), over
//! small random fleets and at the ≥1000-instance/server tier. Speed is
//! the benchmark's business (`perfbench/`), not this test's.

use flexpipe_serving::{decode_slot_churn, server_load_churn, EngineMode};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The decode-slot tracker agrees with the micro-batch-list recount
    /// decision-for-decision across random fleet sizes and op counts.
    #[test]
    fn decode_slot_tracker_matches_recount_under_random_churn(
        n in 1usize..96,
        ops in 1usize..4000,
    ) {
        prop_assert_eq!(
            decode_slot_churn(n, ops, EngineMode::Indexed),
            decode_slot_churn(n, ops, EngineMode::NaiveScan),
            "decode-slot divergence at n={}, ops={}", n, ops
        );
    }

    /// The cluster's server-load ranking agrees with the rebuild-and-sort
    /// reference across random cluster sizes and op counts.
    #[test]
    fn server_load_index_matches_rebuild_under_random_churn(
        servers in 1usize..48,
        ops in 1usize..1500,
    ) {
        prop_assert_eq!(
            server_load_churn(servers, ops, EngineMode::Indexed),
            server_load_churn(servers, ops, EngineMode::NaiveScan),
            "server-load divergence at servers={}, ops={}", servers, ops
        );
    }
}

#[test]
fn indexed_hot_paths_match_naive_scans_at_fleet_scale() {
    // 1500 instances/servers — the ≥1000 tier, far past the proptests'
    // sizes. The server harness runs fewer ops because its naive pass is
    // O(servers × GPUs) *per query* and would otherwise dominate the
    // suite's runtime.
    const N: usize = 1500;
    const SLOT_OPS: usize = 120_000;
    const LOAD_OPS: usize = 6_000;
    assert_eq!(
        decode_slot_churn(N, SLOT_OPS, EngineMode::Indexed),
        decode_slot_churn(N, SLOT_OPS, EngineMode::NaiveScan),
        "decode-slot paths must decide identically"
    );
    assert_eq!(
        server_load_churn(N, LOAD_OPS, EngineMode::Indexed),
        server_load_churn(N, LOAD_OPS, EngineMode::NaiveScan),
        "server-load paths must rank identically"
    );
}
