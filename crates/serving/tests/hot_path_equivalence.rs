//! The decode-slot tracker and the server-load ranking, held to the
//! equivalence contract the admission index established
//! (`admission_fast_path.rs`): each churn harness queries the structure
//! and its naive reference scan in lockstep and panics at the first
//! disagreement, under randomized churn (launches, dissolutions,
//! revocation kills; lease churn, GPU revoke/restore), over small random
//! fleets and at the ≥1000-instance/server tier. Speed is the
//! benchmark's business (`perfbench/`), not this test's.

use flexpipe_serving::{decode_slot_churn, server_load_churn};
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
        decode_slot_churn(n, ops);
    }

    /// The cluster's server-load ranking agrees with the rebuild-and-sort
    /// reference across random cluster sizes and op counts.
    #[test]
    fn server_load_index_matches_rebuild_under_random_churn(
        servers in 1usize..48,
        ops in 1usize..1500,
    ) {
        server_load_churn(servers, ops);
    }
}

#[test]
fn indexed_hot_paths_match_naive_scans_at_fleet_scale() {
    // 1500 instances/servers — the ≥1000 tier, far past the proptests'
    // sizes. The server harness runs fewer ops because its naive pass is
    // O(servers × GPUs) *per query* and would otherwise dominate the
    // suite's runtime.
    decode_slot_churn(1500, 120_000);
    server_load_churn(1500, 6_000);
}
