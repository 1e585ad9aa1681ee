//! Property tests for the barrier-message codec: arbitrary
//! [`ShardReport`]s must survive encode → decode → encode with
//! byte-identical output. The report
//! bytes feed the cluster digest and the router's canonical state, so
//! a codec asymmetry here would silently break every determinism gate
//! downstream.

use cluster::{MigrationOffer, ShardReport};
use faas::FrozenFnSummary;
use proptest::prelude::*;
use simos::SimTime;

fn summary() -> impl Strategy<Value = FrozenFnSummary> {
    (1u64..50, 1u64..(8 << 30), 0u64..100_000_000_000).prop_map(|(count, charge, t)| {
        FrozenFnSummary {
            count,
            charge,
            oldest_frozen: SimTime(t),
        }
    })
}

fn offer() -> impl Strategy<Value = MigrationOffer> {
    (0u32..16, 0usize..64, 0u64..(8 << 30), any::<bool>()).prop_map(
        |(from, fn_idx, charge, drain)| MigrationOffer {
            from,
            fn_idx,
            charge,
            drain,
        },
    )
}

fn report() -> impl Strategy<Value = ShardReport> {
    (
        0u32..16,
        (0u64..10_000, 0u64..(8 << 30), 1u64..(16u64 << 30)),
        (0u64..500, 0u64..500),
        prop::collection::vec((0usize..64, summary()), 0..12)
            .prop_map(|pairs| pairs.into_iter().collect::<std::collections::BTreeMap<_, _>>()),
        prop::collection::vec(offer(), 0..6),
    )
        .prop_map(
            |(shard, (in_flight, cache_used, cache_budget), (instances, frozen), warm, offers)| {
                ShardReport {
                    shard,
                    in_flight,
                    cache_used,
                    cache_budget,
                    instances,
                    frozen,
                    warm,
                    offers,
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// encode → decode → encode is the identity on bytes, and the
    /// decoded report equals the original.
    #[test]
    fn shard_report_codec_round_trips_bytes(rep in report()) {
        let bytes = snapshot::encode(&rep);
        let back: ShardReport = snapshot::decode(&bytes).expect("decode");
        prop_assert_eq!(snapshot::encode(&back), bytes, "re-encoded report differs");
        prop_assert_eq!(back, rep);
    }
}
