//! End-to-end test of the sharded sweep pipeline against the committed
//! artifacts: splitting Figure 9 across two shards, serializing each
//! shard document through its JSON file format, and merging must
//! reproduce `results/fig9.txt` byte for byte. Also pins the typed
//! failure modes of [`merge`] on mismatched or incomplete shard sets.

use xloops::bench::experiments::{fig9_spec, table5_spec};
use xloops::bench::manifest::{merge, render_spec, ManifestError, ShardDoc};
use xloops::bench::store::run_shard_stored;
use xloops::sim::RunOptions;

fn committed(name: &str) -> String {
    let path = format!("{}/results/{name}.txt", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

#[test]
fn sharded_fig9_reproduces_the_committed_artifact() {
    let spec = fig9_spec();
    // Round-trip the spec itself through the manifest file format first:
    // the shards must be runnable from the parsed copy.
    let spec = xloops::bench::manifest::ExperimentSpec::from_json(&spec.to_json_pretty())
        .expect("manifest file round trip");

    let shards: Vec<ShardDoc> = (0..2)
        .map(|i| {
            let doc = run_shard_stored(&spec, i, 2, RunOptions::default(), None);
            // Each shard document survives its on-disk JSON format.
            ShardDoc::from_json(&doc.to_json()).expect("shard file round trip")
        })
        .collect();
    assert_eq!(shards[0].results.len() + shards[1].results.len(), spec.points.len());

    // Shard order must not matter.
    let (merged_spec, results) = merge(&[shards[1].clone(), shards[0].clone()]).expect("merge");
    assert_eq!(merged_spec, spec);
    assert_eq!(render_spec(&merged_spec, &results), committed("fig9"));
}

#[test]
fn merge_failure_modes_are_typed() {
    // table5 has no simulation points, so shard documents are free to
    // construct; the failure modes under test are all metadata-level.
    let spec = table5_spec();
    let half0 = run_shard_stored(&spec, 0, 2, RunOptions::default(), None);
    let half1 = run_shard_stored(&spec, 1, 2, RunOptions::default(), None);

    // Missing shard: only one half of a two-shard split.
    assert!(matches!(
        merge(std::slice::from_ref(&half0)),
        Err(ManifestError::MissingShards(ref m)) if m == &vec![1]
    ));

    // Duplicate shard index.
    assert!(matches!(
        merge(&[half0.clone(), half0.clone()]),
        Err(ManifestError::DuplicateShard(0))
    ));

    // Disagreeing shard counts.
    let lone = run_shard_stored(&spec, 0, 1, RunOptions::default(), None);
    assert!(matches!(
        merge(&[half0.clone(), lone]),
        Err(ManifestError::ShardCountMismatch { expected: 2, found: 1 })
    ));

    // Shards of different manifests must refuse to merge.
    let mut forged = half1;
    forged.fingerprint = "0000000000000000".into();
    assert!(matches!(merge(&[half0, forged]), Err(ManifestError::FingerprintMismatch { .. })));

    // And an empty shard list is rejected rather than "merging" to nothing.
    assert!(matches!(merge(&[]), Err(ManifestError::Schema(_))));
}
