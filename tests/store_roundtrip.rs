//! End-to-end test of the durable result store against the committed
//! artifacts: a cold Figure 9 sweep populates the store, a warm rerun is
//! served entirely from disk, and both render `results/fig9.txt` byte
//! for byte. Also pins the cache-key discipline (changing [`RunOptions`]
//! must miss) and corruption recovery (a damaged entry is a miss that
//! gets rewritten, never a panic).

use xloops::bench::experiments::fig9_spec;
use xloops::bench::manifest::render_spec;
use xloops::bench::store::run_shard_stored;
use xloops::bench::ResultStore;
use xloops::sim::{RunOptions, SampleSpec};

fn committed(name: &str) -> String {
    let path = format!("{}/results/{name}.txt", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// A fresh store directory under the target-local temp dir; removed on
/// drop so repeated test runs stay cold.
struct StoreDir(std::path::PathBuf);

impl StoreDir {
    fn new(tag: &str) -> StoreDir {
        let dir =
            std::env::temp_dir().join(format!("xloops-store-rt-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        StoreDir(dir)
    }
}

impl Drop for StoreDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn cold_then_warm_fig9_sweep_is_byte_identical_and_fully_cached() {
    let spec = fig9_spec();
    let options = RunOptions::default();
    let dir = StoreDir::new("fig9");
    let golden = committed("fig9");

    // Cold: every point simulates and is written to the store.
    let store = ResultStore::open(&dir.0).expect("open store");
    let cold = run_shard_stored(&spec, 0, 1, options.clone(), Some(&store));
    let stats = store.stats();
    assert_eq!(stats.hits, 0, "a fresh store has nothing to serve");
    assert_eq!(stats.misses as usize, spec.points.len());
    assert!(stats.bytes_written > 0);
    let results: Vec<_> = cold.results.iter().map(|(_, r)| r.clone()).collect();
    assert_eq!(render_spec(&spec, &results), golden);

    // Warm: a fresh store handle on the same directory serves every
    // point from disk — zero simulations, identical artifact.
    let store = ResultStore::open(&dir.0).expect("reopen store");
    let warm = run_shard_stored(&spec, 0, 1, options.clone(), Some(&store));
    let stats = store.stats();
    assert_eq!(stats.hits as usize, spec.points.len(), "warm run must be fully store-served");
    assert_eq!(stats.misses, 0);
    assert_eq!(stats.bytes_written, 0);
    let results: Vec<_> = warm.results.iter().map(|(_, r)| r.clone()).collect();
    assert_eq!(render_spec(&spec, &results), golden);

    // The two shard documents agree byte for byte.
    assert_eq!(warm.to_json(), cold.to_json());

    // Changed RunOptions derive different keys: a sampled sweep finds
    // none of the unsampled entries (pure key probes, no simulation).
    let sampled = RunOptions {
        sample: Some(SampleSpec::new(1000, 100, 1000).expect("valid sample spec")),
        ..RunOptions::default()
    };
    for i in 0..spec.points.len() {
        let unsampled = ResultStore::point_key(&spec.fingerprint(), i, &options);
        let resampled = ResultStore::point_key(&spec.fingerprint(), i, &sampled);
        assert_ne!(unsampled, resampled);
        assert!(store.load(&unsampled).is_some(), "point {i} must be stored");
        assert!(store.load(&resampled).is_none(), "sampled options must miss");
    }

    // Corruption recovery: truncate one entry and garble another; the
    // next sweep treats both as misses, re-simulates, rewrites them, and
    // still renders the committed artifact.
    let key0 = ResultStore::point_key(&spec.fingerprint(), 0, &options);
    let key1 = ResultStore::point_key(&spec.fingerprint(), 1, &options);
    let path0 = dir.0.join(format!("{key0}.dxr"));
    let path1 = dir.0.join(format!("{key1}.dxr"));
    let bytes = std::fs::read(&path0).expect("read entry");
    std::fs::write(&path0, &bytes[..bytes.len() / 2]).expect("truncate entry");
    std::fs::write(&path1, b"\xd8XLS not a document").expect("garble entry");

    let store = ResultStore::open(&dir.0).expect("reopen store");
    let healed = run_shard_stored(&spec, 0, 1, options, Some(&store));
    let stats = store.stats();
    assert_eq!(stats.misses, 2, "both damaged entries must read as misses");
    assert_eq!(stats.hits as usize, spec.points.len() - 2);
    let results: Vec<_> = healed.results.iter().map(|(_, r)| r.clone()).collect();
    assert_eq!(render_spec(&spec, &results), golden);
    assert_eq!(std::fs::read(&path0).expect("rewritten entry"), bytes, "entry must be rewritten");
}
