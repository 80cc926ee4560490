//! The `store` workload: the result store and the shard codecs, with no
//! simulation inside a pass.

use std::time::Instant;

use xloops_bench::manifest::{render_spec, MergeFold, PointResult, ShardDoc};
use xloops_bench::store::run_specs_stored;
use xloops_bench::ResultStore;
use xloops_sim::RunOptions;
use xloops_stats::{binary, JsonValue};

use crate::trace::Tracer;
use crate::{regen, Inputs, Tally, Values};

/// Every spec's results, store keys and shard document, made once.
pub struct Primed {
    options: RunOptions,
    /// Per spec: `(store key, result)` per point.
    entries: Vec<Vec<(String, PointResult)>>,
    /// Per spec: the whole spec as one shard (`0` of `1`).
    docs: Vec<ShardDoc>,
}

/// Simulates every spec once (untimed) and keys its points.
pub fn prime(inputs: &Inputs, tally: &mut Tally) -> Primed {
    let options = RunOptions::default();
    let results = regen::pass(inputs, &options, &mut Values::default(), tally);
    primed_from(inputs, options, results)
}

/// [`prime`] from results already simulated.
pub fn primed_from(inputs: &Inputs, options: RunOptions, results: Vec<Vec<PointResult>>) -> Primed {
    let mut entries = Vec::new();
    let mut docs = Vec::new();
    for (spec, results) in inputs.specs.iter().zip(results) {
        let fingerprint = spec.fingerprint();
        entries.push(
            results
                .iter()
                .enumerate()
                .map(|(i, r)| (ResultStore::point_key(&fingerprint, i, &options), r.clone()))
                .collect(),
        );
        docs.push(ShardDoc {
            fingerprint,
            index: 0,
            of: 1,
            options: options.clone(),
            spec: spec.clone(),
            results: results.into_iter().enumerate().collect(),
        });
    }
    Primed { options, entries, docs }
}

/// Decodes one shard, folds it and renders the artifact.
fn merge_render(
    doc: Result<ShardDoc, String>,
    want: &str,
    what: &str,
    tr: &Tracer,
    tally: &mut Tally,
) {
    let merged = doc.and_then(|doc| {
        tr.span("bench.merge", || {
            let mut fold = MergeFold::new();
            fold.fold(doc)?;
            fold.finish()
        })
        .map_err(|e| e.to_string())
    });
    match merged {
        Ok((spec, results)) => {
            let got = tr.span("bench.render", || render_spec(&spec, &results));
            tally.check(got == want, || {
                format!("store: {what} of {} renders differently", spec.name)
            });
        }
        Err(e) => tally.check(false, || format!("store: {what}: {e}")),
    }
}

/// One pass: (a) save every point into a fresh store, (b) regenerate
/// every artifact from it with zero simulations, (c) round-trip every
/// spec's shard through `.json` and `.dxs`. Returns the three stage
/// times in seconds.
pub fn pass(
    inputs: &Inputs,
    primed: &Primed,
    tr: &Tracer,
    vals: &mut Values,
    tally: &mut Tally,
) -> [f64; 3] {
    let dir = inputs.work.join("store");
    let _ = std::fs::remove_dir_all(&dir);

    let t = Instant::now();
    match tr.span("bench.store.open", || ResultStore::open(&dir)) {
        Ok(store) => {
            for (key, result) in primed.entries.iter().flatten() {
                let saved = tr.span("bench.store.save", || store.save(key, result));
                tally.check(saved.is_ok(), || {
                    format!("store: save {key}: {}", saved.as_ref().unwrap_err())
                });
                if saved.is_ok() {
                    vals.count("store.bench.store.fsyncs", 1);
                }
            }
            vals.count("store.bench.store.bytes_written", store.stats().bytes_written);
        }
        Err(e) => tally.check(false, || format!("store: open {}: {e}", dir.display())),
    }
    let write_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    match tr.span("bench.store.open", || ResultStore::open(&dir)) {
        Ok(store) => {
            let swept = tr.span("bench.store.load", || {
                run_specs_stored(&inputs.specs, &primed.options, &store)
            });
            let s = store.stats();
            let sims = swept.prefill.unique_points;
            tally.check(sims == 0 && swept.failures.is_empty() && s.misses == 0, || {
                format!("store: warm pass simulated {sims} point(s), {} miss(es)", s.misses)
            });
            vals.count("store.bench.sims", sims as u64);
            vals.count("store.bench.store.hits", s.hits);
            vals.count("store.bench.store.misses", s.misses);
            vals.count("store.bench.store.bytes_read", s.bytes_read);
            for ((spec, want), results) in
                inputs.specs.iter().zip(&inputs.expected).zip(&swept.results)
            {
                let got = tr.span("bench.render", || render_spec(spec, results));
                tally.check(got == *want, || {
                    format!("store: warm {} differs from results/{}.txt", spec.name, spec.name)
                });
            }
        }
        Err(e) => tally.check(false, || format!("store: reopen {}: {e}", dir.display())),
    }
    let read_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    for (doc, want) in primed.docs.iter().zip(&inputs.expected) {
        // `ShardDoc::to_json` / `from_json` and `to_binary` / `from_binary`,
        // one call per layer.
        let value = tr.span("bench.shard_value", || doc.to_json_value());
        let mut json = tr.span("stats.json_render", || value.render_pretty());
        json.push('\n');
        let value = tr.span("bench.shard_value", || doc.to_json_value());
        let dxs = tr.span("stats.binary_encode", || binary::encode(&value));
        vals.count("store.stats.json_bytes", json.len() as u64);
        vals.count("store.stats.binary_bytes", dxs.len() as u64);

        let from_json = tr
            .span("stats.json_parse", || JsonValue::parse(&json))
            .map_err(|e| e.to_string())
            .and_then(|v| {
                tr.span("bench.shard_decode", || ShardDoc::from_json_value(&v))
                    .map_err(|e| e.to_string())
            });
        merge_render(from_json, want, ".json shard", tr, tally);
        let from_dxs = tr
            .span("stats.binary_decode", || binary::decode(&dxs))
            .map_err(|e| e.to_string())
            .and_then(|v| {
                tr.span("bench.shard_decode", || ShardDoc::from_json_value(&v))
                    .map_err(|e| e.to_string())
            });
        merge_render(from_dxs, want, ".dxs shard", tr, tally);
    }
    let merge_s = t.elapsed().as_secs_f64();

    let _ = std::fs::remove_dir_all(&dir);
    [write_s, read_s, merge_s]
}
