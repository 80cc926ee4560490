//! Property tests for the manifest layer's JSON round trips: for
//! arbitrary experiment specs and shard documents,
//! `encode -> parse -> encode` must be the identity on the encoded bytes.
//! Together with the `xloops-stats` round-trip suite
//! this covers every document shape the sharded sweep pipeline writes or
//! reads.

use proptest::prelude::*;
use xloops_bench::manifest::{
    BarRow, Cell, ConfigSpec, EnergyPreset, ExperimentSpec, GppPreset, PointResult, Section,
    SectionBody, ShardDoc, SpecPoint,
};
use xloops_kernels::table2;
use xloops_lpsu::LpsuConfig;
use xloops_sim::{ExecMode, RunOptions, SampleSpec, SupervisorConfig};
use xloops_stats::StatSet;

/// Real kernel names only: [`ExperimentSpec::validate`] rejects anything
/// `xloops_kernels::by_name` cannot resolve.
fn kernel_strategy() -> BoxedStrategy<String> {
    let names: Vec<String> = table2().iter().map(|k| k.name.to_string()).collect();
    prop::sample::select(names).boxed()
}

/// Strings exercising the escaping rules (captions, labels, paths).
fn text_strategy() -> BoxedStrategy<String> {
    prop::sample::select(vec![
        String::new(),
        "name".to_string(),
        "lpsu.stalls.raw".to_string(),
        "--- vs ooo/2 ---\n".to_string(),
        "quo\"te and back\\slash".to_string(),
        "new\nline\tand\ttabs".to_string(),
        "unicode-λ-😀".to_string(),
    ])
    .boxed()
}

fn lpsu_strategy() -> BoxedStrategy<Option<LpsuConfig>> {
    prop::sample::select(vec![
        None,
        Some(LpsuConfig::default4()),
        Some(LpsuConfig::default4().with_multithreading()),
        Some(LpsuConfig::default4().with_lanes(8)),
        Some(LpsuConfig::default4().with_lanes(8).with_double_resources()),
        Some(LpsuConfig::default4().with_big_lsq()),
        Some(LpsuConfig::default4().with_cross_lane_forwarding()),
        Some(LpsuConfig::default4().with_cib_latency(4)),
    ])
    .boxed()
}

/// Arbitrary valid sampling specs (ff and measure must be positive; warm
/// is free, including zero).
fn sample_strategy() -> BoxedStrategy<Option<SampleSpec>> {
    prop_oneof![
        Just(None),
        (any::<u64>(), any::<u64>(), any::<u64>()).prop_map(|(ff, warm, measure)| Some(
            SampleSpec::new(ff.max(1), warm % 100_000, measure.max(1))
                .expect("positive ff/measure")
        )),
    ]
    .boxed()
}

fn point_strategy() -> BoxedStrategy<SpecPoint> {
    (
        kernel_strategy(),
        prop::sample::select(vec![GppPreset::Io, GppPreset::Ooo2, GppPreset::Ooo4]),
        lpsu_strategy(),
        prop::sample::select(vec![EnergyPreset::Mcpat45, EnergyPreset::Vlsi40]),
        prop::sample::select(vec![
            ExecMode::Traditional,
            ExecMode::Specialized,
            ExecMode::Adaptive,
        ]),
        any::<bool>(),
        sample_strategy(),
    )
        .prop_map(|(kernel, gpp, lpsu, energy, mode, gp_lowered, sampling)| SpecPoint {
            kernel,
            config: ConfigSpec { gpp, lpsu, energy },
            mode,
            gp_lowered,
            sampling,
        })
        .boxed()
}

/// A cell formula with unconstrained point references; [`clamp_section`]
/// folds them into range once the point count is known (the vendored
/// proptest stub has no `prop_flat_map` to thread it through directly).
fn cell_strategy() -> BoxedStrategy<Cell> {
    let idx = |v: u64| v as usize;
    prop_oneof![
        text_strategy().prop_map(Cell::Text),
        (any::<u64>(), any::<u64>())
            .prop_map(move |(b, r)| Cell::Speedup { base: idx(b), run: idx(r) }),
        (any::<u64>(), any::<u64>())
            .prop_map(move |(b, r)| Cell::EnergyEff { base: idx(b), run: idx(r) }),
        (any::<u64>(), any::<u64>(), text_strategy()).prop_map(move |(n, d, path)| Cell::Ratio {
            num: idx(n),
            den: idx(d),
            path
        }),
        any::<u64>().prop_map(move |p| Cell::Insns { point: idx(p) }),
        (any::<u64>(), text_strategy())
            .prop_map(move |(p, path)| Cell::Counter { point: idx(p), path }),
        (any::<u64>(), text_strategy(), text_strategy())
            .prop_map(move |(p, path, total)| Cell::Pct { point: idx(p), path, total }),
        (any::<u64>(), text_strategy(), text_strategy(), text_strategy()).prop_map(
            move |(p, path, nonzero, zero)| Cell::Choice { point: idx(p), path, nonzero, zero }
        ),
    ]
    .boxed()
}

fn section_strategy() -> BoxedStrategy<Section> {
    let table = (
        prop::collection::vec(text_strategy(), 1..4),
        prop::collection::vec(prop::collection::vec(cell_strategy(), 1..4), 0..4),
    )
        .prop_map(|(header, mut rows)| {
            // Validation requires every row to be exactly as wide as the
            // header; truncate or pad (cloning the last cell) to match.
            let w = header.len();
            for row in &mut rows {
                while row.len() > w {
                    row.pop();
                }
                while row.len() < w {
                    row.push(row.last().expect("rows are non-empty").clone());
                }
            }
            SectionBody::Table { header, rows }
        });
    let bars = prop::collection::vec(
        (text_strategy(), any::<u64>(), any::<u64>()).prop_map(|(label, b, r)| BarRow {
            label,
            base: b as usize,
            run: r as usize,
        }),
        0..4,
    )
    .prop_map(|rows| SectionBody::Bars { rows });
    (text_strategy(), prop_oneof![table, bars], text_strategy())
        .prop_map(|(prefix, body, suffix)| Section { prefix, body, suffix })
        .boxed()
}

/// Folds every point reference of `s` into `0..n` so the spec validates.
fn clamp_section(mut s: Section, n: usize) -> Section {
    let clamp = |i: &mut usize| *i %= n;
    match &mut s.body {
        SectionBody::Table { rows, .. } => {
            for cell in rows.iter_mut().flatten() {
                match cell {
                    Cell::Text(_) => {}
                    Cell::Speedup { base, run } | Cell::EnergyEff { base, run } => {
                        clamp(base);
                        clamp(run);
                    }
                    Cell::Ratio { num, den, .. } => {
                        clamp(num);
                        clamp(den);
                    }
                    Cell::Insns { point }
                    | Cell::Counter { point, .. }
                    | Cell::Pct { point, .. }
                    | Cell::Choice { point, .. } => clamp(point),
                }
            }
        }
        SectionBody::Bars { rows } => {
            for r in rows {
                clamp(&mut r.base);
                clamp(&mut r.run);
            }
        }
    }
    s
}

fn spec_strategy() -> BoxedStrategy<ExperimentSpec> {
    (
        text_strategy(),
        text_strategy(),
        prop::collection::vec(point_strategy(), 1..6),
        prop::collection::vec(section_strategy(), 0..3),
    )
        .prop_map(|(name, caption, points, sections)| {
            let n = points.len();
            ExperimentSpec {
                name,
                caption,
                points,
                sections: sections.into_iter().map(|s| clamp_section(s, n)).collect(),
            }
        })
        .boxed()
}

fn options_strategy() -> BoxedStrategy<RunOptions> {
    let supervisor = prop_oneof![
        Just(None),
        (
            any::<bool>(),
            any::<u64>(),
            any::<u64>(),
            prop_oneof![Just(None), any::<u64>().prop_map(Some)]
        )
            .prop_map(|(enabled, interval, retries, budget)| Some(SupervisorConfig {
                enabled,
                checkpoint_interval: interval.max(1),
                max_retries: (retries % 16) as u32,
                cycle_budget: budget,
            })),
    ];
    (supervisor, any::<bool>(), sample_strategy())
        .prop_map(|(supervisor, serial, sample)| RunOptions { supervisor, serial, sample })
        .boxed()
}

/// Small stat trees standing in for per-point results (arbitrary deep
/// trees are covered by the `xloops-stats` suite).
fn stats_strategy() -> BoxedStrategy<StatSet> {
    (
        text_strategy(),
        prop::collection::vec((text_strategy(), any::<u64>()), 0..3),
        prop::collection::vec((text_strategy(), any::<u64>()), 0..2),
    )
        .prop_map(|(name, counters, metrics)| {
            let mut s = StatSet::new(&name);
            for (n, v) in counters {
                s.set(&n, v);
            }
            for (n, v) in metrics {
                s.set_metric(&n, v as f64 / 8.0);
            }
            s
        })
        .boxed()
}

fn shard_strategy() -> BoxedStrategy<ShardDoc> {
    (
        spec_strategy(),
        options_strategy(),
        any::<u64>(),
        any::<u64>(),
        prop::collection::vec(
            (
                any::<u64>(),
                stats_strategy(),
                prop_oneof![Just(None), text_strategy().prop_map(Some)],
            ),
            0..4,
        ),
    )
        .prop_map(|(spec, options, raw_of, raw_index, raw_results)| {
            let of = (raw_of as usize) % 4 + 1;
            let index = (raw_index as usize) % of;
            let results = raw_results
                .into_iter()
                .map(|(i, stats, error)| {
                    ((i as usize) % spec.points.len(), PointResult { stats, error })
                })
                .collect();
            ShardDoc { fingerprint: spec.fingerprint(), index, of, options, spec, results }
        })
        .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn experiment_spec_encode_parse_encode_is_identity(spec in spec_strategy()) {
        let once = spec.to_json();
        let parsed = ExperimentSpec::from_json(&once)
            .map_err(|e| TestCaseError::fail(format!("{e} in {once}")))?;
        prop_assert_eq!(&parsed, &spec);
        prop_assert_eq!(parsed.to_json(), once);
        // The pretty form (the on-disk manifest format) parses identically.
        let pretty = ExperimentSpec::from_json(&spec.to_json_pretty())
            .map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(pretty, spec);
    }

    #[test]
    fn shard_doc_encode_parse_encode_is_identity(doc in shard_strategy()) {
        let once = doc.to_json();
        let parsed = ShardDoc::from_json(&once)
            .map_err(|e| TestCaseError::fail(format!("{e} in {once}")))?;
        prop_assert_eq!(&parsed, &doc);
        prop_assert_eq!(parsed.to_json(), once);
    }

    #[test]
    fn spec_parser_never_panics_on_byte_soup(bytes in prop::collection::vec(any::<u8>(), 0..96)) {
        let text: String = bytes.into_iter().map(|b| b as char).collect();
        let _ = ExperimentSpec::from_json(&text); // Ok or Err, never an unwind.
        let _ = ShardDoc::from_json(&text);
    }
}
