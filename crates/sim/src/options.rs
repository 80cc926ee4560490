//! Run-wide options and the single, documented home of every `XLOOPS_*`
//! environment knob.
//!
//! Before this module, the environment was parsed ad hoc in three places
//! (the supervisor's config, the bench harness entry points, and the
//! bench runner's thread-pool setup), so a run's behavior was a function
//! of scattered `std::env::var` calls. [`RunOptions::from_env`] folds all
//! of them into one value (through the pure [`RunOptions::from_vars`],
//! which tests feed an explicit variable list) that is threaded
//! *explicitly* through the benchmark `Runner` and the CLI — a manifest plus a [`RunOptions`] pair
//! fully determines a run, and [`RunOptions::to_json_value`] records the
//! pair alongside results for reproducibility.
//!
//! | variable | effect |
//! |----------|--------|
//! | `XLOOPS_SUPERVISE=1` | route simulations through a [`Supervisor`](crate::Supervisor) |
//! | `XLOOPS_CHECKPOINT_INTERVAL=N` | supervise with N cycles between checkpoints |
//! | `XLOOPS_CYCLE_BUDGET=N` | supervise with an end-to-end cycle budget |
//! | `XLOOPS_BENCH_SERIAL=1` | execute benchmark job lists serially |
//! | `XLOOPS_SAMPLE=N:W:M` | interval-sampled simulation: fast-forward N instructions, warm W cycles, measure M cycles |
//!
//! (One infrastructure knob is *deliberately* outside [`RunOptions`]:
//! `XLOOPS_STORE`, read by the bench crate's `ResultStore`. It names
//! where results are cached, never what a point computes, so keying
//! results on it would only fragment the store.)

use xloops_stats::JsonValue;

use crate::sampling::SampleSpec;
use crate::supervisor::SupervisorConfig;

/// Everything about a run that comes from the environment rather than a
/// manifest: supervision policy and benchmark-executor knobs.
///
/// [`RunOptions::default`] is the hermetic configuration (no supervision,
/// parallel execution, no sampling) regardless of the environment;
/// [`RunOptions::from_env`] is the one place the `XLOOPS_*` variables are
/// read.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RunOptions {
    /// `Some` routes every simulation through a
    /// [`Supervisor`](crate::Supervisor) with this policy; `None` runs
    /// plain (bit-for-bit unaffected by supervisor counters).
    pub supervisor: Option<SupervisorConfig>,
    /// Execute benchmark job lists serially (`XLOOPS_BENCH_SERIAL=1`);
    /// otherwise they fan out over the available hardware parallelism.
    pub serial: bool,
    /// Interval-sampled simulation (`XLOOPS_SAMPLE=N:W:M`); `None` runs
    /// every cycle in detail (bit-for-bit identical to pre-sampling output).
    pub sample: Option<SampleSpec>,
}

impl RunOptions {
    /// Reads every `XLOOPS_*` knob (see the module table) from the process
    /// environment: [`RunOptions::from_vars`] over `std::env::var`.
    pub fn from_env() -> RunOptions {
        RunOptions::from_vars(|name| std::env::var(name).ok())
    }

    /// The knobs as read through `var` (name to value, `None` when unset).
    /// Supervision is enabled when `XLOOPS_SUPERVISE=1` or when either
    /// supervisor parameter (`XLOOPS_CHECKPOINT_INTERVAL`,
    /// `XLOOPS_CYCLE_BUDGET`) is set; unparsable values are ignored.
    pub fn from_vars(var: impl Fn(&str) -> Option<String>) -> RunOptions {
        let flag = |name: &str| var(name).is_some_and(|v| v == "1");
        let supervise = flag("XLOOPS_SUPERVISE")
            || var("XLOOPS_CHECKPOINT_INTERVAL").is_some()
            || var("XLOOPS_CYCLE_BUDGET").is_some();
        RunOptions {
            supervisor: supervise.then(|| SupervisorConfig::from_vars(&var)),
            serial: flag("XLOOPS_BENCH_SERIAL"),
            sample: var("XLOOPS_SAMPLE").and_then(|v| v.trim().parse().ok()),
        }
    }

    /// The options as a deterministic JSON document, recorded inside
    /// shard result files so a result can be traced back to the exact
    /// (manifest, options) pair that produced it.
    pub fn to_json_value(&self) -> JsonValue {
        let supervisor = match &self.supervisor {
            None => JsonValue::Null,
            Some(cfg) => JsonValue::object(vec![
                ("enabled", JsonValue::Bool(cfg.enabled)),
                ("checkpoint_interval", JsonValue::UInt(cfg.checkpoint_interval)),
                ("max_retries", JsonValue::UInt(cfg.max_retries as u64)),
                ("cycle_budget", cfg.cycle_budget.map_or(JsonValue::Null, JsonValue::UInt)),
            ]),
        };
        JsonValue::object(vec![
            ("supervisor", supervisor),
            ("serial", JsonValue::Bool(self.serial)),
            ("sample", self.sample.map_or(JsonValue::Null, |s| JsonValue::Str(s.to_string()))),
        ])
    }

    /// Parses a [`RunOptions::to_json_value`] document (shard files record
    /// their options; merge surfaces them back). Unknown keys are ignored,
    /// so documents that still carry the retired `bench_date`, `threads`
    /// or `profile` keys parse.
    pub fn from_json_value(v: &JsonValue) -> Option<RunOptions> {
        let supervisor = match v.get("supervisor")? {
            JsonValue::Null => None,
            sup => Some(SupervisorConfig {
                enabled: sup.get("enabled")?.as_bool()?,
                checkpoint_interval: sup.get("checkpoint_interval")?.as_u64()?,
                max_retries: sup.get("max_retries")?.as_u64()? as u32,
                cycle_budget: match sup.get("cycle_budget")? {
                    JsonValue::Null => None,
                    b => Some(b.as_u64()?),
                },
            }),
        };
        Some(RunOptions {
            supervisor,
            serial: v.get("serial")?.as_bool()?,
            // Absent in documents written before sampling existed: those
            // runs were unsampled, so a missing key reads as `None`.
            sample: match v.get("sample") {
                None | Some(JsonValue::Null) => None,
                Some(s) => Some(s.as_str()?.parse().ok()?),
            },
        })
    }
}

/// A `u64` knob value; unparsable values read as unset.
pub(crate) fn parse_u64(value: Option<String>) -> Option<u64> {
    value?.trim().parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_hermetic() {
        let o = RunOptions::default();
        assert!(o.supervisor.is_none());
        assert!(!o.serial && o.sample.is_none());
    }

    #[test]
    fn from_env_without_knobs_is_default() {
        // Fed an empty environment, so the ambient one cannot leak in.
        assert_eq!(RunOptions::from_vars(|_| None), RunOptions::default());
    }

    #[test]
    fn checkpoint_interval_alone_turns_supervision_on() {
        let o = RunOptions::from_vars(|name| {
            (name == "XLOOPS_CHECKPOINT_INTERVAL").then(|| "1000".to_string())
        });
        let cfg = o.supervisor.expect("an interval implies supervision");
        assert_eq!(
            cfg,
            SupervisorConfig { checkpoint_interval: 1000, ..SupervisorConfig::protected() }
        );
        assert_eq!(RunOptions { supervisor: None, ..o }, RunOptions::default());
    }

    #[test]
    fn pre_sampling_documents_still_parse() {
        // A document written before the `sample` key existed (and while
        // the retired `bench_date` stamp was still recorded), and one that
        // still carries the retired `threads` and `profile` knobs.
        let old = r#"{"supervisor": null, "serial": false, "threads": null,
                      "profile": false, "bench_date": null}"#;
        let v = xloops_stats::JsonValue::parse(old).unwrap();
        let o = RunOptions::from_json_value(&v).expect("old documents parse");
        assert_eq!(o, RunOptions::default());
        let knobs = r#"{"supervisor": null, "serial": true, "threads": 4,
                        "profile": true, "sample": null}"#;
        let v = xloops_stats::JsonValue::parse(knobs).unwrap();
        let o = RunOptions::from_json_value(&v).expect("retired knobs are ignored");
        assert_eq!(o, RunOptions { serial: true, ..RunOptions::default() });
    }

    #[test]
    fn json_round_trips_all_field_shapes() {
        for o in [
            RunOptions::default(),
            RunOptions {
                supervisor: Some(SupervisorConfig::protected()),
                serial: true,
                sample: Some(SampleSpec::new(10_000, 2_000, 50_000).unwrap()),
            },
            RunOptions {
                supervisor: Some(SupervisorConfig {
                    cycle_budget: Some(1_000_000),
                    ..SupervisorConfig::protected()
                }),
                ..RunOptions::default()
            },
        ] {
            let v = o.to_json_value();
            assert_eq!(RunOptions::from_json_value(&v), Some(o.clone()), "{}", v.render());
            // And through the text encoding.
            let reparsed = xloops_stats::JsonValue::parse(&v.render()).unwrap();
            assert_eq!(RunOptions::from_json_value(&reparsed), Some(o));
        }
    }
}
