//! Run-wide options and the single, documented home of every `XLOOPS_*`
//! environment knob.
//!
//! Before this module, the environment was parsed ad hoc in three places
//! (the supervisor's config, the bench harness entry points, and the
//! bench runner's thread-pool setup), so a run's behavior was a function
//! of scattered `std::env::var` calls. [`RunOptions::from_env`] folds all
//! of them into one value that is threaded *explicitly* through the
//! benchmark `Runner` and the CLI — a manifest plus a [`RunOptions`] pair
//! fully determines a run, and [`RunOptions::to_json_value`] records the
//! pair alongside results for reproducibility.
//!
//! | variable | effect |
//! |----------|--------|
//! | `XLOOPS_SUPERVISE=1` | route simulations through a [`Supervisor`](crate::Supervisor) |
//! | `XLOOPS_CHECKPOINT_INTERVAL=N` | supervise with N cycles between checkpoints |
//! | `XLOOPS_CYCLE_BUDGET=N` | supervise with an end-to-end cycle budget |
//! | `XLOOPS_BENCH_SERIAL=1` | execute benchmark job lists serially |
//! | `XLOOPS_BENCH_THREADS=N` | pin the benchmark worker-thread count |
//! | `XLOOPS_BENCH_PROFILE=1` | report the slowest simulation points after a serial fill |
//! | `XLOOPS_BENCH_DATE=YYYY-MM-DD` | override the date in `BENCH_<date>.json` |
//! | `XLOOPS_SAMPLE=N:W:M` | interval-sampled simulation: fast-forward N instructions, warm W cycles, measure M cycles |
//!
//! (`XLOOPS_PROFILE_KERNELS` / `XLOOPS_PROFILE_REPS` belong to the
//! `profile_lpsu` example only and stay local to it. Two infrastructure
//! knobs are *deliberately* outside [`RunOptions`]: `XLOOPS_STORE` and
//! `XLOOPS_STORE_QUIET`, read by the bench crate's `ResultStore`. They
//! name where results are cached and whether damage warnings print, never
//! what a point computes, so keying results on them would only fragment
//! the store.)

use xloops_stats::JsonValue;

use crate::sampling::SampleSpec;
use crate::supervisor::SupervisorConfig;

/// Everything about a run that comes from the environment rather than a
/// manifest: supervision policy and benchmark-executor knobs.
///
/// [`RunOptions::default`] is the hermetic configuration (no supervision,
/// parallel execution, no profiling) regardless of the environment;
/// [`RunOptions::from_env`] is the one place the `XLOOPS_*` variables are
/// read.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RunOptions {
    /// `Some` routes every simulation through a
    /// [`Supervisor`](crate::Supervisor) with this policy; `None` runs
    /// plain (bit-for-bit unaffected by supervisor counters).
    pub supervisor: Option<SupervisorConfig>,
    /// Execute benchmark job lists serially (`XLOOPS_BENCH_SERIAL=1`).
    pub serial: bool,
    /// Pin the benchmark worker-thread count (`XLOOPS_BENCH_THREADS`);
    /// `None` uses the available hardware parallelism.
    pub threads: Option<usize>,
    /// Report the slowest simulation points after a serial fill
    /// (`XLOOPS_BENCH_PROFILE=1`).
    pub profile: bool,
    /// Date stamp override for `BENCH_<date>.json` (`XLOOPS_BENCH_DATE`).
    pub bench_date: Option<String>,
    /// Interval-sampled simulation (`XLOOPS_SAMPLE=N:W:M`); `None` runs
    /// every cycle in detail (bit-for-bit identical to pre-sampling output).
    pub sample: Option<SampleSpec>,
}

impl RunOptions {
    /// Reads every `XLOOPS_*` knob (see the module table). Supervision is
    /// enabled when `XLOOPS_SUPERVISE=1` or when either supervisor
    /// parameter (`XLOOPS_CHECKPOINT_INTERVAL`, `XLOOPS_CYCLE_BUDGET`) is
    /// set; unparsable values are ignored.
    pub fn from_env() -> RunOptions {
        let supervise = env_flag("XLOOPS_SUPERVISE")
            || std::env::var_os("XLOOPS_CHECKPOINT_INTERVAL").is_some()
            || std::env::var_os("XLOOPS_CYCLE_BUDGET").is_some();
        RunOptions {
            supervisor: supervise.then(SupervisorConfig::from_env),
            serial: env_flag("XLOOPS_BENCH_SERIAL"),
            threads: env_u64("XLOOPS_BENCH_THREADS").map(|n| (n as usize).max(1)),
            profile: env_flag("XLOOPS_BENCH_PROFILE"),
            bench_date: std::env::var("XLOOPS_BENCH_DATE").ok(),
            sample: std::env::var("XLOOPS_SAMPLE").ok().and_then(|v| v.trim().parse().ok()),
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
            ("threads", self.threads.map_or(JsonValue::Null, |n| JsonValue::UInt(n as u64))),
            ("profile", JsonValue::Bool(self.profile)),
            (
                "bench_date",
                self.bench_date.as_ref().map_or(JsonValue::Null, |d| JsonValue::Str(d.clone())),
            ),
            ("sample", self.sample.map_or(JsonValue::Null, |s| JsonValue::Str(s.to_string()))),
        ])
    }

    /// Parses a [`RunOptions::to_json_value`] document (shard files record
    /// their options; merge surfaces them back).
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
            threads: match v.get("threads")? {
                JsonValue::Null => None,
                n => Some(n.as_u64()? as usize),
            },
            profile: v.get("profile")?.as_bool()?,
            bench_date: match v.get("bench_date")? {
                JsonValue::Null => None,
                d => Some(d.as_str()?.to_string()),
            },
            // Absent in documents written before sampling existed: those
            // runs were unsampled, so a missing key reads as `None`.
            sample: match v.get("sample") {
                None | Some(JsonValue::Null) => None,
                Some(s) => Some(s.as_str()?.parse().ok()?),
            },
        })
    }
}

/// `1` (exactly) enables a boolean knob.
pub(crate) fn env_flag(name: &str) -> bool {
    std::env::var(name).is_ok_and(|v| v == "1")
}

/// A `u64` knob; unparsable values read as unset.
pub(crate) fn env_u64(name: &str) -> Option<u64> {
    std::env::var(name).ok()?.trim().parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_hermetic() {
        let o = RunOptions::default();
        assert!(o.supervisor.is_none());
        assert!(!o.serial && !o.profile);
        assert!(o.threads.is_none() && o.bench_date.is_none());
    }

    #[test]
    fn from_env_without_knobs_is_default() {
        // The test environment leaves every XLOOPS_* variable unset.
        assert_eq!(RunOptions::from_env(), RunOptions::default());
    }

    #[test]
    fn pre_sampling_documents_still_parse() {
        // A document written before the `sample` key existed.
        let old = r#"{"supervisor": null, "serial": false, "threads": null,
                      "profile": false, "bench_date": null}"#;
        let v = xloops_stats::JsonValue::parse(old).unwrap();
        let o = RunOptions::from_json_value(&v).expect("old documents parse");
        assert_eq!(o, RunOptions::default());
    }

    #[test]
    fn json_round_trips_all_field_shapes() {
        for o in [
            RunOptions::default(),
            RunOptions {
                supervisor: Some(SupervisorConfig::protected()),
                serial: true,
                threads: Some(4),
                profile: true,
                bench_date: Some("2026-08-06".into()),
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
