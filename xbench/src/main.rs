//! Benchmark of the XLOOPS reproduction.
//!
//! ```text
//! cargo run --release --offline --manifest-path xbench/Cargo.toml -- \
//!     --workload <regen|scaled|store> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. An untraced run (`--trace 0`) sets up,
//! repeats the workload's pass for `--seconds`, checks every output and
//! prints the end-to-end metrics; a traced run (`--trace 1`) replays one
//! pass of every workload with spans around the calls into each layer and
//! prints the per-layer metrics. The last line of standard output is one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`. The exit
//! code is 0 only when every check passed. `BENCHMARK.json` at the root
//! lists the metrics and explains the workloads.

mod gen;
mod regen;
mod scaled;
mod store;
mod summary;
mod trace;
mod traced;

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use xloops_asm::{assemble, Program};
use xloops_bench::experiments::all_specs;
use xloops_bench::manifest::ExperimentSpec;
use xloops_bench::{results_dir, ResultStore};
use xloops_compiler::codegen::{lower_loop, CodegenCtx};
use xloops_kernels::{by_name, scaled as scaled_kernels, table2, table4, Kernel};
use xloops_sim::RunOptions;
use xloops_stats::JsonValue;

use crate::trace::Tracer;

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: &[(&str, &str)] =
    &[("setup_s", "s"), ("pass_s", "s"), ("peak_rss_mb", "MiB")];

/// Set-up runs, each in a fresh process, behind one `setup_s`.
const SETUP_PROBES: usize = 41;

/// Which workload a run measures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Cold in-process regeneration of all ten artifacts.
    Regen,
    /// Long single-thread points on scaled and generated inputs.
    Scaled,
    /// Result-store writes, warm reads and shard round-trips.
    Store,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "regen" => Some(Workload::Regen),
            "scaled" => Some(Workload::Scaled),
            "store" => Some(Workload::Store),
            _ => None,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: xbench --workload <regen|scaled|store> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} expects a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                seconds = Some(if s.is_finite() && s > 0.0 { s } else { return Err(bad()) });
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown option `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Operations attempted and failed, with a note per failure.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Counts one operation; a failed one is reported on stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("xbench: FAILED: {}", what());
        }
    }
}

/// Named values gathered by a run: deterministic counts, which add up,
/// and host-time figures, which are set.
#[derive(Debug, Default)]
pub struct Values {
    counts: BTreeMap<String, u64>,
    figures: BTreeMap<String, f64>,
}

impl Values {
    pub fn count(&mut self, name: &str, n: u64) {
        *self.counts.entry(name.to_string()).or_insert(0) += n;
    }

    pub fn set(&mut self, name: impl Into<String>, v: f64) {
        self.figures.insert(name.into(), v);
    }

    /// A figure or count by name; 0 if nothing was recorded under it.
    pub fn get(&self, name: &str) -> f64 {
        self.figures
            .get(name)
            .copied()
            .or_else(|| self.counts.get(name).map(|&n| n as f64))
            .unwrap_or(0.0)
    }

    /// Takes the figures of an untraced pass, and the counts only it made.
    pub fn take_untraced(&mut self, twin: Values) {
        self.figures.extend(twin.figures);
        for (name, n) in twin.counts {
            self.counts.entry(name).or_insert(n);
        }
    }
}

/// How a scaled input's memory starts.
pub enum Init {
    /// A Table II-style kernel with its dataset and golden check.
    Kernel(&'static Kernel),
    /// A generated loop's data segments.
    Segments(Vec<(u32, Vec<u32>)>),
}

/// One input of the `scaled` workload.
pub struct ScaledInput {
    pub name: String,
    pub program: Program,
    /// The program of the adaptive run: `program` itself, or for a
    /// generated loop the same loop lowered without `xi` pointers.
    /// Adaptive runs that hand a loop back to the GPP part-way through
    /// leave `xi` registers stale, so they write wrong memory; that is a
    /// defect of `xloops-sim`, not of the loop.
    pub adaptive: Program,
    pub init: Init,
    /// Addresses of the generated loop's stored live-out scalars.
    pub live_outs: Vec<u32>,
}

/// Everything set-up builds before the first timed operation.
pub struct Inputs {
    pub specs: Vec<ExperimentSpec>,
    /// The committed `results/<spec>.txt`, one per spec.
    pub expected: Vec<String>,
    pub scaled: Vec<ScaledInput>,
    /// A fresh scratch directory for result stores.
    pub work: PathBuf,
}

/// Builds the kernel registry, the specs and the seeded `scaled` inputs,
/// and opens a fresh store directory.
fn setup(seed: u64, tr: &Tracer, vals: &mut Values, tally: &mut Tally) -> Result<Inputs, String> {
    tr.set_pass("setup");
    tr.span("kernels.registry", || (table2(), table4(), scaled_kernels()));
    let specs = tr.span("bench.specs", all_specs);
    let expected = specs
        .iter()
        .map(|s| {
            let path = results_dir().join(format!("{}.txt", s.name));
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))
        })
        .collect::<Result<Vec<_>, _>>()?;

    let sgemm = by_name("sgemm-uc-scaled").ok_or("kernel sgemm-uc-scaled is missing")?;
    let mut scaled = vec![ScaledInput {
        name: sgemm.name.to_string(),
        program: sgemm.program.clone(),
        adaptive: sgemm.program.clone(),
        init: Init::Kernel(sgemm),
        live_outs: Vec::new(),
    }];
    for g in gen::generate(seed) {
        let mut lower = |ctx| {
            let asm = tr
                .span("compiler.lower_loop", || lower_loop(&g.ir, ctx))
                .map_err(|e| format!("{}: lower_loop: {e}", g.name))?;
            tally.check(gen::has_flavour(&asm, g.flavour), || {
                format!("{}: lowered loop lacks xloop.{}:\n{asm}", g.name, g.flavour)
            });
            tr.span("asm.assemble", || assemble(&asm))
                .map_err(|e| format!("{}: assemble: {e}", g.name))
        };
        let program = lower(&g.ctx)?;
        let adaptive = lower(&CodegenCtx { use_xi: false, ..g.ctx.clone() })?;
        vals.count("setup.asm.instrs", (program.len() + adaptive.len()) as u64);
        scaled.push(ScaledInput {
            name: g.name,
            program,
            adaptive,
            init: Init::Segments(g.segments),
            live_outs: g.live_outs,
        });
    }

    let work = PathBuf::from(".bench_work").join(std::process::id().to_string());
    let _ = std::fs::remove_dir_all(&work);
    tr.span("bench.store.open", || ResultStore::open(work.join("store")))
        .map_err(|e| format!("{}: {e}", work.display()))?;
    Ok(Inputs { specs, expected, scaled, work })
}

/// Median over fresh processes of the time from spawning one to its
/// first timed operation.
fn setup_seconds(seed: u64) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut times = Vec::new();
    for _ in 0..SETUP_PROBES {
        let t = Instant::now();
        let mut child = Command::new(&exe)
            .args(["--setup-probe", &seed.to_string()])
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
        let mut line = String::new();
        let read =
            BufReader::new(child.stdout.take().expect("stdout is piped")).read_line(&mut line);
        let elapsed = t.elapsed().as_secs_f64();
        let status = child.wait().map_err(|e| e.to_string())?;
        if read.is_err() || line.trim() != "ready" || !status.success() {
            return Err(format!("set-up probe failed ({status})"));
        }
        times.push(elapsed);
    }
    Ok(summary::median(&times))
}

/// Host memory high-water mark of this process, in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs `pass` until `seconds` have gone by (at least once). Returns
/// each pass's time and the memory high-water mark after the first pass,
/// which later passes would only move through allocator reuse.
fn repeat(seconds: f64, mut pass: impl FnMut()) -> (Vec<f64>, f64) {
    let start = Instant::now();
    let mut times = Vec::new();
    let mut peak = 0.0;
    while times.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        pass();
        times.push(t.elapsed().as_secs_f64());
        if times.len() == 1 {
            peak = peak_rss_mb();
        }
    }
    (times, peak)
}

fn number(v: f64) -> JsonValue {
    JsonValue::Float(v)
}

fn result_line(tally: &Tally, metrics: &[(&str, &str, f64)]) -> String {
    let metrics = metrics
        .iter()
        .map(|&(name, unit, v)| {
            let m = JsonValue::object(vec![
                ("value", number(v)),
                ("unit", JsonValue::Str(unit.into())),
            ]);
            (name.to_string(), m)
        })
        .collect();
    JsonValue::object(vec![
        ("correct", JsonValue::Bool(tally.failed == 0)),
        ("attempted", JsonValue::UInt(tally.attempted)),
        ("failed", JsonValue::UInt(tally.failed)),
        ("metrics", JsonValue::Object(metrics)),
    ])
    .render()
}

/// The untraced run: end-to-end metrics of one workload. Also prints a
/// `detail` line: pass-time quartiles and tail, the workload's own
/// figures (medians over passes) and the deterministic counts of a pass,
/// which must repeat exactly from pass to pass.
fn run_untraced(
    args: &Args,
    inputs: &Inputs,
    tally: &mut Tally,
) -> Result<Vec<(&'static str, &'static str, f64)>, String> {
    let setup_s = setup_seconds(args.seed)?;
    let off = Tracer::off();
    let mut passes: Vec<Values> = Vec::new();
    let (times, peak) = match args.workload {
        Workload::Regen => {
            let opts = RunOptions::default();
            repeat(args.seconds, || {
                let mut v = Values::default();
                regen::pass(inputs, &opts, &mut v, tally);
                passes.push(v);
            })
        }
        Workload::Scaled => repeat(args.seconds, || {
            let mut v = Values::default();
            scaled::pass(inputs, &off, &mut v, tally);
            passes.push(v);
        }),
        Workload::Store => {
            let primed = store::prime(inputs, tally);
            repeat(args.seconds, || {
                let mut v = Values::default();
                let stages = store::pass(inputs, &primed, &off, &mut v, tally);
                for (name, s) in
                    ["store_write_s", "store_read_s", "merge_s"].into_iter().zip(stages)
                {
                    v.set(name, s);
                }
                passes.push(v);
            })
        }
    };
    for (i, p) in passes.iter().enumerate().skip(1) {
        tally.check(p.counts == passes[0].counts, || {
            format!("pass {i}: work counts differ from pass 0")
        });
    }

    let mut detail = vec![
        ("workload", JsonValue::Str(format!("{:?}", args.workload).to_lowercase())),
        ("seed", JsonValue::UInt(args.seed)),
        ("threads", JsonValue::UInt(workload_threads(args.workload) as u64)),
        ("passes", JsonValue::UInt(times.len() as u64)),
        ("pass_times_s", JsonValue::Array(times.iter().map(|&t| number(t)).collect())),
    ];
    if let Some((q1, q3)) = summary::quartiles(&times) {
        detail.push(("pass_q1_s", number(q1)));
        detail.push(("pass_q3_s", number(q3)));
    }
    let tail = summary::tail(&times, 10).map_or(JsonValue::Null, |t| {
        JsonValue::object(vec![
            ("value_s", number(t.value)),
            ("percentile", number(t.percentile)),
            ("samples", JsonValue::UInt(t.samples as u64)),
        ])
    });
    detail.push(("pass_tail", tail));
    let figures = passes[0]
        .figures
        .keys()
        .map(|k| {
            let xs: Vec<f64> = passes.iter().map(|p| p.get(k)).collect();
            (k.clone(), number(summary::median(&xs)))
        })
        .collect();
    detail.push(("figures", JsonValue::Object(figures)));
    let counts = passes[0].counts.iter().map(|(k, &n)| (k.clone(), JsonValue::UInt(n))).collect();
    detail.push(("counts_per_pass", JsonValue::Object(counts)));
    println!("{}", JsonValue::object(vec![("detail", JsonValue::object(detail))]).render());

    Ok(vec![
        ("setup_s", "s", setup_s),
        ("pass_s", "s", summary::median(&times)),
        ("peak_rss_mb", "MiB", peak),
    ])
}

/// Worker threads a workload's pass uses.
fn workload_threads(w: Workload) -> usize {
    match w {
        Workload::Regen => std::thread::available_parallelism().map_or(1, |n| n.get()),
        Workload::Scaled | Workload::Store => 1,
    }
}

fn main() -> ExitCode {
    let start = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--setup-probe") {
        return setup_probe(&argv[1..]);
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("xbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut vals = Values::default();
    let mut tally = Tally::default();
    let tr = if args.trace { Tracer::on() } else { Tracer::off() };
    let inputs = match setup(args.seed, &tr, &mut vals, &mut tally) {
        Ok(i) => i,
        Err(e) => {
            eprintln!("xbench: set-up failed: {e}");
            return ExitCode::from(2);
        }
    };
    eprintln!("xbench: set-up done in {:.3} s", start.elapsed().as_secs_f64());
    let metrics = if args.trace {
        Ok(traced::run(&inputs, &tr, &mut vals, &mut tally))
    } else {
        run_untraced(&args, &inputs, &mut tally)
    };
    let _ = std::fs::remove_dir_all(&inputs.work);
    let _ = std::fs::remove_dir(".bench_work");
    let metrics = match metrics {
        Ok(m) => m,
        Err(e) => {
            eprintln!("xbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!("{}", result_line(&tally, &metrics));
    if tally.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `--setup-probe <seed>`: set up as a run would, say `ready`, and exit.
fn setup_probe(argv: &[String]) -> ExitCode {
    let Some(seed) = argv.first().and_then(|s| s.parse::<u64>().ok()) else {
        return ExitCode::from(2);
    };
    let tr = Tracer::off();
    match setup(seed, &tr, &mut Values::default(), &mut Tally::default()) {
        Ok(inputs) => {
            println!("ready");
            let _ = std::fs::remove_dir_all(&inputs.work);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("xbench: set-up probe failed: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_command_line() {
        let a = args("--workload store --seed 3 --seconds 10 --trace 1").unwrap();
        assert_eq!((a.workload, a.seed, a.seconds, a.trace), (Workload::Store, 3, 10.0, true));
        assert!(args("--workload nope --seed 1").is_err());
        assert!(args("--workload regen").is_err());
        assert!(args("--workload regen --seed 1 --trace 2").is_err());
        assert!(args("--workload regen --seed 1 --seconds").is_err());
    }

    /// `BENCHMARK.json` at the repository root names exactly the metrics
    /// this program prints.
    #[test]
    fn benchmark_json_lists_the_printed_metrics() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let doc = JsonValue::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let names = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(JsonValue::as_array)
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k| m.get(k).and_then(JsonValue::as_str).unwrap().to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter().map(|&(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(names("end_to_end"), own(END_TO_END));
        assert_eq!(names("per_layer"), own(traced::PER_LAYER));
    }
}
