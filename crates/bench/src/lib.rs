//! # xloops-bench
//!
//! The benchmark harness that regenerates every table and figure of the
//! paper's evaluation. Each binary under `src/bin/` reproduces one
//! artifact and prints a paper-style text table (also written under
//! `results/` at the workspace root):
//!
//! | binary   | artifact |
//! |----------|----------|
//! | `table2` | Table II — T/S/A speedups on io, ooo/2, ooo/4 |
//! | `fig5`   | Figure 5 — specialized speedup vs the out-of-order baselines |
//! | `fig6`   | Figure 6 — LPSU cycle breakdown (exec/stall/squash) |
//! | `fig7`   | Figure 7 — specialized vs adaptive on ooo/4+x |
//! | `fig8`   | Figure 8 — energy efficiency vs performance |
//! | `fig9`   | Figure 9 — LPSU design-space exploration |
//! | `table4` | Table IV — hand-optimized / loop-transformed case studies |
//! | `table5` | Table V — VLSI area and cycle time model |
//! | `fig10`  | Figure 10 — VLSI energy efficiency vs performance |
//! | `ablation` | LPSU design-choice ablation |
//! | `all`    | everything above, sharing one deduplicated sweep |
//!
//! Every binary is a one-line call to [`emit_specs`], so all of them take
//! `[--store DIR]` (or `XLOOPS_STORE=DIR`), run through the one spec
//! executor [`store::run_specs`], and share one failure policy.
//!
//! Simulated cycle counts are deterministic, so the artifacts need no
//! statistical repetition; the Criterion benches in `benches/` instead
//! track the *simulator's* own throughput (host-side performance of the
//! assembler, functional core, and LPSU engine).

pub mod experiments;
pub mod manifest;
pub mod runner;
pub mod store;

use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;
use std::time::Instant;

use xloops_asm::Program;
use xloops_kernels::Kernel;
use xloops_sim::{ExecMode, RunOptions, SimError, Supervisor, System, SystemConfig, SystemStats};

use manifest::{render_spec, ExperimentSpec};
pub use runner::{RunFailure, Runner};
pub use store::{ResultStore, StoreStats};

/// Result of one kernel execution.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// End-to-end cycles.
    pub cycles: u64,
    /// Dynamic energy in nanojoules.
    pub energy_nj: f64,
    /// Full system statistics.
    pub stats: SystemStats,
    /// `Some(diagnosis)` when the harness quarantined this point instead
    /// of completing it (a panic or simulation error caught by the
    /// hardened executor); the numeric fields are then placeholders.
    pub error: Option<String>,
}

/// Runs `program` for `kernel` on a fresh system and verifies the result.
/// The knobs of `options` consulted here are [`RunOptions::sample`],
/// [`RunOptions::supervisor`], and [`RunOptions::profile`]; the executor
/// knobs belong to the [`runner::Runner`]. Simulation failures come back
/// as the typed [`SimError`] (the runner quarantines them), while
/// result-verification failures panic — a wrong answer is a harness bug,
/// not a reportable run outcome. `what` labels that panic (`"run"` /
/// `"baseline"`).
pub(crate) fn try_run_program(
    kernel: &Kernel,
    program: &Program,
    config: SystemConfig,
    mode: ExecMode,
    options: &RunOptions,
    what: &str,
) -> Result<RunResult, SimError> {
    let mut sys = System::new(config);
    sys.set_profiling(options.profile);
    kernel.init_memory(sys.mem_mut());
    let run = match (&options.sample, &options.supervisor) {
        // Sampled runs are unsupervised by construction (see
        // `System::run_sampled`); sampling takes precedence.
        (Some(spec), _) => sys.run_sampled(program, mode, *spec),
        (None, Some(cfg)) => Supervisor::new(&mut sys, cfg.clone()).run(program, mode),
        (None, None) => sys.run(program, mode),
    };
    let stats = run?;
    kernel
        .verify(sys.mem())
        .unwrap_or_else(|e| panic!("{} {what} on {} ({mode:?}): {e}", kernel.name, config.name()));
    Ok(RunResult { cycles: stats.cycles, energy_nj: stats.energy_nj, stats, error: None })
}

/// Drives an artifact binary end to end: parses `[--store DIR]` (falling
/// back to `XLOOPS_STORE`), runs every spec through [`store::run_specs`]
/// under [`RunOptions::from_env`], renders, prints and writes each
/// artifact to `results/<name>.txt`, then prints the `[time]`, `[store]`
/// and `[cache]` lines. Quarantined points still render (as placeholder
/// cells) but are listed on stderr, and the process exits 1.
pub fn emit_specs(specs: &[ExperimentSpec]) {
    let total = Instant::now();
    let store = store_from_args();
    let t = Instant::now();
    let run = store::run_specs(specs, &RunOptions::from_env(), store.as_ref());
    let simulate_s = t.elapsed().as_secs_f64();

    let mut timings = Vec::new();
    for (spec, results) in specs.iter().zip(&run.results) {
        let t = Instant::now();
        emit(&spec.name, &render_spec(spec, results));
        timings.push((&spec.name, t.elapsed().as_secs_f64()));
    }
    let info = run.prefill;
    println!(
        "[time] simulate       {simulate_s:8.3} s  ({} unique points, {} worker thread(s){})",
        info.unique_points,
        info.workers,
        if info.serial { ", serial" } else { "" },
    );
    for (name, s) in &timings {
        println!("[time] render {name:<8}{s:8.3} s");
    }
    println!("[time] total          {:8.3} s", total.elapsed().as_secs_f64());
    if let Some(store) = &store {
        let s = store.stats();
        println!(
            "[store] {} hits, {} misses, {} bytes read, {} bytes written ({})",
            s.hits,
            s.misses,
            s.bytes_read,
            s.bytes_written,
            store.dir().display(),
        );
    }
    let c = run.cache;
    println!(
        "[cache] {} lookups, {} hits, {} simulations — each unique point simulated exactly once",
        c.lookups, c.hits, c.sims
    );

    let points = specs.iter().zip(&run.results).flat_map(|(spec, results)| {
        results.iter().enumerate().map(move |(i, pr)| (spec.name.as_str(), i, pr))
    });
    if let Some(report) = manifest::quarantine_report(points) {
        eprintln!("[errors] {report}");
        std::process::exit(1);
    }
}

/// The store an artifact binary runs against: `--store DIR` (which must
/// open), else `XLOOPS_STORE`, else none. Any other argument is a usage
/// error (exit 2).
fn store_from_args() -> Option<ResultStore> {
    let mut args = std::env::args();
    let bin = args.next().unwrap_or_default();
    let usage = |problem: String| -> ! {
        eprintln!("{problem} (usage: {bin} [--store DIR])");
        std::process::exit(2);
    };
    match (args.next(), args.next(), args.next()) {
        (None, ..) => ResultStore::from_env(),
        (Some(flag), None, _) if flag == "--store" => usage("--store expects a directory".into()),
        (Some(flag), Some(dir), None) if flag == "--store" => {
            Some(ResultStore::open(&dir).unwrap_or_else(|e| usage(format!("--store {dir}: {e}"))))
        }
        (Some(arg), ..) => usage(format!("unexpected argument `{arg}`")),
    }
}

/// Directory the artifacts are written to (workspace `results/`).
pub fn results_dir() -> PathBuf {
    let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.pop();
    p.pop();
    p.push("results");
    p
}

/// Prints an artifact and writes it under `results/<name>.txt`. I/O
/// failures don't abort the run (the artifact was already printed) but are
/// reported on stderr with the path involved.
fn emit(name: &str, content: &str) {
    println!("{content}");
    let dir = results_dir();
    if let Err(e) = fs::create_dir_all(&dir) {
        eprintln!("warning: cannot create {}: {e}", dir.display());
        return;
    }
    let path = dir.join(format!("{name}.txt"));
    if let Err(e) = fs::write(&path, content) {
        eprintln!("warning: cannot write {}: {e}", path.display());
    }
}

/// A minimal fixed-width text table builder for paper-style output.
#[derive(Clone, Debug, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new(header: &[&str]) -> TextTable {
        TextTable { header: header.iter().map(|s| s.to_string()).collect(), rows: Vec::new() }
    }

    /// Appends one row (stringified cells).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row width must match header");
        self.rows.push(cells);
    }

    /// Renders with per-column alignment.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths = vec![0usize; cols];
        for (i, h) in self.header.iter().enumerate() {
            widths[i] = h.len();
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |out: &mut String, cells: &[String]| {
            for (i, c) in cells.iter().enumerate() {
                if i == 0 {
                    let _ = write!(out, "{c:<w$}", w = widths[i]);
                } else {
                    let _ = write!(out, "  {c:>w$}", w = widths[i]);
                }
            }
            out.push('\n');
        };
        fmt_row(&mut out, &self.header);
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            fmt_row(&mut out, row);
        }
        out
    }
}

/// Formats a ratio like the paper (two decimals).
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use xloops_kernels::by_name;

    #[test]
    fn harness_runs_a_kernel_and_baseline() {
        let k = by_name("huffman-ua").expect("kernel exists");
        let opts = RunOptions::default();
        let gp = xloops_asm::lower_gp(&k.program);
        let io = SystemConfig::io();
        let base = try_run_program(k, &gp, io, ExecMode::Traditional, &opts, "baseline").unwrap();
        let spec = try_run_program(
            k,
            &k.program,
            SystemConfig::io_x(),
            ExecMode::Specialized,
            &opts,
            "run",
        )
        .unwrap();
        assert!(base.cycles > 0 && spec.cycles > 0);
        assert!(base.cycles as f64 / spec.cycles as f64 > 0.2, "sanity bound");
    }

    #[test]
    fn text_table_renders_aligned() {
        let mut t = TextTable::new(&["name", "x"]);
        t.row(vec!["a".into(), "1.00".into()]);
        t.row(vec!["longer".into(), "12.50".into()]);
        let s = t.render();
        assert!(s.contains("name"));
        assert!(s.lines().count() == 4);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn text_table_checks_width() {
        let mut t = TextTable::new(&["a", "b"]);
        t.row(vec!["only-one".into()]);
    }
}
