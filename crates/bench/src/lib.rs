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
//! | `all`    | everything above, plus `EXPERIMENTS.md` data |
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

use xloops_asm::{lower_gp, Program};
use xloops_kernels::Kernel;
use xloops_sim::{ExecMode, RunOptions, SimError, Supervisor, System, SystemConfig, SystemStats};

pub use runner::{render_artifact, run_reports, RunFailure, Runner};
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

/// Runs `program` for `kernel` on a fresh system and verifies the result;
/// `what` labels panics (`"run"` / `"baseline"`). The knobs of `options`
/// consulted here are [`RunOptions::sample`], [`RunOptions::supervisor`],
/// and [`RunOptions::profile`]; the executor knobs belong to the
/// [`runner::Runner`]. Shared by the direct entry
/// points below and the memoizing runner.
pub(crate) fn run_program(
    kernel: &Kernel,
    program: &Program,
    config: SystemConfig,
    mode: ExecMode,
    options: &RunOptions,
    what: &str,
) -> RunResult {
    try_run_program(kernel, program, config, mode, options, what)
        .unwrap_or_else(|e| panic!("{} {what} on {}: {e}", kernel.name, config.name()))
}

/// The typed-error variant of [`run_program`]: simulation failures come
/// back as the [`SimError`] itself (so the runner can keep the class and
/// its exit code), while result-verification failures still panic — a
/// wrong answer is a harness bug, not a reportable run outcome.
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

/// Runs a kernel's XLOOPS binary in the given mode, with options from the
/// environment ([`RunOptions::from_env`]).
pub fn run_kernel(kernel: &Kernel, config: SystemConfig, mode: ExecMode) -> RunResult {
    run_program(kernel, &kernel.program, config, mode, &RunOptions::from_env(), "run")
}

/// Runs a kernel's XLOOPS binary with *explicit* options: the
/// environment-independent variant of [`run_kernel`], for callers (like
/// `bench-summary`'s sampled points) that need one deviating knob without
/// perturbing the process environment.
pub fn run_kernel_with(
    kernel: &Kernel,
    config: SystemConfig,
    mode: ExecMode,
    options: &RunOptions,
) -> RunResult {
    run_program(kernel, &kernel.program, config, mode, options, "run")
}

/// Runs the *general-purpose ISA* baseline: the same kernel lowered with
/// `xloop` → branch and `xi` → add, executed traditionally. All speedups
/// in the paper are normalized to this binary on the matching GPP.
pub fn run_gp_baseline(kernel: &Kernel, config: SystemConfig) -> RunResult {
    let gp = lower_gp(&kernel.program);
    run_program(
        kernel,
        &gp,
        SystemConfig { lpsu: None, ..config },
        ExecMode::Traditional,
        &RunOptions::from_env(),
        "baseline",
    )
}

/// Drives one artifact binary end to end: two-pass render of `spec`
/// (collect, parallel prefill, cache-served render), then print + write
/// `results/<name>.txt`.
pub fn emit_spec(spec: &manifest::ExperimentSpec) {
    let report = render_artifact(|r| manifest::render_with_runner(r, spec));
    emit(&spec.name, &report);
}

/// `baseline / measured` — >1 means faster than the baseline.
pub fn speedup(baseline: &RunResult, run: &RunResult) -> f64 {
    baseline.cycles as f64 / run.cycles.max(1) as f64
}

/// `baseline / measured` on energy — >1 means more efficient.
pub fn energy_efficiency(baseline: &RunResult, run: &RunResult) -> f64 {
    baseline.energy_nj / run.energy_nj.max(1e-9)
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
pub fn emit(name: &str, content: &str) {
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
        let base = run_gp_baseline(k, SystemConfig::io());
        let spec = run_kernel(k, SystemConfig::io_x(), ExecMode::Specialized);
        assert!(base.cycles > 0 && spec.cycles > 0);
        assert!(speedup(&base, &spec) > 0.2, "sanity bound");
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
