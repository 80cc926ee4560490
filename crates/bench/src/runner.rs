//! Memoized run-cache and deterministic parallel executor.
//!
//! The paper's artifacts overlap heavily: Table II, Figures 5–8, and the
//! ablation all re-simulate the same (kernel, system config, exec mode)
//! points. A [`Runner`] memoizes [`RunResult`]s under a canonical
//! [`RunKey`], so each unique simulation point executes exactly once no
//! matter how many reports ask for it.
//!
//! A runner works in two passes, driven by the store sweep
//! ([`crate::store::run_specs`]):
//!
//! 1. **Collect** — every point is requested once against a collecting
//!    runner that records the deduplicated job list and returns
//!    placeholder results. The point set is a pure function of the specs,
//!    so the collected job set is exactly the set the live pass needs.
//! 2. **Execute + serve** — [`Runner::prefill`] simulates the unique jobs
//!    (fanned out over [`std::thread::available_parallelism`] workers on
//!    the work-stealing pool [`run_jobs`], or serially with
//!    `XLOOPS_BENCH_SERIAL=1`), then every point is requested again and
//!    served from the warm cache.
//!
//! Each job builds a fresh [`xloops_sim::System`] and the simulator is deterministic,
//! so results are independent of worker scheduling: parallel and serial
//! runs produce byte-identical artifacts.
//!
//! Every execution is hardened: a panicking simulation point (bad kernel,
//! simulator bug, exceeded cycle budget under `XLOOPS_CYCLE_BUDGET`) is
//! caught with [`std::panic::catch_unwind`], quarantined into the runner's
//! failure list, and replaced by a placeholder [`RunResult`] carrying the
//! diagnosis in [`RunResult::error`] — one sick point cannot take down a
//! whole artifact regeneration, and every artifact binary reports the
//! quarantined set (and exits nonzero) instead of dying mid-render.
//!
//! The memo cache is per-process by design; durability is layered on
//! top, not in. The store sweep in [`crate::store`] consults a
//! [`crate::ResultStore`] first and requests only the missed points
//! here, so the runner stays a pure in-memory dedup engine and the
//! on-disk format never learns about [`RunKey`]s (store entries are keyed
//! by manifest fingerprint + point index + options instead).
//!
//! A runner carries a [`RunOptions`] value fixing its supervision policy,
//! sampling spec and serial-fill switch, passed
//! explicitly to [`Runner::collecting_with`] — which is how the sweep
//! records exactly what produced a shard.

use std::collections::{HashMap, HashSet, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use xloops_asm::{lower_gp, Program};
use xloops_kernels::{by_name, Kernel};
use xloops_sim::{
    ConfigKey, ExecMode, RunOptions, SampleSpec, SimError, SystemConfig, SystemStats,
};

use crate::{try_run_program, RunResult};

/// Canonical identity of one simulation point.
///
/// Baseline runs are normalized before keying: [`Runner::baseline`] strips
/// the LPSU and forces [`ExecMode::Traditional`], so a baseline requested
/// against `ooo/2+x` and one requested against plain `ooo/2` share a key
/// (and a simulation).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct RunKey {
    /// Kernel name (resolvable via [`xloops_kernels::by_name`]).
    pub kernel: &'static str,
    /// Stable identity of the system configuration.
    pub config: ConfigKey,
    /// Execution mode.
    pub mode: ExecMode,
    /// Whether the program is first lowered to the GP ISA (baselines).
    pub gp_lowered: bool,
    /// The sampling spec the point runs under (`None` = every cycle in
    /// detail). Part of the identity: a sampled run and a full run of the
    /// same point produce different (estimated vs exact) cycle counts.
    pub sample: Option<SampleSpec>,
}

/// One pending simulation: its key plus the full config (the key's energy
/// fingerprint is not invertible, so the table rides along).
#[derive(Clone, Copy, Debug)]
struct Job {
    key: RunKey,
    config: SystemConfig,
}

/// Cache traffic counters (all monotonic).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Cache requests while live (collect-phase requests are not counted).
    pub lookups: u64,
    /// Requests served from the cache.
    pub hits: u64,
    /// Simulations actually executed (prefill + live misses).
    pub sims: u64,
}

/// One quarantined simulation point: its identity plus the panic message
/// (or simulation-error diagnosis) that took it down.
#[derive(Clone, Debug)]
pub struct RunFailure {
    /// Identity of the failed point.
    pub key: RunKey,
    /// The diagnosis (panic payload or rendered simulation error).
    pub message: String,
}

/// Result of [`Runner::prefill`].
#[derive(Clone, Copy, Debug, Default)]
pub struct PrefillInfo {
    /// Unique simulation points executed.
    pub unique_points: usize,
    /// Worker threads used.
    pub workers: usize,
    /// Whether the serial escape hatch was active.
    pub serial: bool,
}

/// Memoizing simulation runner. See the module docs for the two-pass
/// protocol; once live, a request the collect pass missed simulates
/// inline and is memoized.
pub struct Runner {
    options: RunOptions,
    collecting: AtomicBool,
    pending: Mutex<(Vec<Job>, HashSet<RunKey>)>,
    cache: Mutex<HashMap<RunKey, RunResult>>,
    /// GP-lowered programs, cached per kernel (all baseline configs of a
    /// kernel share one lowering).
    gp_programs: Mutex<HashMap<&'static str, Arc<Program>>>,
    failures: Mutex<Vec<RunFailure>>,
    lookups: AtomicU64,
    hits: AtomicU64,
    sims: AtomicU64,
}

impl Runner {
    /// A collecting runner with explicit options: requests record jobs and
    /// return placeholders until [`Runner::prefill`] flips it live.
    pub fn collecting_with(options: RunOptions) -> Runner {
        Runner {
            options,
            collecting: AtomicBool::new(true),
            pending: Mutex::new((Vec::new(), HashSet::new())),
            cache: Mutex::new(HashMap::new()),
            gp_programs: Mutex::new(HashMap::new()),
            failures: Mutex::new(Vec::new()),
            lookups: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            sims: AtomicU64::new(0),
        }
    }

    /// Requests a run of the kernel's XLOOPS binary (memoized) with a
    /// per-point sampling override; `None` falls back to the runner-wide
    /// [`RunOptions::sample`]. The effective spec is part of the cache
    /// key, so a sampled point and the full run of the same configuration
    /// never alias.
    pub fn run_sampled(
        &self,
        kernel: &Kernel,
        config: SystemConfig,
        mode: ExecMode,
        sample: Option<SampleSpec>,
    ) -> RunResult {
        let sample = sample.or(self.options.sample);
        let key =
            RunKey { kernel: kernel.name, config: config.key(), mode, gp_lowered: false, sample };
        self.request(Job { key, config })
    }

    /// Requests a run of the *general-purpose ISA* baseline (memoized): the
    /// same kernel lowered with `xloop` → branch and `xi` → add, executed
    /// traditionally. All speedups in the paper are normalized to this
    /// binary on the matching GPP.
    pub fn baseline(&self, kernel: &Kernel, config: SystemConfig) -> RunResult {
        // Normalize exactly as the baseline executes: no LPSU, lowered
        // program, traditional mode.
        let config = SystemConfig { lpsu: None, ..config };
        let key = RunKey {
            kernel: kernel.name,
            config: config.key(),
            mode: ExecMode::Traditional,
            gp_lowered: true,
            sample: self.options.sample,
        };
        self.request(Job { key, config })
    }

    fn request(&self, job: Job) -> RunResult {
        if self.collecting.load(Ordering::Relaxed) {
            let (jobs, seen) = &mut *self.pending.lock().unwrap();
            if seen.insert(job.key) {
                jobs.push(job);
            }
            // Placeholder; reports guard divisions, and no report chooses
            // *which* runs to request based on simulated values.
            return RunResult {
                cycles: 1,
                energy_nj: 1.0,
                stats: SystemStats::default(),
                error: None,
            };
        }
        self.lookups.fetch_add(1, Ordering::Relaxed);
        if let Some(hit) = self.cache.lock().unwrap().get(&job.key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return hit.clone();
        }
        let result = self.execute_caught(&job);
        self.sims.fetch_add(1, Ordering::Relaxed);
        self.cache.lock().unwrap().insert(job.key, result.clone());
        result
    }

    /// [`Runner::try_execute`] behind a panic firewall: a point that
    /// panics — or surfaces a typed [`SimError`] — is quarantined into the
    /// failure list and yields a placeholder result carrying the
    /// diagnosis, so the rest of the job list still runs.
    fn execute_caught(&self, job: &Job) -> RunResult {
        let message = match catch_unwind(AssertUnwindSafe(|| self.try_execute(job))) {
            Ok(Ok(result)) => return result,
            Ok(Err(e)) => {
                let what = if job.key.gp_lowered { "baseline" } else { "run" };
                format!("{} {what} on {}: {e}", job.key.kernel, job.config.name())
            }
            Err(payload) => payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "non-string panic payload".to_string()),
        };
        self.failures.lock().unwrap().push(RunFailure { key: job.key, message: message.clone() });
        RunResult { cycles: 1, energy_nj: 1.0, stats: SystemStats::default(), error: Some(message) }
    }

    /// Simulates one job on a fresh system, surfacing simulation failures
    /// as the typed [`SimError`]. The key's effective sampling spec
    /// (per-point override already folded in) replaces the runner-wide
    /// one, so `try_run_program` sees exactly what the key promises.
    fn try_execute(&self, job: &Job) -> Result<RunResult, SimError> {
        let kernel = by_name(job.key.kernel)
            .unwrap_or_else(|| panic!("unknown kernel in run cache: {}", job.key.kernel));
        let options = RunOptions { sample: job.key.sample, ..self.options.clone() };
        if job.key.gp_lowered {
            let program = self.gp_program(kernel);
            try_run_program(
                kernel,
                &program,
                job.config,
                ExecMode::Traditional,
                &options,
                "baseline",
            )
        } else {
            try_run_program(kernel, &kernel.program, job.config, job.key.mode, &options, "run")
        }
    }

    /// The kernel's GP-lowered program, lowered at most once per kernel.
    fn gp_program(&self, kernel: &Kernel) -> Arc<Program> {
        let mut progs = self.gp_programs.lock().unwrap();
        Arc::clone(progs.entry(kernel.name).or_insert_with(|| Arc::new(lower_gp(&kernel.program))))
    }

    /// Executes every collected job exactly once and flips the runner
    /// live. Jobs fan out over worker threads unless the runner's options
    /// say [`RunOptions::serial`] (or only one hardware thread is
    /// available); either way the cache ends up identical, because each
    /// job simulates a fresh deterministic system.
    pub fn prefill(&self) -> PrefillInfo {
        let workers = if self.options.serial {
            1
        } else {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        };
        let mut info = self.prefill_with(workers);
        info.serial = self.options.serial;
        info
    }

    /// [`Runner::prefill`] with an explicit worker-thread count (ignores
    /// the environment). Exposed so determinism tests can pit a parallel
    /// fill against a serial one directly. The fan-out itself is
    /// [`run_jobs`] — the one worker pool in the workspace — this method
    /// only supplies the per-job closure (execute behind the panic
    /// firewall) and folds the results into the cache.
    pub fn prefill_with(&self, workers: usize) -> PrefillInfo {
        let jobs = {
            let (jobs, _) = &mut *self.pending.lock().unwrap();
            std::mem::take(jobs)
        };
        self.collecting.store(false, Ordering::Relaxed);
        let workers = workers.min(jobs.len().max(1));
        let results = run_jobs(&jobs, workers, |_, job| {
            let result = self.execute_caught(job);
            self.sims.fetch_add(1, Ordering::Relaxed);
            result
        });
        let mut cache = self.cache.lock().unwrap();
        for (job, result) in jobs.iter().zip(results) {
            cache.insert(job.key, result);
        }
        drop(cache);

        PrefillInfo { unique_points: jobs.len(), workers, serial: false }
    }

    /// The quarantined simulation points (empty on a healthy run).
    pub fn failures(&self) -> Vec<RunFailure> {
        self.failures.lock().unwrap().clone()
    }

    /// Snapshot of the traffic counters.
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats {
            lookups: self.lookups.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            sims: self.sims.load(Ordering::Relaxed),
        }
    }
}

/// Runs every item through `run` on a work-stealing pool of `workers`
/// threads, returning the results in item order. `run` receives the item
/// index and the item. With one worker (or one item) the pool degenerates
/// to a plain in-order loop on the calling thread.
///
/// Each worker owns a deque seeded round-robin; it pops its own front and
/// steals from the back of the others when dry, so a worker stuck behind
/// one slow simulation point cannot strand the rest of the list. Results
/// land in per-item slots, so the output order is the input order
/// whichever worker ran what — which is what keeps serial and parallel
/// fills byte-identical.
pub fn run_jobs<T: Sync, R: Send>(
    items: &[T],
    workers: usize,
    run: impl Fn(usize, &T) -> R + Sync,
) -> Vec<R> {
    let workers = workers.clamp(1, items.len().max(1));
    if workers <= 1 {
        return items.iter().enumerate().map(|(i, t)| run(i, t)).collect();
    }
    // Deal indices round-robin, one deque per worker.
    let queues: Vec<Mutex<VecDeque<usize>>> =
        (0..workers).map(|w| Mutex::new((w..items.len()).step_by(workers).collect())).collect();
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for w in 0..workers {
            let (queues, slots, run) = (&queues, &slots, &run);
            scope.spawn(move || loop {
                // Own front first; steal from the back of the others when
                // dry. An item leaves a queue only into the worker that
                // runs it, so a full empty scan means every item is
                // claimed and this worker can retire.
                let claimed = queues[w].lock().unwrap().pop_front().or_else(|| {
                    (1..workers).find_map(|d| queues[(w + d) % workers].lock().unwrap().pop_back())
                });
                let Some(i) = claimed else { break };
                *slots[i].lock().unwrap() = Some(run(i, &items[i]));
            });
        }
    });
    slots.into_iter().map(|s| s.into_inner().unwrap().expect("pool ran every item")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use xloops_lpsu::LpsuConfig;

    /// A runner flipped live with nothing collected: every first request
    /// misses and simulates inline, every repeat is a cache hit.
    fn live() -> Runner {
        let runner = Runner::collecting_with(RunOptions::default());
        runner.prefill();
        runner
    }

    /// The uncached reference for a point: one direct simulation.
    fn direct(k: &Kernel, config: SystemConfig, mode: ExecMode, gp: bool) -> RunResult {
        let opts = RunOptions::default();
        if gp {
            let config = SystemConfig { lpsu: None, ..config };
            let program = lower_gp(&k.program);
            try_run_program(k, &program, config, ExecMode::Traditional, &opts, "baseline")
        } else {
            try_run_program(k, &k.program, config, mode, &opts, "run")
        }
        .unwrap()
    }

    #[test]
    fn pool_returns_results_in_item_order() {
        let items: Vec<usize> = (0..97).collect();
        for workers in [1, 2, 4, 9] {
            let out = run_jobs(&items, workers, |i, &x| {
                assert_eq!(i, x);
                x * 3
            });
            assert_eq!(out, items.iter().map(|x| x * 3).collect::<Vec<_>>(), "{workers} workers");
        }
    }

    #[test]
    fn pool_runs_every_item_exactly_once() {
        let counts: Vec<AtomicUsize> = (0..64).map(|_| AtomicUsize::new(0)).collect();
        let items: Vec<usize> = (0..64).collect();
        let _ = run_jobs(&items, 8, |_, &x| counts[x].fetch_add(1, Ordering::Relaxed));
        assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn pool_steals_past_a_slow_head_item() {
        // Worker 0's own queue starts with the slow item; the other
        // workers must drain everything else meanwhile. This pins the
        // stealing behavior indirectly: with 4 workers and one item that
        // sleeps, total wall time must stay well under items × sleep.
        let items: Vec<u64> = (0..32).map(|i| if i == 0 { 40 } else { 1 }).collect();
        let t = std::time::Instant::now();
        let out = run_jobs(&items, 4, |_, &ms| {
            std::thread::sleep(std::time::Duration::from_millis(ms));
            ms
        });
        assert_eq!(out, items);
        assert!(t.elapsed() < std::time::Duration::from_millis(32 * 40 / 2), "{:?}", t.elapsed());
    }

    #[test]
    fn cache_hit_returns_identical_result() {
        let k = by_name("huffman-ua").expect("kernel exists");
        let runner = live();
        let first = runner.run_sampled(k, SystemConfig::io_x(), ExecMode::Specialized, None);
        let second = runner.run_sampled(k, SystemConfig::io_x(), ExecMode::Specialized, None);
        assert_eq!(first.cycles, second.cycles);
        assert_eq!(first.energy_nj, second.energy_nj);
        assert_eq!(first.stats, second.stats);
        let s = runner.cache_stats();
        assert_eq!((s.lookups, s.hits, s.sims), (2, 1, 1));
    }

    #[test]
    fn cached_result_matches_uncached_harness_calls() {
        let k = by_name("huffman-ua").expect("kernel exists");
        let runner = live();
        let spec = runner.run_sampled(k, SystemConfig::io_x(), ExecMode::Specialized, None);
        let base = runner.baseline(k, SystemConfig::io_x());
        assert_eq!(
            spec.cycles,
            direct(k, SystemConfig::io_x(), ExecMode::Specialized, false).cycles
        );
        assert_eq!(
            base.cycles,
            direct(k, SystemConfig::io_x(), ExecMode::Traditional, true).cycles
        );
    }

    #[test]
    fn baselines_normalize_away_the_lpsu() {
        let k = by_name("huffman-ua").expect("kernel exists");
        let runner = live();
        let with_lpsu = runner.baseline(k, SystemConfig::io_x());
        let without = runner.baseline(k, SystemConfig::io());
        // Same canonical point: the second request must be a cache hit.
        assert_eq!(with_lpsu.cycles, without.cycles);
        let s = runner.cache_stats();
        assert_eq!((s.lookups, s.hits, s.sims), (2, 1, 1));
    }

    #[test]
    fn run_keys_distinguish_all_experiment_configs() {
        // Every system configuration any report sweeps must map to its own
        // RunKey, else the cache would alias distinct design points.
        // fig9's `x4` variant (plain default4) IS ooo4_x — the cache is
        // meant to share that point, so it is not in this distinct list.
        assert_eq!(
            SystemConfig::ooo4_x().with_lpsu(LpsuConfig::default4()).key(),
            SystemConfig::ooo4_x().key(),
        );
        let fig9_lpsus = [
            LpsuConfig::default4().with_multithreading(),
            LpsuConfig::default4().with_lanes(8),
            LpsuConfig::default4().with_lanes(8).with_double_resources(),
            LpsuConfig::default4().with_lanes(8).with_double_resources().with_big_lsq(),
            // Ablation variants.
            LpsuConfig::default4().with_cross_lane_forwarding(),
            LpsuConfig::default4().with_cib_latency(2),
            LpsuConfig::default4().with_cib_latency(4),
        ];
        let mut configs: Vec<SystemConfig> = vec![
            SystemConfig::io(),
            SystemConfig::ooo2(),
            SystemConfig::ooo4(),
            SystemConfig::io_x(),
            SystemConfig::ooo2_x(),
            SystemConfig::ooo4_x(),
            SystemConfig::io().with_energy(xloops_energy::EnergyTable::vlsi40()),
            SystemConfig::io_x().with_energy(xloops_energy::EnergyTable::vlsi40()),
        ];
        configs.extend(fig9_lpsus.iter().map(|l| SystemConfig::ooo4_x().with_lpsu(*l)));
        configs.extend(
            [
                LpsuConfig::default4().with_cross_lane_forwarding(),
                LpsuConfig::default4().with_cib_latency(2),
            ]
            .iter()
            .map(|l| SystemConfig::ooo2_x().with_lpsu(*l)),
        );
        let mut keys = HashSet::new();
        for c in &configs {
            let key = RunKey {
                kernel: "k",
                config: c.key(),
                mode: ExecMode::Specialized,
                gp_lowered: false,
                sample: None,
            };
            assert!(keys.insert(key), "config aliased another: {}", c.name());
        }
        // Mode, lowering flag, and sampling spec are part of the identity too.
        let c = SystemConfig::io_x();
        let base = RunKey {
            kernel: "k",
            config: c.key(),
            mode: ExecMode::Specialized,
            gp_lowered: false,
            sample: None,
        };
        assert_ne!(base, RunKey { mode: ExecMode::Adaptive, ..base });
        assert_ne!(base, RunKey { mode: ExecMode::Traditional, ..base });
        assert_ne!(base, RunKey { gp_lowered: true, ..base });
        assert_ne!(base, RunKey { kernel: "other", ..base });
        let spec = SampleSpec::new(10_000, 2_000, 50_000).unwrap();
        assert_ne!(base, RunKey { sample: Some(spec), ..base });
    }

    #[test]
    fn sampled_and_full_runs_occupy_distinct_cache_slots() {
        let k = by_name("huffman-ua").expect("kernel exists");
        let runner = live();
        let full = runner.run_sampled(k, SystemConfig::io_x(), ExecMode::Specialized, None);
        let spec = SampleSpec::new(500, 100, 500).unwrap();
        let sampled =
            runner.run_sampled(k, SystemConfig::io_x(), ExecMode::Specialized, Some(spec));
        // Two distinct simulations, not one cache hit.
        let s = runner.cache_stats();
        assert_eq!((s.lookups, s.hits, s.sims), (2, 0, 2));
        // Only the sampled run reports sampling statistics, and its
        // extrapolated cycle count tracks the exact one.
        assert!(full.stats.sampling.is_none());
        let samp = sampled.stats.sampling.as_ref().expect("sampling stats attached");
        assert!(samp.intervals > 0);
        let err = (sampled.cycles as f64 - full.cycles as f64).abs() / full.cycles as f64;
        assert!(err < 0.05, "sampled {} vs full {} ({err:.3})", sampled.cycles, full.cycles);
        // A repeated sampled request is served from the cache.
        let again = runner.run_sampled(k, SystemConfig::io_x(), ExecMode::Specialized, Some(spec));
        assert_eq!(again.cycles, sampled.cycles);
        assert_eq!(runner.cache_stats().hits, 1);
    }

    #[test]
    fn panicking_point_is_quarantined_not_fatal() {
        // An unknown kernel name panics inside `execute`; the hardened
        // executor must quarantine it instead of unwinding the harness.
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {})); // quiet the expected panic
        let runner = live();
        let key = RunKey {
            kernel: "no-such-kernel",
            config: SystemConfig::io().key(),
            mode: ExecMode::Traditional,
            gp_lowered: false,
            sample: None,
        };
        let r = runner.execute_caught(&Job { key, config: SystemConfig::io() });
        std::panic::set_hook(hook);
        assert!(r.error.as_deref().is_some_and(|m| m.contains("no-such-kernel")), "{r:?}");
        let failures = runner.failures();
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].key, key);
        assert!(failures[0].message.contains("no-such-kernel"));
    }

    #[test]
    fn parallel_and_serial_fills_render_byte_identical_reports() {
        // A miniature multi-config report over three kernels, exercising
        // baselines, both LPSU modes, and a design-space variant.
        let report = |r: &Runner| {
            let mut out = String::new();
            for name in ["rgb2cmyk-uc", "dither-or", "ksack-sm-om"] {
                let k = by_name(name).expect("kernel exists");
                let base = r.baseline(k, SystemConfig::ooo2());
                let s = r.run_sampled(k, SystemConfig::ooo2_x(), ExecMode::Specialized, None);
                let a = r.run_sampled(k, SystemConfig::ooo2_x(), ExecMode::Adaptive, None);
                let x8 = SystemConfig::ooo2_x().with_lpsu(LpsuConfig::default4().with_lanes(8));
                let w = r.run_sampled(k, x8, ExecMode::Specialized, None);
                out.push_str(&format!(
                    "{name} {} {} {} {} {:.3}\n",
                    base.cycles, s.cycles, a.cycles, w.cycles, s.energy_nj
                ));
            }
            out
        };

        let fill = |workers: usize| {
            let runner = Runner::collecting_with(RunOptions::default());
            let _ = report(&runner);
            let info = runner.prefill_with(workers);
            (report(&runner), info)
        };
        let (serial_text, serial_info) = fill(1);
        let (parallel_text, parallel_info) = fill(4);
        assert_eq!(serial_info.workers, 1);
        assert_eq!(parallel_info.workers, 4);
        assert_eq!(serial_info.unique_points, parallel_info.unique_points);
        assert_eq!(serial_text, parallel_text, "parallel fill must be byte-identical to serial");
    }

    #[test]
    fn two_pass_protocol_simulates_each_point_once() {
        let k = by_name("huffman-ua").expect("kernel exists");
        let report = |r: &Runner| {
            // Ask for the same points repeatedly, like overlapping reports.
            let base = r.baseline(k, SystemConfig::io());
            let s1 = r.run_sampled(k, SystemConfig::io_x(), ExecMode::Specialized, None);
            let s2 = r.run_sampled(k, SystemConfig::io_x(), ExecMode::Specialized, None);
            let base2 = r.baseline(k, SystemConfig::io_x());
            format!("{} {} {} {}", base.cycles, s1.cycles, s2.cycles, base2.cycles)
        };
        let runner = Runner::collecting_with(RunOptions::default());
        let _ = report(&runner);
        let info = runner.prefill();
        let out = report(&runner);
        // Two unique points: the io baseline and the specialized run.
        assert_eq!(info.unique_points, 2);
        let s = runner.cache_stats();
        assert_eq!(s.sims, 2, "each unique point simulated exactly once");
        assert_eq!(s.lookups, 4);
        assert_eq!(s.hits, 4, "render pass is fully cache-served");
        // And the rendered text matches a direct (uncached) computation.
        let direct_base = direct(k, SystemConfig::io(), ExecMode::Traditional, true);
        let direct_spec = direct(k, SystemConfig::io_x(), ExecMode::Specialized, false);
        assert_eq!(
            out,
            format!(
                "{} {} {} {}",
                direct_base.cycles, direct_spec.cycles, direct_spec.cycles, direct_base.cycles
            )
        );
    }
}
