//! The simulation supervisor: one canonical run loop with optional
//! checkpointed fault recovery and LPSU→GPP graceful degradation.
//!
//! [`System::run`] delegates here with supervision off, so supervised and
//! unsupervised runs share every line of dispatch logic. With supervision
//! enabled the loop checkpoints architectural state at taken-xloop
//! boundaries; when a specialized phase fails with a recoverable
//! [`SimError`] (a wedge, an architectural lane fault, an injected fault,
//! or a corrupt handback), the supervisor rewinds to the last checkpoint
//! and retries. After [`SupervisorConfig::max_retries`] failures of the
//! same loop, the loop pc is degraded: added to the ignore set so the loop
//! replays on the GPP, exactly as the XLOOPS abstraction guarantees
//! (traditional execution is always a valid implementation of an `xloop`).
//!
//! A [`FaultPlan`] can be attached to make failures happen on purpose —
//! deterministic, seeded fault injection for testing the recovery paths.

use xloops_asm::Program;
use xloops_gpp::{GppKind, RunOpts, StopReason};
use xloops_lpsu::FaultPlan;
use xloops_mem::{FxHashMap, FxHashSet};
use xloops_stats::StatSet;

use crate::config::ExecMode;
use crate::error::SimError;
use crate::stats::SystemStats;
use crate::system::{System, SystemSnapshot};

/// Policy knobs of a supervised run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SupervisorConfig {
    /// Master switch: when `false`, no checkpoints are taken and every
    /// error propagates immediately (plain [`System::run`] behavior).
    pub enabled: bool,
    /// Minimum cycles between checkpoints. The first taken xloop is always
    /// checkpointed; later ones only once this many cycles have passed
    /// since the previous checkpoint (checkpoints happen at xloop
    /// boundaries, the only points where architectural state is quiescent).
    pub checkpoint_interval: u64,
    /// Rewind-and-retry attempts per loop pc before the pc is degraded to
    /// traditional (GPP) execution.
    pub max_retries: u32,
    /// End-to-end cycle budget; exceeding it fails the run with
    /// [`SimError::CycleBudget`]. `None` means unlimited.
    pub cycle_budget: Option<u64>,
}

impl SupervisorConfig {
    /// Supervision disabled: no checkpoints, no recovery, no budget.
    pub fn off() -> SupervisorConfig {
        SupervisorConfig {
            enabled: false,
            checkpoint_interval: 1_000_000,
            max_retries: 2,
            cycle_budget: None,
        }
    }

    /// Supervision enabled with the default policy: checkpoint every
    /// million cycles, two retries per loop before degradation, no budget.
    pub fn protected() -> SupervisorConfig {
        SupervisorConfig { enabled: true, ..SupervisorConfig::off() }
    }

    /// [`SupervisorConfig::protected`] with overrides from the environment;
    /// see [`SupervisorConfig::from_vars`].
    pub fn from_env() -> SupervisorConfig {
        SupervisorConfig::from_vars(|name| std::env::var(name).ok())
    }

    /// [`SupervisorConfig::protected`] with overrides read through `var`:
    /// `XLOOPS_CHECKPOINT_INTERVAL` (cycles between checkpoints) and
    /// `XLOOPS_CYCLE_BUDGET` (end-to-end cycle budget). Unparsable values
    /// are ignored.
    pub fn from_vars(var: impl Fn(&str) -> Option<String>) -> SupervisorConfig {
        let mut cfg = SupervisorConfig::protected();
        if let Some(v) = crate::options::parse_u64(var("XLOOPS_CHECKPOINT_INTERVAL")) {
            cfg.checkpoint_interval = v.max(1);
        }
        if let Some(v) = crate::options::parse_u64(var("XLOOPS_CYCLE_BUDGET")) {
            cfg.cycle_budget = Some(v);
        }
        cfg
    }
}

/// What the supervisor did during a run. All-zero for unsupervised runs
/// (and for supervised runs that never saw a fault), in which case the
/// stat tree omits the `supervisor` child entirely.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SupervisorStats {
    /// Architectural checkpoints captured.
    pub checkpoints: u64,
    /// Rewinds to the last checkpoint (one per recovered fault).
    pub rewinds: u64,
    /// Recovered faults answered with a same-mode retry.
    pub retries: u64,
    /// Loop pcs degraded to traditional (GPP) execution.
    pub degraded: u64,
    /// Recovered faults that were injector-made ([`SimError::Injected`]).
    pub injected_faults: u64,
}

impl SupervisorStats {
    /// The supervisor's counters as a `supervisor` node of the unified
    /// stats schema.
    pub fn stat_set(&self) -> StatSet {
        let mut s = StatSet::new("supervisor");
        s.set("checkpoints", self.checkpoints)
            .set("rewinds", self.rewinds)
            .set("retries", self.retries)
            .set("degraded", self.degraded)
            .set("injected_faults", self.injected_faults);
        s
    }
}

/// A supervised view of a [`System`]: runs programs under a
/// [`SupervisorConfig`] policy, optionally with a deterministic
/// [`FaultPlan`] injecting faults into specialized phases.
///
/// ```
/// use xloops_asm::assemble;
/// use xloops_sim::{ExecMode, FaultPlan, Supervisor, SupervisorConfig, System, SystemConfig};
///
/// let p = assemble("
///     li r2, 0
///     li r3, 32
/// body:
///     sll r5, r2, 2
///     sw r2, 0x1000(r5)
///     addiu r2, r2, 1
///     xloop.uc body, r2, r3
///     exit")?;
/// let mut sys = System::new(SystemConfig::io_x());
/// // Every specialized phase faults; the supervisor rewinds, retries, and
/// // finally degrades the loop to the GPP — the program still completes.
/// let stats = Supervisor::new(&mut sys, SupervisorConfig::protected())
///     .with_plan(FaultPlan::persistent_spurious(10))
///     .run(&p, ExecMode::Specialized)?;
/// assert_eq!(stats.supervisor.degraded, 1);
/// assert_eq!(sys.load_word(0x1000 + 4 * 7), 7);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct Supervisor<'a> {
    sys: &'a mut System,
    cfg: SupervisorConfig,
    plan: FaultPlan,
}

impl<'a> Supervisor<'a> {
    /// Wraps `sys` with the given policy.
    pub fn new(sys: &'a mut System, cfg: SupervisorConfig) -> Supervisor<'a> {
        Supervisor { sys, cfg, plan: FaultPlan::none() }
    }

    /// Attaches a deterministic fault plan; each specialized phase (in
    /// handoff order) gets its scheduled faults.
    pub fn with_plan(mut self, plan: FaultPlan) -> Supervisor<'a> {
        self.plan = plan;
        self
    }

    /// Executes `program` under supervision. Same contract as
    /// [`System::run`], plus recovery: with supervision enabled,
    /// recoverable LPSU-phase errors are retried from the last checkpoint
    /// and persistent offenders are degraded to the GPP instead of failing
    /// the run.
    pub fn run(&mut self, program: &Program, mode: ExecMode) -> Result<SystemStats, SimError> {
        let plan = if self.plan.is_empty() { None } else { Some(&self.plan) };
        run_supervised(self.sys, program, mode, &self.cfg, plan)
    }
}

/// Maps a GPP step-limit abort (the budget enforcement mechanism inside
/// [`xloops_gpp::GppCore::run`]) back to the supervisor's cycle budget.
fn budgeted(e: SimError, budget: Option<u64>, cycles: u64) -> SimError {
    match (e, budget) {
        (SimError::Exec(xloops_func::ExecError::StepLimit(_)), Some(b)) => {
            SimError::CycleBudget { budget: b, cycles: cycles.max(b) }
        }
        (e, _) => e,
    }
}

/// The one canonical run loop shared by [`System::run`] (supervision off)
/// and [`Supervisor::run`] (supervision on, optionally with faults).
pub(crate) fn run_supervised(
    sys: &mut System,
    program: &Program,
    mode: ExecMode,
    cfg: &SupervisorConfig,
    plan: Option<&FaultPlan>,
) -> Result<SystemStats, SimError> {
    if mode != ExecMode::Traditional && sys.lpsu.is_none() {
        return Err(SimError::NoLpsu);
    }
    let base_cycles = sys.gpp.drain();
    let mut stats = SystemStats::default();
    let mut sup = SupervisorStats::default();

    // Width ≤ 8, so `cycles >= steps / 8`: a StepLimit stop implies the
    // cycle budget is spent, and the explicit check at each xloop boundary
    // catches overruns between stops.
    let max_steps = cfg.cycle_budget.map_or(u64::MAX, |b| b.saturating_mul(8).max(8));
    let over_budget = |spent: u64| cfg.cycle_budget.is_some_and(|b| spent >= b);

    if mode == ExecMode::Traditional {
        let mut opts = RunOpts::traditional();
        opts.max_steps = max_steps;
        let t0 = sys.profiling.then(std::time::Instant::now);
        sys.gpp.run(program, &mut sys.mem, &opts).map_err(|e| {
            let spent = sys.gpp.last_dispatch_cycle().saturating_sub(base_cycles);
            budgeted(e.into(), cfg.cycle_budget, spent)
        })?;
        if let Some(t) = t0 {
            let p = stats.profile.get_or_insert_with(Default::default);
            p.gpp_ns += t.elapsed().as_nanos() as u64;
        }
    } else {
        let mut checkpoint: Option<SystemSnapshot> = None;
        let mut last_ckpt = 0u64;
        let mut handoff = 0u64;
        let mut retries: FxHashMap<u32, u32> = FxHashMap::default();
        let mut degraded_pcs: FxHashSet<u32> = FxHashSet::default();

        loop {
            let mut opts = RunOpts::specialized();
            opts.max_steps = max_steps;
            opts.ignore_pcs = sys.fallback_pcs.clone();
            opts.ignore_pcs.extend(degraded_pcs.iter().copied());
            if mode == ExecMode::Adaptive {
                opts.ignore_pcs.extend(sys.apt.traditional_pcs());
            }
            let t0 = sys.profiling.then(std::time::Instant::now);
            let stop = sys.gpp.run(program, &mut sys.mem, &opts).map_err(|e| {
                let spent = sys.gpp.last_dispatch_cycle().saturating_sub(base_cycles);
                budgeted(e.into(), cfg.cycle_budget, spent)
            })?;
            if let Some(t) = t0 {
                let p = stats.profile.get_or_insert_with(Default::default);
                p.gpp_ns += t.elapsed().as_nanos() as u64;
            }
            let pc = match stop {
                StopReason::Exited => break,
                StopReason::XloopTaken { pc } => pc,
                StopReason::WatchDone { .. } => {
                    return Err(SimError::Protocol("watch stop from the outer run loop"));
                }
            };

            let now = sys.gpp.last_dispatch_cycle();
            if over_budget(now.saturating_sub(base_cycles)) {
                return Err(SimError::CycleBudget {
                    budget: cfg.cycle_budget.unwrap_or(0),
                    cycles: now - base_cycles,
                });
            }
            if cfg.enabled && (checkpoint.is_none() || now - last_ckpt >= cfg.checkpoint_interval) {
                checkpoint = Some(sys.snapshot());
                last_ckpt = now;
                sup.checkpoints += 1;
            }

            let result = if mode == ExecMode::Adaptive && sys.apt.decision(pc).is_none() {
                sys.adaptive_profile(program, pc, &mut stats, plan, &mut handoff)
            } else {
                let mut inj = plan.and_then(|p| p.injector_for(handoff));
                handoff += 1;
                sys.specialize(program, pc, None, &mut stats, inj.as_mut()).map(|_| false)
            };
            match result {
                Ok(true) => break, // program exited during profiling
                Ok(false) => {}
                Err(e) if cfg.enabled && e.is_lpsu_recoverable() && checkpoint.is_some() => {
                    if matches!(e, SimError::Injected { .. }) {
                        sup.injected_faults += 1;
                    }
                    let fault_pc = e.lpsu_pc().unwrap_or(pc);
                    // Rewind. Stats are deliberately *not* rolled back: the
                    // cycles and instructions spent on the failed attempt
                    // and its replay are real work the machine performed.
                    sys.restore(checkpoint.as_ref().expect("guard checked"));
                    sup.rewinds += 1;
                    let r = retries.entry(fault_pc).or_insert(0);
                    if *r < cfg.max_retries {
                        *r += 1;
                        sup.retries += 1;
                    } else {
                        degraded_pcs.insert(fault_pc);
                        sup.degraded += 1;
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }

    let gpp_stats = sys.gpp.stats();
    stats.cycles = gpp_stats.cycles - base_cycles;
    if over_budget(stats.cycles) {
        return Err(SimError::CycleBudget {
            budget: cfg.cycle_budget.unwrap_or(0),
            cycles: stats.cycles,
        });
    }
    stats.gpp = gpp_stats;
    stats.supervisor = sup;
    stats.finalize(&sys.config.energy, matches!(sys.config.gpp.kind, GppKind::OutOfOrder { .. }));
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use xloops_asm::assemble;
    use xloops_lpsu::FaultKind;

    fn store_loop(n: u32) -> Program {
        assemble(&format!(
            "
            li r2, 0
            li r3, {n}
        body:
            sll r5, r2, 2
            sw r2, 0x1000(r5)
            addiu r2, r2, 1
            xloop.uc body, r2, r3
            exit"
        ))
        .unwrap()
    }

    fn check_store_loop(sys: &System, n: u32) {
        for i in 0..n {
            assert_eq!(sys.load_word(0x1000 + 4 * i), i, "mem[{i}]");
        }
    }

    #[test]
    fn supervised_run_without_faults_matches_unsupervised() {
        let p = store_loop(64);
        let mut plain = System::new(SystemConfig::io_x());
        let a = plain.run(&p, ExecMode::Specialized).unwrap();
        let mut sup = System::new(SystemConfig::io_x());
        let b = Supervisor::new(&mut sup, SupervisorConfig::protected())
            .run(&p, ExecMode::Specialized)
            .unwrap();
        check_store_loop(&sup, 64);
        assert_eq!(a.cycles, b.cycles, "supervision must not perturb timing");
        assert_eq!(a.energy_nj, b.energy_nj);
        assert_eq!(b.supervisor.checkpoints, 1, "one checkpoint at the first xloop");
        assert_eq!(b.supervisor.rewinds, 0);
        // The checkpoint is the only supervisor activity, so the stat tree
        // of the unsupervised run has no supervisor child while the
        // supervised one does.
        assert!(a.stat_set(false).lookup("supervisor.rewinds").is_none());
        assert!(b.stat_set(false).lookup("supervisor.rewinds").is_some());
    }

    #[test]
    fn transient_fault_is_retried_and_recovers() {
        let p = store_loop(64);
        let mut sys = System::new(SystemConfig::io_x());
        let plan = FaultPlan::once(FaultKind::Spurious { at_cycle: 5 });
        let stats = Supervisor::new(&mut sys, SupervisorConfig::protected())
            .with_plan(plan)
            .run(&p, ExecMode::Specialized)
            .unwrap();
        check_store_loop(&sys, 64);
        assert_eq!(stats.supervisor.injected_faults, 1);
        assert_eq!(stats.supervisor.rewinds, 1);
        assert_eq!(stats.supervisor.retries, 1);
        assert_eq!(stats.supervisor.degraded, 0);
        assert_eq!(stats.xloops_specialized, 1, "the retry succeeded on the LPSU");
    }

    #[test]
    fn persistent_fault_degrades_loop_to_gpp() {
        let p = store_loop(64);
        let mut sys = System::new(SystemConfig::io_x());
        let stats = Supervisor::new(&mut sys, SupervisorConfig::protected())
            .with_plan(FaultPlan::persistent_spurious(5))
            .run(&p, ExecMode::Specialized)
            .unwrap();
        check_store_loop(&sys, 64);
        assert_eq!(stats.supervisor.rewinds, 3, "two retries + the degrading rewind");
        assert_eq!(stats.supervisor.retries, 2);
        assert_eq!(stats.supervisor.degraded, 1);
        assert_eq!(stats.xloops_specialized, 0, "every LPSU attempt faulted");
    }

    #[test]
    fn unsupervised_run_propagates_injected_faults() {
        let p = store_loop(64);
        let mut sys = System::new(SystemConfig::io_x());
        let err = Supervisor::new(&mut sys, SupervisorConfig::off())
            .with_plan(FaultPlan::once(FaultKind::Spurious { at_cycle: 5 }))
            .run(&p, ExecMode::Specialized)
            .unwrap_err();
        assert!(matches!(err, SimError::Injected { .. }), "got {err:?}");
        assert_eq!(err.exit_code(), 4);
    }

    #[test]
    fn cycle_budget_fails_long_runs_with_a_distinct_error() {
        let p = store_loop(256);
        let mut tight = SupervisorConfig::protected();
        tight.cycle_budget = Some(10);
        let mut sys = System::new(SystemConfig::io_x());
        let err = Supervisor::new(&mut sys, tight).run(&p, ExecMode::Specialized).unwrap_err();
        assert!(matches!(err, SimError::CycleBudget { budget: 10, .. }), "got {err:?}");
        assert_eq!(err.exit_code(), 5);

        // Traditional runs respect the budget too.
        let mut tight = SupervisorConfig::protected();
        tight.cycle_budget = Some(10);
        let mut sys = System::new(SystemConfig::io());
        let err = Supervisor::new(&mut sys, tight).run(&p, ExecMode::Traditional).unwrap_err();
        assert!(matches!(err, SimError::CycleBudget { budget: 10, .. }), "got {err:?}");

        // A generous budget does not perturb the run.
        let mut roomy = SupervisorConfig::protected();
        roomy.cycle_budget = Some(u64::MAX / 16);
        let mut sys = System::new(SystemConfig::io_x());
        let stats = Supervisor::new(&mut sys, roomy).run(&p, ExecMode::Specialized).unwrap();
        check_store_loop(&sys, 256);
        assert_eq!(stats.xloops_specialized, 1);
    }

    #[test]
    fn degradation_survives_memport_refusal_storms() {
        // A refusal window long past the engine's ability to make progress
        // wedges the LPSU; the supervisor must still complete the program.
        let p = store_loop(64);
        let mut sys = System::new(SystemConfig::io_x());
        let plan = FaultPlan::once(FaultKind::MemRefusal { at_cycle: 2, cycles: u64::MAX / 2 });
        let stats = Supervisor::new(&mut sys, SupervisorConfig::protected())
            .with_plan(plan)
            .run(&p, ExecMode::Specialized)
            .unwrap();
        check_store_loop(&sys, 64);
        assert!(stats.supervisor.rewinds >= 1);
    }

    #[test]
    fn from_env_parses_overrides() {
        // Fed explicit variables, so the ambient environment cannot leak in.
        let cfg = SupervisorConfig::from_vars(|_| None);
        assert_eq!(cfg, SupervisorConfig::protected());
        let cfg = SupervisorConfig::from_vars(|name| match name {
            "XLOOPS_CHECKPOINT_INTERVAL" => Some("0".into()),
            "XLOOPS_CYCLE_BUDGET" => Some(" 5000 ".into()),
            _ => None,
        });
        assert_eq!(cfg.checkpoint_interval, 1, "an interval is at least one cycle");
        assert_eq!(cfg.cycle_budget, Some(5000));
        assert_eq!(cfg.max_retries, SupervisorConfig::protected().max_retries);
    }
}
