use xloops_mem::FxHashSet;

use xloops_asm::Program;
use xloops_func::ArchState;
use xloops_gpp::{GppCore, GppKind, RunOpts, StopReason, Watch};
use xloops_lpsu::{scan, FaultInjector, FaultPlan, Lpsu, ScanResult, Stepper};
use xloops_mem::Memory;

use crate::adaptive::{Apt, Decision};
use crate::config::{ExecMode, SystemConfig};
use crate::error::SimError;
use crate::stats::SystemStats;
use crate::supervisor::{run_supervised, SupervisorConfig};

/// A complete simulated system: GPP, optional LPSU, and memory.
///
/// Create one system per run; state (caches, predictors, the APT, memory)
/// persists across [`System::run`] calls, which models repeated kernel
/// invocations on warm hardware.
///
/// ```
/// use xloops_asm::assemble;
/// use xloops_sim::{ExecMode, System, SystemConfig};
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
/// let stats = sys.run(&p, ExecMode::Specialized)?;
/// assert_eq!(sys.load_word(0x1000 + 4 * 7), 7);
/// assert_eq!(stats.xloops_specialized, 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
/// Architectural state captured by [`System::snapshot`]: the shared
/// [`ArchState`] (register file + pc) plus memory.
#[derive(Clone, Debug)]
pub struct SystemSnapshot {
    arch: ArchState,
    mem: Memory,
}

#[derive(Clone, Debug)]
pub struct System {
    pub(crate) config: SystemConfig,
    pub(crate) gpp: GppCore,
    pub(crate) lpsu: Option<Lpsu>,
    pub(crate) mem: Memory,
    pub(crate) apt: Apt,
    pub(crate) fallback_pcs: FxHashSet<u32>,
    pub(crate) profiling: bool,
}

impl System {
    /// Builds a system in the reset state.
    pub fn new(config: SystemConfig) -> System {
        System {
            config,
            gpp: GppCore::new(config.gpp),
            lpsu: config.lpsu.map(Lpsu::new),
            mem: Memory::new(),
            apt: Apt::new(),
            fallback_pcs: FxHashSet::default(),
            profiling: false,
        }
    }

    /// Enables host wall-time profiling: subsequent runs attach a
    /// [`crate::ProfileStats`] breakdown (`profile.*`) to their stats.
    /// Simulated timing is unaffected; only the stat tree grows a
    /// (non-deterministic) child, so this stays off for golden artifacts.
    pub fn set_profiling(&mut self, on: bool) {
        self.profiling = on;
    }

    /// The system configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// Architectural memory (for dataset initialization).
    pub fn mem_mut(&mut self) -> &mut Memory {
        &mut self.mem
    }

    /// Architectural memory (for result verification).
    pub fn mem(&self) -> &Memory {
        &self.mem
    }

    /// Writes one word of architectural memory.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not 4-byte aligned.
    pub fn store_word(&mut self, addr: u32, value: u32) {
        self.mem.write_u32(addr, value);
    }

    /// Reads one word of architectural memory.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not 4-byte aligned.
    pub fn load_word(&self, addr: u32) -> u32 {
        self.mem.read_u32(addr)
    }

    /// The architectural register file (for differential testing).
    pub fn reg_file(&self) -> [u32; 32] {
        self.gpp.reg_file()
    }

    /// Captures the architectural state of the system: register file, pc,
    /// and memory. Microarchitectural state (caches, predictors, the APT)
    /// is deliberately excluded — restoring rewinds *what* the machine
    /// computed, not what the hardware has learned, so a restored run
    /// models re-execution on warm hardware.
    pub fn snapshot(&self) -> SystemSnapshot {
        SystemSnapshot { arch: self.gpp.arch_state().clone(), mem: self.mem.clone() }
    }

    /// Restores architectural state captured by [`System::snapshot`].
    pub fn restore(&mut self, snapshot: &SystemSnapshot) {
        self.gpp.set_arch_state(snapshot.arch.clone());
        self.mem = snapshot.mem.clone();
    }

    /// Executes `program` from pc 0 to `exit` in the given mode.
    ///
    /// Equivalent to a [`crate::Supervisor`] run with supervision disabled
    /// and no fault plan — there is exactly one run loop in the crate, so
    /// supervised and unsupervised runs cannot drift apart.
    ///
    /// # Errors
    ///
    /// [`SimError::NoLpsu`] if specialized/adaptive execution is requested
    /// without an LPSU; [`SimError::Exec`] on functional faults; the
    /// LPSU-phase [`SimError`] variants if a specialized phase fails.
    pub fn run(&mut self, program: &Program, mode: ExecMode) -> Result<SystemStats, SimError> {
        run_supervised(self, program, mode, &SupervisorConfig::off(), None)
    }

    /// Timing of the scan phase: in-order GPPs scan after draining; the
    /// out-of-order GPPs overlap the scan with retiring older work
    /// (Section II-D).
    fn scan_timing(&mut self, s: &ScanResult) -> u64 {
        let overlap = matches!(self.config.gpp.kind, GppKind::OutOfOrder { .. });
        let dispatch = self.gpp.last_dispatch_cycle();
        let drained = self.gpp.drain();
        if overlap {
            drained.max(dispatch + s.scan_cycles)
        } else {
            drained + s.scan_cycles
        }
    }

    /// Scans and runs the xloop at `pc` on the LPSU. Returns the
    /// (iterations, cycles) of the specialized phase, or `None` if the
    /// scan rejected the loop (traditional fallback). `inj` threads an
    /// optional fault injector into the engine (supervised runs only).
    pub(crate) fn specialize(
        &mut self,
        program: &Program,
        pc: u32,
        max_iters: Option<u64>,
        stats: &mut SystemStats,
        inj: Option<&mut FaultInjector>,
    ) -> Result<Option<(u64, u64)>, SimError> {
        let Some(lpsu) = self.lpsu.clone() else {
            return Err(SimError::NoLpsu);
        };
        let t0 = self.profiling.then(std::time::Instant::now);
        if let Some(p) = t0.map(|_| stats.profile.get_or_insert_with(Default::default)) {
            p.handoffs += 1;
        }
        let s = match scan(program, pc, self.gpp.reg_file(), lpsu.config()) {
            Ok(s) => s,
            Err(_) => {
                self.fallback_pcs.insert(pc);
                stats.xloops_fallback += 1;
                return Ok(None);
            }
        };
        if let Some(t) = t0 {
            let p = stats.profile.get_or_insert_with(Default::default);
            p.scan_ns += t.elapsed().as_nanos() as u64;
        }
        let scan_end = self.scan_timing(&s);
        let t0 = self.profiling.then(std::time::Instant::now);
        let res = lpsu
            .execute_with(
                Stepper::default_for_build(),
                &s,
                &mut self.mem,
                self.gpp.dcache_mut(),
                max_iters,
                inj,
            )
            .map_err(|e| SimError::from_lpsu(e, pc))?;
        if let Some(t) = t0 {
            let p = stats.profile.get_or_insert_with(Default::default);
            p.engine_ns += t.elapsed().as_nanos() as u64;
        }
        self.gpp.stall_until(scan_end + res.cycles);

        // Architectural handback: induction and bound registers take their
        // serial-equivalent values; CIRs are the defined live-outs; `xi`
        // (MIVT) registers advance by `inc` per committed iteration, so a
        // GPP resuming mid-instance (adaptive profiling) addresses through
        // the right pointers; all other loop-written registers are
        // undefined by the ISA (we leave the live-in values in place, a
        // valid choice).
        self.gpp.set_reg(s.idx_reg, res.final_idx);
        self.gpp.set_reg(s.bound_reg, res.final_bound);
        for &(r, v) in &res.cir_finals {
            self.gpp.set_reg(r, v);
        }
        for m in &s.mivt {
            let live_in = s.live_ins[m.reg.index()];
            self.gpp.set_reg(
                m.reg,
                live_in.wrapping_add((m.inc as i64 * res.iterations as i64) as u32),
            );
        }
        if (res.final_idx as i32) < (res.final_bound as i32) {
            // Profiling cap left iterations: resume at the body start.
            self.gpp.set_pc(s.body_pc);
        } else {
            self.gpp.set_pc(s.xloop_pc + 4);
        }

        stats.lpsu.merge(&res.stats);
        stats.lpsu_cycles += (scan_end + res.cycles) - self.gpp_cycles_before(scan_end, &s);
        stats.scans += 1;
        stats.scan_instrs += s.body.len() as u64;
        stats.xloops_specialized += 1;
        Ok(Some((res.iterations, res.cycles)))
    }

    fn gpp_cycles_before(&self, scan_end: u64, s: &ScanResult) -> u64 {
        // The specialized phase spans [scan_end - scan_cycles, scan_end +
        // lpsu cycles]; report scan + execute as LPSU time.
        scan_end - s.scan_cycles
    }

    /// The two profiling phases of adaptive execution. Returns `true` if
    /// the program exited while profiling. `plan`/`handoff` thread the
    /// supervisor's fault plan into the profiling LPSU phase (it is a
    /// handoff like any other).
    pub(crate) fn adaptive_profile(
        &mut self,
        program: &Program,
        pc: u32,
        stats: &mut SystemStats,
        plan: Option<&FaultPlan>,
        handoff: &mut u64,
    ) -> Result<bool, SimError> {
        loop {
            // GPP profiling phase: run until either remaining budget
            // (iterations or cycles) is spent, at iteration granularity.
            let cycles_left =
                self.apt.cycle_threshold.saturating_sub(self.apt.entry(pc).gpp_cycles).max(1);
            let start = self.gpp.drain();
            let mut opts = RunOpts::traditional();
            opts.watch =
                Some(Watch { pc, max_iters: self.apt.gpp_quota(pc), max_cycles: cycles_left });
            let stop = self.gpp.run(program, &mut self.mem, &opts)?;
            let cycles = self.gpp.drain() - start;
            match stop {
                StopReason::Exited => return Ok(true),
                StopReason::XloopTaken { .. } => {
                    return Err(SimError::Protocol("watch run stopped at an xloop"))
                }
                StopReason::WatchDone { iters, loop_exited } => {
                    let crossed = self.apt.record_gpp(pc, iters, cycles);
                    if loop_exited {
                        // Decision deferred to the next dynamic instance
                        // (the APT stretches profiling across instances).
                        return Ok(false);
                    }
                    if !crossed {
                        continue;
                    }
                    // LPSU profiling phase: at least as many iterations as
                    // the GPP profile, and enough waves to amortize the
                    // lane ramp-up so per-iteration costs compare fairly.
                    let lanes = self.config.lpsu.map(|l| l.lanes as u64).unwrap_or(4);
                    let quota = self.apt.entry(pc).gpp_iters.max(4 * lanes);
                    let mut inj = plan.and_then(|p| p.injector_for(*handoff));
                    *handoff += 1;
                    match self.specialize(program, pc, Some(quota), stats, inj.as_mut())? {
                        None => {
                            // Scan rejected the loop: it stays traditional.
                            self.apt.entry(pc).decision = Some(Decision::Traditional);
                            return Ok(false);
                        }
                        Some((li, lc)) => {
                            match self.apt.decide(pc, li, lc) {
                                Decision::Specialized => stats.adaptive_to_lpsu += 1,
                                Decision::Traditional => stats.adaptive_to_gpp += 1,
                            }
                            return Ok(false);
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xloops_asm::assemble;
    use xloops_isa::Reg;

    fn saxpy_src(n: u32) -> String {
        format!(
            "
            li r4, 0x10000      # x
            li r5, 0x20000      # y
            li r10, 3           # a
            li r2, 0
            li r3, {n}
        body:
            sll r6, r2, 2
            addu r7, r4, r6
            lw r8, 0(r7)
            mul r8, r8, r10
            addu r7, r5, r6
            lw r9, 0(r7)
            addu r8, r8, r9
            sw r8, 0(r7)
            addiu r2, r2, 1
            xloop.uc body, r2, r3
            exit"
        )
    }

    fn init_saxpy(sys: &mut System, n: u32) {
        for i in 0..n {
            sys.store_word(0x10000 + 4 * i, i);
            sys.store_word(0x20000 + 4 * i, 1000 + i);
        }
    }

    fn check_saxpy(sys: &System, n: u32) {
        for i in 0..n {
            assert_eq!(sys.load_word(0x20000 + 4 * i), 3 * i + 1000 + i, "y[{i}]");
        }
    }

    #[test]
    fn traditional_and_specialized_agree_and_specialized_wins_on_io() {
        let p = assemble(&saxpy_src(128)).unwrap();

        let mut trad = System::new(SystemConfig::io());
        init_saxpy(&mut trad, 128);
        let t = trad.run(&p, ExecMode::Traditional).unwrap();
        check_saxpy(&trad, 128);

        let mut spec = System::new(SystemConfig::io_x());
        init_saxpy(&mut spec, 128);
        let s = spec.run(&p, ExecMode::Specialized).unwrap();
        check_saxpy(&spec, 128);

        assert_eq!(s.xloops_specialized, 1);
        assert!(
            (s.cycles as f64) < 0.6 * t.cycles as f64,
            "specialized {} should clearly beat traditional {}",
            s.cycles,
            t.cycles
        );
    }

    #[test]
    fn specialized_without_lpsu_is_an_error() {
        let p = assemble(&saxpy_src(8)).unwrap();
        let mut sys = System::new(SystemConfig::io());
        assert_eq!(sys.run(&p, ExecMode::Specialized), Err(SimError::NoLpsu));
    }

    #[test]
    fn oversized_body_falls_back_to_traditional() {
        let mut src = String::from("li r2, 0\nli r3, 4\nbody:\n");
        for _ in 0..150 {
            src.push_str("nop\n");
        }
        src.push_str("addiu r2, r2, 1\nxloop.uc body, r2, r3\nsw r2, 0x100(r0)\nexit");
        let p = assemble(&src).unwrap();
        let mut sys = System::new(SystemConfig::io_x());
        let stats = sys.run(&p, ExecMode::Specialized).unwrap();
        assert_eq!(stats.xloops_fallback, 1);
        assert_eq!(stats.xloops_specialized, 0);
        assert_eq!(sys.load_word(0x100), 4, "loop still ran (traditionally)");
    }

    #[test]
    fn adaptive_prefers_lpsu_for_parallel_loops() {
        let p = assemble(&saxpy_src(2048)).unwrap();
        let mut sys = System::new(SystemConfig::io_x());
        init_saxpy(&mut sys, 2048);
        let stats = sys.run(&p, ExecMode::Adaptive).unwrap();
        check_saxpy(&sys, 2048);
        assert_eq!(stats.adaptive_to_lpsu, 1);
        assert_eq!(stats.adaptive_to_gpp, 0);
    }

    #[test]
    fn adaptive_prefers_gpp_for_serial_loops_on_ooo4() {
        // A long CIR critical path with ILP inside the iteration: the
        // four-way out-of-order core beats four in-order lanes.
        let src = "
            li r4, 0x10000
            li r2, 0
            li r3, 4096
            li r9, 1
        body:
            sll r6, r2, 2
            addu r7, r4, r6
            lw r8, 0(r7)
            addu r9, r9, r8
            xor r9, r9, r8
            sll r11, r9, 3
            srl r12, r9, 5
            addu r9, r9, r11
            xor r9, r9, r12
            addiu r2, r2, 1
            xloop.or body, r2, r3
            sw r9, 0x100(r0)
            exit";
        let p = assemble(src).unwrap();
        let mut sys = System::new(SystemConfig::ooo4_x());
        for i in 0..4096 {
            sys.store_word(0x10000 + 4 * i, i * 7 + 1);
        }
        let stats = sys.run(&p, ExecMode::Adaptive).unwrap();
        assert_eq!(stats.adaptive_to_gpp, 1, "ooo/4 should win on a serial chain");

        // The result must still equal a traditional run.
        let mut gold = System::new(SystemConfig::ooo4());
        for i in 0..4096 {
            gold.store_word(0x10000 + 4 * i, i * 7 + 1);
        }
        gold.run(&p, ExecMode::Traditional).unwrap();
        assert_eq!(sys.load_word(0x100), gold.load_word(0x100));
    }

    #[test]
    fn adaptive_reuses_cached_decisions_across_instances() {
        // An outer loop re-enters a short inner xloop many times; the APT
        // stretches profiling across instances and then caches the choice.
        let src = "
            li r20, 0          # outer i
            li r21, 40         # outer n
        outer:
            li r2, 0
            li r3, 16
        body:
            sll r6, r2, 2
            addu r7, r6, r20
            sw r7, 0x1000(r6)
            addiu r2, r2, 1
            xloop.uc body, r2, r3
            addiu r20, r20, 1
            blt r20, r21, outer
            exit";
        let p = assemble(src).unwrap();
        let mut sys = System::new(SystemConfig::io_x());
        let stats = sys.run(&p, ExecMode::Adaptive).unwrap();
        // 40 instances × 15 LPSU-eligible iterations; one decision total.
        assert!(stats.adaptive_to_lpsu + stats.adaptive_to_gpp <= 1);
        assert_eq!(sys.load_word(0x1000 + 4 * 5), 4 * 5 + 39, "last instance wrote i=39");
    }

    #[test]
    fn snapshot_restore_rewinds_architectural_state_and_replays() {
        let p = assemble(&saxpy_src(64)).unwrap();
        let mut sys = System::new(SystemConfig::io_x());
        init_saxpy(&mut sys, 64);

        let snap = sys.snapshot();
        let first = sys.run(&p, ExecMode::Specialized).unwrap();
        check_saxpy(&sys, 64);
        let after = sys.snapshot();

        // Rewind: inputs are back, outputs are gone.
        sys.restore(&snap);
        assert_eq!(sys.load_word(0x20000 + 4 * 7), 1000 + 7, "y[7] rewound to input");

        // Replay: same architectural results (timing may differ — the
        // caches stayed warm by design).
        let second = sys.run(&p, ExecMode::Specialized).unwrap();
        check_saxpy(&sys, 64);
        assert_eq!(second.xloops_specialized, first.xloops_specialized);
        assert!(second.cycles <= first.cycles, "warm caches cannot slow the replay");

        // Restoring the post-run snapshot reproduces the post-run memory.
        sys.restore(&after);
        check_saxpy(&sys, 64);
    }

    #[test]
    fn or_loop_cir_liveout_is_visible_after_the_loop() {
        let src = "
            li r4, 0x1000
            li r2, 0
            li r3, 64
            li r9, 0
        body:
            sll r6, r2, 2
            addu r7, r4, r6
            lw r8, 0(r7)
            addu r9, r9, r8
            addiu r2, r2, 1
            xloop.or body, r2, r3
            sw r9, 0x2000(r0)      # uses the CIR live-out
            sw r2, 0x2004(r0)      # uses the induction live-out
            exit";
        let p = assemble(src).unwrap();
        let mut sys = System::new(SystemConfig::io_x());
        let mut expect = 0u32;
        for i in 0..64 {
            sys.store_word(0x1000 + 4 * i, i * 3);
            expect += i * 3;
        }
        let stats = sys.run(&p, ExecMode::Specialized).unwrap();
        assert_eq!(sys.load_word(0x2000), expect);
        assert_eq!(sys.load_word(0x2004), 64);
        assert_eq!(stats.xloops_specialized, 1);
        assert!(stats.energy_nj > 0.0);
    }

    #[test]
    fn nested_war_style_loops_specialize_inner() {
        // Outer plain loop over k; inner xloop.uc: the LPSU specializes
        // each dynamic inner instance (Floyd-Warshall structure).
        let src = "
            li r20, 0
            li r21, 8          # outer n
        outer:
            li r2, 0
            li r3, 8           # inner n
        body:
            sll r6, r2, 2
            sll r7, r20, 5
            addu r7, r7, r6
            lw r8, 0x1000(r7)
            addiu r8, r8, 1
            sw r8, 0x1000(r7)
            addiu r2, r2, 1
            xloop.uc body, r2, r3
            addiu r20, r20, 1
            blt r20, r21, outer
            exit";
        let p = assemble(src).unwrap();
        let mut sys = System::new(SystemConfig::ooo2_x());
        let stats = sys.run(&p, ExecMode::Specialized).unwrap();
        assert_eq!(stats.xloops_specialized, 8, "one scan per dynamic instance");
        assert_eq!(stats.scans, 8);
        for i in 0..64 {
            assert_eq!(sys.load_word(0x1000 + 4 * i), 1);
        }
        let _ = Reg::ZERO;
    }
}
