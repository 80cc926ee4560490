//! The `scaled` workload: long single-thread points on `sgemm-uc-scaled`
//! and the seeded generated loops, each checked against `FastForward`.

use std::time::Instant;

use xloops_func::{ArchState, FastForward};
use xloops_mem::Memory;
use xloops_sim::{ExecMode, SampleSpec, System, SystemConfig, SystemStats};

use crate::trace::Tracer;
use crate::{Init, Inputs, ScaledInput, Tally, Values};

/// The interval-sampling spec `bench-summary` uses.
pub const SAMPLE: SampleSpec = SampleSpec { ff: 10_000, warm: 2_000, measure: 10_000 };

/// Instruction budget of the `FastForward` reference run.
const MAX_STEPS: u64 = 2_000_000_000;

/// The detailed runs of every input: (gpp span, config, mode).
fn detailed_runs() -> [(&'static str, SystemConfig, ExecMode); 5] {
    [
        ("gpp.io", SystemConfig::io(), ExecMode::Traditional),
        ("gpp.ooo4", SystemConfig::ooo4(), ExecMode::Traditional),
        ("gpp.io", SystemConfig::io_x(), ExecMode::Specialized),
        ("gpp.ooo4", SystemConfig::ooo4_x(), ExecMode::Specialized),
        ("gpp.ooo4", SystemConfig::ooo4_x(), ExecMode::Adaptive),
    ]
}

fn mode_span(mode: ExecMode) -> &'static str {
    match mode {
        ExecMode::Traditional => "sim.traditional",
        ExecMode::Specialized => "sim.specialized",
        ExecMode::Adaptive => "sim.adaptive",
    }
}

fn init(input: &ScaledInput, mem: &mut Memory, tr: &Tracer) {
    match &input.init {
        Init::Kernel(k) => tr.span("kernels.init_memory", || k.init_memory(mem)),
        Init::Segments(segs) => tr.span("mem.write_words", || {
            for (addr, words) in segs {
                mem.write_words(*addr, words);
            }
        }),
    }
}

/// Checks a detailed or sampled run's memory against the reference, and
/// the kernel's golden check where there is one.
fn check(
    input: &ScaledInput,
    what: &str,
    mem: &Memory,
    reference: &Memory,
    tr: &Tracer,
    tally: &mut Tally,
) {
    let diff = tr.span("mem.first_difference", || mem.first_difference(reference));
    tally.check(diff.is_none(), || {
        format!(
            "scaled: {} {what}: memory differs from FastForward at {:#x}",
            input.name,
            diff.unwrap_or(0)
        )
    });
    for &addr in &input.live_outs {
        let (got, want) = (mem.read_u32(addr), reference.read_u32(addr));
        tally.check(got == want, || {
            format!(
                "scaled: {} {what}: live-out {addr:#x} = {got:#x}, FastForward {want:#x}",
                input.name
            )
        });
    }
    if let Init::Kernel(k) = &input.init {
        let verified = tr.span("kernels.verify", || k.verify(mem));
        tally.check(verified.is_ok(), || {
            format!("scaled: {} {what}: {}", input.name, verified.clone().unwrap_err())
        });
    }
}

fn count_stats(vals: &mut Values, gpp: &str, s: &SystemStats) {
    vals.count(&format!("scaled.{gpp}.instret"), s.gpp.instret);
    vals.count("scaled.gpp.instret", s.gpp.instret);
    vals.count("scaled.gpp.cycles", s.gpp.cycles);
    vals.count("scaled.gpp.mispredicts", s.gpp.mispredicts);
    let l = &s.lpsu;
    vals.count("scaled.lpsu.instret", l.instret);
    vals.count("scaled.lpsu.iterations", l.iterations);
    vals.count("scaled.lpsu.lane_cycles", l.lane_cycles());
    vals.count("scaled.lpsu.exec", l.exec);
    vals.count("scaled.lpsu.squash", l.squash);
    vals.count("scaled.lpsu.idle", l.idle);
    vals.count("scaled.lpsu.squashed_iters", l.squashed_iters);
    vals.count("scaled.lpsu.cir_transfers", l.cir_transfers);
    vals.count("scaled.lpsu.stalls.raw", l.stall_raw);
    vals.count("scaled.lpsu.stalls.mem_port", l.stall_mem_port);
    vals.count("scaled.lpsu.stalls.llfu", l.stall_llfu);
    vals.count("scaled.lpsu.stalls.cir", l.stall_cir);
    vals.count("scaled.lpsu.stalls.lsq", l.stall_lsq);
    vals.count("scaled.mem.dcache.accesses", s.gpp.cache.accesses());
    vals.count("scaled.mem.dcache.misses", s.gpp.cache.misses());
    vals.count("scaled.sim.adaptive_to_lpsu", s.adaptive_to_lpsu);
    vals.count("scaled.sim.adaptive_to_gpp", s.adaptive_to_gpp);
    vals.count("scaled.sim.xloops_fallback", s.xloops_fallback);
    vals.count("scaled.sim.instret", s.instret);
    vals.count("scaled.sim.cycles", s.cycles);
}

/// One pass: every input's `FastForward` reference, five detailed runs
/// and one sampled run, all checked. Rates go into `vals` as
/// `scaled.{sim,ff,sampled}_mips` and the worst sampling error as
/// `scaled.sampled_err_max`.
pub fn pass(inputs: &Inputs, tr: &Tracer, vals: &mut Values, tally: &mut Tally) {
    let (mut sim_s, mut sim_instrs) = (0.0, 0u64);
    let (mut ff_s, mut ff_instrs) = (0.0, 0u64);
    let (mut sampled_s, mut sampled_instrs) = (0.0, 0u64);
    let mut err_max: f64 = 0.0;

    for input in &inputs.scaled {
        let ff = tr.span("func.ff_decode", || FastForward::new(&input.program));
        let mut reference = Memory::new();
        init(input, &mut reference, tr);
        let mut state = ArchState::new();
        let t = Instant::now();
        let run = tr.span("func.ff_run", || ff.run(&mut state, &mut reference, MAX_STEPS));
        ff_s += t.elapsed().as_secs_f64();
        let retired = match run {
            Ok(r) if r.exited => r.retired,
            other => {
                tally.check(false, || {
                    format!("scaled: {}: FastForward did not exit: {other:?}", input.name)
                });
                continue;
            }
        };
        ff_instrs += retired;
        vals.count("scaled.func.ff_instrs", retired);
        if let Init::Kernel(k) = &input.init {
            let verified = tr.span("kernels.verify", || k.verify(&reference));
            tally.check(verified.is_ok(), || {
                format!("scaled: {} FastForward: {}", input.name, verified.clone().unwrap_err())
            });
        }

        let mut full_cycles = None;
        for (gpp, config, mode) in detailed_runs() {
            let what = format!("{} {mode:?}", config.name());
            let mut sys = tr.span("sim.system_new", || System::new(config));
            sys.set_profiling(tr.is_on());
            init(input, sys.mem_mut(), tr);
            let t = Instant::now();
            let program = if mode == ExecMode::Adaptive { &input.adaptive } else { &input.program };
            let (run, at) = tr.span_at(mode_span(mode), || sys.run(program, mode));
            let host_s = t.elapsed().as_secs_f64();
            let mut stats = match run {
                Ok(s) => s,
                Err(e) => {
                    tally.check(false, || format!("scaled: {} {what}: {e}", input.name));
                    continue;
                }
            };
            if let Some(p) = stats.profile.take() {
                tr.phases(
                    at,
                    &[(gpp, p.gpp_ns), ("lpsu.scan", p.scan_ns), ("lpsu.engine", p.engine_ns)],
                );
                vals.count("scaled.sim.handoffs", p.handoffs);
            }
            check(input, &what, sys.mem(), &reference, tr, tally);
            sim_s += host_s;
            sim_instrs += stats.instret;
            count_stats(vals, gpp, &stats);
            if mode == ExecMode::Specialized && gpp == "gpp.io" {
                full_cycles = Some(stats.cycles);
            }
        }

        let mut sys = tr.span("sim.system_new", || System::new(SystemConfig::io_x()));
        init(input, sys.mem_mut(), tr);
        let t = Instant::now();
        let run = tr
            .span("sim.sampled", || sys.run_sampled(&input.program, ExecMode::Specialized, SAMPLE));
        let host_s = t.elapsed().as_secs_f64();
        match run {
            Ok(stats) => {
                check(input, "sampled io+x", sys.mem(), &reference, tr, tally);
                sampled_s += host_s;
                sampled_instrs += retired;
                if let Some(full) = full_cycles {
                    let err = (stats.cycles as f64 - full as f64).abs() / full.max(1) as f64;
                    err_max = err_max.max(err);
                }
            }
            Err(e) => tally.check(false, || format!("scaled: {} sampled io+x: {e}", input.name)),
        }
    }

    let mips = |instrs: u64, s: f64| if s > 0.0 { instrs as f64 / s / 1e6 } else { 0.0 };
    vals.set("scaled.sim_mips", mips(sim_instrs, sim_s));
    vals.set("scaled.ff_mips", mips(ff_instrs, ff_s));
    vals.set("scaled.sampled_mips", mips(sampled_instrs, sampled_s));
    vals.set("scaled.sampled_err_max", err_max);
}
