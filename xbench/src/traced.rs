//! The traced run: one pass of every workload with spans around the calls
//! into each layer, each next to an untraced twin of the same pass.
//!
//! Per-layer times are busy seconds summed per span name within a pass
//! (self time: a span minus its children). `<pass>.bench.unattributed_s`
//! is the twin's time minus the pass's summed self times, so the layers
//! add up to the untraced pass time; `<pass>.trace.overhead_s` is the
//! traced pass time minus the twin's. The `regen` replay and its twin
//! run on one thread, so their busy seconds are wall seconds. Rates and
//! the sampling error come from the untraced twin.

use std::time::Instant;

use xloops_sim::RunOptions;

use crate::trace::{unattributed, Tracer};
use crate::{regen, scaled, store, Inputs, Tally, Values};

/// Per-layer metrics, printed by every traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("setup.kernels.registry_s", "s"),
    ("setup.bench.specs_s", "s"),
    ("setup.compiler.lower_loop_s", "s"),
    ("setup.asm.assemble_s", "s"),
    ("setup.asm.instrs", "count"),
    ("setup.bench.store.open_s", "s"),
    ("regen.kernels.init_memory_s", "s"),
    ("regen.kernels.verify_s", "s"),
    ("regen.sim.system_new_s", "s"),
    ("regen.asm.lower_gp_s", "s"),
    ("regen.sim.traditional_s", "s"),
    ("regen.sim.specialized_s", "s"),
    ("regen.sim.adaptive_s", "s"),
    ("regen.gpp.io_s", "s"),
    ("regen.gpp.ooo2_s", "s"),
    ("regen.gpp.ooo4_s", "s"),
    ("regen.lpsu.scan_s", "s"),
    ("regen.lpsu.engine_s", "s"),
    ("regen.energy.eval_s", "s"),
    ("regen.sim.stat_set_s", "s"),
    ("regen.bench.render_s", "s"),
    ("regen.bench.unattributed_s", "s"),
    ("regen.trace.untraced_pass_s", "s"),
    ("regen.trace.traced_pass_s", "s"),
    ("regen.trace.overhead_s", "s"),
    ("regen.bench.cache.lookups", "count"),
    ("regen.bench.cache.hits", "count"),
    ("regen.bench.cache.sims", "count"),
    ("regen.points", "count"),
    ("regen.gpp.io.instret", "count"),
    ("regen.gpp.ooo2.instret", "count"),
    ("regen.gpp.ooo4.instret", "count"),
    ("regen.lpsu.instret", "count"),
    ("regen.sim.cycles", "count"),
    ("regen.sim.handoffs", "count"),
    ("regen.gpp.io.ns_per_instr", "ns/instr"),
    ("regen.gpp.ooo2.ns_per_instr", "ns/instr"),
    ("regen.gpp.ooo4.ns_per_instr", "ns/instr"),
    ("regen.lpsu.ns_per_instr", "ns/instr"),
    ("scaled.func.ff_decode_s", "s"),
    ("scaled.func.ff_run_s", "s"),
    ("scaled.kernels.init_memory_s", "s"),
    ("scaled.mem.write_words_s", "s"),
    ("scaled.kernels.verify_s", "s"),
    ("scaled.mem.first_difference_s", "s"),
    ("scaled.sim.system_new_s", "s"),
    ("scaled.sim.traditional_s", "s"),
    ("scaled.sim.specialized_s", "s"),
    ("scaled.sim.adaptive_s", "s"),
    ("scaled.sim.sampled_s", "s"),
    ("scaled.gpp.io_s", "s"),
    ("scaled.gpp.ooo4_s", "s"),
    ("scaled.lpsu.scan_s", "s"),
    ("scaled.lpsu.engine_s", "s"),
    ("scaled.bench.unattributed_s", "s"),
    ("scaled.trace.untraced_pass_s", "s"),
    ("scaled.trace.traced_pass_s", "s"),
    ("scaled.trace.overhead_s", "s"),
    ("scaled.sim_mips", "Minstr/s"),
    ("scaled.ff_mips", "Minstr/s"),
    ("scaled.sampled_mips", "Minstr/s"),
    ("scaled.sampled_err_max", "fraction"),
    ("scaled.sim.instret", "count"),
    ("scaled.sim.cycles", "count"),
    ("scaled.func.ff_instrs", "count"),
    ("scaled.gpp.instret", "count"),
    ("scaled.gpp.io.instret", "count"),
    ("scaled.gpp.ooo4.instret", "count"),
    ("scaled.gpp.cycles", "count"),
    ("scaled.gpp.mispredicts", "count"),
    ("scaled.lpsu.instret", "count"),
    ("scaled.lpsu.iterations", "count"),
    ("scaled.lpsu.lane_cycles", "count"),
    ("scaled.lpsu.exec", "count"),
    ("scaled.lpsu.squash", "count"),
    ("scaled.lpsu.idle", "count"),
    ("scaled.lpsu.squashed_iters", "count"),
    ("scaled.lpsu.cir_transfers", "count"),
    ("scaled.lpsu.stalls.raw", "count"),
    ("scaled.lpsu.stalls.mem_port", "count"),
    ("scaled.lpsu.stalls.llfu", "count"),
    ("scaled.lpsu.stalls.cir", "count"),
    ("scaled.lpsu.stalls.lsq", "count"),
    ("scaled.mem.dcache.accesses", "count"),
    ("scaled.mem.dcache.misses", "count"),
    ("scaled.sim.handoffs", "count"),
    ("scaled.sim.adaptive_to_lpsu", "count"),
    ("scaled.sim.adaptive_to_gpp", "count"),
    ("scaled.sim.xloops_fallback", "count"),
    ("scaled.gpp.io.ns_per_instr", "ns/instr"),
    ("scaled.gpp.ooo4.ns_per_instr", "ns/instr"),
    ("scaled.lpsu.ns_per_instr", "ns/instr"),
    ("store.bench.store.open_s", "s"),
    ("store.bench.store.save_s", "s"),
    ("store.bench.store.load_s", "s"),
    ("store.bench.render_s", "s"),
    ("store.bench.shard_value_s", "s"),
    ("store.stats.json_render_s", "s"),
    ("store.stats.json_parse_s", "s"),
    ("store.stats.binary_encode_s", "s"),
    ("store.stats.binary_decode_s", "s"),
    ("store.bench.shard_decode_s", "s"),
    ("store.bench.merge_s", "s"),
    ("store.bench.unattributed_s", "s"),
    ("store.trace.untraced_pass_s", "s"),
    ("store.trace.traced_pass_s", "s"),
    ("store.trace.overhead_s", "s"),
    ("store.store_write_s", "s"),
    ("store.store_read_s", "s"),
    ("store.merge_s", "s"),
    ("store.bench.store.fsyncs", "count"),
    ("store.bench.store.bytes_written", "count"),
    ("store.bench.store.hits", "count"),
    ("store.bench.store.misses", "count"),
    ("store.bench.store.bytes_read", "count"),
    ("store.bench.sims", "count"),
    ("store.stats.json_bytes", "count"),
    ("store.stats.binary_bytes", "count"),
];

/// Host ns per simulated instruction: `<pass>.<layer>_s` over
/// `<pass>.<layer>.instret`.
fn ns_per_instr(vals: &mut Values, pass: &str, layer: &str, time: &str) {
    let ns = vals.get(&format!("{pass}.{time}_s")) * 1e9;
    let instrs = vals.get(&format!("{pass}.{layer}.instret"));
    vals.set(format!("{pass}.{layer}.ns_per_instr"), if instrs > 0.0 { ns / instrs } else { 0.0 });
}

/// Rounds of each pass: untraced, traced, traced, untraced, so drift
/// within the run (warm-up, a noisy neighbour) hits both sides alike.
const ORDER: [bool; 4] = [false, true, true, false];

/// Rounds per side in [`ORDER`].
const PER_SIDE: f64 = 2.0;

/// Runs `pass` in [`ORDER`], giving `f` the tracer and where to record
/// values: the first untraced round into `twin`, the first traced one
/// into `vals`, the others nowhere. Records the mean untraced and traced
/// pass times.
fn rounds(
    pass: &'static str,
    tr: &Tracer,
    vals: &mut Values,
    twin: &mut Values,
    times: &mut Vec<(&'static str, f64, f64)>,
    mut f: impl FnMut(&Tracer, &mut Values),
) {
    let off = Tracer::off();
    tr.set_pass(pass);
    let (mut untraced, mut traced) = (0.0, 0.0);
    for (i, traced_round) in ORDER.into_iter().enumerate() {
        let mut scratch = Values::default();
        let keep = match i {
            0 => &mut *twin,
            1 => &mut *vals,
            _ => &mut scratch,
        };
        let t = Instant::now();
        f(if traced_round { tr } else { &off }, keep);
        let s = t.elapsed().as_secs_f64();
        *(if traced_round { &mut traced } else { &mut untraced }) += s;
    }
    times.push((pass, untraced / PER_SIDE, traced / PER_SIDE));
}

/// Runs every pass in [`ORDER`] and returns the [`PER_LAYER`] metrics:
/// counts from the first traced round, figures from the first untraced
/// one.
pub fn run(
    inputs: &Inputs,
    tr: &Tracer,
    vals: &mut Values,
    tally: &mut Tally,
) -> Vec<(&'static str, &'static str, f64)> {
    let mut times = Vec::new();
    let mut twin = Values::default();

    let mut results = Vec::new();
    rounds("regen", tr, vals, &mut twin, &mut times, |t, keep| {
        if t.is_on() {
            regen::traced_pass(inputs, t, keep, tally);
        } else {
            let serial = RunOptions { serial: true, ..RunOptions::default() };
            results = regen::pass(inputs, &serial, keep, tally);
        }
    });
    rounds("scaled", tr, vals, &mut twin, &mut times, |t, keep| {
        scaled::pass(inputs, t, keep, tally)
    });
    let primed = store::primed_from(inputs, RunOptions::default(), results);
    rounds("store", tr, vals, &mut twin, &mut times, |t, keep| {
        let stages = store::pass(inputs, &primed, t, keep, tally);
        for (name, s) in
            ["store.store_write_s", "store.store_read_s", "store.merge_s"].into_iter().zip(stages)
        {
            keep.set(name, s);
        }
    });
    vals.take_untraced(twin);

    // Set-up is traced once, every pass in two rounds.
    let selfs: Vec<((&str, &str), f64)> = tr
        .self_seconds()
        .into_iter()
        .map(|((pass, name), s)| ((pass, name), if pass == "setup" { s } else { s / PER_SIDE }))
        .collect();
    for &((pass, name), s) in &selfs {
        vals.set(format!("{pass}.{name}_s"), s);
    }
    for (pass, untraced, traced) in times {
        let own: Vec<f64> =
            selfs.iter().filter(|((p, _), _)| *p == pass).map(|&(_, s)| s).collect();
        vals.set(format!("{pass}.bench.unattributed_s"), unattributed(untraced, &own));
        vals.set(format!("{pass}.trace.untraced_pass_s"), untraced);
        vals.set(format!("{pass}.trace.traced_pass_s"), traced);
        vals.set(format!("{pass}.trace.overhead_s"), traced - untraced);
    }
    for layer in ["gpp.io", "gpp.ooo2", "gpp.ooo4"] {
        ns_per_instr(vals, "regen", layer, layer);
    }
    for layer in ["gpp.io", "gpp.ooo4"] {
        ns_per_instr(vals, "scaled", layer, layer);
    }
    for pass in ["regen", "scaled"] {
        ns_per_instr(vals, pass, "lpsu", "lpsu.engine");
    }
    PER_LAYER.iter().map(|&(name, unit)| (name, unit, vals.get(name))).collect()
}
