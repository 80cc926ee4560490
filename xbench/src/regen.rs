//! The `regen` workload: a cold, in-process regeneration of all ten
//! artifacts with no store, byte-compared with the committed
//! `results/*.txt`.

use std::collections::HashMap;

use xloops_asm::{lower_gp, Program};
use xloops_bench::manifest::{render_spec, run_spec, GppPreset, PointResult, SpecPoint};
use xloops_bench::Runner;
use xloops_kernels::by_name;
use xloops_sim::{ConfigKey, ExecMode, RunOptions, System};

use crate::trace::Tracer;
use crate::{Inputs, Tally, Values};

/// One pass through the program's own path (`Runner` two-pass collect,
/// prefill, render). Returns every spec's point results.
pub fn pass(
    inputs: &Inputs,
    opts: &RunOptions,
    vals: &mut Values,
    tally: &mut Tally,
) -> Vec<Vec<PointResult>> {
    let runner = Runner::collecting_with(opts.clone());
    for spec in &inputs.specs {
        let _ = run_spec(&runner, spec);
    }
    let info = runner.prefill();
    let mut all = Vec::new();
    for (spec, want) in inputs.specs.iter().zip(&inputs.expected) {
        let results = run_spec(&runner, spec).results;
        let got = render_spec(spec, &results);
        tally.check(got == *want, || {
            format!("regen: {} differs from results/{}.txt", spec.name, spec.name)
        });
        all.push(results);
    }
    for f in runner.failures() {
        tally.check(false, || format!("regen: point quarantined: {}", f.message));
    }
    let c = runner.cache_stats();
    tally.check(c.sims as usize == info.unique_points && c.lookups == c.hits, || {
        format!(
            "regen: cache {} lookups, {} hits, {} sims for {} unique points",
            c.lookups, c.hits, c.sims, info.unique_points
        )
    });
    vals.count("regen.bench.cache.lookups", c.lookups);
    vals.count("regen.bench.cache.hits", c.hits);
    vals.count("regen.bench.cache.sims", c.sims);
    all
}

/// Identity of a simulation, normalised as the runner keys it: a GP-ISA
/// baseline has no LPSU and runs traditionally.
type Key = (String, ConfigKey, ExecMode, bool);

fn mode_span(mode: ExecMode) -> &'static str {
    match mode {
        ExecMode::Traditional => "sim.traditional",
        ExecMode::Specialized => "sim.specialized",
        ExecMode::Adaptive => "sim.adaptive",
    }
}

fn gpp_span(gpp: GppPreset) -> &'static str {
    match gpp {
        GppPreset::Io => "gpp.io",
        GppPreset::Ooo2 => "gpp.ooo2",
        GppPreset::Ooo4 => "gpp.ooo4",
    }
}

/// One serial pass that walks the specs' points itself (dedupe, then
/// `System::new` → `init_memory` → `run` → `verify` → `stat_set` per
/// unique point, then `render_spec` per artifact), with a span around
/// each call.
pub fn traced_pass(inputs: &Inputs, tr: &Tracer, vals: &mut Values, tally: &mut Tally) {
    let mut index: HashMap<Key, usize> = HashMap::new();
    let mut unique: Vec<&SpecPoint> = Vec::new();
    let slots: Vec<Vec<usize>> = inputs
        .specs
        .iter()
        .map(|spec| {
            spec.points
                .iter()
                .map(|p| {
                    let mut config = p.config.resolve();
                    let mut mode = p.mode;
                    if p.gp_lowered {
                        config.lpsu = None;
                        mode = ExecMode::Traditional;
                    }
                    let key = (p.kernel.clone(), config.key(), mode, p.gp_lowered);
                    *index.entry(key).or_insert_with(|| {
                        unique.push(p);
                        unique.len() - 1
                    })
                })
                .collect()
        })
        .collect();

    let mut gp_programs: HashMap<&str, Program> = HashMap::new();
    let mut results = Vec::with_capacity(unique.len());
    for p in unique {
        // The replay runs every point in full detail, as all ten specs ask.
        tally.check(p.sampling.is_none(), || format!("regen: {} is a sampled point", p.kernel));
        let Some(kernel) = by_name(&p.kernel) else {
            tally.check(false, || format!("regen: unknown kernel {}", p.kernel));
            results.push(PointResult {
                stats: Default::default(),
                error: Some("unknown kernel".into()),
            });
            continue;
        };
        let mut config = p.config.resolve();
        let mut mode = p.mode;
        let program = if p.gp_lowered {
            config.lpsu = None;
            mode = ExecMode::Traditional;
            &*gp_programs
                .entry(kernel.name)
                .or_insert_with(|| tr.span("asm.lower_gp", || lower_gp(&kernel.program)))
        } else {
            &kernel.program
        };
        let mut sys = tr.span("sim.system_new", || System::new(config));
        sys.set_profiling(true);
        tr.span("kernels.init_memory", || kernel.init_memory(sys.mem_mut()));
        let (run, at) = tr.span_at(mode_span(mode), || sys.run(program, mode));
        let mut stats = match run {
            Ok(s) => s,
            Err(e) => {
                tally.check(false, || format!("regen: {} on {}: {e}", kernel.name, config.name()));
                results.push(PointResult { stats: Default::default(), error: Some(e.to_string()) });
                continue;
            }
        };
        let prof = stats.profile.take().unwrap_or_default();
        let gpp = gpp_span(p.config.gpp);
        tr.phases(
            at,
            &[(gpp, prof.gpp_ns), ("lpsu.scan", prof.scan_ns), ("lpsu.engine", prof.engine_ns)],
        );
        let verified = tr.span("kernels.verify", || kernel.verify(sys.mem()));
        tally.check(verified.is_ok(), || {
            format!(
                "regen: {} on {}: {}",
                kernel.name,
                config.name(),
                verified.clone().unwrap_err()
            )
        });
        let is_ooo = p.config.is_ooo();
        let energy = tr.span("energy.eval", || stats.events(is_ooo).energy_nj(&config.energy));
        tally.check(energy == stats.energy_nj, || {
            format!(
                "regen: {} energy re-evaluates to {energy}, run said {}",
                kernel.name, stats.energy_nj
            )
        });
        let result =
            tr.span("sim.stat_set", || PointResult { stats: stats.stat_set(is_ooo), error: None });
        results.push(result);

        vals.count("regen.points", 1);
        vals.count(&format!("regen.{gpp}.instret"), stats.gpp.instret);
        vals.count("regen.lpsu.instret", stats.lpsu.instret);
        vals.count("regen.sim.cycles", stats.cycles);
        vals.count("regen.sim.handoffs", prof.handoffs);
    }

    for ((spec, want), slots) in inputs.specs.iter().zip(&inputs.expected).zip(&slots) {
        let spec_results: Vec<PointResult> = slots.iter().map(|&i| results[i].clone()).collect();
        let got = tr.span("bench.render", || render_spec(spec, &spec_results));
        tally.check(got == *want, || {
            format!("regen (traced): {} differs from results/{}.txt", spec.name, spec.name)
        });
    }
}
