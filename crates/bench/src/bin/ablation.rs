//! Regenerates the paper's ablation artifact from its declarative
//! experiment spec. Run with --release.
fn main() {
    xloops_bench::emit_specs(&[xloops_bench::experiments::ablation_spec()]);
}
