//! Regenerates the paper's fig5 artifact from its declarative
//! experiment spec. Run with --release.
fn main() {
    xloops_bench::emit_specs(&[xloops_bench::experiments::fig5_spec()]);
}
