//! Regenerates the paper's fig9 artifact from its declarative
//! experiment spec. Run with --release.
fn main() {
    xloops_bench::emit_specs(&[xloops_bench::experiments::fig9_spec()]);
}
