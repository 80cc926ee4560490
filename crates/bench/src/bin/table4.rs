//! Regenerates the paper's table4 artifact from its declarative
//! experiment spec. Run with --release.
fn main() {
    xloops_bench::emit_specs(&[xloops_bench::experiments::table4_spec()]);
}
