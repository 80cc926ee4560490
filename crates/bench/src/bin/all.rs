//! Regenerates every table and figure of the paper's evaluation in one
//! deduplicated sweep. Run with --release; see [`xloops_bench::emit_specs`].
fn main() {
    xloops_bench::emit_specs(&xloops_bench::experiments::all_specs());
}
