//! Seeded generator of the `scaled` workload's single-level loops.
//!
//! Each loop is an annotated IR loop for `xloops-compiler`, plus the
//! addresses it binds and the data it reads. The seed picks the operators,
//! the constants and every data word; the shape (trip count, statement
//! count, operator latency class, recurrence distance, array layout) is
//! fixed, so the amount of simulated work barely moves between seeds.
//!
//! The three shapes follow the loop-carried patterns the LPSU specializes:
//!
//! | flavour | loop                                     | carried through |
//! |---------|------------------------------------------|-----------------|
//! | `uc`    | `out[i] = (a[i] op b[i]) op k`           | nothing         |
//! | `or`    | `acc = (acc op a[i]) op k; out[i] = acc` | register `acc`  |
//! | `om`    | `a[i] = (a[i-1] op b[i]) op k`           | memory `a`      |
//!
//! Array `a` sits below the 1 MiB direct-indexed region of `xloops-mem`;
//! `b` and `out` sit above it, on the page-hash path.

use xloops_compiler::codegen::CodegenCtx;
use xloops_compiler::ir::{Annotation, ArrayRef, BinOp, Bound, Expr, Loop, Stmt, Subscript};
use xloops_kernels::Rng;

/// Iterations of every generated loop: each array holds 400 KB, many
/// times the modelled 16 KB L1.
pub const TRIP: u32 = 100_000;

/// Base of array `a` (below 1 MiB).
const A_BASE: u32 = 0x0004_0000;
/// Base of array `b` (above 1 MiB).
const B_BASE: u32 = 0x0020_0000;
/// Base of array `out` (above 1 MiB).
const OUT_BASE: u32 = 0x0030_0000;
/// Address the live-out scalar is stored to after the loop.
const LIVE_OUT: u32 = 0x003F_0000;

/// Single-cycle ALU operators, so the seed never swaps latency classes.
const OPS: [BinOp; 5] = [BinOp::Add, BinOp::Sub, BinOp::Xor, BinOp::Or, BinOp::And];

/// One generated loop, before lowering.
#[derive(Debug)]
pub struct GenLoop {
    /// Input name, e.g. `gen-or`.
    pub name: String,
    /// The xloop flavour the loop must lower to (`uc`, `or` or `om`).
    pub flavour: &'static str,
    /// The annotated IR loop.
    pub ir: Loop,
    /// Array bases, scalar initial values and live-out addresses.
    pub ctx: CodegenCtx,
    /// Initial memory image as `(address, words)` segments.
    pub segments: Vec<(u32, Vec<u32>)>,
    /// Live-out addresses the check compares explicitly.
    pub live_outs: Vec<u32>,
}

fn bin(op: BinOp, a: Expr, b: Expr) -> Expr {
    Expr::Bin(op, Box::new(a), Box::new(b))
}

fn pick_op(rng: &mut Rng) -> BinOp {
    OPS[rng.below(OPS.len() as u32) as usize]
}

fn words(rng: &mut Rng, n: u32) -> Vec<u32> {
    rng.vec_below(n as usize, 1 << 16)
}

/// The three loops of seed `seed`, in `uc`, `or`, `om` order.
pub fn generate(seed: u64) -> Vec<GenLoop> {
    let mut rng = Rng::new(seed ^ 0x5eed_c0de_0000_0000);
    let mut loops = Vec::new();

    // uc: out[i] = (a[i] op1 b[i]) op2 k
    let (op1, op2, k) = (pick_op(&mut rng), pick_op(&mut rng), rng.below(1 << 12));
    let mut l = Loop::new("i", Bound::Fixed(Expr::konst(TRIP as i64)), Annotation::Unordered);
    l.body.push(Stmt::load("t", ArrayRef::new("a", Subscript::linear(1, 0))));
    l.body.push(Stmt::load("u", ArrayRef::new("b", Subscript::linear(1, 0))));
    l.body.push(Stmt::assign(
        "v",
        bin(op2, bin(op1, Expr::var("t"), Expr::var("u")), Expr::konst(k as i64)),
    ));
    l.body.push(Stmt::store(ArrayRef::new("out", Subscript::linear(1, 0)), Expr::var("v")));
    loops.push(GenLoop {
        name: "gen-uc".into(),
        flavour: "uc",
        ir: l,
        ctx: CodegenCtx {
            arrays: vec![("a".into(), A_BASE), ("b".into(), B_BASE), ("out".into(), OUT_BASE)],
            use_xi: true,
            ..CodegenCtx::default()
        },
        segments: vec![(A_BASE, words(&mut rng, TRIP)), (B_BASE, words(&mut rng, TRIP))],
        live_outs: Vec::new(),
    });

    // or: acc = (acc op1 a[i]) op2 k; out[i] = acc
    let (op1, op2, k) = (pick_op(&mut rng), pick_op(&mut rng), rng.below(1 << 12));
    let acc0 = rng.below(1 << 16);
    let mut l = Loop::new("i", Bound::Fixed(Expr::konst(TRIP as i64)), Annotation::Ordered);
    l.body.push(Stmt::load("t", ArrayRef::new("a", Subscript::linear(1, 0))));
    l.body.push(Stmt::assign(
        "acc",
        bin(op2, bin(op1, Expr::var("acc"), Expr::var("t")), Expr::konst(k as i64)),
    ));
    l.body.push(Stmt::store(ArrayRef::new("out", Subscript::linear(1, 0)), Expr::var("acc")));
    loops.push(GenLoop {
        name: "gen-or".into(),
        flavour: "or",
        ir: l,
        ctx: CodegenCtx {
            arrays: vec![("a".into(), A_BASE), ("out".into(), OUT_BASE)],
            scalars: vec![("acc".into(), acc0)],
            outputs: vec![("acc".into(), LIVE_OUT)],
            use_xi: true,
        },
        segments: vec![(A_BASE, words(&mut rng, TRIP))],
        live_outs: vec![LIVE_OUT],
    });

    // om: a[i] = (a[i-1] op1 b[i]) op2 k; a starts one word early so
    // a[-1] is data.
    let (op1, op2, k) = (pick_op(&mut rng), pick_op(&mut rng), rng.below(1 << 12));
    let mut l = Loop::new("i", Bound::Fixed(Expr::konst(TRIP as i64)), Annotation::Ordered);
    l.body.push(Stmt::load("t", ArrayRef::new("a", Subscript::linear(1, -1))));
    l.body.push(Stmt::load("u", ArrayRef::new("b", Subscript::linear(1, 0))));
    l.body.push(Stmt::assign(
        "v",
        bin(op2, bin(op1, Expr::var("t"), Expr::var("u")), Expr::konst(k as i64)),
    ));
    l.body.push(Stmt::store(ArrayRef::new("a", Subscript::linear(1, 0)), Expr::var("v")));
    loops.push(GenLoop {
        name: "gen-om".into(),
        flavour: "om",
        ir: l,
        ctx: CodegenCtx {
            arrays: vec![("a".into(), A_BASE), ("b".into(), B_BASE)],
            use_xi: true,
            ..CodegenCtx::default()
        },
        segments: vec![(A_BASE - 4, words(&mut rng, TRIP + 1)), (B_BASE, words(&mut rng, TRIP))],
        live_outs: Vec::new(),
    });

    loops
}

/// Whether lowered assembly `asm` carries an `xloop` of exactly `flavour`
/// (`xloop.or` does not count as `xloop.orm`, nor `xloop.uc` as
/// `xloop.uc.db`).
pub fn has_flavour(asm: &str, flavour: &str) -> bool {
    let want = format!("xloop.{flavour}");
    asm.lines().any(|line| line.split_whitespace().next() == Some(want.as_str()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use xloops_compiler::codegen::lower_loop;

    type Image = Vec<(u32, Vec<u32>)>;

    /// Each loop's lowered assembly and initial memory.
    fn programs_and_data(seed: u64) -> Vec<(String, Image)> {
        generate(seed)
            .into_iter()
            .map(|l| (lower_loop(&l.ir, &l.ctx).expect("generated loops lower"), l.segments))
            .collect()
    }

    #[test]
    fn same_seed_gives_identical_programs_and_data() {
        assert_eq!(programs_and_data(7), programs_and_data(7));
    }

    #[test]
    fn another_seed_gives_other_programs_and_data() {
        let (a, b) = (programs_and_data(7), programs_and_data(8));
        for ((asm_a, data_a), (asm_b, data_b)) in a.iter().zip(&b) {
            assert_ne!(asm_a, asm_b, "program did not change with the seed:\n{asm_a}");
            assert_ne!(data_a, data_b, "data did not change with the seed");
        }
    }

    #[test]
    fn flavours_are_uc_or_om_and_one_array_is_above_1_mib() {
        let loops = generate(1);
        let flavours: Vec<_> = loops.iter().map(|l| l.flavour).collect();
        assert_eq!(flavours, ["uc", "or", "om"]);
        for l in &loops {
            assert!(l.ctx.arrays.iter().any(|(_, addr)| *addr >= 1 << 20), "{}", l.name);
        }
    }

    #[test]
    fn flavour_match_is_exact() {
        let asm = "    li r2, 0\n    xloop.orm body, r2, r3\n";
        assert!(has_flavour(asm, "orm"));
        assert!(!has_flavour(asm, "or"));
        assert!(has_flavour("xloop.uc body, r2, r3", "uc"));
    }
}
