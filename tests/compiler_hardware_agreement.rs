//! The compiler's software dependence analysis and the LMU's hardware scan
//! are two independent implementations of the same contract. For loops the
//! compiler generates, the hardware must (a) accept the chosen pattern,
//! (b) identify exactly the CIRs the compiler identified, and (c) execute
//! to the serial result.

use xloops::asm::assemble;
use xloops::compiler::analysis::select_pattern;
use xloops::compiler::codegen::{lower_loop, CodegenCtx};
use xloops::compiler::ir::{Annotation, ArrayRef, BinOp, Bound, Expr, Loop, Stmt, Subscript};
use xloops::func::Interp;
use xloops::isa::Reg;
use xloops::lpsu::{scan, LpsuConfig};
use xloops::mem::Memory;
use xloops::sim::{ExecMode, System, SystemConfig};

fn ctx() -> CodegenCtx {
    CodegenCtx {
        arrays: vec![("a".into(), 0x10000), ("b".into(), 0x14000), ("out".into(), 0x18000)],
        scalars: vec![("acc".into(), 0), ("m".into(), 0)],
        outputs: vec![("acc".into(), 0x1C000), ("m".into(), 0x1C004)],
        use_xi: false,
    }
}

/// Generated loops the analysis classifies differently.
fn test_loops() -> Vec<(&'static str, Loop)> {
    let mut loops = Vec::new();

    // uc: b[i] = a[i] * 3 + i
    let mut l = Loop::new("i", Bound::Fixed(Expr::konst(40)), Annotation::Unordered);
    l.body.push(Stmt::load("t", ArrayRef::new("a", Subscript::linear(1, 0))));
    l.body.push(Stmt::assign(
        "t2",
        Expr::add(Expr::mul(Expr::var("t"), Expr::konst(3)), Expr::var("i")),
    ));
    l.body.push(Stmt::store(ArrayRef::new("b", Subscript::linear(1, 0)), Expr::var("t2")));
    loops.push(("uc-map", l));

    // or: acc += a[i]; m = max(m, a[i]) — two CIRs, one conditional.
    let mut l = Loop::new("i", Bound::Fixed(Expr::konst(40)), Annotation::Ordered);
    l.body.push(Stmt::load("t", ArrayRef::new("a", Subscript::linear(1, 0))));
    l.body.push(Stmt::assign("acc", Expr::add(Expr::var("acc"), Expr::var("t"))));
    l.body.push(Stmt::If {
        cond: Expr::Bin(BinOp::LtS, Box::new(Expr::var("m")), Box::new(Expr::var("t"))),
        then: vec![Stmt::assign("m", Expr::var("t"))],
    });
    l.body.push(Stmt::store(ArrayRef::new("out", Subscript::linear(1, 0)), Expr::var("acc")));
    loops.push(("or-two-cirs", l));

    // om: a[i] = a[i-2] + b[i]
    let mut l = Loop::new("i", Bound::Fixed(Expr::konst(40)), Annotation::Ordered);
    l.body.push(Stmt::load("t", ArrayRef::new("a", Subscript::linear(1, -2))));
    l.body.push(Stmt::load("u", ArrayRef::new("b", Subscript::linear(1, 0))));
    l.body.push(Stmt::assign("t2", Expr::add(Expr::var("t"), Expr::var("u"))));
    l.body.push(Stmt::store(ArrayRef::new("a", Subscript::linear(1, 0)), Expr::var("t2")));
    loops.push(("om-recurrence", l));

    loops
}

fn init_mem(mem: &mut Memory) {
    for i in 0..48u32 {
        mem.write_u32(0x10000 + 4 * i, (i * 7 + 3) % 101);
        mem.write_u32(0x14000 + 4 * i, i + 1);
    }
}

#[test]
fn hardware_scan_accepts_and_matches_the_compiler_analysis() {
    for (name, l) in test_loops() {
        let choice = select_pattern(&l);
        let asm = lower_loop(&l, &ctx()).unwrap_or_else(|e| panic!("{name}: {e}"));
        let program = assemble(&asm).unwrap_or_else(|e| panic!("{name}: {e}\n{asm}"));
        let xloop_pc =
            program.instrs().iter().position(|i| i.is_xloop()).expect("has xloop") as u32 * 4;

        // Run the serial prefix so live-ins are realistic, then scan.
        let mut mem = Memory::new();
        init_mem(&mut mem);
        let mut cpu = Interp::new();
        while cpu.pc() != xloop_pc {
            cpu.step(&program, &mut mem).expect("prefix runs");
        }
        let mut live_ins = [0u32; 32];
        for r in Reg::all() {
            live_ins[r.index()] = cpu.reg(r);
        }
        let s = scan(&program, xloop_pc, live_ins, &LpsuConfig::default4())
            .unwrap_or_else(|e| panic!("{name}: hardware rejected the compiled loop: {e}"));

        assert_eq!(s.pattern, choice.pattern, "{name}: pattern mismatch");
        assert_eq!(
            s.cirs.len(),
            choice.cirs.len(),
            "{name}: compiler found CIRs {:?}, hardware found {:?}",
            choice.cirs,
            s.cirs
        );
    }
}

#[test]
fn compiled_loops_run_specialized_to_the_serial_result() {
    for (name, l) in test_loops() {
        let asm = lower_loop(&l, &ctx()).unwrap();
        let program = assemble(&asm).unwrap();

        // Serial golden image.
        let mut gold_mem = Memory::new();
        init_mem(&mut gold_mem);
        let mut cpu = Interp::new();
        cpu.run(&program, &mut gold_mem, 10_000_000).expect("serial run");

        // Specialized on the LPSU.
        let mut sys = System::new(SystemConfig::io_x());
        init_mem(sys.mem_mut());
        let stats = sys.run(&program, ExecMode::Specialized).expect("specialized run");
        assert!(stats.xloops_specialized > 0, "{name}: loop never specialized");

        for addr in (0x10000..0x1C008u32).step_by(4) {
            assert_eq!(
                sys.load_word(addr),
                gold_mem.read_u32(addr),
                "{name}: divergence at {addr:#x}"
            );
        }
    }
}

/// An adaptive run that migrates a loop between engines mid-instance must
/// hand the GPP the `xi` (MIVT) registers' serial-equivalent values, or
/// the resumed iterations address memory through stale pointers.
#[test]
fn adaptive_runs_of_xi_lowered_loops_commit_the_interp_memory_image() {
    let n = 1000u32;
    let mut l = Loop::new("i", Bound::Fixed(Expr::konst(n as i64)), Annotation::Unordered);
    l.body.push(Stmt::load("t", ArrayRef::new("a", Subscript::linear(1, 0))));
    l.body.push(Stmt::assign("t2", Expr::add(Expr::var("t"), Expr::konst(3))));
    l.body.push(Stmt::store(ArrayRef::new("out", Subscript::linear(1, 0)), Expr::var("t2")));
    let asm = lower_loop(&l, &CodegenCtx { use_xi: true, ..ctx() }).unwrap();
    assert!(asm.contains(".xi"), "the loop must be lowered with xi:\n{asm}");
    let program = assemble(&asm).unwrap();
    let init = |mem: &mut Memory| {
        for i in 0..n {
            mem.write_u32(0x10000 + 4 * i, i * 7 + 1);
        }
    };

    let mut gold_mem = Memory::new();
    init(&mut gold_mem);
    Interp::new().run(&program, &mut gold_mem, 10_000_000).expect("serial run");

    for config in [SystemConfig::io_x(), SystemConfig::ooo4_x()] {
        let mut sys = System::new(config);
        init(sys.mem_mut());
        sys.run(&program, ExecMode::Adaptive).expect("adaptive run");
        let wrong = (0x10000..0x1C008u32)
            .step_by(4)
            .filter(|&addr| sys.load_word(addr) != gold_mem.read_u32(addr))
            .count();
        assert_eq!(wrong, 0, "{}: {wrong} word(s) differ from the serial run", config.name());
    }
}
