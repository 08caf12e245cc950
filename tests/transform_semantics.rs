//! Semantics preservation for every catalog transformation: apply the
//! rewrite, run the program before and after, require identical output.
//! (E9's verification half — the advice half is `--bin steering`.)

use ped_core::Ped;
use ped_runtime::ExecConfig;
use ped_transform::Xform;

fn check(title: &str, src: &str, pick: impl Fn(&mut Ped) -> (ped_fortran::StmtId, Xform)) {
    let mut ped = Ped::open(src).unwrap_or_else(|e| panic!("{title}: {e}"));
    let before = ped.run(ExecConfig::default()).unwrap_or_else(|e| panic!("{title}: {e}"));
    let (target, xform) = pick(&mut ped);
    let diag = ped.diagnose(0, target, &xform).unwrap();
    assert!(diag.ok(), "{title}: diagnosis refused: {diag:?}");
    ped.apply(0, target, &xform).unwrap_or_else(|e| panic!("{title}: {e}"));
    let after = ped.run(ExecConfig::default()).unwrap_or_else(|e| panic!("{title}: {e}"));
    assert_eq!(before.printed, after.printed, "{title} changed output;\n{}", ped.source());
}

#[test]
fn interchange_preserves_output() {
    check(
        "interchange",
        "program t\nreal a(12,18)\ns = 0.0\ndo i = 1, 12\ndo j = 1, 18\n\
         a(i,j) = i * 100 + j\nenddo\nenddo\ndo i = 1, 12\ndo j = 1, 18\ns = s + a(i,j)\n\
         enddo\nenddo\nprint *, s\nend\n",
        |ped| (ped.loops(0)[0].0, Xform::Interchange),
    );
}

#[test]
fn distribution_preserves_output_and_order() {
    check(
        "distribute",
        "program t\nreal a(30), b(30)\nb(1) = 1.0\ndo i = 2, 30\nb(i) = b(i-1) + 1.0\n\
         a(i) = b(i) * 2.0\nenddo\nprint *, a(30), b(30)\nend\n",
        |ped| (ped.loops(0)[0].0, Xform::Distribute),
    );
}

#[test]
fn fusion_preserves_output() {
    check(
        "fuse",
        "program t\nreal a(25), b(25)\ndo i = 1, 25\na(i) = i * 1.5\nenddo\ndo i = 1, 25\n\
         b(i) = a(i) - 1.0\nenddo\nprint *, b(25), a(1)\nend\n",
        |ped| {
            let loops = ped.loops(0);
            (loops[0].0, Xform::Fuse { with: loops[1].0 })
        },
    );
}

#[test]
fn reversal_preserves_output() {
    check(
        "reverse",
        "program t\nreal a(20)\ndo i = 1, 20\na(i) = i * 2.0\nenddo\nprint *, a(20), a(1)\nend\n",
        |ped| (ped.loops(0)[0].0, Xform::Reverse),
    );
}

#[test]
fn skew_preserves_output() {
    check(
        "skew",
        "program t\nreal a(10,40)\ns = 0.0\ndo i = 1, 10\ndo j = 1, 10\n\
         a(i,j) = i + j * 0.5\nenddo\nenddo\ndo i = 1, 10\ndo j = 1, 10\ns = s + a(i,j)\n\
         enddo\nenddo\nprint *, s\nend\n",
        |ped| (ped.loops(0)[0].0, Xform::Skew { factor: 1 }),
    );
}

#[test]
fn stripmine_preserves_output_including_remainder() {
    check(
        "stripmine (non-dividing tile)",
        "program t\nreal a(37)\ndo i = 1, 37\na(i) = i * 1.0\nenddo\nprint *, a(37), a(17)\nend\n",
        |ped| (ped.loops(0)[0].0, Xform::StripMine { size: 8 }),
    );
}

#[test]
fn unroll_preserves_output() {
    check(
        "unroll",
        "program t\nreal a(24)\ndo i = 1, 24\na(i) = i * i * 1.0\nenddo\nprint *, a(24), a(7)\nend\n",
        |ped| (ped.loops(0)[0].0, Xform::Unroll { factor: 4 }),
    );
}

#[test]
fn unroll_and_jam_preserves_output() {
    check(
        "unroll-and-jam",
        "program t\nreal c(8,8)\ns = 0.0\ndo i = 1, 8\ndo j = 1, 8\nc(i,j) = i * 10 + j\n\
         enddo\nenddo\ndo i = 1, 8\ndo j = 1, 8\ns = s + c(i,j)\nenddo\nenddo\nprint *, s\nend\n",
        |ped| (ped.loops(0)[0].0, Xform::UnrollAndJam { factor: 2 }),
    );
}

#[test]
fn scalar_expansion_preserves_output() {
    check(
        "scalar expansion",
        "program t\nreal a(15), b(15)\ndo i = 1, 15\nt1 = i * 3.0\na(i) = t1 + 1.0\n\
         b(i) = t1 - 1.0\nenddo\nprint *, a(15), b(15)\nend\n",
        |ped| {
            let t1 = ped.program().units[0].symbols.lookup("t1").unwrap();
            (ped.loops(0)[0].0, Xform::ScalarExpand { var: t1 })
        },
    );
}

#[test]
fn scalar_expansion_preserves_liveout_value() {
    check(
        "scalar expansion (live-out)",
        "program t\nreal a(15)\ndo i = 1, 15\nt1 = i * 3.0\na(i) = t1\nenddo\n\
         print *, t1, a(15)\nend\n",
        |ped| {
            let t1 = ped.program().units[0].symbols.lookup("t1").unwrap();
            (ped.loops(0)[0].0, Xform::ScalarExpand { var: t1 })
        },
    );
}

#[test]
fn ivsub_preserves_output_including_final_value() {
    check(
        "induction substitution",
        "program t\nreal a(44)\nk = 2\ndo i = 1, 21\nk = k + 2\na(k) = i * 1.0\nenddo\n\
         print *, a(44), k\nend\n",
        |ped| {
            let k = ped.program().units[0].symbols.lookup("k").unwrap();
            (ped.loops(0)[0].0, Xform::IvSub { var: k })
        },
    );
}

#[test]
fn statement_interchange_preserves_output() {
    check(
        "statement interchange",
        "program t\nreal a(10), b(10)\ndo i = 1, 10\na(i) = i * 1.0\nb(i) = i * 2.0\nenddo\n\
         print *, a(10), b(10)\nend\n",
        |ped| {
            let h = ped.loops(0)[0].0;
            let body = ped.program().units[0].loop_of(h).body.clone();
            (h, Xform::StatementInterchange { a: body[0], b: body[1] })
        },
    );
}

#[test]
fn inlining_preserves_output() {
    let src = "program t\nreal a(16)\ninteger n\nn = 16\ncall scale2(a, n)\n\
               print *, a(16)\nend\n\
               subroutine scale2(x, m)\ninteger m\nreal x(m)\ndo i = 1, m\nx(i) = i * 2.0\n\
               enddo\nreturn\nend\n";
    let mut ped = Ped::open(src).unwrap();
    let before = ped.run(ExecConfig::default()).unwrap();
    let call = ped.program().units[0].body[1];
    ped.apply(0, call, &Xform::Inline { call }).unwrap();
    assert!(!ped.source().split("subroutine").next().unwrap().contains("call scale2"));
    let after = ped.run(ExecConfig::default()).unwrap();
    assert_eq!(before.printed, after.printed);
}

#[test]
fn chained_transformations_preserve_output() {
    // distribute → parallelize second piece → stripmine the first.
    let src = "program t\nreal a(40), b(40)\nb(1) = 0.5\ndo i = 2, 40\nb(i) = b(i-1) + 0.5\n\
               a(i) = i * 1.0\nenddo\nprint *, b(40), a(39)\nend\n";
    let mut ped = Ped::open(src).unwrap();
    let before = ped.run(ExecConfig::default()).unwrap();
    let h = ped.loops(0)[0].0;
    let applied = ped.apply(0, h, &Xform::Distribute).unwrap();
    assert_eq!(applied.new_stmts.len(), 2);
    let par_loop = applied.new_stmts[1];
    ped.apply(0, par_loop, &Xform::Parallelize).unwrap();
    ped.apply(0, applied.new_stmts[0], &Xform::StripMine { size: 8 }).unwrap();
    let after = ped.run(ExecConfig::default()).unwrap();
    assert_eq!(before.printed, after.printed, "{}", ped.source());
    // And the parallel piece is race-free.
    let report = ped.check(ExecConfig::default()).unwrap();
    assert!(report.clean(), "{}", report.render_text());
}

/// Applying an unsafe transformation (allowed: user prerogative) really
/// does change behavior — the advice was correct in both directions.
#[test]
fn unsafe_reversal_really_breaks() {
    let src = "program t\nreal a(12)\na(1) = 1.0\ndo i = 2, 12\na(i) = a(i-1) + 1.0\nenddo\n\
               print *, a(12)\nend\n";
    let mut ped = Ped::open(src).unwrap();
    let before = ped.run(ExecConfig::default()).unwrap();
    let h = ped.loops(0)[0].0;
    let diag = ped.diagnose(0, h, &Xform::Reverse).unwrap();
    assert!(matches!(diag.safe, ped_transform::Safety::Unsafe(_)));
    ped.apply(0, h, &Xform::Reverse).unwrap(); // user overrides
    let after = ped.run(ExecConfig::default()).unwrap();
    assert_ne!(before.printed, after.printed, "the unsafe warning was real");
}
