//! Pretty printer.
//!
//! Emits canonical free-form source that re-parses to a structurally
//! equivalent program (`print ∘ parse ∘ print = print`, checked by property
//! tests). Ped regenerated source after every transformation — this module
//! is what makes our transformed ASTs visible as Fortran again.

use crate::ast::*;
use crate::symbols::{Const, SymbolTable, Ty};

/// Print a whole program.
pub fn print_program(p: &Program) -> String {
    let mut out = String::new();
    for (i, u) in p.units.iter().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        print_unit(u, &mut out);
    }
    out
}

/// Print a single program unit.
pub fn print_unit(u: &ProgramUnit, out: &mut String) {
    match u.kind {
        UnitKind::Main => {
            out.push_str(&format!("program {}\n", u.name));
        }
        UnitKind::Subroutine => {
            out.push_str(&format!("subroutine {}({})\n", u.name, arg_list(u)));
        }
        UnitKind::Function(ty) => {
            out.push_str(&format!("{} function {}({})\n", ty, u.name, arg_list(u)));
        }
    }
    print_decls(u, out);
    for &s in &u.body {
        print_stmt(u, s, 1, out);
    }
    out.push_str("end\n");
}

fn arg_list(u: &ProgramUnit) -> String {
    u.args.iter().map(|&a| u.symbols.name(a).to_string()).collect::<Vec<_>>().join(", ")
}

fn print_decls(u: &ProgramUnit, out: &mut String) {
    // Type declarations (grouped by type, in symbol order).
    for ty in [Ty::Integer, Ty::Real, Ty::Double, Ty::Logical] {
        let mut items = Vec::new();
        for (id, sym) in u.symbols.iter() {
            // The function result variable is typed by the unit header.
            if matches!(u.kind, UnitKind::Function(_)) && sym.name == u.name {
                continue;
            }
            if sym.ty != ty {
                continue;
            }
            let needs_decl = sym.declared || sym.is_array();
            if !needs_decl {
                continue;
            }
            let _ = id;
            let mut item = sym.name.clone();
            if sym.is_array() {
                let dims: Vec<String> = sym
                    .dims
                    .iter()
                    .map(|d| {
                        let lo_is_one = d.lo.is_int(1);
                        match (&d.hi, lo_is_one) {
                            (Some(hi), true) => print_expr(u, hi),
                            (Some(hi), false) => {
                                format!("{}:{}", print_expr(u, &d.lo), print_expr(u, hi))
                            }
                            (None, true) => "*".to_string(),
                            (None, false) => format!("{}:*", print_expr(u, &d.lo)),
                        }
                    })
                    .collect();
                item.push_str(&format!("({})", dims.join(", ")));
            }
            items.push(item);
        }
        if !items.is_empty() {
            out.push_str(&format!("  {} {}\n", ty, items.join(", ")));
        }
    }
    // PARAMETER constants.
    let params: Vec<String> = u
        .symbols
        .iter()
        .filter_map(|(_, s)| s.param.map(|v| format!("{} = {}", s.name, print_const(v))))
        .collect();
    if !params.is_empty() {
        out.push_str(&format!("  parameter ({})\n", params.join(", ")));
    }
    // COMMON blocks.
    for blk in &u.commons {
        let members: Vec<String> =
            blk.members.iter().map(|&m| u.symbols.name(m).to_string()).collect();
        if blk.name.is_empty() {
            out.push_str(&format!("  common // {}\n", members.join(", ")));
        } else {
            out.push_str(&format!("  common /{}/ {}\n", blk.name, members.join(", ")));
        }
    }
}

fn print_const(v: Const) -> String {
    match v {
        Const::Int(i) => i.to_string(),
        Const::Real(r) => fmt_real(r),
        Const::Logical(true) => ".true.".to_string(),
        Const::Logical(false) => ".false.".to_string(),
    }
}

/// Print one statement (and its nested blocks) at the given indent level.
pub fn print_stmt(u: &ProgramUnit, id: StmtId, indent: usize, out: &mut String) {
    let st = u.stmt(id);
    if matches!(st.kind, StmtKind::Removed) {
        return;
    }
    let pad = "  ".repeat(indent);
    let lead = match st.label {
        Some(l) => format!("{l} {pad}"),
        None => format!("  {pad}"),
    };
    match &st.kind {
        StmtKind::Assign { lhs, rhs } => {
            let l = match lhs {
                LValue::Var(s) => u.symbols.name(*s).to_string(),
                LValue::ArrayElem(s, subs) => {
                    format!("{}({})", u.symbols.name(*s), print_expr_list(u, subs))
                }
            };
            out.push_str(&format!("{lead}{l} = {}\n", print_expr(u, rhs)));
        }
        StmtKind::If { arms, else_block } => {
            // A single-arm IF whose block is one simple statement could be a
            // logical IF, but we always print block form for stability.
            for (i, (cond, block)) in arms.iter().enumerate() {
                if i == 0 {
                    out.push_str(&format!("{lead}if ({}) then\n", print_expr(u, cond)));
                } else {
                    out.push_str(&format!(
                        "  {pad}else if ({}) then\n",
                        print_expr(u, cond)
                    ));
                }
                for &s in block {
                    print_stmt(u, s, indent + 1, out);
                }
            }
            if let Some(block) = else_block {
                out.push_str(&format!("  {pad}else\n"));
                for &s in block {
                    print_stmt(u, s, indent + 1, out);
                }
            }
            out.push_str(&format!("  {pad}endif\n"));
        }
        StmtKind::Do(d) => {
            let head = if d.is_parallel() { "parallel do" } else { "do" };
            // Use the labelled form only when the final body statement still
            // carries the terminating label.
            let labelled_form = d.term_label.is_some()
                && d.body.last().map(|&s| u.stmt(s).label) == Some(d.term_label);
            let mut line = format!("{lead}{head} ");
            if labelled_form {
                line.push_str(&format!("{} ", d.term_label.expect("checked")));
            }
            line.push_str(&format!(
                "{} = {}, {}",
                u.symbols.name(d.var),
                print_expr(u, &d.lo),
                print_expr(u, &d.hi)
            ));
            if let Some(step) = &d.step {
                line.push_str(&format!(", {}", print_expr(u, step)));
            }
            if let Some(par) = &d.parallel {
                if !par.private.is_empty() {
                    let names: Vec<&str> =
                        par.private.iter().map(|&s| u.symbols.name(s)).collect();
                    line.push_str(&format!(" private({})", names.join(", ")));
                }
                for (op, sym) in &par.reductions {
                    line.push_str(&format!(" reduction({}:{})", op, u.symbols.name(*sym)));
                }
                if !par.lastprivate.is_empty() {
                    let names: Vec<&str> =
                        par.lastprivate.iter().map(|&s| u.symbols.name(s)).collect();
                    line.push_str(&format!(" lastprivate({})", names.join(", ")));
                }
            }
            out.push_str(&line);
            out.push('\n');
            for &s in &d.body {
                print_stmt(u, s, indent + 1, out);
            }
            if !labelled_form {
                out.push_str(&format!("  {pad}enddo\n"));
            }
        }
        StmtKind::Call { name, args } => {
            if args.is_empty() {
                out.push_str(&format!("{lead}call {name}()\n"));
            } else {
                out.push_str(&format!("{lead}call {name}({})\n", print_expr_list(u, args)));
            }
        }
        StmtKind::Return => out.push_str(&format!("{lead}return\n")),
        StmtKind::Stop => out.push_str(&format!("{lead}stop\n")),
        StmtKind::Continue => out.push_str(&format!("{lead}continue\n")),
        StmtKind::Print { items } => {
            if items.is_empty() {
                out.push_str(&format!("{lead}print *\n"));
            } else {
                out.push_str(&format!("{lead}print *, {}\n", print_expr_list(u, items)));
            }
        }
        StmtKind::Removed => {}
    }
}

fn print_expr_list(u: &ProgramUnit, es: &[Expr]) -> String {
    es.iter().map(|e| print_expr(u, e)).collect::<Vec<_>>().join(", ")
}

/// Print an expression with minimal parentheses.
pub fn print_expr(u: &ProgramUnit, e: &Expr) -> String {
    print_prec(&u.symbols, e, 0)
}

fn prec(e: &Expr) -> u8 {
    match e {
        Expr::Bin { op, .. } => match op {
            BinOp::Or => 1,
            BinOp::And => 2,
            BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge | BinOp::Eq | BinOp::Ne => 4,
            BinOp::Add | BinOp::Sub | BinOp::Concat => 5,
            BinOp::Mul | BinOp::Div => 6,
            BinOp::Pow => 8,
        },
        Expr::Un { op: UnOp::Neg, .. } => 5,
        Expr::Un { op: UnOp::Not, .. } => 3,
        _ => 10,
    }
}

fn print_prec(sy: &SymbolTable, e: &Expr, min: u8) -> String {
    let p = prec(e);
    let body = match e {
        Expr::Int(v) => v.to_string(),
        Expr::Real(v) => fmt_real(*v),
        Expr::Double(v) => fmt_double(*v),
        Expr::Logical(true) => ".true.".into(),
        Expr::Logical(false) => ".false.".into(),
        Expr::Str(s) => format!("'{}'", s.replace('\'', "''")),
        Expr::Var(s) => sy.name(*s).to_string(),
        Expr::ArrayRef { sym, subs } => {
            let subs: Vec<String> = subs.iter().map(|s| print_prec(sy, s, 0)).collect();
            format!("{}({})", sy.name(*sym), subs.join(", "))
        }
        Expr::Bin { op, l, r } => {
            let (lmin, rmin) = match op {
                BinOp::Pow => (p + 1, p),
                _ => (p, p + 1),
            };
            let ops = match op {
                BinOp::Add => "+",
                BinOp::Sub => "-",
                BinOp::Mul => "*",
                BinOp::Div => "/",
                BinOp::Pow => "**",
                BinOp::Lt => ".lt.",
                BinOp::Le => ".le.",
                BinOp::Gt => ".gt.",
                BinOp::Ge => ".ge.",
                BinOp::Eq => ".eq.",
                BinOp::Ne => ".ne.",
                BinOp::And => ".and.",
                BinOp::Or => ".or.",
                BinOp::Concat => "//",
            };
            format!("{} {} {}", print_prec(sy, l, lmin), ops, print_prec(sy, r, rmin))
        }
        Expr::Un { op: UnOp::Neg, e } => format!("-{}", print_prec(sy, e, 6)),
        Expr::Un { op: UnOp::Not, e } => format!(".not. {}", print_prec(sy, e, 3)),
        Expr::Intrinsic { op, args } => {
            let args: Vec<String> = args.iter().map(|a| print_prec(sy, a, 0)).collect();
            format!("{}({})", op.name(), args.join(", "))
        }
        Expr::Call { name, args } => {
            let args: Vec<String> = args.iter().map(|a| print_prec(sy, a, 0)).collect();
            format!("{}({})", name, args.join(", "))
        }
    };
    if p < min {
        format!("({body})")
    } else {
        body
    }
}

/// Shortest-round-trip REAL literal spelling.
fn fmt_real(v: f64) -> String {
    let s = format!("{v:?}");
    if s.contains('e') || s.contains('.') {
        s
    } else {
        format!("{s}.0")
    }
}

/// DOUBLE PRECISION spelling (`D` exponent).
fn fmt_double(v: f64) -> String {
    let s = format!("{v:?}");
    if s.contains('e') {
        s.replace('e', "d")
    } else {
        format!("{s}d0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    fn fixpoint(src: &str) {
        let p1 = parse_program(src).expect("parse 1");
        let s1 = print_program(&p1);
        let p2 = parse_program(&s1).unwrap_or_else(|e| panic!("reparse failed: {e}\n{s1}"));
        let s2 = print_program(&p2);
        assert_eq!(s1, s2, "printer not a fixpoint");
    }

    #[test]
    fn simple_program_fixpoint() {
        fixpoint(
            "program t\ninteger n\nparameter (n = 10)\nreal a(n)\ndo i = 1, n\na(i) = 2.0 * i\n\
             enddo\nend\n",
        );
    }

    #[test]
    fn parallel_do_clauses_fixpoint() {
        fixpoint(
            "program t\nreal a(100), s\nparallel do i = 1, 100 private(t1) reduction(+:s)\n\
             t1 = a(i)\ns = s + t1\nenddo\nend\n",
        );
    }

    #[test]
    fn if_elseif_else_fixpoint() {
        fixpoint(
            "program t\nif (x .lt. 1.0) then\ny = 1.0\nelse if (x .lt. 2.0) then\ny = 2.0\n\
             else\ny = 3.0\nendif\nend\n",
        );
    }

    #[test]
    fn labelled_do_fixpoint() {
        fixpoint("program t\nreal a(10)\ndo 10 i = 1, 10\na(i) = 0.0\n10 continue\nend\n");
    }

    #[test]
    fn precedence_minimal_parens() {
        let p = parse_program("program t\nx = a - (b - c)\ny = (a + b) * c\nz = -a ** 2\nend\n")
            .unwrap();
        let s = print_program(&p);
        assert!(s.contains("x = a - (b - c)"), "{s}");
        assert!(s.contains("y = (a + b) * c"), "{s}");
        assert!(s.contains("z = -a ** 2"), "{s}");
    }

    #[test]
    fn subroutine_and_common_fixpoint() {
        fixpoint(
            "subroutine sweep(a, n)\ninteger n\nreal a(n)\ncommon /ctl/ tol, itmax\n\
             do i = 1, n\na(i) = a(i) + tol\nenddo\nreturn\nend\n",
        );
    }

    #[test]
    fn function_fixpoint() {
        fixpoint(
            "real function norm(v, n)\ninteger n\nreal v(n)\nnorm = 0.0\ndo i = 1, n\n\
             norm = norm + v(i) * v(i)\nenddo\nnorm = sqrt(norm)\nend\n",
        );
    }

    #[test]
    fn double_literal_spelling() {
        let p = parse_program("program t\nx = 1.5d0\nend\n").unwrap();
        let s = print_program(&p);
        assert!(s.contains("1.5d0"), "{s}");
    }
}
