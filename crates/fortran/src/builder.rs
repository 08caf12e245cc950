//! Programmatic AST construction.
//!
//! The synthetic workload suite and the transformation unit tests build
//! programs directly rather than via source text. The builder keeps a block
//! stack so nested loops and IF arms read naturally:
//!
//! ```
//! use ped_fortran::builder::{UnitBuilder, ex};
//! let mut b = UnitBuilder::main("saxpy");
//! let n = b.param_int("n", 100);
//! let a = b.real_array("a", &[100]);
//! let x = b.real_scalar("x");
//! let i = b.int_scalar("i");
//! b.do_loop(i, ex::int(1), ex::var(n), |b| {
//!     b.assign(ex::elem(a, vec![ex::var(i)]), ex::mul(ex::var(x), ex::var(i)));
//! });
//! let unit = b.finish();
//! assert_eq!(unit.body.len(), 1);
//! ```

use crate::ast::*;
use crate::span::Span;
use crate::symbols::{ArrayDim, Const, SymId, Ty};

/// Expression construction helpers.
pub mod ex {
    use super::*;

    /// Integer literal.
    pub fn int(v: i64) -> Expr {
        Expr::Int(v)
    }

    /// Real literal.
    pub fn real(v: f64) -> Expr {
        Expr::Real(v)
    }

    /// Variable reference.
    pub fn var(s: SymId) -> Expr {
        Expr::Var(s)
    }

    /// Array element expression.
    pub fn idx(sym: SymId, subs: Vec<Expr>) -> Expr {
        Expr::ArrayRef { sym, subs }
    }

    /// Array element l-value.
    pub fn elem(sym: SymId, subs: Vec<Expr>) -> LValue {
        LValue::ArrayElem(sym, subs)
    }

    /// Scalar l-value.
    pub fn lv(sym: SymId) -> LValue {
        LValue::Var(sym)
    }

    /// `a + b`
    pub fn add(a: Expr, b: Expr) -> Expr {
        Expr::bin(BinOp::Add, a, b)
    }

    /// `a - b`
    pub fn sub(a: Expr, b: Expr) -> Expr {
        Expr::bin(BinOp::Sub, a, b)
    }

    /// `a * b`
    pub fn mul(a: Expr, b: Expr) -> Expr {
        Expr::bin(BinOp::Mul, a, b)
    }

    /// `a / b`
    pub fn div(a: Expr, b: Expr) -> Expr {
        Expr::bin(BinOp::Div, a, b)
    }

    /// `a ** b`
    pub fn pow(a: Expr, b: Expr) -> Expr {
        Expr::bin(BinOp::Pow, a, b)
    }

    /// Relational comparison.
    pub fn cmp(op: BinOp, a: Expr, b: Expr) -> Expr {
        debug_assert!(op.is_relational());
        Expr::bin(op, a, b)
    }

    /// Intrinsic application.
    pub fn call(op: Intrinsic, args: Vec<Expr>) -> Expr {
        Expr::Intrinsic { op, args }
    }
}

/// Incremental builder for one program unit.
pub struct UnitBuilder {
    unit: ProgramUnit,
    /// Stack of open blocks; index 0 is the unit body.
    blocks: Vec<Block>,
}

impl UnitBuilder {
    /// Start a main program.
    pub fn main(name: &str) -> Self {
        UnitBuilder { unit: ProgramUnit::new(name, UnitKind::Main), blocks: vec![Vec::new()] }
    }

    /// Start a subroutine with the given dummy-argument names. Argument
    /// symbols are returned in order.
    pub fn subroutine(name: &str, args: &[&str]) -> (Self, Vec<SymId>) {
        let mut b = UnitBuilder {
            unit: ProgramUnit::new(name, UnitKind::Subroutine),
            blocks: vec![Vec::new()],
        };
        let ids = b.install_args(args);
        (b, ids)
    }

    /// Start a function of the given result type; returns the builder, the
    /// result symbol, and the argument symbols.
    pub fn function(name: &str, ty: Ty, args: &[&str]) -> (Self, SymId, Vec<SymId>) {
        let mut b = UnitBuilder {
            unit: ProgramUnit::new(name, UnitKind::Function(ty)),
            blocks: vec![Vec::new()],
        };
        let ret = b.unit.symbols.intern(name);
        b.unit.symbols.sym_mut(ret).ty = ty;
        b.unit.symbols.sym_mut(ret).declared = true;
        let ids = b.install_args(args);
        (b, ret, ids)
    }

    fn install_args(&mut self, args: &[&str]) -> Vec<SymId> {
        let mut ids = Vec::new();
        for (i, a) in args.iter().enumerate() {
            let s = self.unit.symbols.intern(a);
            self.unit.symbols.sym_mut(s).arg_index = Some(i);
            self.unit.args.push(s);
            ids.push(s);
        }
        ids
    }

    // ------------------------------------------------------- symbols ----

    /// Declare an integer scalar.
    pub fn int_scalar(&mut self, name: &str) -> SymId {
        self.scalar(name, Ty::Integer)
    }

    /// Declare a real scalar.
    pub fn real_scalar(&mut self, name: &str) -> SymId {
        self.scalar(name, Ty::Real)
    }

    /// Declare a scalar of the given type.
    pub fn scalar(&mut self, name: &str, ty: Ty) -> SymId {
        let s = self.unit.symbols.intern(name);
        self.unit.symbols.sym_mut(s).ty = ty;
        self.unit.symbols.sym_mut(s).declared = true;
        s
    }

    /// Declare a real array with constant extents (lower bounds 1).
    pub fn real_array(&mut self, name: &str, dims: &[i64]) -> SymId {
        self.array(name, Ty::Real, dims)
    }

    /// Declare an integer array with constant extents.
    pub fn int_array(&mut self, name: &str, dims: &[i64]) -> SymId {
        self.array(name, Ty::Integer, dims)
    }

    /// Declare an array of the given type with constant extents.
    pub fn array(&mut self, name: &str, ty: Ty, dims: &[i64]) -> SymId {
        let s = self.scalar(name, ty);
        self.unit.symbols.sym_mut(s).dims =
            dims.iter().map(|&d| ArrayDim::upto(Expr::Int(d))).collect();
        s
    }

    /// Declare an integer `PARAMETER` constant.
    pub fn param_int(&mut self, name: &str, v: i64) -> SymId {
        let s = self.scalar(name, Ty::Integer);
        self.unit.symbols.sym_mut(s).param = Some(Const::Int(v));
        s
    }

    /// Place symbols in a `COMMON` block.
    pub fn common(&mut self, block: &str, members: &[SymId]) {
        for (i, &m) in members.iter().enumerate() {
            self.unit.symbols.sym_mut(m).common = Some(crate::symbols::CommonLoc {
                block: block.to_ascii_lowercase(),
                index: i,
            });
        }
        self.unit.commons.push(CommonBlock {
            name: block.to_ascii_lowercase(),
            members: members.to_vec(),
        });
    }

    // ---------------------------------------------------- statements ----

    fn push(&mut self, kind: StmtKind) -> StmtId {
        let id = self.unit.alloc_stmt(kind, Span::synthetic());
        self.blocks.last_mut().expect("block stack never empty").push(id);
        id
    }

    /// `lhs = rhs`
    pub fn assign(&mut self, lhs: LValue, rhs: Expr) -> StmtId {
        self.push(StmtKind::Assign { lhs, rhs })
    }

    /// `DO var = lo, hi` with a body built by `f`.
    pub fn do_loop(
        &mut self,
        var: SymId,
        lo: Expr,
        hi: Expr,
        f: impl FnOnce(&mut Self),
    ) -> StmtId {
        self.do_loop_step(var, lo, hi, None, f)
    }

    /// `DO var = lo, hi, step` with a body built by `f`.
    pub fn do_loop_step(
        &mut self,
        var: SymId,
        lo: Expr,
        hi: Expr,
        step: Option<Expr>,
        f: impl FnOnce(&mut Self),
    ) -> StmtId {
        self.blocks.push(Vec::new());
        f(self);
        let body = self.blocks.pop().expect("pushed above");
        self.push(StmtKind::Do(DoLoop {
            var,
            lo,
            hi,
            step,
            body,
            term_label: None,
            parallel: None,
        }))
    }

    /// `IF (cond) THEN … ELSE … ENDIF`.
    pub fn if_else(
        &mut self,
        cond: Expr,
        then_f: impl FnOnce(&mut Self),
        else_f: impl FnOnce(&mut Self),
    ) -> StmtId {
        self.blocks.push(Vec::new());
        then_f(self);
        let then_b = self.blocks.pop().expect("pushed above");
        self.blocks.push(Vec::new());
        else_f(self);
        let else_b = self.blocks.pop().expect("pushed above");
        self.push(StmtKind::If { arms: vec![(cond, then_b)], else_block: Some(else_b) })
    }

    /// `CALL name(args)`.
    pub fn call(&mut self, name: &str, args: Vec<Expr>) -> StmtId {
        self.push(StmtKind::Call { name: name.to_ascii_lowercase(), args })
    }

    /// `PRINT *, items`.
    pub fn print(&mut self, items: Vec<Expr>) -> StmtId {
        self.push(StmtKind::Print { items })
    }

    /// `RETURN`.
    pub fn ret(&mut self) -> StmtId {
        self.push(StmtKind::Return)
    }

    /// Finish, returning the completed unit.
    pub fn finish(mut self) -> ProgramUnit {
        assert_eq!(self.blocks.len(), 1, "unclosed block in builder");
        self.unit.body = self.blocks.pop().expect("checked");
        self.unit
    }
}

/// Assemble a [`Program`] from units.
pub fn program(units: Vec<ProgramUnit>) -> Program {
    Program { units }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::printer::print_program;

    #[test]
    fn built_program_prints_and_reparses() {
        let mut b = UnitBuilder::main("t");
        let n = b.param_int("n", 8);
        let a = b.real_array("a", &[8]);
        let i = b.int_scalar("i");
        b.do_loop(i, ex::int(1), ex::var(n), |b| {
            b.assign(ex::elem(a, vec![ex::var(i)]), ex::real(1.0));
        });
        let p = program(vec![b.finish()]);
        let s = print_program(&p);
        let p2 = crate::parser::parse_program(&s).expect("reparse");
        assert_eq!(print_program(&p2), s);
    }

    #[test]
    fn subroutine_args_in_order() {
        let (b, args) = UnitBuilder::subroutine("f", &["x", "n"]);
        let u = b.finish();
        assert_eq!(u.args, args);
        assert_eq!(u.symbols.sym(args[1]).arg_index, Some(1));
    }

    #[test]
    fn function_result_symbol() {
        let (mut b, ret, _) = UnitBuilder::function("g", Ty::Real, &["x"]);
        b.assign(ex::lv(ret), ex::real(0.0));
        let u = b.finish();
        assert_eq!(u.symbols.name(ret), "g");
        assert!(matches!(u.kind, UnitKind::Function(Ty::Real)));
    }

    #[test]
    #[should_panic(expected = "unclosed block")]
    fn unclosed_block_panics() {
        let mut b = UnitBuilder::main("t");
        b.blocks.push(Vec::new());
        let _ = b.finish();
    }

    #[test]
    fn if_else_builds_two_blocks() {
        let mut b = UnitBuilder::main("t");
        let x = b.real_scalar("x");
        b.if_else(
            ex::cmp(BinOp::Gt, ex::var(x), ex::real(0.0)),
            |b| {
                b.assign(ex::lv(x), ex::real(1.0));
            },
            |b| {
                b.assign(ex::lv(x), ex::real(2.0));
            },
        );
        let u = b.finish();
        match &u.stmt(u.body[0]).kind {
            StmtKind::If { arms, else_block } => {
                assert_eq!(arms.len(), 1);
                assert_eq!(arms[0].1.len(), 1);
                assert_eq!(else_block.as_ref().map(|b| b.len()), Some(1));
            }
            other => panic!("expected IF, got {other:?}"),
        }
    }
}
