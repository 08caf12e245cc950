//! Abstract syntax tree.
//!
//! Statements live in a per-unit arena ([`ProgramUnit::stmts`]) and blocks
//! are vectors of [`StmtId`]. Stable statement identities are what make the
//! editor core's dependence graph, undo stack, and incremental reanalysis
//! possible: a transformation may splice blocks and retype statements, but a
//! surviving statement keeps its id, so dependence endpoints and user marks
//! attached to it remain valid — exactly the property Ped's internal program
//! representation maintained across edits.

use crate::span::Span;
use crate::symbols::{SymbolTable, SymId};

/// Stable identifier of a statement inside one program unit's arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StmtId(pub u32);

impl StmtId {
    /// Index into the statement arena.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for StmtId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// An ordered sequence of statements (a loop body, an IF arm, a unit body).
pub type Block = Vec<StmtId>;

/// A whole Fortran program: one main unit plus subroutines/functions.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Program {
    /// Program units in source order.
    pub units: Vec<ProgramUnit>,
}

impl Program {
    /// Find a unit by (case-insensitive) name.
    pub fn unit(&self, name: &str) -> Option<&ProgramUnit> {
        let key = name.to_ascii_lowercase();
        self.units.iter().find(|u| u.name == key)
    }

    /// Index of a unit by name.
    pub fn unit_index(&self, name: &str) -> Option<usize> {
        let key = name.to_ascii_lowercase();
        self.units.iter().position(|u| u.name == key)
    }

    /// The main program unit, if present.
    pub fn main(&self) -> Option<&ProgramUnit> {
        self.units.iter().find(|u| u.kind == UnitKind::Main)
    }
}

/// The kind of a program unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnitKind {
    /// `PROGRAM` (or unnamed main).
    Main,
    /// `SUBROUTINE`.
    Subroutine,
    /// `FUNCTION` returning its declared type.
    Function(crate::symbols::Ty),
}

/// Members of one `COMMON` block as declared in a unit.
#[derive(Debug, Clone, PartialEq)]
pub struct CommonBlock {
    /// Block name; `""` for blank common.
    pub name: String,
    /// Member symbols in declaration order.
    pub members: Vec<SymId>,
}

/// One program unit: name, dummy arguments, symbols, and the statement arena.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgramUnit {
    /// Lower-cased unit name.
    pub name: String,
    /// Main / subroutine / function.
    pub kind: UnitKind,
    /// Dummy arguments, in order.
    pub args: Vec<SymId>,
    /// Symbol table for this unit.
    pub symbols: SymbolTable,
    /// Statement arena. Entries are never removed, only tombstoned with
    /// [`StmtKind::Removed`], so `StmtId`s stay stable across edits.
    pub stmts: Vec<Stmt>,
    /// Executable body: top-level statement list.
    pub body: Block,
    /// `COMMON` blocks declared in this unit.
    pub commons: Vec<CommonBlock>,
}

impl ProgramUnit {
    /// Create an empty unit.
    pub fn new(name: &str, kind: UnitKind) -> Self {
        ProgramUnit {
            name: name.to_ascii_lowercase(),
            kind,
            args: Vec::new(),
            symbols: SymbolTable::new(),
            stmts: Vec::new(),
            body: Vec::new(),
            commons: Vec::new(),
        }
    }

    /// Allocate a statement in the arena and return its id.
    pub fn alloc_stmt(&mut self, kind: StmtKind, span: Span) -> StmtId {
        let id = StmtId(self.stmts.len() as u32);
        self.stmts.push(Stmt { id, label: None, span, kind });
        id
    }

    /// Immutable statement access.
    pub fn stmt(&self, id: StmtId) -> &Stmt {
        &self.stmts[id.index()]
    }

    /// Mutable statement access.
    pub fn stmt_mut(&mut self, id: StmtId) -> &mut Stmt {
        &mut self.stmts[id.index()]
    }

    /// The `DoLoop` of a statement known to be a loop. Panics otherwise.
    pub fn loop_of(&self, id: StmtId) -> &DoLoop {
        match &self.stmt(id).kind {
            StmtKind::Do(d) => d,
            other => panic!("{id} is not a DO loop: {other:?}"),
        }
    }

    /// Mutable variant of [`Self::loop_of`].
    pub fn loop_of_mut(&mut self, id: StmtId) -> &mut DoLoop {
        match &mut self.stmt_mut(id).kind {
            StmtKind::Do(d) => d,
            other => panic!("{id} is not a DO loop: {other:?}"),
        }
    }

    /// True if the statement is a DO loop; false for ids past the arena.
    pub fn is_loop(&self, id: StmtId) -> bool {
        self.stmts
            .get(id.index())
            .is_some_and(|s| matches!(s.kind, StmtKind::Do(_)))
    }
}

/// A statement node in the arena.
#[derive(Debug, Clone, PartialEq)]
pub struct Stmt {
    /// Arena identity.
    pub id: StmtId,
    /// Numeric statement label, if any.
    pub label: Option<u32>,
    /// Physical source span ([`Span::synthetic`] when built in memory).
    pub span: Span,
    /// The statement proper.
    pub kind: StmtKind,
}

/// Statement forms of the structured subset.
#[derive(Debug, Clone, PartialEq)]
pub enum StmtKind {
    /// `lhs = rhs`
    Assign {
        /// Assignment target.
        lhs: LValue,
        /// Right-hand side.
        rhs: Expr,
    },
    /// Block IF: `IF (c1) THEN … ELSE IF (c2) THEN … ELSE … ENDIF`.
    /// `arms` pairs each condition with its block; `else_block` is the
    /// trailing unconditional arm. A logical IF parses as one arm whose
    /// block holds a single statement.
    If {
        /// `(condition, block)` pairs, first is the `IF`, rest `ELSE IF`s.
        arms: Vec<(Expr, Block)>,
        /// `ELSE` block, if present.
        else_block: Option<Block>,
    },
    /// `DO` / `PARALLEL DO` loop.
    Do(DoLoop),
    /// `CALL name(args)`.
    Call {
        /// Callee name (resolved against the program at analysis time).
        name: String,
        /// Actual arguments.
        args: Vec<Expr>,
    },
    /// `RETURN`
    Return,
    /// `STOP`
    Stop,
    /// `CONTINUE` (no-op; loop terminators)
    Continue,
    /// `PRINT *, items`
    Print {
        /// Output list items.
        items: Vec<Expr>,
    },
    /// Tombstone left where a transformation deleted a statement.
    Removed,
}

/// Reduction operators recognized for `REDUCTION` clauses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RedOp {
    /// `+`
    Sum,
    /// `*`
    Product,
    /// `MIN`
    Min,
    /// `MAX`
    Max,
}

impl std::fmt::Display for RedOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            RedOp::Sum => "+",
            RedOp::Product => "*",
            RedOp::Min => "min",
            RedOp::Max => "max",
        };
        write!(f, "{s}")
    }
}

/// Parallel-dialect annotations on a `PARALLEL DO`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ParallelInfo {
    /// Variables given a per-iteration private copy.
    pub private: Vec<SymId>,
    /// Reduction variables with their combining operator.
    pub reductions: Vec<(RedOp, SymId)>,
    /// Private variables whose final-iteration value is copied out.
    pub lastprivate: Vec<SymId>,
}

/// A `DO` loop: `DO var = lo, hi [, step]` with a body block.
#[derive(Debug, Clone, PartialEq)]
pub struct DoLoop {
    /// Loop index variable.
    pub var: SymId,
    /// Initial value expression.
    pub lo: Expr,
    /// Final value expression.
    pub hi: Expr,
    /// Step expression; `None` means 1.
    pub step: Option<Expr>,
    /// Loop body.
    pub body: Block,
    /// Label of the terminal statement for `DO label` form (printing detail).
    pub term_label: Option<u32>,
    /// `Some` when this is a `PARALLEL DO`.
    pub parallel: Option<ParallelInfo>,
}

impl DoLoop {
    /// The step expression, defaulting to 1.
    pub fn step_expr(&self) -> Expr {
        self.step.clone().unwrap_or(Expr::Int(1))
    }

    /// True if this loop is marked parallel.
    pub fn is_parallel(&self) -> bool {
        self.parallel.is_some()
    }
}

/// An assignment target.
#[derive(Debug, Clone, PartialEq)]
pub enum LValue {
    /// Scalar variable.
    Var(SymId),
    /// Array element `a(subs…)`.
    ArrayElem(SymId, Vec<Expr>),
}

impl LValue {
    /// The assigned symbol.
    pub fn sym(&self) -> SymId {
        match self {
            LValue::Var(s) => *s,
            LValue::ArrayElem(s, _) => *s,
        }
    }

    /// Subscripts, if this is an array element.
    pub fn subs(&self) -> Option<&[Expr]> {
        match self {
            LValue::Var(_) => None,
            LValue::ArrayElem(_, subs) => Some(subs),
        }
    }
}

/// Intrinsic functions of the subset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum Intrinsic {
    Min,
    Max,
    Mod,
    Abs,
    Sqrt,
    Sin,
    Cos,
    Exp,
    Log,
    Float,
    Int,
    Dble,
    Sign,
}

impl Intrinsic {
    /// Parse an intrinsic name.
    pub fn from_name(name: &str) -> Option<Intrinsic> {
        Some(match name {
            "min" | "min0" | "amin1" | "dmin1" => Intrinsic::Min,
            "max" | "max0" | "amax1" | "dmax1" => Intrinsic::Max,
            "mod" | "amod" => Intrinsic::Mod,
            "abs" | "iabs" | "dabs" => Intrinsic::Abs,
            "sqrt" | "dsqrt" => Intrinsic::Sqrt,
            "sin" | "dsin" => Intrinsic::Sin,
            "cos" | "dcos" => Intrinsic::Cos,
            "exp" | "dexp" => Intrinsic::Exp,
            "log" | "alog" | "dlog" => Intrinsic::Log,
            "float" | "real" => Intrinsic::Float,
            "int" | "ifix" | "idint" => Intrinsic::Int,
            "dble" => Intrinsic::Dble,
            "sign" | "isign" | "dsign" => Intrinsic::Sign,
            _ => return None,
        })
    }

    /// Canonical lower-case name.
    pub fn name(self) -> &'static str {
        match self {
            Intrinsic::Min => "min",
            Intrinsic::Max => "max",
            Intrinsic::Mod => "mod",
            Intrinsic::Abs => "abs",
            Intrinsic::Sqrt => "sqrt",
            Intrinsic::Sin => "sin",
            Intrinsic::Cos => "cos",
            Intrinsic::Exp => "exp",
            Intrinsic::Log => "log",
            Intrinsic::Float => "float",
            Intrinsic::Int => "int",
            Intrinsic::Dble => "dble",
            Intrinsic::Sign => "sign",
        }
    }
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Pow,
    Lt,
    Le,
    Gt,
    Ge,
    Eq,
    Ne,
    And,
    Or,
    Concat,
}

impl BinOp {
    /// True for `<`, `<=`, `>`, `>=`, `==`, `/=`.
    pub fn is_relational(self) -> bool {
        matches!(self, BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge | BinOp::Eq | BinOp::Ne)
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum UnOp {
    Neg,
    Not,
}

/// Expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Integer literal.
    Int(i64),
    /// `REAL` literal.
    Real(f64),
    /// `DOUBLE PRECISION` literal (`1D0` spelling).
    Double(f64),
    /// `.TRUE.` / `.FALSE.`.
    Logical(bool),
    /// Character literal (PRINT lists only).
    Str(String),
    /// Scalar variable reference.
    Var(SymId),
    /// Array element reference.
    ArrayRef {
        /// Array symbol.
        sym: SymId,
        /// Subscript expressions, one per dimension.
        subs: Vec<Expr>,
    },
    /// Binary operation.
    Bin {
        /// Operator.
        op: BinOp,
        /// Left operand.
        l: Box<Expr>,
        /// Right operand.
        r: Box<Expr>,
    },
    /// Unary operation.
    Un {
        /// Operator.
        op: UnOp,
        /// Operand.
        e: Box<Expr>,
    },
    /// Intrinsic function application.
    Intrinsic {
        /// Which intrinsic.
        op: Intrinsic,
        /// Arguments.
        args: Vec<Expr>,
    },
    /// User function reference.
    Call {
        /// Callee name.
        name: String,
        /// Arguments.
        args: Vec<Expr>,
    },
}

impl Expr {
    /// Build `l op r`.
    pub fn bin(op: BinOp, l: Expr, r: Expr) -> Expr {
        Expr::Bin { op, l: Box::new(l), r: Box::new(r) }
    }

    /// Build `-e`.
    #[allow(clippy::should_implement_trait)] // builder helper, not an operator impl
    pub fn neg(e: Expr) -> Expr {
        Expr::Un { op: UnOp::Neg, e: Box::new(e) }
    }

    /// Integer literal value, if this is one.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Expr::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// True if the expression is exactly the integer `v`.
    pub fn is_int(&self, v: i64) -> bool {
        self.as_int() == Some(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arena_allocation_is_stable() {
        let mut u = ProgramUnit::new("T", UnitKind::Main);
        let a = u.alloc_stmt(StmtKind::Continue, Span::synthetic());
        let b = u.alloc_stmt(StmtKind::Stop, Span::synthetic());
        assert_ne!(a, b);
        assert_eq!(u.stmt(a).kind, StmtKind::Continue);
        u.stmt_mut(a).kind = StmtKind::Removed;
        assert_eq!(u.stmt(b).kind, StmtKind::Stop);
        assert_eq!(u.name, "t");
    }

    #[test]
    fn lvalue_sym() {
        let s = SymId(3);
        assert_eq!(LValue::Var(s).sym(), s);
        assert_eq!(LValue::ArrayElem(s, vec![Expr::Int(1)]).sym(), s);
        assert!(LValue::Var(s).subs().is_none());
    }

    #[test]
    fn intrinsic_names_round_trip() {
        for op in [
            Intrinsic::Min,
            Intrinsic::Max,
            Intrinsic::Mod,
            Intrinsic::Abs,
            Intrinsic::Sqrt,
            Intrinsic::Sin,
            Intrinsic::Cos,
            Intrinsic::Exp,
            Intrinsic::Log,
            Intrinsic::Float,
            Intrinsic::Int,
            Intrinsic::Dble,
            Intrinsic::Sign,
        ] {
            assert_eq!(Intrinsic::from_name(op.name()), Some(op));
        }
        assert_eq!(Intrinsic::from_name("nosuch"), None);
    }

    #[test]
    fn step_defaults_to_one() {
        let d = DoLoop {
            var: SymId(0),
            lo: Expr::Int(1),
            hi: Expr::Int(10),
            step: None,
            body: vec![],
            term_label: None,
            parallel: None,
        };
        assert!(d.step_expr().is_int(1));
        assert!(!d.is_parallel());
    }
}
