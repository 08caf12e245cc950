//! # ped-fortran — the Fortran 77 front end for the ParaScope Editor reproduction
//!
//! The ParaScope Editor (Ped) operates on scientific Fortran programs. This
//! crate provides the substrate every other crate builds on:
//!
//! * a lexer and parser for a structured Fortran 77 subset ([`parse_program`]),
//!   accepting both fixed-form (column-6 continuation, `C` comments) and
//!   free-form (`&` continuation, `!` comments) sources;
//! * an arena-based AST ([`ast`]) with stable statement identifiers, which the
//!   editor core uses for incremental invalidation and the transformation
//!   catalog uses for in-place rewriting;
//! * per-unit symbol tables ([`symbols`]) with Fortran implicit typing,
//!   `COMMON` blocks, `PARAMETER` constants, and dummy arguments;
//! * a pretty printer ([`printer`]) whose output round-trips through the
//!   parser (checked by property tests);
//! * a programmatic builder ([`builder`]) used by the synthetic workload
//!   suite and by transformation unit tests;
//! * AST walkers ([`visit`]) shared by all analyses.
//!
//! ## Subset
//!
//! Structured Fortran 77: `PROGRAM`/`SUBROUTINE`/`FUNCTION` units, type
//! declarations, `DIMENSION`, `PARAMETER`, `COMMON`, `DO` loops (with
//! `ENDDO` or a labelled terminal statement), block and logical `IF`,
//! assignment, `CALL`, `RETURN`, `STOP`, `CONTINUE`, `PRINT *`, and the
//! parallel dialect `PARALLEL DO` with `PRIVATE`/`REDUCTION`/`LASTPRIVATE`
//! clauses (Ped's stand-in for IBM Parallel Fortran). Unstructured `GOTO`
//! is outside the subset — see DESIGN.md.
//!
//! Tokens must be blank-separated where ambiguous (we do not implement the
//! full "blanks are insignificant" fixed-form rule; none of the analyses
//! depend on it).

pub mod ast;
pub mod builder;
pub mod error;
pub mod lexer;
pub mod parser;
pub mod printer;
pub mod span;
pub mod symbols;
pub mod token;
pub mod visit;

pub use ast::{
    BinOp, Block, DoLoop, Expr, Intrinsic, LValue, ParallelInfo, Program, ProgramUnit, RedOp,
    Stmt, StmtId, StmtKind, UnOp, UnitKind,
};
pub use error::{ParseError, Result};
pub use parser::parse_program;
pub use printer::print_program;
pub use span::{LineNo, Span};
pub use symbols::{SymId, Symbol, SymbolTable, Ty};
