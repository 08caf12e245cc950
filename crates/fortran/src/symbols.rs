//! Per-unit symbol tables.
//!
//! Each program unit owns a [`SymbolTable`]. Names are interned to dense
//! [`SymId`]s so analyses can use flat vectors indexed by symbol. Fortran
//! implicit typing (I–N integer, otherwise real) applies to undeclared
//! names, exactly as Ped's front end assumed.

use std::collections::HashMap;

use crate::ast::Expr;

/// Dense identifier for a symbol within one program unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SymId(pub u32);

impl SymId {
    /// Index into per-symbol vectors.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Fortran base types in the supported subset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Ty {
    Integer,
    Real,
    Double,
    Logical,
}

impl Ty {
    /// Implicit type for an undeclared name (first-letter rule).
    pub fn implicit_for(name: &str) -> Ty {
        match name.chars().next() {
            Some(c) if ('i'..='n').contains(&c.to_ascii_lowercase()) => Ty::Integer,
            _ => Ty::Real,
        }
    }
}

impl std::fmt::Display for Ty {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Ty::Integer => "integer",
            Ty::Real => "real",
            Ty::Double => "double precision",
            Ty::Logical => "logical",
        };
        write!(f, "{s}")
    }
}

/// A compile-time constant value (from `PARAMETER`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Const {
    Int(i64),
    Real(f64),
    Logical(bool),
}

impl Const {
    /// Integer view, if this constant is an integer.
    pub fn as_int(self) -> Option<i64> {
        match self {
            Const::Int(v) => Some(v),
            _ => None,
        }
    }
}

/// One dimension of an array declaration: `lo:hi`, `hi` alone (lo = 1), or
/// `*` (assumed size, final dimension of a dummy array).
#[derive(Debug, Clone, PartialEq)]
pub struct ArrayDim {
    /// Lower bound (defaults to 1).
    pub lo: Expr,
    /// Upper bound; `None` means assumed size (`*`).
    pub hi: Option<Expr>,
}

impl ArrayDim {
    /// `1:hi` dimension.
    pub fn upto(hi: Expr) -> Self {
        ArrayDim { lo: Expr::Int(1), hi: Some(hi) }
    }
}

/// Storage location of a symbol inside a `COMMON` block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommonLoc {
    /// Common block name (`//` blank common is named `""`).
    pub block: String,
    /// Position of this symbol within the block's member list.
    pub index: usize,
}

/// A named entity of a program unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Symbol {
    /// Lower-cased source name.
    pub name: String,
    /// Base type (implicit if not declared).
    pub ty: Ty,
    /// Array dimensions; empty for scalars.
    pub dims: Vec<ArrayDim>,
    /// Position in the dummy-argument list, if this is a dummy argument.
    pub arg_index: Option<usize>,
    /// `COMMON` placement, if any.
    pub common: Option<CommonLoc>,
    /// `PARAMETER` constant value, if any.
    pub param: Option<Const>,
    /// True once an explicit type declaration was seen.
    pub declared: bool,
}

impl Symbol {
    /// True if the symbol is an array.
    pub fn is_array(&self) -> bool {
        !self.dims.is_empty()
    }

    /// Number of array dimensions (0 for scalars).
    pub fn rank(&self) -> usize {
        self.dims.len()
    }
}

/// Interning symbol table for one program unit.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SymbolTable {
    syms: Vec<Symbol>,
    by_name: HashMap<String, SymId>,
}

impl SymbolTable {
    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern `name` (case-insensitive), creating an implicitly-typed scalar
    /// on first sight.
    pub fn intern(&mut self, name: &str) -> SymId {
        let key = name.to_ascii_lowercase();
        if let Some(&id) = self.by_name.get(&key) {
            return id;
        }
        let id = SymId(self.syms.len() as u32);
        self.syms.push(Symbol {
            ty: Ty::implicit_for(&key),
            name: key.clone(),
            dims: Vec::new(),
            arg_index: None,
            common: None,
            param: None,
            declared: false,
        });
        self.by_name.insert(key, id);
        id
    }

    /// Look up an existing symbol without creating it.
    pub fn lookup(&self, name: &str) -> Option<SymId> {
        self.by_name.get(&name.to_ascii_lowercase()).copied()
    }

    /// Immutable access; panics on a foreign `SymId`.
    pub fn sym(&self, id: SymId) -> &Symbol {
        &self.syms[id.index()]
    }

    /// Mutable access; panics on a foreign `SymId`.
    pub fn sym_mut(&mut self, id: SymId) -> &mut Symbol {
        &mut self.syms[id.index()]
    }

    /// Name of a symbol.
    pub fn name(&self, id: SymId) -> &str {
        &self.syms[id.index()].name
    }

    /// Number of interned symbols.
    pub fn len(&self) -> usize {
        self.syms.len()
    }

    /// True if no symbols are interned.
    pub fn is_empty(&self) -> bool {
        self.syms.is_empty()
    }

    /// Iterate `(SymId, &Symbol)` in interning order.
    pub fn iter(&self) -> impl Iterator<Item = (SymId, &Symbol)> {
        self.syms.iter().enumerate().map(|(i, s)| (SymId(i as u32), s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn implicit_typing() {
        assert_eq!(Ty::implicit_for("i"), Ty::Integer);
        assert_eq!(Ty::implicit_for("n2"), Ty::Integer);
        assert_eq!(Ty::implicit_for("x"), Ty::Real);
        assert_eq!(Ty::implicit_for("alpha"), Ty::Real);
    }

    #[test]
    fn intern_is_case_insensitive_and_idempotent() {
        let mut t = SymbolTable::new();
        let a = t.intern("Foo");
        let b = t.intern("FOO");
        assert_eq!(a, b);
        assert_eq!(t.name(a), "foo");
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn lookup_does_not_create() {
        let t = SymbolTable::new();
        assert_eq!(t.lookup("x"), None);
    }

    #[test]
    fn array_rank() {
        let mut t = SymbolTable::new();
        let a = t.intern("a");
        t.sym_mut(a).dims = vec![ArrayDim::upto(Expr::Int(10)), ArrayDim::upto(Expr::Int(20))];
        assert!(t.sym(a).is_array());
        assert_eq!(t.sym(a).rank(), 2);
    }
}
