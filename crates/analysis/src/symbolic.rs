//! Symbolic analysis: canonical affine forms.
//!
//! "Symbolic terms in subscript expressions are a key limiting factor in
//! precise dependence analysis" — the dependence tests consume subscripts
//! normalized to the affine form `c0 + Σ ci·vi`, where each `vi` is a loop
//! index or a symbolic unknown (an unanalyzable scalar such as an `n` read
//! from input). Keeping symbolic terms *as terms* (instead of giving up)
//! lets the SIV tests cancel equal symbolic parts — the paper's
//! `a(jplus + i) vs a(jplus + i - 1)` style subscripts — and lets user
//! assertions bind them later.

use ped_fortran::visit::{for_each_stmt, stmt_accesses, walk_expr};
use ped_fortran::{Expr, ProgramUnit, StmtId, SymId, UnOp};
use std::collections::{BTreeMap, HashSet};

/// A canonical affine expression: `konst + Σ terms[v]·v`.
///
/// Variables are per-unit [`SymId`]s; which of them are loop indices vs
/// free symbolics is the caller's business.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Affine {
    /// Coefficients per variable; zero coefficients are never stored.
    pub terms: BTreeMap<SymId, i64>,
    /// Constant part.
    pub konst: i64,
}

impl Affine {
    /// The constant `k`.
    pub fn constant(k: i64) -> Affine {
        Affine { terms: BTreeMap::new(), konst: k }
    }

    /// The single variable `v`.
    pub fn var(v: SymId) -> Affine {
        let mut t = BTreeMap::new();
        t.insert(v, 1);
        Affine { terms: t, konst: 0 }
    }

    /// Coefficient of `v` (0 when absent).
    pub fn coeff(&self, v: SymId) -> i64 {
        self.terms.get(&v).copied().unwrap_or(0)
    }

    /// True if no variables appear.
    pub fn is_const(&self) -> bool {
        self.terms.is_empty()
    }

    /// `self + other`.
    pub fn add(&self, other: &Affine) -> Affine {
        let mut out = self.clone();
        out.konst += other.konst;
        for (v, c) in &other.terms {
            let e = out.terms.entry(*v).or_insert(0);
            *e += c;
            if *e == 0 {
                out.terms.remove(v);
            }
        }
        out
    }

    /// `self - other`.
    pub fn sub(&self, other: &Affine) -> Affine {
        self.add(&other.scale(-1))
    }

    /// `self * k`.
    pub fn scale(&self, k: i64) -> Affine {
        if k == 0 {
            return Affine::constant(0);
        }
        Affine {
            terms: self.terms.iter().map(|(v, c)| (*v, c * k)).collect(),
            konst: self.konst * k,
        }
    }

    /// Remove `v`, returning its coefficient.
    pub fn take(&mut self, v: SymId) -> i64 {
        self.terms.remove(&v).unwrap_or(0)
    }

    /// Variables that appear.
    pub fn vars(&self) -> impl Iterator<Item = SymId> + '_ {
        self.terms.keys().copied()
    }
}

/// Convert an expression to affine form.
///
/// `resolve` supplies integer values for symbols known constant at the point
/// of use (PARAMETER, constant propagation, interprocedural constants, user
/// assertions) — this is where "incorporating user assertions in analysis"
/// plugs in. Returns `None` for non-affine expressions (products of
/// variables, index-array subscripts `a(ind(i))`, `MOD`, user calls …).
pub fn to_affine(e: &Expr, resolve: &dyn Fn(SymId) -> Option<i64>) -> Option<Affine> {
    match e {
        Expr::Int(v) => Some(Affine::constant(*v)),
        Expr::Var(s) => match resolve(*s) {
            Some(v) => Some(Affine::constant(v)),
            None => Some(Affine::var(*s)),
        },
        Expr::Un { op: UnOp::Neg, e } => Some(to_affine(e, resolve)?.scale(-1)),
        Expr::Bin { op, l, r } => {
            use ped_fortran::BinOp::*;
            match op {
                Add => Some(to_affine(l, resolve)?.add(&to_affine(r, resolve)?)),
                Sub => Some(to_affine(l, resolve)?.sub(&to_affine(r, resolve)?)),
                Mul => {
                    let la = to_affine(l, resolve)?;
                    let ra = to_affine(r, resolve)?;
                    if la.is_const() {
                        Some(ra.scale(la.konst))
                    } else if ra.is_const() {
                        Some(la.scale(ra.konst))
                    } else {
                        None
                    }
                }
                Div => {
                    // Only exact constant division stays affine.
                    let la = to_affine(l, resolve)?;
                    let ra = to_affine(r, resolve)?;
                    if ra.is_const() && ra.konst != 0 {
                        let d = ra.konst;
                        if la.konst % d == 0 && la.terms.values().all(|c| c % d == 0) {
                            return Some(Affine {
                                terms: la.terms.iter().map(|(v, c)| (*v, c / d)).collect(),
                                konst: la.konst / d,
                            });
                        }
                    }
                    None
                }
                Pow => {
                    let ra = to_affine(r, resolve)?;
                    let la = to_affine(l, resolve)?;
                    if la.is_const() && ra.is_const() && ra.konst >= 0 {
                        let v = la.konst.checked_pow(u32::try_from(ra.konst).ok()?)?;
                        Some(Affine::constant(v))
                    } else {
                        None
                    }
                }
                _ => None,
            }
        }
        _ => None,
    }
}

/// All symbols that may be written anywhere inside a loop body (including by
/// calls, conservatively). Used for loop-invariance tests.
pub fn written_in_loop(unit: &ProgramUnit, header: StmtId) -> HashSet<SymId> {
    let body = &unit.loop_of(header).body;
    let mut written = HashSet::new();
    written.insert(unit.loop_of(header).var);
    for_each_stmt(unit, body, &mut |sid| {
        for acc in stmt_accesses(unit, sid) {
            if acc.kind.may_write() {
                written.insert(acc.sym);
            }
            if acc.kind == ped_fortran::visit::AccessKind::CallArg {
                // A call may also write COMMON members.
                for (id, sym) in unit.symbols.iter() {
                    if sym.common.is_some() {
                        written.insert(id);
                    }
                }
            }
        }
    });
    written
}

/// Is `e` invariant with respect to a set of loop-written symbols?
/// User function references are never invariant (they may have side
/// effects); array references are invariant only if the array itself is not
/// written and their subscripts are invariant.
pub fn is_invariant(e: &Expr, written: &HashSet<SymId>) -> bool {
    let mut ok = true;
    walk_expr(e, &mut |sub| match sub {
        Expr::Var(s) if written.contains(s) => ok = false,
        Expr::ArrayRef { sym, .. } if written.contains(sym) => ok = false,
        Expr::Call { .. } => ok = false,
        _ => {}
    });
    ok
}

#[cfg(test)]
mod tests {
    use super::*;
    use ped_fortran::builder::{ex, UnitBuilder};

    fn none(_: SymId) -> Option<i64> {
        None
    }

    #[test]
    fn linear_combination() {
        let mut b = UnitBuilder::main("t");
        let i = b.int_scalar("i");
        let j = b.int_scalar("j");
        // 2*i - 3*j + 7
        let e = ex::add(
            ex::sub(ex::mul(ex::int(2), ex::var(i)), ex::mul(ex::int(3), ex::var(j))),
            ex::int(7),
        );
        let a = to_affine(&e, &none).unwrap();
        assert_eq!(a.coeff(i), 2);
        assert_eq!(a.coeff(j), -3);
        assert_eq!(a.konst, 7);
    }

    #[test]
    fn cancellation_removes_terms() {
        let mut b = UnitBuilder::main("t");
        let i = b.int_scalar("i");
        // (i + 1) - i  =>  1
        let e = ex::sub(ex::add(ex::var(i), ex::int(1)), ex::var(i));
        let a = to_affine(&e, &none).unwrap();
        assert!(a.is_const());
        assert_eq!(a.konst, 1);
    }

    #[test]
    fn product_of_variables_is_not_affine() {
        let mut b = UnitBuilder::main("t");
        let i = b.int_scalar("i");
        let j = b.int_scalar("j");
        assert!(to_affine(&ex::mul(ex::var(i), ex::var(j)), &none).is_none());
    }

    #[test]
    fn resolver_folds_symbolics() {
        let mut b = UnitBuilder::main("t");
        let n = b.int_scalar("n");
        let i = b.int_scalar("i");
        // n*i with n = 4 resolves to 4i.
        let e = ex::mul(ex::var(n), ex::var(i));
        let resolve = move |s: SymId| if s == n { Some(4) } else { None };
        let a = to_affine(&e, &resolve).unwrap();
        assert_eq!(a.coeff(i), 4);
    }

    #[test]
    fn exact_division_stays_affine() {
        let mut b = UnitBuilder::main("t");
        let i = b.int_scalar("i");
        let e = ex::div(ex::mul(ex::int(4), ex::var(i)), ex::int(2));
        let a = to_affine(&e, &none).unwrap();
        assert_eq!(a.coeff(i), 2);
        // Inexact division is rejected.
        let e2 = ex::div(ex::mul(ex::int(3), ex::var(i)), ex::int(2));
        assert!(to_affine(&e2, &none).is_none());
    }

    #[test]
    fn index_array_subscript_is_not_affine() {
        let mut b = UnitBuilder::main("t");
        let ind = b.int_array("ind", &[10]);
        let i = b.int_scalar("i");
        let e = ex::idx(ind, vec![ex::var(i)]);
        assert!(to_affine(&e, &none).is_none());
    }

    #[test]
    fn invariance() {
        let mut b = UnitBuilder::main("t");
        let i = b.int_scalar("i");
        let n = b.int_scalar("n");
        let written: HashSet<SymId> = [i].into_iter().collect();
        assert!(is_invariant(&ex::var(n), &written));
        assert!(!is_invariant(&ex::add(ex::var(n), ex::var(i)), &written));
        assert!(!is_invariant(&Expr::Call { name: "f".into(), args: vec![] }, &written));
    }

    #[test]
    fn affine_algebra() {
        let v = SymId(0);
        let a = Affine::var(v).scale(3);
        let b2 = Affine::var(v).scale(-3).add(&Affine::constant(5));
        let s = a.add(&b2);
        assert!(s.is_const());
        assert_eq!(s.konst, 5);
    }
}
