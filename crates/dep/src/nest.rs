//! Loop-nest contexts for dependence testing.
//!
//! A [`NestCtx`] captures the loops shared by a pair of references: index
//! variables, bounds (numeric when resolvable, affine-symbolic otherwise),
//! and steps. The `resolve` hook is where intraprocedural constants,
//! interprocedural constants, and **user assertions** feed the tests — the
//! paper's three-pronged attack on symbolic subscripts.

use ped_analysis::symbolic::{to_affine, Affine};
use ped_fortran::visit::walk_expr;
use ped_fortran::{Expr, ProgramUnit, StmtId, SymId};

/// One loop of the shared nest (outermost first).
#[derive(Debug, Clone)]
pub struct LoopCtx {
    /// The DO statement.
    pub header: StmtId,
    /// Index variable.
    pub var: SymId,
    /// Lower bound as affine form (None when non-affine).
    pub lo: Option<Affine>,
    /// Upper bound as affine form.
    pub hi: Option<Affine>,
    /// Constant lower bound if known.
    pub lo_const: Option<i64>,
    /// Constant upper bound if known.
    pub hi_const: Option<i64>,
    /// Constant step (only constant steps are tested precisely; 1 if absent).
    pub step: Option<i64>,
}

impl LoopCtx {
    /// Trip count if both bounds and step are constant.
    pub fn trip_count(&self) -> Option<i64> {
        let (lo, hi, st) = (self.lo_const?, self.hi_const?, self.step?);
        if st == 0 {
            return None;
        }
        let n = (hi - lo + st) / st;
        Some(n.max(0))
    }
}

/// The common nest of a reference pair plus the symbol resolver.
pub struct NestCtx<'a> {
    /// Loops, outermost first.
    pub loops: Vec<LoopCtx>,
    /// Integer-constant resolver for symbolic terms.
    pub resolve: Box<dyn Fn(SymId) -> Option<i64> + 'a>,
}

impl<'a> NestCtx<'a> {
    /// Build the context for the loops with the given headers. The resolver
    /// is layered over the unit's `PARAMETER` constants.
    pub fn from_headers(
        unit: &'a ProgramUnit,
        headers: &[StmtId],
        resolve: Box<dyn Fn(SymId) -> Option<i64> + 'a>,
    ) -> NestCtx<'a> {
        let resolve: Box<dyn Fn(SymId) -> Option<i64> + 'a> = Box::new(move |s| {
            unit.symbols.sym(s).param.and_then(|c| c.as_int()).or_else(|| resolve(s))
        });
        let loops = headers
            .iter()
            .map(|&h| {
                let d = unit.loop_of(h);
                let lo = to_affine(&d.lo, &*resolve);
                let hi = to_affine(&d.hi, &*resolve);
                let step = match &d.step {
                    None => Some(1),
                    Some(e) => to_affine(e, &*resolve).and_then(|a| a.is_const().then_some(a.konst)),
                };
                LoopCtx {
                    header: h,
                    var: d.var,
                    lo_const: lo.as_ref().and_then(|a| a.is_const().then_some(a.konst)),
                    hi_const: hi.as_ref().and_then(|a| a.is_const().then_some(a.konst)),
                    lo,
                    hi,
                    step,
                }
            })
            .collect();
        NestCtx { loops, resolve }
    }

    /// Number of common loops.
    pub fn depth(&self) -> usize {
        self.loops.len()
    }

    /// Index variables of the nest.
    pub fn index_vars(&self) -> Vec<SymId> {
        self.loops.iter().map(|l| l.var).collect()
    }

    /// Convert a subscript expression to affine form using the resolver.
    pub fn affine(&self, e: &Expr) -> Option<Affine> {
        to_affine(e, &*self.resolve)
    }
}

/// Do the bounds or the step of some loop in `headers` (outermost first)
/// mention the index of a loop enclosing it there, as in a triangular or
/// strip-mined nest? The tests read every level as the rectangle its own
/// bounds describe, so over such a nest a level that no subscript
/// constrains may claim iterations that never coexist (a tile loop's
/// `u(i, j)` output dependence, when the tiles cover disjoint `j`): the
/// dependence may not exist, and the graph must not call it proven.
pub fn bounds_vary(unit: &ProgramUnit, headers: &[StmtId]) -> bool {
    let mut outer: Vec<SymId> = Vec::new();
    headers.iter().any(|&h| {
        let d = unit.loop_of(h);
        let mut found = false;
        for e in [Some(&d.lo), Some(&d.hi), d.step.as_ref()].into_iter().flatten() {
            walk_expr(e, &mut |x| found |= matches!(x, Expr::Var(s) if outer.contains(s)));
        }
        outer.push(d.var);
        found
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ped_fortran::parse_program;

    #[test]
    fn bounds_extracted() {
        let u = parse_program(
            "program t\ninteger n\nparameter (n = 20)\nreal a(n,n)\ndo i = 1, n\n\
             do j = 2, n - 1\na(i,j) = 0.0\nenddo\nenddo\nend\n",
        )
        .unwrap()
        .units
        .remove(0);
        let outer = u.body[0];
        let inner = u.loop_of(outer).body[0];
        let ctx = NestCtx::from_headers(&u, &[outer, inner], Box::new(|_| None));
        assert_eq!(ctx.depth(), 2);
        assert_eq!(ctx.loops[0].lo_const, Some(1));
        assert_eq!(ctx.loops[0].hi_const, Some(20), "PARAMETER resolves");
        assert_eq!(ctx.loops[1].lo_const, Some(2));
        assert_eq!(ctx.loops[1].hi_const, Some(19));
        assert_eq!(ctx.loops[0].trip_count(), Some(20));
    }

    #[test]
    fn symbolic_bound_left_symbolic() {
        let u = parse_program(
            "subroutine s(a, n)\ninteger n\nreal a(n)\ndo i = 1, n\na(i) = 0.0\nenddo\nend\n",
        )
        .unwrap()
        .units
        .remove(0);
        let h = u.body[0];
        let ctx = NestCtx::from_headers(&u, &[h], Box::new(|_| None));
        assert_eq!(ctx.loops[0].hi_const, None);
        assert!(ctx.loops[0].hi.is_some(), "still affine in n");
        // A resolver (assertion `n = 64`) makes it constant.
        let n = u.symbols.lookup("n").unwrap();
        let ctx2 = NestCtx::from_headers(
            &u,
            &[h],
            Box::new(move |s| if s == n { Some(64) } else { None }),
        );
        assert_eq!(ctx2.loops[0].hi_const, Some(64));
    }

    #[test]
    fn trip_count_with_step() {
        let u = parse_program(
            "program t\nreal a(10)\ndo i = 1, 10, 3\na(i) = 0.0\nenddo\nend\n",
        )
        .unwrap()
        .units
        .remove(0);
        let ctx = NestCtx::from_headers(&u, &[u.body[0]], Box::new(|_| None));
        assert_eq!(ctx.loops[0].trip_count(), Some(4)); // 1,4,7,10
    }
}
