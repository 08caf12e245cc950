//! Call-graph construction.
//!
//! One node per program unit; one [`CallSite`] per `CALL` statement or
//! user-function reference. Callees are resolved by name within the
//! program; unresolved names are *external* (worst-case effects). The
//! fixpoint analyses iterate over units directly, so cycles (recursion)
//! need no special casing — only monotone summaries.

use ped_fortran::visit::{for_each_expr_of_stmt, for_each_stmt};
use ped_fortran::{Expr, Program, StmtId, StmtKind};

/// One call site.
#[derive(Debug, Clone, PartialEq)]
pub struct CallSite {
    /// Index of the calling unit in `program.units`.
    pub caller: usize,
    /// The statement containing the call.
    pub stmt: StmtId,
    /// Callee unit index; `None` for external procedures.
    pub callee: Option<usize>,
    /// Callee name (lower case).
    pub callee_name: String,
    /// Actual argument expressions.
    pub args: Vec<Expr>,
    /// True when this is a function reference inside an expression rather
    /// than a CALL statement.
    pub in_expr: bool,
}

/// The program call graph.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CallGraph {
    /// All call sites.
    pub sites: Vec<CallSite>,
    /// Site indices per caller unit.
    pub sites_of_unit: Vec<Vec<usize>>,
    /// Caller unit indices per callee unit.
    pub callers_of: Vec<Vec<usize>>,
}

impl CallGraph {
    /// An empty graph over `n` units.
    fn empty(n: usize) -> CallGraph {
        CallGraph {
            sites: Vec::new(),
            sites_of_unit: vec![Vec::new(); n],
            callers_of: vec![Vec::new(); n],
        }
    }

    /// Build the call graph of a program.
    pub fn build(program: &Program) -> CallGraph {
        let mut cg = CallGraph::empty(program.units.len());
        for ui in 0..program.units.len() {
            for site in scan_unit_sites(program, ui) {
                cg.push_site(site);
            }
        }
        cg
    }

    /// Append a site, maintaining the per-unit and per-callee indexes.
    fn push_site(&mut self, site: CallSite) {
        let idx = self.sites.len();
        let caller = site.caller;
        let callee = site.callee;
        self.sites.push(site);
        self.sites_of_unit[caller].push(idx);
        if let Some(c) = callee {
            if !self.callers_of[c].contains(&caller) {
                self.callers_of[c].push(caller);
            }
        }
    }

    /// Call sites at a given statement of a unit.
    pub fn sites_at(&self, unit_idx: usize, stmt: StmtId) -> Vec<&CallSite> {
        self.sites_of_unit[unit_idx]
            .iter()
            .map(|&i| &self.sites[i])
            .filter(|s| s.stmt == stmt)
            .collect()
    }

    /// True when any call site in the program fails to resolve.
    pub fn has_external_calls(&self) -> bool {
        self.sites.iter().any(|s| s.callee.is_none())
    }

    /// All units transitively callable from `unit` (sorted; includes `unit`
    /// itself only when it is reachable through a cycle). This is the set
    /// of units whose summaries the given unit's analysis results can
    /// depend on.
    pub fn reachable_callees(&self, unit: usize) -> Vec<usize> {
        let mut seen = vec![false; self.sites_of_unit.len()];
        let mut stack: Vec<usize> = self.sites_of_unit[unit]
            .iter()
            .filter_map(|&si| self.sites[si].callee)
            .collect();
        let mut out = Vec::new();
        while let Some(c) = stack.pop() {
            if seen[c] {
                continue;
            }
            seen[c] = true;
            out.push(c);
            stack.extend(
                self.sites_of_unit[c].iter().filter_map(|&si| self.sites[si].callee),
            );
        }
        out.sort_unstable();
        out
    }
}

/// All call sites of one unit, in the statement pre-order `build` records
/// them (a CALL statement's own site precedes any function references in
/// its arguments). The incremental fast path rescans a single edited unit
/// with this and compares the result against the sites already indexed.
pub fn scan_unit_sites(program: &Program, ui: usize) -> Vec<CallSite> {
    let unit = &program.units[ui];
    let mut out = Vec::new();
    for_each_stmt(unit, &unit.body, &mut |sid| {
        let st = unit.stmt(sid);
        if let StmtKind::Call { name, args } = &st.kind {
            out.push(CallSite {
                caller: ui,
                stmt: sid,
                callee: program.unit_index(name),
                callee_name: name.to_string(),
                args: args.clone(),
                in_expr: false,
            });
        }
        for_each_expr_of_stmt(&st.kind, &mut |e| {
            if let Expr::Call { name, args } = e {
                if name != "__any__" {
                    out.push(CallSite {
                        caller: ui,
                        stmt: sid,
                        callee: program.unit_index(name),
                        callee_name: name.to_string(),
                        args: args.clone(),
                        in_expr: true,
                    });
                }
            }
        });
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ped_fortran::parse_program;

    fn program(src: &str) -> Program {
        parse_program(src).unwrap()
    }

    #[test]
    fn resolves_internal_calls() {
        let p = program(
            "program t\ncall f(x)\nend\nsubroutine f(a)\nreal a\na = g(a)\nreturn\nend\n\
             real function g(b)\nreal b\ng = b + 1.0\nend\n",
        );
        let cg = CallGraph::build(&p);
        assert_eq!(cg.sites.len(), 2);
        assert_eq!(cg.sites[0].callee, p.unit_index("f"));
        assert!(!cg.sites[0].in_expr);
        assert_eq!(cg.sites[1].callee, p.unit_index("g"));
        assert!(cg.sites[1].in_expr);
        assert!(!cg.has_external_calls());
        assert_eq!(cg.callers_of[p.unit_index("f").unwrap()], vec![0]);
    }

    #[test]
    fn external_call_detected() {
        let p = program("program t\ncall mystery(x)\nend\n");
        let cg = CallGraph::build(&p);
        assert!(cg.has_external_calls());
        assert_eq!(cg.sites[0].callee, None);
    }

    #[test]
    fn sites_at_statement() {
        let p = program("program t\ncall f(x)\ncall f(y)\nend\nsubroutine f(a)\nreturn\nend\n");
        let cg = CallGraph::build(&p);
        let main = &p.units[0];
        assert_eq!(cg.sites_at(0, main.body[0]).len(), 1);
        assert_eq!(cg.sites_at(0, main.body[1]).len(), 1);
    }
}
