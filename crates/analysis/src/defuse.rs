//! Reaching definitions and def-use chains.
//!
//! "Def-use chains expose dependences among scalar variables as well as
//! linking all accesses to each array for dependence testing" — this module
//! computes exactly that linkage: every definition site per symbol, which
//! definitions reach each statement, and the def→use edges.

use crate::cfg::Cfg;
use crate::dataflow::{solve, BitSet, Direction, Meet, Solution};
use ped_fortran::visit::{stmt_accesses, stmts_recursive, AccessKind};
use ped_fortran::{Expr, ProgramUnit, StmtId, SymId};
use std::collections::HashMap;

/// One definition site.
#[derive(Debug, Clone, PartialEq)]
pub struct Def {
    /// Dense index of this def.
    pub id: usize,
    /// Statement performing the write.
    pub stmt: StmtId,
    /// Symbol written.
    pub sym: SymId,
    /// Subscripts when an array element is written.
    pub subs: Option<Vec<Expr>>,
    /// True if the write definitely happens and overwrites the whole value
    /// (a scalar assignment). Array-element writes and call-site argument
    /// writes are *not* certain, so they never kill other defs.
    pub certain: bool,
}

/// A def→use edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DuEdge {
    /// Definition index into [`DefUse::defs`].
    pub def: usize,
    /// Statement using the value.
    pub use_stmt: StmtId,
}

/// Reaching definitions for one unit.
#[derive(Debug, Clone)]
pub struct DefUse {
    /// All definition sites, in pre-order statement order.
    pub defs: Vec<Def>,
    /// Def indices per symbol.
    pub defs_of_sym: HashMap<SymId, Vec<usize>>,
    /// All def→use edges.
    pub edges: Vec<DuEdge>,
    reach: Solution,
}

impl DefUse {
    /// Compute reaching definitions and def-use chains.
    pub fn compute(unit: &ProgramUnit, cfg: &Cfg) -> DefUse {
        // Enumerate defs.
        let mut defs: Vec<Def> = Vec::new();
        let mut defs_of_sym: HashMap<SymId, Vec<usize>> = HashMap::new();
        let stmts = stmts_recursive(unit, &unit.body);
        for &sid in &stmts {
            for acc in stmt_accesses(unit, sid) {
                if acc.kind.may_write() {
                    let id = defs.len();
                    let certain = acc.kind == AccessKind::Write && acc.subs.is_none();
                    defs_of_sym.entry(acc.sym).or_default().push(id);
                    defs.push(Def { id, stmt: sid, sym: acc.sym, subs: acc.subs, certain });
                }
            }
        }

        // gen/kill per CFG node.
        let nbits = defs.len().max(1);
        let mut gen = vec![BitSet::new(nbits); cfg.len()];
        let mut kill = vec![BitSet::new(nbits); cfg.len()];
        for d in &defs {
            let Some(node) = cfg.node_opt(d.stmt) else { continue };
            gen[node.index()].insert(d.id);
            if d.certain {
                for &other in &defs_of_sym[&d.sym] {
                    if other != d.id {
                        kill[node.index()].insert(other);
                    }
                }
            }
        }
        let boundary = BitSet::new(nbits);
        let reach = solve(cfg, &gen, &kill, Direction::Forward, Meet::Union, &boundary);

        // Def-use edges: for each statement's reads, the reaching defs of
        // that symbol at statement entry.
        let mut edges = Vec::new();
        for &sid in &stmts {
            let Some(node) = cfg.node_opt(sid) else { continue };
            let inn = &reach.inn[node.index()];
            for acc in stmt_accesses(unit, sid) {
                if !acc.kind.may_read() {
                    continue;
                }
                if let Some(cands) = defs_of_sym.get(&acc.sym) {
                    for &d in cands {
                        if inn.contains(d) {
                            edges.push(DuEdge { def: d, use_stmt: sid });
                        }
                    }
                }
            }
        }
        edges.sort_by_key(|e| (e.def, e.use_stmt));
        edges.dedup();
        DefUse { defs, defs_of_sym, edges, reach }
    }

    /// Defs of `sym` reaching the entry of `stmt`.
    pub fn reaching(&self, cfg: &Cfg, stmt: StmtId, sym: SymId) -> Vec<&Def> {
        let Some(node) = cfg.node_opt(stmt) else { return Vec::new() };
        let inn = &self.reach.inn[node.index()];
        self.defs_of_sym
            .get(&sym)
            .into_iter()
            .flatten()
            .filter(|&&d| inn.contains(d))
            .map(|&d| &self.defs[d])
            .collect()
    }

    /// Uses reached by the given def.
    pub fn uses_of(&self, def: usize) -> impl Iterator<Item = StmtId> + '_ {
        self.edges.iter().filter(move |e| e.def == def).map(|e| e.use_stmt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ped_fortran::parse_program;

    fn setup(src: &str) -> (ProgramUnit, Cfg, DefUse) {
        let u = parse_program(src).unwrap().units.remove(0);
        let cfg = Cfg::build(&u);
        let du = DefUse::compute(&u, &cfg);
        (u, cfg, du)
    }

    #[test]
    fn straight_line_chain() {
        let (u, cfg, du) = setup("program t\nx = 1.0\ny = x + 1.0\nend\n");
        let x = u.symbols.lookup("x").unwrap();
        let reach = du.reaching(&cfg, u.body[1], x);
        assert_eq!(reach.len(), 1);
        assert_eq!(reach[0].stmt, u.body[0]);
        assert!(reach[0].certain);
    }

    #[test]
    fn scalar_redefinition_kills() {
        let (u, cfg, du) = setup("program t\nx = 1.0\nx = 2.0\ny = x\nend\n");
        let x = u.symbols.lookup("x").unwrap();
        let reach = du.reaching(&cfg, u.body[2], x);
        assert_eq!(reach.len(), 1, "first def must be killed");
        assert_eq!(reach[0].stmt, u.body[1]);
    }

    #[test]
    fn branch_merges_defs() {
        let (u, cfg, du) = setup(
            "program t\nif (c .gt. 0.0) then\nx = 1.0\nelse\nx = 2.0\nendif\ny = x\nend\n",
        );
        let x = u.symbols.lookup("x").unwrap();
        let reach = du.reaching(&cfg, u.body[1], x);
        assert_eq!(reach.len(), 2);
    }

    #[test]
    fn array_writes_do_not_kill() {
        let (u, cfg, du) = setup(
            "program t\nreal a(10)\na(1) = 1.0\na(2) = 2.0\nx = a(1)\nend\n",
        );
        let a = u.symbols.lookup("a").unwrap();
        let reach = du.reaching(&cfg, u.body[2], a);
        assert_eq!(reach.len(), 2, "element writes may not kill each other");
        assert!(reach.iter().all(|d| !d.certain));
    }

    #[test]
    fn loop_carried_def_reaches_use() {
        let (u, cfg, du) = setup(
            "program t\ns = 0.0\ndo i = 1, 10\ns = s + 1.0\nenddo\nend\n",
        );
        let s = u.symbols.lookup("s").unwrap();
        let update = {
            let d = u.loop_of(u.body[1]);
            d.body[0]
        };
        let reach = du.reaching(&cfg, update, s);
        // Both the init and the update itself (around the back edge) reach.
        assert_eq!(reach.len(), 2);
        assert!(du.uses_of(reach.iter().find(|d| d.stmt == update).unwrap().id)
            .any(|use_stmt| use_stmt == update));
    }

    #[test]
    fn call_def_is_uncertain() {
        let (u, cfg, du) = setup("program t\nx = 1.0\ncall f(x)\ny = x\nend\n");
        let x = u.symbols.lookup("x").unwrap();
        let reach = du.reaching(&cfg, u.body[2], x);
        // Call may or may not write x, so both defs reach.
        assert_eq!(reach.len(), 2);
    }
}
