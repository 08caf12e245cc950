//! Summary-preserving fast path across an edit of one unit.
//!
//! Most steering transformations (unroll, reverse, interchange, strip
//! mine…) rearrange a loop's interior without changing what the unit reads
//! or writes through its interface, which call sites it contains, or which
//! constants it feeds its callees. For those edits rerunning the
//! whole-program fixpoint is pure waste — nothing any *other* unit's
//! analysis consumes has moved. [`IpAnalysis::edit_probe`] captures the
//! edited unit's fixpoint contribution while the pre-edit AST is still
//! alive; after the edit [`IpAnalysis::try_update_unit`] verifies the
//! contribution is bit-identical and patches the call graph in place
//! (post-edit statement ids) instead of recomputing.
//!
//! Soundness: the global fixpoint is a pure function of every unit's body.
//! If the edited unit's call-site sequence (callee, call form, argument
//! text), the constants its jump functions produce, and its own
//! MOD/REF/USE/KILL/section summary are all unchanged, then every input the
//! other units' summaries and constant seeds depend on is unchanged, so the
//! old fixpoint is still *the* fixpoint and may be kept verbatim.

use crate::callgraph::{scan_unit_sites, CallGraph, CallSite};
use crate::oracle::IpAnalysis;
use crate::summary::summarize_unit;
use ped_analysis::cfg::Cfg;
use ped_analysis::constants::{eval, ConstEnv, Facts};
use ped_fortran::Program;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// What one unit contributed to the interprocedural fixpoint before an
/// edit. Must be captured pre-edit: the jump functions evaluate actual
/// arguments against the *old* body's constant environment.
#[derive(Debug, Clone)]
pub struct EditProbe {
    /// The unit about to be edited.
    pub unit_idx: usize,
    /// Hash of the constants this unit's call sites feed each callee.
    jump_sig: u64,
}

/// Hash of a site sequence's shape: callee name, call form, and the exact
/// argument expressions — everything except the statement ids, which
/// transforms renumber freely without semantic effect.
fn sites_sig(sites: &[&CallSite]) -> u64 {
    let mut h = DefaultHasher::new();
    for s in sites {
        s.callee_name.hash(&mut h);
        s.in_expr.hash(&mut h);
        format!("{:?}", s.args).hash(&mut h);
        0xa5u8.hash(&mut h);
    }
    h.finish()
}

/// Hash of the jump-function outputs of a unit's call sites: the constant
/// (or non-constant) value of every actual argument under the unit's
/// seeded constant environment.
fn jump_sig(program: &Program, unit_idx: usize, sites: &[&CallSite], seeds: &Facts) -> u64 {
    let unit = &program.units[unit_idx];
    let cfg = Cfg::build(unit);
    let env = ConstEnv::compute_seeded(unit, &cfg, seeds);
    let mut h = DefaultHasher::new();
    for s in sites {
        s.callee_name.hash(&mut h);
        for a in &s.args {
            format!("{:?}", eval(unit, env.at(s.stmt), a)).hash(&mut h);
        }
        0xa5u8.hash(&mut h);
    }
    h.finish()
}

impl IpAnalysis {
    /// Capture the pre-edit fixpoint contribution of `unit_idx`.
    pub fn edit_probe(&self, program: &Program, unit_idx: usize) -> EditProbe {
        let sites: Vec<&CallSite> = self.cg.sites_of_unit[unit_idx]
            .iter()
            .map(|&i| &self.cg.sites[i])
            .collect();
        EditProbe {
            unit_idx,
            jump_sig: jump_sig(program, unit_idx, &sites, &self.const_seeds[unit_idx]),
        }
    }

    /// Try to absorb an edit of one unit without rerunning the
    /// whole-program fixpoint. Returns `true` when the analysis was patched
    /// in place (call sites re-keyed to post-edit statement ids, summaries
    /// and constant seeds kept); `false` means the edit changed the unit's
    /// visible contribution, the analysis is exactly as it was, and the
    /// caller must run a full `analyze`.
    ///
    /// Work is bounded by the edited unit: only its own sites are rescanned
    /// and swapped into their existing slots, so every other unit's sites,
    /// `sites_of_unit` and `callers_of` are untouched. The slot layout then
    /// equals what [`CallGraph::build`] produces on the post-edit program,
    /// because the site count and every site's caller and callee match.
    pub fn try_update_unit(&mut self, program: &Program, probe: &EditProbe) -> bool {
        let ui = probe.unit_idx;
        if program.units.len() != self.summaries.len() || ui >= self.summaries.len() {
            return false;
        }
        let mut new_sites = scan_unit_sites(program, ui);
        let slots = self.cg.sites_of_unit[ui].clone();
        if new_sites.len() != slots.len()
            || slots.iter().zip(&new_sites).any(|(&si, n)| {
                let o = &self.cg.sites[si];
                o.caller != n.caller || o.callee != n.callee
            })
        {
            return false;
        }
        let new_refs: Vec<&CallSite> = new_sites.iter().collect();
        let old_refs: Vec<&CallSite> = slots.iter().map(|&i| &self.cg.sites[i]).collect();
        if sites_sig(&old_refs) != sites_sig(&new_refs) {
            return false;
        }
        if jump_sig(program, ui, &new_refs, &self.const_seeds[ui]) != probe.jump_sig {
            return false;
        }
        // Re-key to post-edit statement ids before re-summarizing (the
        // flow-sensitive USE/KILL walk looks sites up by id). A swap both
        // ways leaves `new_sites` holding the old sites for the rollback.
        let swap = |cg: &mut CallGraph, sites: &mut [CallSite]| {
            for (&si, site) in slots.iter().zip(sites.iter_mut()) {
                std::mem::swap(&mut cg.sites[si], site);
            }
        };
        swap(&mut self.cg, &mut new_sites);
        let new_sum = summarize_unit(program, &self.cg, ui, &self.summaries);
        if new_sum != self.summaries[ui] {
            swap(&mut self.cg, &mut new_sites);
            return false;
        }
        self.summaries[ui] = new_sum;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ped_fortran::parse_program;

    const TWO_UNITS: &str = "program t\nreal x(10)\ninteger i\ndo i = 1, 10\n\
         x(i) = 0.0\nenddo\ncall f(x, 10)\nend\n\
         subroutine f(a, n)\ninteger n, i\nreal a(n)\ndo i = 1, n\na(i) = a(i) + 1.0\nenddo\nend\n";

    fn reversed_caller() -> &'static str {
        // Same program with the caller's loop reversed: summary-equivalent.
        "program t\nreal x(10)\ninteger i\ndo i = 10, 1, -1\n\
         x(i) = 0.0\nenddo\ncall f(x, 10)\nend\n\
         subroutine f(a, n)\ninteger n, i\nreal a(n)\ndo i = 1, n\na(i) = a(i) + 1.0\nenddo\nend\n"
    }

    #[test]
    fn summary_preserving_edit_is_absorbed() {
        let p0 = parse_program(TWO_UNITS).unwrap();
        let mut ip = IpAnalysis::analyze(&p0);
        let probe = ip.edit_probe(&p0, 0);
        let fps_before = ip.visible_fingerprints(&p0);

        let p1 = parse_program(reversed_caller()).unwrap();
        assert!(ip.try_update_unit(&p1, &probe), "reversal preserves the summary");
        let fresh = IpAnalysis::analyze(&p1);
        assert_eq!(ip.summaries, fresh.summaries);
        assert_eq!(ip.visible_fingerprints(&p1), fps_before);
        // Sites were re-keyed to the new AST's statement ids.
        assert_eq!(ip.cg.sites.len(), fresh.cg.sites.len());
        for (a, b) in ip.cg.sites.iter().zip(&fresh.cg.sites) {
            assert_eq!(a.stmt, b.stmt);
            assert_eq!(a.callee, b.callee);
        }
    }

    #[test]
    fn summary_changing_edit_is_rejected() {
        let p0 = parse_program(TWO_UNITS).unwrap();
        let mut ip = IpAnalysis::analyze(&p0);
        let probe = ip.edit_probe(&p0, 1);
        // Callee now also reads a neighbouring element: REF section changes.
        let p1 = parse_program(
            "program t\nreal x(10)\ninteger i\ndo i = 1, 10\nx(i) = 0.0\nenddo\n\
             call f(x, 10)\nend\nsubroutine f(a, n)\ninteger n, i\nreal a(n)\n\
             do i = 1, n\na(i) = a(1) + 1.0\nenddo\nend\n",
        )
        .unwrap();
        assert!(!ip.try_update_unit(&p1, &probe));
    }

    /// Three units; `g` (unit 1) sits between a caller and a callee, so
    /// re-keying its sites in place has neighbours on both sides.
    fn chain(g_prefix: &str) -> String {
        format!(
            "program t\nreal x(10)\ncall g(x)\nend\n\
             subroutine g(b)\nreal b(10)\n{g_prefix}call f(b, 10)\ncall f(b, 5)\nend\n\
             subroutine f(a, n)\ninteger n, i\nreal a(n)\ns = 0.0\n\
             do i = 1, n\ns = s + a(i)\nenddo\nend\n"
        )
    }

    #[test]
    fn rejected_update_leaves_the_analysis_as_it_was() {
        let p0 = parse_program(&chain("")).unwrap();
        let mut ip = IpAnalysis::analyze(&p0);
        let probe = ip.edit_probe(&p0, 1);
        let (cg, summaries) = (ip.cg.clone(), ip.summaries.clone());
        // Same calls and constants, so the summary check is what fails —
        // after the sites were re-keyed. The new store moves the calls to
        // new statement ids, so a missed rollback would show.
        let p1 = parse_program(&chain("b(1) = 0.0\n")).unwrap();
        let rescanned = scan_unit_sites(&p1, 1);
        assert_eq!(rescanned.len(), 2);
        let old_stmts = cg.sites_of_unit[1].iter().map(|&i| cg.sites[i].stmt);
        assert!(rescanned.iter().zip(old_stmts).all(|(n, old)| n.stmt != old));
        assert!(!ip.try_update_unit(&p1, &probe), "g now writes b");
        assert_eq!(ip.cg.sites, cg.sites);
        assert_eq!(ip.cg.sites_of_unit, cg.sites_of_unit);
        assert_eq!(ip.cg.callers_of, cg.callers_of);
        assert_eq!(ip.summaries, summaries);
    }

    #[test]
    fn absorbed_update_leaves_the_call_graph_a_fresh_build() {
        let p0 = parse_program(&chain("")).unwrap();
        let mut ip = IpAnalysis::analyze(&p0);
        let probe = ip.edit_probe(&p0, 1);
        // A local temporary: summary-preserving, but the calls move.
        let p1 = parse_program(&chain("t1 = 1.0\n")).unwrap();
        assert!(ip.try_update_unit(&p1, &probe));
        let built = CallGraph::build(&p1);
        assert_ne!(ip.cg.sites[1].stmt, CallGraph::build(&p0).sites[1].stmt);
        assert_eq!(ip.cg.sites, built.sites);
        assert_eq!(ip.cg.sites_of_unit, built.sites_of_unit);
        assert_eq!(ip.cg.callers_of, built.callers_of);
        assert_eq!(ip.summaries, IpAnalysis::analyze(&p1).summaries);
    }

    #[test]
    fn changed_constant_argument_is_rejected() {
        let p0 = parse_program(TWO_UNITS).unwrap();
        let mut ip = IpAnalysis::analyze(&p0);
        let probe = ip.edit_probe(&p0, 0);
        // The caller now passes a different constant: jump functions move.
        let p1 = parse_program(
            "program t\nreal x(10)\ninteger i\ndo i = 1, 10\nx(i) = 0.0\nenddo\n\
             call f(x, 5)\nend\nsubroutine f(a, n)\ninteger n, i\nreal a(n)\n\
             do i = 1, n\na(i) = a(i) + 1.0\nenddo\nend\n",
        )
        .unwrap();
        assert!(!ip.try_update_unit(&p1, &probe));
    }
}
