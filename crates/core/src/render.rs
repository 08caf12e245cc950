//! Book-metaphor rendering: the three-pane Ped window as text.
//!
//! "The layout of a Ped window is shown in Figure 1. The large area at the
//! top is the source pane displaying the Fortran text" — below it the
//! dependence pane lists the selected loop's dependences (type, endpoints,
//! vector, status, which test decided) and the variable pane shows the
//! scalar classification. This module regenerates that figure for any loop
//! (experiment E2) and drives the interactive example.

use crate::filters::{DepFilter, SourceFilter};
use crate::session::Ped;
use ped_analysis::scalars::ScalarClass;
use ped_fortran::StmtId;

/// Render the three-pane view for a loop.
pub fn render_loop_view(
    ped: &mut Ped,
    unit_idx: usize,
    header: StmtId,
    dep_filter: &DepFilter,
    src_filter: &SourceFilter,
) -> Result<String, crate::session::PedError> {
    // The graph first: it rejects a header that is not a loop of the unit
    // before the source pane tries to print it.
    let g = ped.graph(unit_idx, header)?;
    let unit_name = ped.program().units[unit_idx].name.clone();
    let mut out = String::new();
    let width = 78;
    let bar = "─".repeat(width);
    out.push_str(&format!("┌{bar}\n"));
    out.push_str(&format!(
        "│ ParaScope Editor — {unit_name} — loop {header}\n"
    ));
    out.push_str(&format!("├{bar}\n"));

    // ---- source pane ----------------------------------------------------
    let (src_lines, marked) = loop_source(ped, unit_idx, header);
    for (i, line) in src_lines.iter().enumerate() {
        if !src_filter.matches(line) {
            continue;
        }
        let marker = if i == marked { "→" } else { " " };
        out.push_str(&format!("│ {marker} {:>4} │ {line}\n", i + 1));
    }
    out.push_str(&format!("├{bar}\n"));

    // ---- dependence pane --------------------------------------------------
    out.push_str("│ dependences:  id  type    var       vector      level  status    tests\n");
    let rows: Vec<String> = {
        let unit = &ped.program().units[unit_idx];
        g.deps
            .iter()
            .filter_map(|d| {
                let status = ped.status(unit_idx, d);
                if !dep_filter.matches(d, status) {
                    return None;
                }
                let var = d
                    .var
                    .map(|v| unit.symbols.name(v).to_string())
                    .unwrap_or_else(|| "(ctl)".to_string());
                let tests: Vec<String> =
                    d.tests.iter().map(|t| t.to_string()).collect();
                let level = d
                    .level
                    .map(|l| l.to_string())
                    .unwrap_or_else(|| "indep".to_string());
                Some(format!(
                    "│              {:>3}  {:<7} {:<9} {:<11} {:<6} {:<9} {}",
                    d.id,
                    d.kind.to_string(),
                    var,
                    d.dirs.to_string(),
                    level,
                    status.to_string(),
                    tests.join("+")
                ))
            })
            .collect()
    };
    if rows.is_empty() {
        out.push_str("│              (none match the current filter)\n");
    }
    for r in rows {
        out.push_str(&r);
        out.push('\n');
    }
    out.push_str(&format!("├{bar}\n"));

    // ---- variable pane ----------------------------------------------------
    out.push_str("│ variables:\n");
    let unit = &ped.program().units[unit_idx];
    let mut vars: Vec<(String, String)> = g
        .scalar_classes
        .iter()
        .map(|(&s, c)| (unit.symbols.name(s).to_string(), class_text(c)))
        .collect();
    vars.sort();
    for (name, class) in vars {
        out.push_str(&format!("│   {name:<10} {class}\n"));
    }
    out.push_str(&format!("└{bar}\n"));
    Ok(out)
}

fn class_text(c: &ScalarClass) -> String {
    match c {
        ScalarClass::ReadOnly => "shared (read only)".into(),
        ScalarClass::LoopIndex => "loop index".into(),
        ScalarClass::Private { needs_lastprivate: false } => "private".into(),
        ScalarClass::Private { needs_lastprivate: true } => "private (lastprivate)".into(),
        ScalarClass::Reduction(op) => format!("reduction ({op})"),
        ScalarClass::AuxInduction { .. } => "auxiliary induction".into(),
        ScalarClass::Shared => "shared (carries dependence)".into(),
    }
}

/// Pretty-print the loop and report which rendered line holds its header.
fn loop_source(ped: &Ped, unit_idx: usize, header: StmtId) -> (Vec<String>, usize) {
    let unit = &ped.program().units[unit_idx];
    let mut text = String::new();
    ped_fortran::printer::print_stmt(unit, header, 0, &mut text);
    let lines: Vec<String> = text.lines().map(|l| l.to_string()).collect();
    (lines, 0)
}

/// Render a unit overview: its loops with nesting, parallel status, and
/// estimated cost — the navigation list.
pub fn render_unit_overview(ped: &mut Ped, unit_idx: usize) -> Result<String, crate::session::PedError> {
    let name = ped.program().units[unit_idx].name.clone();
    let ranked = ped.loops_by_cost(unit_idx);
    let mut out = format!("unit {name}: {} loops (hottest first)\n", ranked.len());
    for (s, cost) in ranked {
        let par = ped.parallelizable(unit_idx, s)?;
        let unit = &ped.program().units[unit_idx];
        let d = unit.loop_of(s);
        let already = d.is_parallel();
        let var = unit.symbols.name(d.var);
        out.push_str(&format!(
            "  {s}  do {var}…  est {cost:>12.0} ops  {}\n",
            if already {
                "PARALLEL"
            } else if par {
                "parallelizable"
            } else {
                "blocked"
            }
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Mark;

    const SRC: &str = "program demo\nreal a(100), s\ns = 0.0\ndo i = 2, 100\n\
        t1 = a(i-1) * 2.0\na(i) = t1\ns = s + t1\nenddo\nprint *, s\nend\n";

    #[test]
    fn figure1_layout_contains_all_panes() {
        let mut ped = Ped::open(SRC).unwrap();
        let h = ped.loops(0)[0].0;
        let view =
            render_loop_view(&mut ped, 0, h, &DepFilter::default(), &SourceFilter::All)
                .unwrap();
        assert!(view.contains("ParaScope Editor"), "{view}");
        assert!(view.contains("dependences:"), "{view}");
        assert!(view.contains("variables:"), "{view}");
        assert!(view.contains("do i = 2, 100"), "{view}");
        assert!(view.contains("reduction (+)"), "{view}");
        assert!(view.contains("private"), "{view}");
        assert!(view.contains("strong SIV"), "{view}");
    }

    #[test]
    fn dependence_filter_narrows_pane() {
        let mut ped = Ped::open(SRC).unwrap();
        let h = ped.loops(0)[0].0;
        let all =
            render_loop_view(&mut ped, 0, h, &DepFilter::default(), &SourceFilter::All)
                .unwrap();
        let only_true = DepFilter {
            kinds: Some(vec![ped_dep::DepKind::True]),
            ..DepFilter::default()
        };
        let narrowed =
            render_loop_view(&mut ped, 0, h, &only_true, &SourceFilter::All).unwrap();
        assert!(narrowed.lines().count() < all.lines().count(), "{all}\n{narrowed}");
    }

    #[test]
    fn source_filter_loop_skeleton() {
        let mut ped = Ped::open(SRC).unwrap();
        let h = ped.loops(0)[0].0;
        let view = render_loop_view(
            &mut ped,
            0,
            h,
            &DepFilter::default(),
            &SourceFilter::LoopHeadersOnly,
        )
        .unwrap();
        assert!(view.contains("do i = 2, 100"));
        assert!(!view.contains("a(i) = t1"), "{view}");
    }

    #[test]
    fn status_reflects_marks() {
        let mut ped = Ped::open(
            "program t\nreal a(100)\ninteger ind(100)\ndo i = 1, 100\n\
             a(ind(i)) = a(ind(i)) + 1.0\nenddo\nend\n",
        )
        .unwrap();
        let h = ped.loops(0)[0].0;
        let pending_id = {
            let g = ped.graph(0, h).unwrap();
            g.blocking()[0].id
        };
        ped.mark(0, h, pending_id, Mark::Rejected).unwrap();
        let view =
            render_loop_view(&mut ped, 0, h, &DepFilter::default(), &SourceFilter::All)
                .unwrap();
        assert!(view.contains("rejected"), "{view}");
    }

    #[test]
    fn overview_lists_status() {
        let mut ped = Ped::open(
            "program t\nreal a(100), b(100)\ndo i = 1, 100\na(i) = 1.0\nenddo\n\
             do i = 2, 100\nb(i) = b(i-1)\nenddo\nend\n",
        )
        .unwrap();
        let text = render_unit_overview(&mut ped, 0).unwrap();
        assert!(text.contains("parallelizable"), "{text}");
        assert!(text.contains("blocked"), "{text}");
    }
}
