//! E3 — Table 2: transformations used per program.
//!
//! Replays a scripted Ped session per program (the role the workshop
//! assistants played) and records which catalog transformations were
//! actually applied to reach the parallel version.

use ped_bench::{apply_suite_assertions, Table};
use ped_core::{autoparallelize, Ped};
use ped_transform::Xform;
use ped_workloads::all_programs;

fn main() {
    let mut t = Table::new(&["program", "transformations applied"]);
    for w in all_programs() {
        let mut ped = Ped::open(w.source).unwrap();
        let mut used: Vec<String> = Vec::new();

        // Dependence deletion via assertions where documented.
        let rejected = apply_suite_assertions(&mut ped, w.name);
        if rejected > 0 {
            used.push(format!("dependence deletion ({rejected})"));
        }

        // Program-specific restructuring, as the workshop groups did.
        match w.name {
            "slab2d" => {
                // Distribute the slab loop to isolate the workspace phase.
                let main = 0;
                let h = ped.loops(main)[0].0;
                if ped.apply(main, h, &Xform::Distribute).is_ok() {
                    used.push("loop distribution".into());
                }
            }
            "gloop" => {
                // Inline colop, then interchange for granularity.
                let main = 0;
                let h = ped.loops(main)[0].0;
                let call = {
                    let unit = &ped.program().units[main];
                    unit.loop_of(h).body.first().copied()
                };
                if let Some(call) = call {
                    if ped.apply(main, call, &Xform::Inline { call }).is_ok() {
                        used.push("inlining (embedding)".into());
                        let h2 = ped.loops(main)[0].0;
                        let d = ped.diagnose(main, h2, &Xform::Interchange).unwrap();
                        if d.ok() && ped.apply(main, h2, &Xform::Interchange).is_ok() {
                            used.push("loop interchange".into());
                        }
                    }
                }
            }
            _ => {}
        }

        // Parallelize whatever is now parallel; count reductions/privates.
        let n = autoparallelize(&mut ped);
        if n > 0 {
            used.push(format!("parallelize ({n} loops)"));
        }
        let src = ped.source();
        if src.contains("reduction(") {
            used.push("reduction recognition".into());
        }
        if src.contains("private(") {
            used.push("scalar privatization".into());
        }
        if src.contains("lastprivate(") {
            used.push("lastprivate".into());
        }
        t.row(vec![w.name.to_string(), used.join(", ")]);
    }
    println!("Table 2: transformations applied per program");
    println!("{}", t.render());
}
