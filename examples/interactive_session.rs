//! A scripted Ped session replaying the workshop workflow on the
//! index-array program (`onedim`): navigate by estimated cost, inspect the
//! scatter loop, see the pending dependences, assert the index array is a
//! permutation, watch them become rejected, parallelize, validate with the
//! run-time dependence checker, then undo everything.
//!
//! ```sh
//! cargo run -p ped-bench --example interactive_session
//! ```

use ped_core::{render, Assertion, DepFilter, Ped, SourceFilter};
use ped_runtime::{ExecConfig, Machine, ParallelMode};
use ped_transform::Xform;

fn main() {
    let w = ped_workloads::program_by_name("onedim").expect("suite program");
    let mut ped = Ped::open(w.source).unwrap();

    println!("=== navigation (performance-estimation ranked) ===");
    println!("{}", render::render_unit_overview(&mut ped, 0).unwrap());

    let scatter = ped.loops(0)[1].0;
    println!("=== the scatter loop, as analysis sees it ===");
    println!(
        "{}",
        render::render_loop_view(&mut ped, 0, scatter, &DepFilter::default(), &SourceFilter::All)
            .unwrap()
    );

    println!("=== power steering says ===");
    let d = ped.diagnose(0, scatter, &Xform::Parallelize).unwrap();
    println!("parallelize: {:?}\n", d.safe);

    println!("=== user: 'ind is a permutation' ===");
    let ind = ped.program().units[0].symbols.lookup("ind").unwrap();
    let n = ped.assert_fact(Assertion::Permutation { unit: 0, array: ind }).unwrap();
    println!("assertion deleted {n} pending dependence(s)\n");
    println!(
        "{}",
        render::render_loop_view(&mut ped, 0, scatter, &DepFilter::default(), &SourceFilter::All)
            .unwrap()
    );

    println!("=== parallelize and validate ===");
    ped.apply(0, scatter, &Xform::Parallelize).unwrap();
    let config = ExecConfig {
        mode: ParallelMode::Simulate(Machine::alliant8()),
        ..Default::default()
    };
    let checked = ped.check(config).unwrap();
    print!("{}", checked.render_text());
    assert!(checked.clean());
    println!("output: {:?}\n", ped.run(config).unwrap().printed);

    println!("=== undo ===");
    assert!(ped.undo());
    println!(
        "source restored, contains 'parallel do': {}",
        ped.source().contains("parallel do")
    );
}
