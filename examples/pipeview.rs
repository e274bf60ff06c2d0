//! Pipeline diagrams of the same loop, before and after CFD.
//!
//! Renders classic pipeview traces: in the base run the hard branch issues
//! (`I`), executes (`e`) and frequently drags a squash tail behind it; in
//! the CFD run `Branch_on_BQ` completes at dispatch because the fetch unit
//! already resolved it from the BQ.
//!
//! Run with: `cargo run --release --example pipeview`

use cfd::core::{Core, CoreConfig, PipeTrace};
use cfd::workloads::{by_name, Scale, Variant};

fn main() {
    let entry = by_name("gromacs_like").expect("kernel in catalog");
    let scale = Scale { n: 400, seed: 0x71ace };

    for variant in [Variant::Base, Variant::Cfd] {
        let w = entry.build(variant, scale);
        let mut trace = PipeTrace::new(4000);
        Core::new(CoreConfig::default(), w.program.clone(), w.mem.clone())
            .unwrap()
            .drive(50_000_000, &mut trace)
            .expect("run completes");
        // Show a steady-state window (skip warmup).
        let mut sub = PipeTrace::new(24);
        for &e in trace.events().iter().skip(600).take(24) {
            sub.record(e);
        }
        println!("================ {} [{variant}] ================", w.name);
        println!("{}", sub.render());
    }
    println!("legend: F fetch, d front pipe, D dispatch, w IQ wait, I issue, e execute, C complete, . ROB wait, R retire, x squashed");
}
