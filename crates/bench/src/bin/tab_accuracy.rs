//! The accuracy gate: ISM's coarse flow against full-resolution Farnebäck on
//! the seeded scenes of `asv::accuracy::GateSetup::GATE`, written to the
//! machine-readable `BENCH_accuracy.json`.
//!
//! ```text
//! tab_accuracy [--out PATH]
//! ```
//!
//! `crates/asv/tests/accuracy.rs` runs the same function and pins the
//! default flow's numbers.

use asv::accuracy::{accuracy_gate, GateSetup};
use asv_bench::figs::{tab_accuracy_json, tab_accuracy_report};

fn main() {
    let mut out = String::from("BENCH_accuracy.json");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => out = args.next().expect("--out requires a value"),
            other => panic!("unknown argument {other}"),
        }
    }
    let setup = GateSetup::GATE;
    let rows = accuracy_gate(&setup).expect("the accuracy gate runs");
    println!("{}", tab_accuracy_report(&rows));
    std::fs::write(&out, tab_accuracy_json(&setup, &rows)).expect("write accuracy json");
    println!("  wrote {out}");
}
