//! Steady-state streaming perf baseline: before/after the workspace layer,
//! emitting the machine-readable `BENCH_streaming.json`.
//!
//! ```text
//! tab_perf [--quick] [--width W] [--height H] [--frames N]
//!          [--max-disparity D] [--window PW] [--out PATH]
//!          [--gate] [--gate-file PATH]
//! ```
//!
//! Defaults to the qHD workload (960×540, 12 measured frames); `--quick` is
//! the small CI smoke preset.  The JSON lands in `BENCH_streaming.json`
//! unless `--out` overrides it.
//!
//! `--gate` turns the run into a CI regression gate: it measures five
//! times, and the first gated run on a machine records each tracked path's
//! median fps as a per-machine baseline (under `target/` by default,
//! overridable with `--gate-file`) and passes; later runs exit non-zero
//! when any tracked path's median drops more than 10% below the recorded
//! one.  The printed table and the JSON are the first measurement's.

use asv_bench::gate::{default_gate_file, run_gate, GateOutcome, DEFAULT_TOLERANCE, GATE_RUNS};
use asv_bench::perf::{steady_state_perf, PerfConfig};
use asv_mem::alloc_count::CountingAllocator;

// Installing the counting allocator is what makes the report's
// allocs/frame columns real measurements instead of zeros.
#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator::new();

struct GateArgs {
    enabled: bool,
    file: Option<String>,
}

fn parse_args() -> (PerfConfig, String, GateArgs) {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    // The preset is applied first so per-field flags override it regardless
    // of argument order.
    let mut cfg = if raw.iter().any(|a| a == "--quick") {
        PerfConfig::quick()
    } else {
        PerfConfig::qhd()
    };
    let mut out = String::from("BENCH_streaming.json");
    let mut gate = GateArgs {
        enabled: false,
        file: None,
    };
    let mut args = raw.into_iter();
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{name} requires a value"))
        };
        match arg.as_str() {
            "--quick" => {}
            "--width" => cfg.width = value("--width").parse().expect("numeric --width"),
            "--height" => cfg.height = value("--height").parse().expect("numeric --height"),
            "--frames" => cfg.frames = value("--frames").parse().expect("numeric --frames"),
            "--max-disparity" => {
                cfg.max_disparity = value("--max-disparity")
                    .parse()
                    .expect("numeric --max-disparity")
            }
            "--window" => {
                cfg.propagation_window = value("--window").parse().expect("numeric --window")
            }
            "--out" => out = value("--out"),
            "--gate" => gate.enabled = true,
            "--gate-file" => gate.file = Some(value("--gate-file")),
            other => panic!("unknown argument {other}"),
        }
    }
    (cfg, out, gate)
}

fn main() {
    let (cfg, out_path, gate) = parse_args();
    let report = steady_state_perf(&cfg);
    print!("{}", report.render_text());
    let json = report.render_json();
    std::fs::write(&out_path, &json).expect("write perf baseline json");
    println!("  wrote {out_path}");
    if gate.enabled {
        let gate_file = gate.file.unwrap_or_else(|| default_gate_file(&report));
        let mut reports = vec![report];
        reports.extend((1..GATE_RUNS).map(|_| steady_state_perf(&cfg)));
        let outcome = run_gate(
            &reports,
            std::path::Path::new(&gate_file),
            DEFAULT_TOLERANCE,
        )
        .expect("read/write gate baseline");
        match outcome {
            GateOutcome::BaselineWritten => {
                println!("  gate: no baseline on this machine, wrote {gate_file}");
            }
            GateOutcome::Passed(entries) => {
                for (key, base, fps) in entries {
                    println!(
                        "  gate: {key} median {fps:.3} fps of {GATE_RUNS} runs vs recorded \
                         {base:.3} fps — ok"
                    );
                }
            }
            GateOutcome::Failed(failures) => {
                for failure in &failures {
                    eprintln!("  gate FAILED: {failure}");
                }
                eprintln!("  gate baseline: {gate_file} (delete to re-record)");
                std::process::exit(1);
            }
        }
    }
}
