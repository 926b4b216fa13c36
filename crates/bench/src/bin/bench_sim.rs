//! `bench_sim` — scheduler perf trajectory (`BENCH_sim.json`).
//!
//! Runs every catalog application under all three settle schedulers,
//! asserts the recorded traces are bit-identical, and emits
//! machine-readable measurements (cycles/sec, evals/cycle, wall time,
//! compiled deopt/tick-skip counters) to `BENCH_sim.json`.
//!
//! ```text
//! cargo run --release -p vidi-bench --bin bench_sim -- \
//!     [--out BENCH_sim.json] [--baseline scripts/bench_sim_baseline.json] \
//!     [--scale test|bench] [--seed N]
//! ```
//!
//! Exit status is non-zero if any gate of [`vidi_bench::gate::sim`] fails;
//! the baseline gates run when `--baseline` is given.

use std::process::ExitCode;

use vidi_apps::Scale;
use vidi_bench::gate;
use vidi_bench::sim_bench::{
    measure_catalog, rows_with_2x_compiled_speedup, rows_with_2x_reduction,
    rows_with_3x_compression, to_json,
};

fn main() -> ExitCode {
    let mut out_path = String::from("BENCH_sim.json");
    let mut baseline_path: Option<String> = None;
    let mut scale = Scale::Test;
    let mut seed = 42u64;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut val = |name: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{name} needs a value"))
        };
        match arg.as_str() {
            "--out" => out_path = val("--out"),
            "--baseline" => baseline_path = Some(val("--baseline")),
            "--seed" => seed = val("--seed").parse().expect("--seed takes an integer"),
            "--scale" => {
                scale = match val("--scale").as_str() {
                    "test" => Scale::Test,
                    "bench" => Scale::Bench,
                    other => panic!("unknown scale {other:?} (use test|bench)"),
                }
            }
            other => panic!("unknown argument {other:?}"),
        }
    }

    let rows = measure_catalog(scale, seed);
    let doc = to_json(&rows, scale);
    std::fs::write(&out_path, doc.pretty()).expect("write BENCH_sim.json");

    println!(
        "{:<14} {:>10} {:>12} {:>12} {:>9} {:>9} {:>8} {:>9} {:>8} {:>10}",
        "app",
        "cycles",
        "evals/cyc F",
        "evals/cyc I",
        "reduction",
        "compiled",
        "deopts",
        "bytes/cyc",
        "ratio",
        "identical"
    );
    for r in &rows {
        println!(
            "{:<14} {:>10} {:>12.2} {:>12.2} {:>8.2}x {:>8.2}x {:>8} {:>9.2} {:>7.2}x {:>10}",
            r.app,
            r.cycles,
            r.evals_per_cycle_full,
            r.evals_per_cycle_incremental,
            r.eval_reduction,
            r.compiled_speedup,
            r.deopts,
            r.bytes_per_cycle,
            r.compression_ratio,
            r.traces_identical
        );
    }

    println!(
        "wrote {out_path} ({}/{} apps at >=2x eval reduction, {}/{} at >=2x compiled \
         speedup, {}/{} at >=3x compression)",
        rows_with_2x_reduction(&rows),
        rows.len(),
        rows_with_2x_compiled_speedup(&rows),
        rows.len(),
        rows_with_3x_compression(&rows),
        rows.len()
    );
    gate::gate_and_exit(&gate::sim(), &doc, baseline_path.as_deref())
}
