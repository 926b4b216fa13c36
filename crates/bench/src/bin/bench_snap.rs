//! `bench_snap` — checkpoint/seek/verify trajectory (`BENCH_snap.json`).
//!
//! Runs every catalog application through a checkpointed replay, checks the
//! persisted checkpoints round-trip exactly, seeks to the middle of each
//! replay both cold and via a checkpoint, and times the serial versus
//! parallel segmented verification sweep.
//!
//! ```text
//! cargo run --release -p vidi-bench --bin bench_snap -- \
//!     [--out BENCH_snap.json] [--baseline scripts/bench_snap_baseline.json] \
//!     [--scale test|bench] [--seed N] [--threads N]
//! ```
//!
//! Exit status is non-zero if any gate of [`vidi_bench::gate::snap`]
//! fails; the baseline gates run when `--baseline` is given.

use std::process::ExitCode;

use vidi_apps::Scale;
use vidi_bench::gate;
use vidi_bench::snap_bench::{measure_catalog, rows_with_2x_verify_speedup, to_json};

fn main() -> ExitCode {
    let mut out_path = String::from("BENCH_snap.json");
    let mut baseline_path: Option<String> = None;
    let mut scale = Scale::Test;
    let mut seed = 42u64;
    let mut threads = 4usize;

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
            "--threads" => {
                threads = val("--threads")
                    .parse()
                    .expect("--threads takes an integer");
                assert!(threads > 0, "--threads must be positive");
            }
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

    let rows = measure_catalog(scale, seed, threads);
    let doc = to_json(&rows, scale, threads);
    std::fs::write(&out_path, doc.pretty()).expect("write BENCH_snap.json");

    println!(
        "{:<14} {:>8} {:>5} {:>10} {:>10} {:>9} {:>9} {:>8} {:>6} verdict",
        "app", "cycles", "cps", "cold ms", "warm ms", "ser ms", "par ms", "speedup", "exact"
    );
    for r in &rows {
        println!(
            "{:<14} {:>8} {:>5} {:>10.2} {:>10.2} {:>9.2} {:>9.2} {:>7.2}x {:>6} {}",
            r.app,
            r.cycles,
            r.checkpoints,
            r.seek_cold_ms,
            r.seek_warm_ms,
            r.verify_serial_ms,
            r.verify_parallel_ms,
            r.verify_speedup,
            r.roundtrip_exact,
            r.verdict
        );
    }

    println!(
        "wrote {out_path} ({}/{} apps at >=2x verify speedup, {threads} threads)",
        rows_with_2x_verify_speedup(&rows),
        rows.len()
    );
    gate::gate_and_exit(&gate::snap(), &doc, baseline_path.as_deref())
}
