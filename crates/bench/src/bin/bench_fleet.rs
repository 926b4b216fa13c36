//! `bench_fleet` — multi-tenant fleet soak trajectory (`BENCH_fleet.json`).
//!
//! Runs the canonical eight-tenant mix (four clean recordings, four
//! distinct fault schedules) through one `vidi_fleet::Fleet`, then reports
//! throughput (sessions/sec, aggregate simulated cycles/sec), per-tenant
//! outcomes, clean-tenant bit-identity against solo runs, and peak global
//! buffering against the admission budget.
//!
//! ```text
//! cargo run --release -p vidi-bench --bin bench_fleet -- \
//!     [--out BENCH_fleet.json] [--baseline scripts/bench_fleet_baseline.json] \
//!     [--workers N]
//! ```
//!
//! Exit status is non-zero if any gate of [`vidi_bench::gate::fleet`]
//! fails; the baseline gates run when `--baseline` is given. Wall-clock
//! rates are informational only.

use std::process::ExitCode;

use vidi_bench::fleet_bench::{measure_fleet, to_json};
use vidi_bench::gate;

fn main() -> ExitCode {
    let mut out_path = String::from("BENCH_fleet.json");
    let mut baseline_path: Option<String> = None;
    let mut workers = 8usize;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut val = |name: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{name} needs a value"))
        };
        match arg.as_str() {
            "--out" => out_path = val("--out"),
            "--baseline" => baseline_path = Some(val("--baseline")),
            "--workers" => {
                workers = val("--workers")
                    .parse()
                    .expect("--workers takes an integer");
                assert!(workers > 0, "--workers must be positive");
            }
            other => panic!("unknown argument {other:?}"),
        }
    }

    let report = measure_fleet(workers);
    let doc = to_json(&report, workers);
    std::fs::write(&out_path, doc.pretty()).expect("write BENCH_fleet.json");

    println!(
        "{:<18} {:>10} {:>14} {:>8} {:>8} {:>10} {:>10} {:>6}",
        "tenant", "outcome", "cause", "cycles", "packets", "codec", "bytes", "ident"
    );
    for r in &report.rows {
        println!(
            "{:<18} {:>10} {:>14} {:>8} {:>8} {:>10} {:>10} {:>6}",
            r.name,
            r.outcome,
            r.cause,
            r.cycles,
            r.packets,
            r.codec,
            r.bytes_written,
            r.bit_identical
        );
    }
    println!(
        "wall {:.1} ms | {:.1} sessions/s | {:.0} cycles/s | peak reserved {} / budget {} B \
         | sum peak buffered {} B",
        report.wall_ms,
        report.sessions_per_sec,
        report.aggregate_cycles_per_sec,
        report.peak_reserved,
        report.budget,
        report.sum_peak_buffered,
    );

    println!("wrote {out_path} ({workers} workers)");
    gate::gate_and_exit(&gate::fleet(), &doc, baseline_path.as_deref())
}
