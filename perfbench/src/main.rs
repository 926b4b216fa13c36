//! `vidi-perfbench`: the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload long-sessions|short-sessions --seed N --seconds S --trace 0|1
//! ```
//!
//! Prints run metadata, a table on stderr, and as the last stdout line one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. See `README.md` beside this package for the workloads and
//! every metric's definition.

mod clock;
mod pipeline;
mod spans;
mod stats;
mod workload;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use vidi_apps::AppId;

use pipeline::{Pass, Runner, Work};
use stats::{geomean, mean, median, percentile};
use workload::Workload;

/// Apps whose replay and verify throughput get per-app rows: the apps
/// every workload replays.
const REPLAY_ROW_APPS: [AppId; 6] = workload::LONG_REPLAY;

/// Pipeline passes run even when `--seconds` has already elapsed.
const MIN_PASSES: usize = 3;

/// Span names whose self time is reported, as `<name>_s`.
const LAYER_SPANS: [&str; 11] = [
    "apps.build",
    "hwsim.record_run",
    "hwsim.replay_run",
    "core.drain",
    "core.finalize",
    "trace.recover",
    "snap.checkpointed_replay",
    "snap.replay_from",
    "snap.verify",
    "fleet.submit",
    "fleet.wait",
];

/// Counters reported as they are, with their unit.
const COUNTERS: [(&str, &str); 19] = [
    ("hwsim.evals_per_cycle", "evals/cycle"),
    ("hwsim.settle_passes_per_cycle", "passes/cycle"),
    ("hwsim.deopts", "count"),
    ("hwsim.recompiles", "count"),
    ("hwsim.tick_skips", "count"),
    ("core.drain_cycles", "cycles"),
    ("core.backpressure_cycles", "cycles"),
    ("core.events_logged", "count"),
    ("core.chunks_flushed", "count"),
    ("core.peak_buffered_bytes", "B"),
    ("host.polls", "count"),
    ("codec.ratio", "ratio"),
    ("snap.rolled_forward_cycles", "cycles"),
    ("snap.checkpoints", "count"),
    ("snap.verify_segments", "count"),
    ("fleet.admission_rejects", "count"),
    ("fleet.peak_reserved_bytes", "B"),
    ("fleet.sum_peak_buffered_bytes", "B"),
    ("seek.samples", "count"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 30;
    let mut trace = false;
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

impl Metric {
    fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: vidi-perfbench --workload <{}> --seed N --seconds S --trace 0|1",
                workload::WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let w = match Workload::generate(&args.workload, args.seed) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&w, &args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(w: &Workload, args: &Args) -> Result<(), String> {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let mut runner = Runner::new(w, nproc);

    let setup_s: Vec<f64> = (0..w.setup_reps).map(|_| runner.setup()).collect();
    let transparent = runner.transparent_cycles();

    // Passes until the time is up. A traced run alternates traced and
    // untraced passes so it can state its own tracing overhead.
    // Peak memory is read after the first pass, which has run every stage:
    // each later pass's fleet starts fresh worker threads, whose allocator
    // arenas raise the high-water mark by 0–30% at random.
    let mut passes: Vec<Pass> = Vec::new();
    let mut peak_rss = None;
    let start = Instant::now();
    while passes.len() < MIN_PASSES || start.elapsed() < Duration::from_secs(args.seconds) {
        runner
            .tracer
            .set_enabled(args.trace && passes.len().is_multiple_of(2));
        passes.push(runner.pass());
        if passes.len() == 1 {
            peak_rss = Some(peak_rss_mb()?);
        }
    }
    let measured_s = start.elapsed().as_secs_f64();

    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let traced: Vec<&Pass> = passes.iter().filter(|p| p.traced).collect();
    let untraced: Vec<&Pass> = passes.iter().filter(|p| !p.traced).collect();
    let overhead_pct = if args.trace {
        let t = median(&traced.iter().map(|p| p.op_seconds).collect::<Vec<_>>());
        let u = median(&untraced.iter().map(|p| p.op_seconds).collect::<Vec<_>>());
        t.zip(u).map(|(t, u)| (t / u - 1.0) * 100.0)
    } else {
        None
    };

    let metrics = if args.trace {
        per_layer(
            &traced,
            &runner,
            overhead_pct.ok_or("no pass pair to compare")?,
        )
    } else {
        end_to_end(
            &passes,
            &setup_s,
            &transparent,
            peak_rss.ok_or("no pass ran")?,
        )?
    };

    let mut meta = format!(
        "{{\"meta\":{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\
         \"nproc\":{nproc},\"fleet_workers\":{},\"profile\":\"{profile}\",\"passes\":{},\
         \"measured_s\":{measured_s:.3},\"setup_reps\":{},\"ref_loop_slowness\":{:.4}",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        runner.workers,
        passes.len(),
        w.setup_reps,
        runner.clock.mean_slowness(),
    );
    let pass_s: Vec<String> = passes
        .iter()
        .map(|p| format!("{:.3}", p.op_seconds))
        .collect();
    let _ = write!(meta, ",\"pass_op_s\":[{}]", pass_s.join(","));
    if let Some(p95) = percentile(&seek_samples(&passes), 95.0) {
        let _ = write!(
            meta,
            ",\"seek_samples\":{},\"seek_beyond_p95\":{}",
            p95.samples, p95.beyond
        );
    }
    if let Some(o) = overhead_pct {
        let _ = write!(meta, ",\"tracing_overhead_pct\":{o:.3}");
    }
    meta.push_str("}}");
    println!("{meta}");

    if args.trace {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("spans-{}-{}.jsonl", w.name, args.seed));
        std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, runner.tracer.to_json_lines()))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        eprintln!("spans written to {}", path.display());
    }

    for m in &runner.checks.messages {
        eprintln!("FAILED {m}");
    }
    eprintln!("{:<40} {:>16} unit", "metric", "value");
    for m in &metrics {
        eprintln!("{:<40} {:>16.6} {}", m.name, m.value, m.unit);
    }

    let c = &runner.checks;
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        c.failed == 0,
        c.attempted,
        c.failed
    );
    for (i, m) in metrics.iter().enumerate() {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite", m.name));
        }
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    println!("{out}");
    Ok(())
}

/// Selects one stage's per-app work from a pass.
type StageRows = fn(&Pass) -> &[Work];

/// Per app: simulated cycles ÷ normalized seconds, summed over `passes`.
fn throughput(passes: &[&Pass], rows: StageRows) -> Vec<(AppId, f64)> {
    let mut sums: Vec<(AppId, u64, f64)> = Vec::new();
    for w in passes.iter().flat_map(|p| rows(p)) {
        match sums.iter_mut().find(|(a, _, _)| *a == w.app) {
            Some(s) => {
                s.1 += w.cycles;
                s.2 += w.seconds;
            }
            None => sums.push((w.app, w.cycles, w.seconds)),
        }
    }
    sums.into_iter()
        .map(|(app, cycles, seconds)| (app, cycles as f64 / seconds))
        .collect()
}

/// Geometric mean over apps of [`throughput`].
fn throughput_geomean(passes: &[&Pass], rows: StageRows) -> Option<f64> {
    geomean(
        &throughput(passes, rows)
            .iter()
            .map(|(_, v)| *v)
            .collect::<Vec<_>>(),
    )
}

/// Tenants completed ÷ seconds, summed over the passes' fleet phases.
fn sessions_per_s(passes: &[&Pass], phase: fn(&Pass) -> Option<(usize, f64)>) -> Option<f64> {
    let (n, s) = passes
        .iter()
        .filter_map(|p| phase(p))
        .fold((0usize, 0.0), |(n, s), (pn, ps)| (n + pn, s + ps));
    (n > 0).then(|| n as f64 / s)
}

/// Every seek latency of the run, in milliseconds.
fn seek_samples(passes: &[Pass]) -> Vec<f64> {
    passes
        .iter()
        .flat_map(|p| p.seek_ms.iter().copied())
        .collect()
}

/// Median over passes of a per-pass value; `None` when no pass has one.
fn median_of(passes: &[&Pass], f: impl Fn(&Pass) -> Option<f64>) -> Option<f64> {
    median(&passes.iter().filter_map(|p| f(p)).collect::<Vec<_>>())
}

fn end_to_end(
    passes: &[Pass],
    setup_s: &[f64],
    transparent: &[(AppId, u64)],
    peak_rss_mb: f64,
) -> Result<Vec<Metric>, String> {
    let all: Vec<&Pass> = passes.iter().collect();
    let first = passes.first().ok_or("no pass ran")?;
    let need = |name: &str, v: Option<f64>| v.ok_or(format!("{name}: no successful operation"));

    let slowdowns: Vec<f64> = first
        .record
        .iter()
        .filter_map(|w| {
            let (_, base) = transparent.iter().find(|(a, _)| *a == w.app)?;
            Some(w.cycles as f64 / *base as f64)
        })
        .collect();
    let seeks = seek_samples(passes);
    let p50 = percentile(&seeks, 50.0);
    let p95 = percentile(&seeks, 95.0);

    Ok(vec![
        Metric::new("setup_s", need("setup_s", median(setup_s))?, "s"),
        Metric::new(
            "record_cycles_per_s",
            need("record", throughput_geomean(&all, |p| &p.record))?,
            "cycles/s",
        ),
        Metric::new(
            "record_slowdown",
            need("record_slowdown", mean(&slowdowns))?,
            "ratio",
        ),
        Metric::new(
            "trace_bytes_per_cycle",
            need("trace_bytes_per_cycle", mean(&first.bytes_per_cycle))?,
            "B/cycle",
        ),
        Metric::new(
            "replay_cycles_per_s",
            need("replay", throughput_geomean(&all, |p| &p.replay))?,
            "cycles/s",
        ),
        Metric::new(
            "debug_open_s",
            need(
                "debug_open",
                mean(&all.iter().map(|p| p.debug_open_s).collect::<Vec<_>>()).filter(|v| *v > 0.0),
            )?,
            "s",
        ),
        Metric::new("seek_ms_p50", need("seek", p50.map(|p| p.value))?, "ms"),
        Metric::new("seek_ms_p95", need("seek", p95.map(|p| p.value))?, "ms"),
        Metric::new(
            "verify_cycles_per_s",
            need("bisect", throughput_geomean(&all, |p| &p.verify))?,
            "cycles/s",
        ),
        Metric::new(
            "fleet_record_sessions_per_s",
            need("fleet record", sessions_per_s(&all, |p| p.fleet_record))?,
            "sessions/s",
        ),
        Metric::new(
            "fleet_replay_sessions_per_s",
            need("fleet replay", sessions_per_s(&all, |p| p.fleet_replay))?,
            "sessions/s",
        ),
        Metric::new("peak_rss_mb", peak_rss_mb, "MB"),
    ])
}

fn per_layer(traced: &[&Pass], runner: &Runner<'_>, overhead_pct: f64) -> Vec<Metric> {
    let mut out = Vec::new();
    for name in LAYER_SPANS {
        let v = median_of(traced, |p| {
            Some(p.self_times.get(name).copied().unwrap_or(0.0))
        });
        out.push(Metric::new(format!("{name}_s"), v.unwrap_or(0.0), "s"));
    }
    for (name, unit) in COUNTERS {
        let v = match name {
            "codec.ratio" => Some(runner.codec_ratio()),
            "seek.samples" => median_of(traced, |p| Some(p.seek_ms.len() as f64)),
            _ => median_of(traced, |p| {
                Some(p.counters.get(name).copied().unwrap_or(0.0))
            }),
        };
        out.push(Metric::new(name, v.unwrap_or(0.0), unit));
    }
    // Share of the timed operations' wall time that named layer spans
    // account for; the rest is the operations' own bookkeeping.
    let attributed = median_of(traced, |p| {
        let total: f64 = p.self_times.values().sum();
        let layers: f64 = LAYER_SPANS.iter().filter_map(|n| p.self_times.get(n)).sum();
        (total > 0.0).then(|| layers / total)
    });
    out.push(Metric::new(
        "trace.attributed_share",
        attributed.unwrap_or(0.0),
        "ratio",
    ));
    out.push(Metric::new("trace.overhead_pct", overhead_pct, "%"));
    let c = &runner.checks;
    out.push(Metric::new(
        "failed_op_ratio",
        c.failed as f64 / c.attempted.max(1) as f64,
        "ratio",
    ));
    let rows: [(&str, StageRows, &[AppId]); 3] = [
        ("record_cycles_per_s", |p| &p.record, &AppId::ALL),
        ("replay_cycles_per_s", |p| &p.replay, &REPLAY_ROW_APPS),
        ("verify_cycles_per_s", |p| &p.verify, &REPLAY_ROW_APPS),
    ];
    for (metric, rows_of, apps) in rows {
        let per_app = throughput(traced, rows_of);
        for app in apps {
            let v = per_app
                .iter()
                .find(|(a, _)| a == app)
                .map_or(0.0, |(_, v)| *v);
            out.push(Metric::new(
                format!("{metric}.{}", app.label()),
                v,
                "cycles/s",
            ));
        }
    }
    out
}

/// The process's resident-set high-water mark, in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}
