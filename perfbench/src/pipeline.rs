//! The timed pipeline: each stage calls the public API of one layer and is
//! timed from outside, with a span around every call when tracing is on.
//!
//! A pass runs every stage once over the workload's inputs:
//! 1. record each session solo through drain and finalize, then certify
//!    the image with `recover_trace`;
//! 2. replay each reference to `replay_complete`;
//! 3. open the debugger (`checkpointed_replay` at the debugger's default
//!    cadence);
//! 4. serve the seeded `seek`/`rstep` requests, each on a fresh session;
//! 5. `bisect` (`ParallelVerifier::verify_serial`, as `trace_tool debug`
//!    runs it);
//! 6. run the fleet batch: record tenants, then a replay of each.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use vidi_apps::{build_app, AppId, BuiltApp, Scale};
use vidi_bench::debug::DebugOptions;
use vidi_core::{ReplayInput, SessionCursor, Stop, StopReason, VidiConfig};
use vidi_fleet::{Fleet, FleetConfig, FleetStats, SessionId, SessionSpec, SessionState};
use vidi_snap::{
    checkpointed_replay, replay_from, CheckpointPolicy, ParallelVerifier, SnapSession,
    VerifyOptions, VerifyVerdict,
};
use vidi_trace::{recover_trace, SharedChunks, Trace};

use crate::clock::Clock;
use crate::spans::{self_times, Tracer};
use crate::workload::{SeekKind, Session, Workload};

/// Cycle budget of one recording or plain replay.
const MAX_CYCLES: u64 = 50_000_000;

/// Attempted and failed operations, with a message per failure.
#[derive(Debug, Default)]
pub struct Checks {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed a correctness check.
    pub failed: u64,
    /// One line per failure.
    pub messages: Vec<String>,
}

impl Checks {
    /// Counts one operation; returns its value when it passed.
    fn take<T>(&mut self, what: &str, result: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                self.messages.push(format!("{what}: {e}"));
                None
            }
        }
    }
}

/// A finished recording.
struct Recorded {
    /// Work cycles, from the first cycle to the last CPU thread finishing.
    cycles: u64,
    /// Host seconds from the first cycle to the finalized image.
    seconds: f64,
    /// The finalized stream image and its recovered trace (recordings only).
    image: Option<(Vec<u8>, Trace)>,
    /// Raw trace body bytes, before any codec.
    raw_bytes: u64,
    counters: BTreeMap<&'static str, f64>,
}

/// A reference recording the replay-side stages run on.
pub struct Reference {
    session: Session,
    image: SharedChunks,
    trace: Trace,
    raw_bytes: u64,
    written_bytes: u64,
}

/// Simulated cycles an operation covered and the seconds it took.
#[derive(Clone, Copy, Debug)]
pub struct Work {
    /// The app the operation ran.
    pub app: AppId,
    /// Simulated cycles.
    pub cycles: u64,
    /// Normalized host seconds.
    pub seconds: f64,
}

/// What one pass measured.
#[derive(Debug, Default)]
pub struct Pass {
    /// Whether spans were recorded during the pass.
    pub traced: bool,
    /// Sum of the timed operations' host seconds.
    pub op_seconds: f64,
    /// Per app: work cycles and seconds of the solo recording.
    pub record: Vec<Work>,
    /// Per app: recorded stream bytes per work cycle.
    pub bytes_per_cycle: Vec<f64>,
    /// Per app: cycles to `replay_complete` and seconds.
    pub replay: Vec<Work>,
    /// Host seconds of all debugger opens.
    pub debug_open_s: f64,
    /// Host milliseconds of each seek, session build included.
    pub seek_ms: Vec<f64>,
    /// Per app: reference cycles and seconds of `bisect`.
    pub verify: Vec<Work>,
    /// Fleet record phase: tenants completed and seconds.
    pub fleet_record: Option<(usize, f64)>,
    /// Fleet replay phase: tenants completed and seconds.
    pub fleet_replay: Option<(usize, f64)>,
    /// Deterministic counters and fleet counters.
    pub counters: BTreeMap<&'static str, f64>,
    /// Self time per span name (traced passes only).
    pub self_times: BTreeMap<&'static str, f64>,
}

/// Runs a workload's stages against the library.
pub struct Runner<'w> {
    w: &'w Workload,
    /// The span collector.
    pub tracer: Tracer,
    /// Normalized host time.
    pub clock: Clock,
    /// Correctness bookkeeping.
    pub checks: Checks,
    /// Fleet worker threads.
    pub workers: usize,
    debug: DebugOptions,
    refs: Vec<Reference>,
    passes_run: usize,
}

impl<'w> Runner<'w> {
    /// A runner for `w` whose fleet uses `workers` threads; tracing starts
    /// off.
    pub fn new(w: &'w Workload, workers: usize) -> Self {
        Runner {
            w,
            tracer: Tracer::new(),
            clock: Clock::new(),
            checks: Checks::default(),
            workers,
            debug: DebugOptions::default(),
            refs: Vec::new(),
            passes_run: 0,
        }
    }

    /// Records the reference traces the replay-side stages use. Returns
    /// its host seconds: each reference's build, recording and
    /// certification is one measurement, and they are summed.
    pub fn setup(&mut self) -> f64 {
        let clock = &self.clock;
        let mut refs = Vec::new();
        let mut seconds = 0.0;
        for s in &self.w.replay {
            let config = VidiConfig::record().with_trace_codec(s.codec);
            let (result, t) = clock.measure(|| {
                let r = record(&self.tracer, clock, s, self.w.scale, config)?;
                let (image, trace) = r.image.ok_or("recording produced no image")?;
                Ok(Reference {
                    session: *s,
                    written_bytes: image.len() as u64,
                    image: Arc::new(image),
                    trace,
                    raw_bytes: r.raw_bytes,
                })
            });
            seconds += t;
            if let Some(r) = self
                .checks
                .take(&format!("setup {}", s.app.label()), result)
            {
                refs.push(r);
            }
        }
        self.refs = refs;
        seconds
    }

    /// Raw body bytes ÷ written bytes over the references.
    pub fn codec_ratio(&self) -> f64 {
        let raw: u64 = self.refs.iter().map(|r| r.raw_bytes).sum();
        let written: u64 = self.refs.iter().map(|r| r.written_bytes).sum();
        raw as f64 / written.max(1) as f64
    }

    /// Work cycles of each record session under `VidiConfig::transparent()`
    /// — the baseline of the recording slowdown. Untimed.
    pub fn transparent_cycles(&mut self) -> Vec<(AppId, u64)> {
        let mut out = Vec::new();
        for s in &self.w.record {
            let r = record(
                &Tracer::new(),
                &self.clock,
                s,
                self.w.scale,
                VidiConfig::transparent(),
            );
            let what = format!("transparent {}", s.app.label());
            if let Some(r) = self.checks.take(&what, r) {
                out.push((s.app, r.cycles));
            }
        }
        out
    }

    /// Runs every stage once.
    pub fn pass(&mut self) -> Pass {
        let mark = self.tracer.mark();
        let mut p = Pass {
            traced: self.tracer.enabled(),
            ..Pass::default()
        };
        self.record_stage(&mut p);
        self.replay_stage(&mut p);
        self.debug_stages(&mut p);
        self.fleet_stage(&mut p);
        if p.traced {
            p.self_times = self_times(&self.tracer.since(mark), mark);
        }
        self.passes_run += 1;
        p
    }

    fn record_stage(&mut self, p: &mut Pass) {
        let t = &self.tracer;
        for s in &self.w.record {
            let result = t.op("op.record", || {
                record(t, &self.clock, s, self.w.scale, VidiConfig::record())
            });
            let Some(r) = self
                .checks
                .take(&format!("record {}", s.app.label()), result)
            else {
                continue;
            };
            p.op_seconds += r.seconds;
            p.record.push(Work {
                app: s.app,
                cycles: r.cycles,
                seconds: r.seconds,
            });
            let written = r.image.as_ref().map_or(0, |(img, _)| img.len());
            p.bytes_per_cycle
                .push(written as f64 / r.cycles.max(1) as f64);
            for (k, v) in r.counters {
                let slot = p.counters.entry(k).or_insert(0.0);
                *slot = if k == "core.peak_buffered_bytes" {
                    slot.max(v)
                } else {
                    *slot + v
                };
            }
        }
        // Ratios over the whole stage, from the summed raw counts.
        let cycles = p
            .counters
            .get("hwsim.cycles")
            .copied()
            .unwrap_or(0.0)
            .max(1.0);
        let evals = p.counters.remove("hwsim.evals").unwrap_or(0.0);
        let passes = p.counters.remove("hwsim.settle_passes").unwrap_or(0.0);
        p.counters.insert("hwsim.evals_per_cycle", evals / cycles);
        p.counters
            .insert("hwsim.settle_passes_per_cycle", passes / cycles);
        p.counters.remove("hwsim.cycles");
    }

    fn replay_stage(&mut self, p: &mut Pass) {
        let t = &self.tracer;
        let clock = &self.clock;
        for r in &self.refs {
            let app = r.session.app;
            let result = t.op("op.replay", || {
                let mut built = t.span("apps.build", || r.build(self.w.scale, VidiConfig::replay));
                let start = clock.start();
                let ev = t.span("hwsim.replay_run", || {
                    SessionCursor::new(&mut built)
                        .run_until(Stop::replay_complete().with_budget(MAX_CYCLES))
                });
                let ev = ev.map_err(|e| e.to_string())?;
                if ev.reason != StopReason::ReplayComplete {
                    return Err(format!("stopped at cycle {} ({:?})", ev.cycle, ev.reason));
                }
                let drained = t.span("core.drain", || SessionCursor::new(&mut built).flush());
                let seconds = clock.stop(start);
                drained.map_err(|e| e.to_string())?;
                Ok((ev.advanced, seconds))
            });
            if let Some((cycles, seconds)) =
                self.checks.take(&format!("replay {}", app.label()), result)
            {
                p.op_seconds += seconds;
                p.replay.push(Work {
                    app,
                    cycles,
                    seconds,
                });
            }
        }
    }

    fn debug_stages(&mut self, p: &mut Pass) {
        let t = &self.tracer;
        let clock = &self.clock;
        let scale = self.w.scale;
        let check_first_seek = self.passes_run == 0;
        let plan = self.w.seeks(self.passes_run);
        for (r, seeks) in self.refs.iter().zip(&plan) {
            let app = r.session.app;
            let r3 = VidiConfig::replay_record;
            let factory = || t.span("apps.build", || r.build(scale, r3));

            // Debugger open.
            let opened = t.op("op.debug_open", || {
                let start = clock.start();
                let mut session = factory();
                let log = t.span("snap.checkpointed_replay", || {
                    checkpointed_replay(
                        &mut session,
                        CheckpointPolicy::every(self.debug.every),
                        self.debug.max_cycles,
                    )
                });
                let seconds = clock.stop(start);
                let log = log.map_err(|e| e.to_string())?;
                if !log.completed {
                    return Err(format!("replay incomplete at cycle {}", log.final_cycle));
                }
                Ok((log, seconds))
            });
            let what = format!("debug open {}", app.label());
            let Some((log, seconds)) = self.checks.take(&what, opened) else {
                continue;
            };
            p.op_seconds += seconds;
            p.debug_open_s += seconds;
            *p.counters.entry("snap.checkpoints").or_insert(0.0) += log.checkpoints.len() as f64;

            // Seeks and reverse steps.
            let mut target = 0u64;
            for (k, kind) in seeks.iter().enumerate() {
                target = match *kind {
                    SeekKind::Seek(f) => (f * log.final_cycle as f64) as u64,
                    SeekKind::Rstep(n) => target.saturating_sub(n),
                };
                let seek = t.op("op.seek", || {
                    let start = clock.start();
                    let mut session = factory();
                    let out = t.span("snap.replay_from", || {
                        replay_from(&mut session, &log, target)
                    });
                    let ms = clock.stop(start) * 1e3;
                    out.map(|o| (session, o.rolled_forward, ms))
                        .map_err(|e| e.to_string())
                });
                let seek = seek.and_then(|(mut session, rolled, ms)| {
                    if check_first_seek && k == 0 {
                        cold_roll_forward_matches(&mut session, r.build(scale, r3), target)?;
                    }
                    Ok((rolled, ms))
                });
                let what = format!("seek {} @{target}", app.label());
                if let Some((rolled, ms)) = self.checks.take(&what, seek) {
                    p.op_seconds += ms * 1e-3;
                    p.seek_ms.push(ms);
                    *p.counters
                        .entry("snap.rolled_forward_cycles")
                        .or_insert(0.0) += rolled as f64;
                }
            }

            // Bisect.
            let bisect = t.op("op.bisect", || {
                let options = VerifyOptions {
                    final_budget: self.debug.final_budget,
                    ..VerifyOptions::default()
                };
                let verifier =
                    ParallelVerifier::new(&factory, &log, &r.trace).with_options(options);
                let start = clock.start();
                let report = t.span("snap.verify", || verifier.verify_serial());
                let seconds = clock.stop(start);
                let report = report.map_err(|e| e.to_string())?;
                let expected = match report.verdict {
                    VerifyVerdict::Clean => true,
                    // DRAM DMA polls for completion, so its replay diverges
                    // by design (§3.6).
                    VerifyVerdict::Diverged { .. } => app == AppId::Dma,
                    _ => false,
                };
                if !expected {
                    return Err(format!("unexpected verdict {:?}", report.verdict));
                }
                Ok((report.segments, seconds))
            });
            if let Some((segments, seconds)) =
                self.checks.take(&format!("bisect {}", app.label()), bisect)
            {
                p.op_seconds += seconds;
                p.verify.push(Work {
                    app,
                    cycles: log.final_cycle,
                    seconds,
                });
                *p.counters.entry("snap.verify_segments").or_insert(0.0) += segments as f64;
            }
        }
    }

    fn fleet_stage(&mut self, p: &mut Pass) {
        let fleet = Fleet::new(FleetConfig {
            workers: self.workers,
            ..FleetConfig::default()
        });
        let mut rejects = 0u64;
        let records: Vec<SessionSpec> = self
            .w
            .fleet
            .iter()
            .enumerate()
            .map(|(i, s)| SessionSpec {
                scale: self.w.scale,
                ..SessionSpec::record(format!("record-{i}-{}", s.app.label()), s.app, s.seed)
                    .with_trace_codec(s.codec)
            })
            .collect();
        let (ids, seconds) = self.fleet_phase(&fleet, "op.fleet_record", &records, &mut rejects);
        let mut replays = Vec::new();
        let mut completed = 0usize;
        for ((id, spec), s) in ids.iter().zip(&records).zip(&self.w.fleet) {
            // A refused submission is already counted as failed.
            let Some(id) = id else { continue };
            let result = tenant_completed(&fleet, *id).and_then(|()| {
                let prefix = fleet.fetch_trace(*id).ok_or("no trace")?;
                if !prefix.complete {
                    return Err("fetched trace is incomplete".to_string());
                }
                Ok(prefix.bytes)
            });
            if let Some(bytes) = self.checks.take(&format!("fleet {}", spec.name), result) {
                completed += 1;
                let image: SharedChunks = Arc::new(bytes);
                replays.push(SessionSpec {
                    scale: self.w.scale,
                    ..SessionSpec::replay(
                        format!("replay-{}", spec.name),
                        s.app,
                        s.seed,
                        ReplayInput::from_chunks(image),
                    )
                });
            }
        }
        if completed > 0 {
            p.op_seconds += seconds;
            p.fleet_record = Some((completed, seconds));
        }
        let (ids, seconds) = self.fleet_phase(&fleet, "op.fleet_replay", &replays, &mut rejects);
        let mut completed = 0usize;
        for (id, spec) in ids.iter().zip(&replays) {
            let Some(id) = id else { continue };
            let what = format!("fleet {}", spec.name);
            if self
                .checks
                .take(&what, tenant_completed(&fleet, *id))
                .is_some()
            {
                completed += 1;
            }
        }
        if completed > 0 {
            p.op_seconds += seconds;
            p.fleet_replay = Some((completed, seconds));
        }
        let stats = fleet.stats();
        p.counters.insert("fleet.admission_rejects", rejects as f64);
        p.counters
            .insert("fleet.peak_reserved_bytes", stats.peak_reserved as f64);
        p.counters.insert(
            "fleet.sum_peak_buffered_bytes",
            stats.sum_peak_buffered as f64,
        );
    }

    /// Submits `specs` one batch at a time — one tenant per worker, all of
    /// one app — retrying admission refusals once a tenant ends, and blocks
    /// in `wait_all` after each batch. Returns each spec's session id
    /// (`None` when it could never be admitted) and the seconds from each
    /// batch's first submit to its `wait_all` returning, summed over the
    /// batches.
    ///
    /// The reference loop is timed on the submitting thread only while the
    /// fleet is idle, before and after a wait. A whole phase lasts seconds,
    /// as long as the host's contention swings, so each batch is normalized
    /// by the timings at its own two ends. Tenants of one app take about
    /// equally long, so the workers finish a batch nearly together.
    fn fleet_phase(
        &mut self,
        fleet: &Fleet,
        op: &'static str,
        specs: &[SessionSpec],
        rejects: &mut u64,
    ) -> (Vec<Option<SessionId>>, f64) {
        let t = &self.tracer;
        let clock = &self.clock;
        let mut ids = Vec::new();
        let mut refused = Vec::new();
        let mut seconds = 0.0;
        let batches = specs
            .chunk_by(|a, b| a.app == b.app)
            .flat_map(|app| app.chunks(self.workers));
        t.op(op, || {
            for batch in batches {
                let ((), s) = clock.measure(|| {
                    for spec in batch {
                        match submit(t, fleet, spec, rejects) {
                            Ok(id) => ids.push(Some(id)),
                            Err(e) => {
                                ids.push(None);
                                refused.push(format!("fleet {}: {e}", spec.name));
                            }
                        }
                    }
                    t.span("fleet.wait", || fleet.wait_all());
                });
                seconds += s;
            }
        });
        for message in refused {
            self.checks.take::<()>("submit", Err(message));
        }
        (ids, seconds)
    }
}

impl Reference {
    /// A fresh session of the reference's app, replaying its image under
    /// the replay `mode` (`VidiConfig::replay` or `replay_record`).
    fn build(&self, scale: Scale, mode: fn(ReplayInput) -> VidiConfig) -> BuiltApp {
        let input = ReplayInput::from_chunks(Arc::clone(&self.image));
        build_app(
            self.session.app.setup(scale, self.session.seed),
            mode(input),
        )
    }
}

/// Records one session: build, run until every CPU thread finishes, drain
/// the store, finalize the image, then check the output and certify the
/// image. The reported time covers the first cycle to the finalized image.
fn record(
    t: &Tracer,
    clock: &Clock,
    s: &Session,
    scale: Scale,
    config: VidiConfig,
) -> Result<Recorded, String> {
    let recording = config.mode.records();
    let mut built = t.span("apps.build", || {
        build_app(s.app.setup(scale, s.seed), config)
    });
    let start = clock.start();
    let ev = t.span("hwsim.record_run", || {
        SessionCursor::new(&mut built).run_until(
            Stop::when(|b: &mut BuiltApp| b.cpu.iter().all(|h| h.borrow().finished))
                .or_at_cycle(MAX_CYCLES)
                .check_every(1),
        )
    });
    let ev = ev.map_err(|e| e.to_string())?;
    if ev.reason != StopReason::PredicateTrue {
        return Err(format!("CPU threads unfinished at cycle {}", ev.cycle));
    }
    let drained = t.span("core.drain", || SessionCursor::new(&mut built).flush());
    drained.map_err(|e| e.to_string())?;
    let image = if recording {
        let image = t.span("core.finalize", || built.shim.recorded_stream_image());
        Some(image.ok_or("recording produced no stream image")?)
    } else {
        None
    };
    let seconds = clock.stop(start);

    (built.check)(&built.host_mem, &built.fpga_dram, &built.cpu)
        .map_err(|e| format!("output check failed: {e}"))?;
    let image = match image {
        Some(image) => {
            let recovered = t.span("trace.recover", || recover_trace(&image));
            let recovered = recovered.map_err(|e| e.to_string())?;
            let recorded = built.shim.recorded_packet_count() as u64;
            if recovered.recovered_packets != recorded {
                return Err(format!(
                    "recover_trace certified {} packets, the recording committed {recorded}",
                    recovered.recovered_packets
                ));
            }
            Some((image, recovered.trace))
        }
        None => None,
    };

    let sim = built.sim.stats().clone();
    let vidi = built.shim.stats();
    let drain_cycles = sim.cycles - ev.cycle;
    let counters = BTreeMap::from([
        ("hwsim.cycles", sim.cycles as f64),
        ("hwsim.evals", sim.evals as f64),
        ("hwsim.settle_passes", sim.settle_passes as f64),
        ("hwsim.deopts", sim.deopts as f64),
        ("hwsim.recompiles", sim.recompiles as f64),
        ("hwsim.tick_skips", sim.tick_skips as f64),
        ("core.drain_cycles", drain_cycles as f64),
        ("core.backpressure_cycles", vidi.backpressure_cycles as f64),
        ("core.events_logged", vidi.events_logged as f64),
        ("core.chunks_flushed", vidi.chunks_flushed as f64),
        ("core.peak_buffered_bytes", vidi.peak_buffered_bytes as f64),
        (
            "host.polls",
            built
                .cpu
                .iter()
                .map(|h| h.borrow().polls_issued)
                .sum::<u64>() as f64,
        ),
    ]);
    Ok(Recorded {
        cycles: ev.cycle,
        seconds,
        image,
        raw_bytes: built.shim.recorded_bytes(),
        counters,
    })
}

/// Checks a seeked session against a fresh one rolled forward from cycle 0
/// to the same cycle, by state digest.
fn cold_roll_forward_matches(
    seeked: &mut BuiltApp,
    mut cold: BuiltApp,
    target: u64,
) -> Result<(), String> {
    SessionCursor::new(&mut cold)
        .step(target)
        .map_err(|e| e.to_string())?;
    let (warm, cold) = (seeked.sim().state_digest(), cold.sim().state_digest());
    if warm == cold {
        Ok(())
    } else {
        Err(format!(
            "seek digest {warm:#x} != cold roll-forward {cold:#x}"
        ))
    }
}

fn tenant_completed(fleet: &Fleet, id: SessionId) -> Result<(), String> {
    match fleet.state_of(id) {
        Some(SessionState::Completed(_)) => Ok(()),
        Some(other) => Err(format!("ended {other:?}")),
        None => Err("unknown session".to_string()),
    }
}

fn terminal(s: &FleetStats) -> usize {
    s.completed + s.failed + s.evicted
}

/// Submits `spec`, retrying each admission refusal once a tenant has
/// ended and released its reservation.
fn submit(
    t: &Tracer,
    fleet: &Fleet,
    spec: &SessionSpec,
    rejects: &mut u64,
) -> Result<SessionId, String> {
    loop {
        let before = fleet.stats();
        match t.span("fleet.submit", || fleet.submit(spec.clone())) {
            Ok(id) => return Ok(id),
            Err(e) => {
                if before.queued + before.running == 0 {
                    return Err(e.to_string());
                }
                *rejects += 1;
                t.span("fleet.wait", || {
                    while terminal(&fleet.stats()) == terminal(&before) {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                });
            }
        }
    }
}

/// Counters the pass reports beside its timings, for a determinism check.
#[cfg(test)]
pub fn sim_counters(p: &Pass) -> BTreeMap<&'static str, f64> {
    p.counters
        .iter()
        .filter(|(k, _)| !k.starts_with("fleet."))
        .map(|(k, v)| (*k, *v))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use vidi_trace::CodecId;

    fn small_workload() -> Workload {
        let session = |app, seed, codec| Session { app, seed, codec };
        Workload {
            name: "test",
            scale: Scale::Test,
            record: vec![
                session(AppId::Dma, 11, CodecId::Raw),
                session(AppId::Sha, 12, CodecId::Raw),
            ],
            replay: vec![
                session(AppId::Dma, 13, CodecId::Columnar),
                session(AppId::Bnn, 14, CodecId::XorDict),
            ],
            fleet: vec![
                session(AppId::SpamFilter, 15, CodecId::DeltaRle),
                session(AppId::Sssp, 16, CodecId::Columnar),
            ],
            seek_seed: 17,
            seeks_per_app: 2,
            setup_reps: 1,
        }
    }

    /// Everything the pass reports in simulated time, bit for bit.
    fn sim_view(runner: &mut Runner<'_>) -> String {
        runner.setup();
        let transparent = runner.transparent_cycles();
        let p = runner.pass();
        let bytes: Vec<u64> = p.bytes_per_cycle.iter().map(|v| v.to_bits()).collect();
        format!(
            "{transparent:?} {:?} {bytes:?} {:?} {}",
            p.record
                .iter()
                .map(|w| (w.app, w.cycles))
                .collect::<Vec<_>>(),
            sim_counters(&p),
            runner.codec_ratio().to_bits()
        )
    }

    #[test]
    fn sim_metrics_and_counters_repeat_exactly() {
        let w = small_workload();
        let mut a = Runner::new(&w, 2);
        a.tracer.set_enabled(true);
        let mut b = Runner::new(&w, 2);
        let (va, vb) = (sim_view(&mut a), sim_view(&mut b));
        assert_eq!(a.checks.failed, 0, "{:?}", a.checks.messages);
        assert_eq!(b.checks.failed, 0, "{:?}", b.checks.messages);
        assert!(va.contains("hwsim.evals_per_cycle"), "{va}");
        assert_eq!(va, vb);
        // Two set-up recordings, two transparent runs, two records, two
        // replays, two opens, four seeks, two bisects, four fleet tenants.
        assert_eq!(a.checks.attempted, 20);
    }
}
