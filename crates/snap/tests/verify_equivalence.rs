//! Segmented verification at the debugger's cadence: one session per
//! verify worker, restored once per segment, must give the same report
//! serially and in parallel as the expected verdict — across the whole
//! catalog (the §3.6 DMA divergence included) and every codec. The §5.3
//! ATOP deadlock at this cadence is covered in `seek_and_verify.rs`. Also
//! pins the two contracts that design rests on: restoring into an
//! already-run session lands where restoring into a fresh one does, and a
//! checkpoint whose digest disagrees with the replay is reported as a
//! state mismatch.

use std::sync::Arc;

use vidi_apps::{build_app, AppId, BuiltApp, Scale};
use vidi_core::{ReplayInput, SessionCursor, Stop, VidiConfig};
use vidi_hwsim::EvalMode;
use vidi_snap::{
    checkpointed_replay, CheckpointLog, CheckpointPolicy, ParallelVerifier, SnapSession,
    VerifyReport, VerifyVerdict,
};
use vidi_trace::{CodecId, SharedChunks, Trace};

const BUDGET: u64 = 10_000_000;
/// The debugger's default checkpoint cadence (`DebugOptions::default()`).
const DEBUG_EVERY: u64 = 256;
/// Seed of the §3.6 DMA recording whose poll diverges at cycle 215.
const SEED: u64 = 42;

/// Records a catalog app through `codec`: the framed stream image and the
/// reference trace it materializes.
fn record(app: AppId, codec: CodecId) -> (Vec<u8>, Trace) {
    let mut built = build_app(
        app.setup(Scale::Test, SEED),
        VidiConfig::record().with_trace_codec(codec),
    );
    let cpus = built.cpu.clone();
    SessionCursor::new(&mut built)
        .run_until(
            Stop::when(move |_: &mut BuiltApp| cpus.iter().all(|h| h.borrow().finished))
                .with_budget(BUDGET),
        )
        .expect("record run completes");
    SessionCursor::new(&mut built)
        .flush()
        .expect("store drains");
    let image = built.shim.recorded_stream_image().expect("stream image");
    let trace = built.shim.recorded_trace().expect("trace materializes");
    (image, trace)
}

/// The replay-while-recording configuration over a recorded stream image,
/// re-recording the validation trace through the same codec.
fn replay_config(image: Vec<u8>, codec: CodecId) -> VidiConfig {
    let chunks: SharedChunks = Arc::new(image);
    VidiConfig::replay_record(ReplayInput::from_chunks(chunks)).with_trace_codec(codec)
}

/// Serial and parallel verification of one log; asserts they agree.
fn verify_both<F, S>(factory: F, log: &CheckpointLog, reference: &Trace) -> VerifyReport
where
    F: Fn() -> S + Sync,
    S: SnapSession,
{
    let verifier = ParallelVerifier::new(factory, log, reference);
    let serial = verifier.verify_serial().expect("serial verify");
    let parallel = verifier.verify_parallel(3).expect("parallel verify");
    assert_eq!(
        serial, parallel,
        "parallel must reproduce the serial report"
    );
    assert_eq!(serial.segments, log.checkpoints.len());
    serial
}

#[test]
fn catalog_verifies_identically_at_the_debugger_cadence_through_every_codec() {
    for app in AppId::ALL {
        for codec in CodecId::ALL {
            let (image, reference) = record(app, codec);
            let cfg = replay_config(image, codec);
            let factory = || build_app(app.setup(Scale::Test, SEED), cfg.clone());
            let mut session = factory();
            let log =
                checkpointed_replay(&mut session, CheckpointPolicy::every(DEBUG_EVERY), BUDGET)
                    .expect("checkpointed replay");
            assert!(log.completed, "{app:?}/{codec}: replay must complete");
            let report = verify_both(factory, &log, &reference);
            assert_eq!(report.transactions_checked, reference.transaction_count());
            if app == AppId::Dma {
                // §3.6: the status poll is cycle-dependent, so its replay
                // diverges — at the same cycle `trace_tool debug` reports.
                assert!(
                    matches!(report.verdict, VerifyVerdict::Diverged { cycle: 215, .. }),
                    "{codec}: DMA must diverge at cycle 215, got {:?}",
                    report.verdict
                );
            } else {
                assert!(report.is_clean(), "{app:?}/{codec}: {:?}", report.verdict);
            }
        }
    }
}

/// A checkpoint whose digest disagrees with the replayed state is reported
/// at its boundary, identically serial and parallel.
#[test]
fn tampered_checkpoint_digest_is_a_state_mismatch_at_its_boundary() {
    let (image, reference) = record(AppId::Sha, CodecId::Raw);
    let cfg = replay_config(image, CodecId::Raw);
    let factory = || build_app(AppId::Sha.setup(Scale::Test, SEED), cfg.clone());
    let mut session = factory();
    let mut log = checkpointed_replay(&mut session, CheckpointPolicy::every(DEBUG_EVERY), BUDGET)
        .expect("checkpointed replay");
    assert!(
        log.checkpoints.len() >= 3,
        "enough boundaries to tamper one"
    );
    let k = log.checkpoints.len() / 2;
    log.checkpoints[k].digest ^= 1;
    let report = verify_both(factory, &log, &reference);
    assert_eq!(
        report.verdict,
        VerifyVerdict::StateMismatch {
            cycle: log.checkpoints[k].cycle
        }
    );
}

/// Restoring checkpoint A into a session that already ran past a later
/// checkpoint B lands on the state a fresh session restored to A has, and
/// rolls forward to B's state — in every scheduler, on every catalog app.
#[test]
fn restore_into_a_used_session_matches_a_fresh_one() {
    for app in AppId::ALL {
        let (image, _) = record(app, CodecId::Raw);
        let cfg = replay_config(image, CodecId::Raw);
        let build = |mode| {
            let mut built = build_app(app.setup(Scale::Test, SEED), cfg.clone());
            built.sim.set_eval_mode(mode);
            built
        };
        let mut session = build(EvalMode::Incremental);
        let log = checkpointed_replay(&mut session, CheckpointPolicy::every(64), BUDGET)
            .expect("checkpointed replay");
        let n = log.checkpoints.len();
        assert!(n >= 3, "{app:?}: enough checkpoints to pick A < B");
        let (a, b) = (&log.checkpoints[n / 3], &log.checkpoints[2 * n / 3]);
        for mode in [EvalMode::Full, EvalMode::Incremental, EvalMode::Compiled] {
            let mut used = build(mode);
            SessionCursor::new(&mut used)
                .step(b.cycle + 37)
                .expect("run past B");
            used.sim
                .restore(&a.state)
                .expect("restore A into a used session");
            let mut fresh = build(mode);
            fresh
                .sim
                .restore(&a.state)
                .expect("restore A into a fresh session");
            assert_eq!(
                used.sim.state_digest(),
                fresh.sim.state_digest(),
                "{app:?}/{mode:?}: restored states differ"
            );
            assert_eq!(used.sim.state_digest(), a.digest, "{app:?}/{mode:?}");
            for s in [&mut used, &mut fresh] {
                SessionCursor::new(s)
                    .step(b.cycle - a.cycle)
                    .expect("roll forward to B");
            }
            assert_eq!(
                used.sim.state_digest(),
                fresh.sim.state_digest(),
                "{app:?}/{mode:?}: trajectories differ after the restore"
            );
            assert_eq!(used.sim.state_digest(), b.digest, "{app:?}/{mode:?}");
        }
    }
}
