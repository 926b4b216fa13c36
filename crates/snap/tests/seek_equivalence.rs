//! Cross-mode seek equivalence: `replay_from` to an arbitrary cycle must
//! land on the *same state* (`state_digest`) as a straight replay from
//! cycle 0 — in every scheduler ([`EvalMode::Full`], `Incremental`,
//! `Compiled`]) and for any seek target, including checkpoint boundaries,
//! boundary±1, cycle 0 and the final cycle. The debugger's `seek`/`rstep`
//! rest entirely on this property.

use std::sync::OnceLock;

use proptest::prelude::*;
use vidi_apps::{build_app, run_app, AppId, BuiltApp, Scale};
use vidi_core::drive::{SessionCursor, Stop, StopReason};
use vidi_core::VidiConfig;
use vidi_hwsim::EvalMode;
use vidi_snap::{checkpointed_replay, replay_from, CheckpointLog, CheckpointPolicy};
use vidi_trace::Trace;

const BUDGET: u64 = 10_000_000;
const EVERY: u64 = 512;

/// Recorded SHA trace + checkpoint log, shared across every test case.
fn fixture() -> &'static (Trace, CheckpointLog) {
    static FIXTURE: OnceLock<(Trace, CheckpointLog)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let out = run_app(
            build_app(AppId::Sha.setup(Scale::Test, 7), VidiConfig::record()),
            BUDGET,
        )
        .expect("record run completes");
        let reference = out.trace.expect("recording produces a trace");
        let mut session = build_app(
            AppId::Sha.setup(Scale::Test, 7),
            VidiConfig::replay_record(reference.clone()),
        );
        let log = checkpointed_replay(&mut session, CheckpointPolicy::every(EVERY), BUDGET)
            .expect("checkpointed replay");
        assert!(log.completed, "clean replay must complete");
        assert!(
            log.checkpoints.len() >= 3,
            "enough checkpoints to seek across"
        );
        (reference, log)
    })
}

fn replay_session(mode: EvalMode) -> BuiltApp {
    let (reference, _) = fixture();
    let mut built = build_app(
        AppId::Sha.setup(Scale::Test, 7),
        VidiConfig::replay_record(reference.clone()),
    );
    built.sim.set_eval_mode(mode);
    built
}

/// Digest after a straight run of `target` cycles from a fresh session.
fn straight_digest(mode: EvalMode, target: u64) -> u64 {
    let mut built = replay_session(mode);
    let mut left = target;
    while left > 0 {
        let step = left.min(256);
        built.sim.run(step).expect("straight run");
        left -= step;
    }
    built.sim.state_digest()
}

/// Digest after seeking to `target` via checkpoint restore + roll-forward.
fn seek_digest(mode: EvalMode, target: u64) -> u64 {
    let (_, log) = fixture();
    let mut built = replay_session(mode);
    let outcome = replay_from(&mut built, log, target).expect("seek");
    assert!(outcome.restored_from <= target);
    assert_eq!(outcome.restored_from + outcome.rolled_forward, target);
    built.sim.state_digest()
}

#[test]
fn seek_matches_straight_run_in_all_three_eval_modes() {
    let (_, log) = fixture();
    // Checkpoint boundaries, off-by-one neighbours, cycle 0, final cycle.
    let targets = [
        0,
        1,
        EVERY - 1,
        EVERY,
        EVERY + 1,
        2 * EVERY,
        log.final_cycle - 1,
        log.final_cycle,
    ];
    for mode in [EvalMode::Full, EvalMode::Incremental, EvalMode::Compiled] {
        for target in targets {
            let target = target.min(log.final_cycle);
            assert_eq!(
                seek_digest(mode, target),
                straight_digest(mode, target),
                "seek to cycle {target} in {mode:?} must be bit-exact"
            );
        }
    }
}

#[test]
fn modes_agree_with_each_other_after_seek() {
    // The three schedulers must not merely each be self-consistent — they
    // must land on the identical state for the same target.
    let (_, log) = fixture();
    let target = (log.final_cycle / 2).max(1);
    let full = seek_digest(EvalMode::Full, target);
    assert_eq!(full, seek_digest(EvalMode::Incremental, target));
    assert_eq!(full, seek_digest(EvalMode::Compiled, target));
}

/// FaceD at `Scale::Test` keeps replaying after its decoder has dispatched
/// the last packet: the replayers still drain queued elements for a while
/// before `replay_complete`. Seeks landing in that drain window — where a
/// stall report could be asked for — must be as bit-exact as anywhere
/// else.
#[test]
fn seek_into_post_dispatch_drain_window_is_bit_exact() {
    let setup = || AppId::FaceDetect.setup(Scale::Test, 7);
    let out = run_app(build_app(setup(), VidiConfig::record()), BUDGET).expect("record run");
    let cfg = VidiConfig::replay_record(out.trace.expect("recording produces a trace"));

    // Locate the window on a probe replay.
    let mut probe = build_app(setup(), cfg.clone());
    let mut cursor = SessionCursor::new(&mut probe);
    let dispatched = cursor
        .run_until(
            Stop::when(|b: &mut BuiltApp| {
                let p = b.shim.replay_progress();
                p.dispatched == p.total
            })
            .with_budget(BUDGET)
            .check_every(1),
        )
        .expect("probe replay");
    assert_eq!(dispatched.reason, StopReason::PredicateTrue);
    let complete = cursor
        .run_until(Stop::replay_complete().with_budget(BUDGET).check_every(1))
        .expect("probe drain");
    assert_eq!(complete.reason, StopReason::ReplayComplete);
    let (start, end) = (dispatched.cycle, complete.cycle);
    assert!(
        end > start + 2,
        "FaceD drains after dispatch: {start}..{end}"
    );

    let mut session = build_app(setup(), cfg.clone());
    let log = checkpointed_replay(&mut session, CheckpointPolicy::every(EVERY), BUDGET)
        .expect("checkpointed replay");
    assert!(log.completed, "clean replay must complete");

    for target in [start + 1, (start + end) / 2, end - 1] {
        for mode in [EvalMode::Full, EvalMode::Incremental, EvalMode::Compiled] {
            let mut straight = build_app(setup(), cfg.clone());
            straight.sim.set_eval_mode(mode);
            SessionCursor::new(&mut straight)
                .step(target)
                .expect("straight run");
            assert!(
                !straight.shim.replay_complete(),
                "target {target} is inside the window"
            );

            let mut seeked = build_app(setup(), cfg.clone());
            seeked.sim.set_eval_mode(mode);
            replay_from(&mut seeked, &log, target).expect("seek");
            assert_eq!(
                seeked.sim.state_digest(),
                straight.sim.state_digest(),
                "seek to drain-window cycle {target} in {mode:?} must be bit-exact"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random seek targets across the whole execution, random scheduler.
    #[test]
    fn random_seek_targets_are_bit_exact(target in 0u64..=4096, mode_ix in 0usize..3) {
        let (_, log) = fixture();
        let target = target.min(log.final_cycle);
        let mode = [EvalMode::Full, EvalMode::Incremental, EvalMode::Compiled][mode_ix];
        prop_assert_eq!(
            seek_digest(mode, target),
            straight_digest(mode, target),
            "seek to cycle {} in {:?} must be bit-exact", target, mode
        );
    }
}
