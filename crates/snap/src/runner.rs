//! Checkpointed replay and seekable replay (`replay_from`), driven through
//! the unified [`SessionCursor`] stepping core.

use vidi_core::{SessionCursor, Stop, StopReason};

use crate::{Checkpoint, CheckpointLog, SnapError, SnapSession};

/// How often to checkpoint, in cycles.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CheckpointPolicy {
    /// Snapshot cadence: a checkpoint every `every` cycles, plus one at
    /// cycle 0.
    pub every: u64,
}

impl CheckpointPolicy {
    /// Builds a policy with the given cadence.
    ///
    /// # Panics
    ///
    /// Panics on a zero cadence.
    pub fn every(every: u64) -> Self {
        assert!(every > 0, "checkpoint cadence must be positive");
        CheckpointPolicy { every }
    }
}

impl Checkpoint {
    /// Captures one checkpoint of the session at the current cycle
    /// boundary: cycle, state digest, per-channel transaction counts, and
    /// the full restorable snapshot.
    pub fn capture<S: SnapSession + ?Sized>(session: &mut S) -> Checkpoint {
        let txn_counts = session.shim().recorded_transaction_counts();
        let sim = session.sim();
        let (state, digest) = sim.snapshot_with_digest();
        Checkpoint {
            cycle: sim.cycle(),
            digest,
            txn_counts,
            state,
        }
    }
}

/// Replays the session to completion, snapshotting every `policy.every`
/// cycles (and once at cycle 0), then drains the trace store.
///
/// The session must be freshly built in a replaying, recording mode
/// (`VidiMode::ReplayRecord`): the validation trace accumulated so far is
/// part of the captured state, so a restored segment's trace covers the
/// run from cycle 0.
///
/// A replay that fails to complete within `max_cycles` — e.g. the
/// deadlocking mutated trace of §5.3 — is *not* an error here: the log
/// comes back with [`CheckpointLog::completed`] `false` and covers every
/// boundary reached, which is exactly what segmented verification needs to
/// localize the stall.
///
/// # Errors
///
/// [`SnapError::NotReplaying`] when the session is not in a replay mode,
/// [`SnapError::Sim`] when the simulator faults.
pub fn checkpointed_replay<S: SnapSession + ?Sized>(
    session: &mut S,
    policy: CheckpointPolicy,
    max_cycles: u64,
) -> Result<CheckpointLog, SnapError> {
    if session.shim().replay_progress().total == 0 && session.shim().recorded_packet_count() == 0 {
        // A session with nothing to dispatch and nothing recorded is either
        // not replaying or replaying an empty trace; the former is a usage
        // error worth catching early.
        if !session.shim().replay_complete() {
            return Err(SnapError::NotReplaying);
        }
    }
    let mut checkpoints = vec![Checkpoint::capture(session)];
    let mut completed = true;
    let mut cursor = SessionCursor::new(session);
    let mut done = cursor.session().shim().replay_complete();
    while !done {
        let next_boundary = checkpoints.last().expect("cycle-0 checkpoint").cycle + policy.every;
        let ev = cursor.run_until(Stop::replay_complete().or_at_cycle(next_boundary))?;
        done = ev.reason == StopReason::ReplayComplete;
        if cursor.cycle() >= next_boundary {
            checkpoints.push(Checkpoint::capture(cursor.session()));
        }
        if !done && cursor.cycle() >= max_cycles {
            completed = false;
            break;
        }
    }
    let final_cycle = cursor.cycle();
    cursor.flush()?;
    Ok(CheckpointLog {
        checkpoints,
        final_cycle,
        completed,
    })
}

/// Outcome of a seek: where the replay actually restarted from.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SeekOutcome {
    /// Cycle of the checkpoint that was restored.
    pub restored_from: u64,
    /// The requested target cycle.
    pub target: u64,
    /// Cycles rolled forward from the checkpoint to reach the target.
    pub rolled_forward: u64,
}

/// Seeks a session to `cycle`: restores the nearest checkpoint at or
/// before it and rolls forward the remainder. The session must be built by
/// the same deterministic construction (same app, same config) as the one
/// that produced the log; it may be fresh or already run, since a restore
/// replaces all dynamic state.
///
/// # Errors
///
/// [`SnapError::NoCheckpoint`] when the log has no checkpoint at or before
/// `cycle`, [`SnapError::State`] when the snapshot fails to restore,
/// [`SnapError::Sim`] when the roll-forward faults.
pub fn replay_from<S: SnapSession + ?Sized>(
    session: &mut S,
    log: &CheckpointLog,
    cycle: u64,
) -> Result<SeekOutcome, SnapError> {
    let cp = log
        .nearest_at_or_before(cycle)
        .ok_or(SnapError::NoCheckpoint { cycle })?;
    session.sim().restore(&cp.state)?;
    let rolled_forward = cycle - cp.cycle;
    SessionCursor::new(session).step(rolled_forward)?;
    Ok(SeekOutcome {
        restored_from: cp.cycle,
        target: cycle,
        rolled_forward,
    })
}
