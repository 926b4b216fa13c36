//! The session cursor: one audited "advance the session until X" core.
//!
//! Every consumer of a Vidi session used to hand-roll the same loop — run
//! the simulator a chunk at a time, check a completion condition, bail on
//! a budget — with subtly different chunking, comparison operators, and
//! flush margins (the application harness, the checkpoint runner, the
//! segmented verifier, the fleet worker, and a dozen tests). The
//! [`SessionCursor`] owns that machinery once: [`SessionCursor::step`]
//! advances an exact cycle count, [`SessionCursor::run_until`] advances
//! until the first of a composable set of [`Stop`] conditions holds, and
//! the caller decides what each [`StopReason`] means (completion, timeout,
//! deadlock, checkpoint boundary, watchpoint hit).
//!
//! Condition precedence is fixed and documented — per check round:
//! replay completion, then the caller predicate, then watchpoints, then
//! the absolute cycle boundary, then the relative budget. Loops that used
//! to interleave these checks differently all reduce to this order plus a
//! per-call `check_every` granularity, which preserves their observable
//! cycle accounting bit-for-bit (completion is still *detected* at the
//! same chunk boundary as before).
//!
//! The cursor is deliberately policy-free: it never constructs timeout
//! errors (callers keep their own diagnostics) and never flushes
//! implicitly (callers that drain the trace store after completion call
//! [`SessionCursor::flush`]).

use vidi_hwsim::{SignalId, SignalPool, SimError, Simulator};

use crate::shim::VidiShim;

/// Cycles [`SessionCursor::flush`] waits for the trace store to drain
/// before it reports the staged packets as a timeout. Catalog recordings
/// drain in at most a few hundred cycles.
const DRAIN_DEADLINE: u64 = 4096;

/// Default chunk the cursor advances between condition checks.
pub const DEFAULT_CHECK_EVERY: u64 = 256;

/// One drivable simulation session: a simulator plus its installed shim.
///
/// Sessions are single-threaded by construction (the component graph holds
/// `Rc` handles); a session is built fresh per thread wherever work fans
/// out, and only byte blobs and traces cross threads.
pub trait DriveSession {
    /// The simulator holding the design.
    fn sim(&mut self) -> &mut Simulator;
    /// The installed Vidi shim.
    fn shim(&self) -> &VidiShim;
}

impl DriveSession for Box<dyn DriveSession> {
    fn sim(&mut self) -> &mut Simulator {
        self.as_mut().sim()
    }
    fn shim(&self) -> &VidiShim {
        self.as_ref().shim()
    }
}

/// Borrowed `(Simulator, VidiShim)` pair as a [`DriveSession`], for call
/// sites that build the two halves separately (tests, the case-study
/// runners) rather than owning a session struct.
pub struct RawSession<'a> {
    /// The simulator.
    pub sim: &'a mut Simulator,
    /// The shim installed on it.
    pub shim: &'a VidiShim,
}

impl DriveSession for RawSession<'_> {
    fn sim(&mut self) -> &mut Simulator {
        self.sim
    }
    fn shim(&self) -> &VidiShim {
        self.shim
    }
}

/// Why [`SessionCursor::run_until`] stopped.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StopReason {
    /// The shim reported [`VidiShim::replay_complete`].
    ReplayComplete,
    /// The caller predicate returned `true`.
    PredicateTrue,
    /// Watchpoint `.0` (by index into the [`Stop`]'s watch list) matched.
    WatchpointHit(usize),
    /// The absolute cycle boundary ([`Stop::or_at_cycle`]) was reached.
    CycleReached,
    /// More than [`Stop::with_budget`] cycles were run in this call.
    BudgetExhausted,
}

/// Where and why a [`SessionCursor::run_until`] call stopped.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct StopEvent {
    /// The first condition that held, in precedence order.
    pub reason: StopReason,
    /// Absolute simulator cycle at the stop.
    pub cycle: u64,
    /// Cycles advanced within this `run_until` call.
    pub advanced: u64,
}

/// Predicate over a signal's current value, evaluated every cycle while a
/// watchpoint is armed. The change-sensitive conditions (`Changed`,
/// `Rise`, `Fall`) compare against the value seen on the previous check
/// and never fire on the first one.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WatchCond {
    /// Value equals the operand.
    Eq(u64),
    /// Value differs from the operand.
    Ne(u64),
    /// Value is less than the operand.
    Lt(u64),
    /// Value is greater than the operand.
    Gt(u64),
    /// Value changed since the previous check.
    Changed,
    /// Value became nonzero after being zero.
    Rise,
    /// Value became zero after being nonzero.
    Fall,
}

/// An armed watchpoint: a signal plus a [`WatchCond`] over its value.
///
/// Arming any watchpoint forces the cursor to single-cycle stepping for
/// the duration of the `run_until` call — watch hits are cycle-accurate,
/// at the cost of chunked-advance throughput.
#[derive(Clone, Debug)]
pub struct Watchpoint {
    signal: SignalId,
    cond: WatchCond,
    last: Option<u64>,
}

impl Watchpoint {
    /// Arms a watchpoint on `signal`.
    pub fn new(signal: SignalId, cond: WatchCond) -> Self {
        Watchpoint {
            signal,
            cond,
            last: None,
        }
    }

    /// The watched signal.
    pub fn signal(&self) -> SignalId {
        self.signal
    }

    /// The armed condition.
    pub fn cond(&self) -> WatchCond {
        self.cond
    }

    /// Current value of the watched signal (low 64 bits of wide signals).
    fn value(&self, pool: &SignalPool) -> u64 {
        if pool.width(self.signal) <= 64 {
            pool.get_u64(self.signal)
        } else {
            pool.limbs(self.signal)[0]
        }
    }

    /// Evaluates the condition against the pool, updating the
    /// previous-value tracking for the change-sensitive conditions.
    fn eval(&mut self, pool: &SignalPool) -> bool {
        let v = self.value(pool);
        let prev = self.last.replace(v);
        match self.cond {
            WatchCond::Eq(x) => v == x,
            WatchCond::Ne(x) => v != x,
            WatchCond::Lt(x) => v < x,
            WatchCond::Gt(x) => v > x,
            WatchCond::Changed => prev.is_some_and(|p| p != v),
            WatchCond::Rise => prev.is_some_and(|p| p == 0 && v != 0),
            WatchCond::Fall => prev.is_some_and(|p| p != 0 && v == 0),
        }
    }
}

/// A composable stop condition for [`SessionCursor::run_until`].
///
/// A `Stop` is a *disjunction*: the run stops at the first condition that
/// holds, checked in fixed precedence order (replay completion, caller
/// predicate, watchpoints, cycle boundary, budget) every `check_every`
/// cycles — except that conditions are also checked once before the first
/// step, so a condition that already holds stops the run at zero advance.
///
/// The budget is *strict*: the run stops once strictly more than `budget`
/// cycles have been advanced by this call, after finishing the chunk that
/// crossed the line — matching the harness convention where a chunk is
/// always run whole and the counter is compared afterwards. An absolute
/// boundary ([`Stop::or_at_cycle`]) by contrast clamps the chunk and
/// stops exactly at (or immediately upon reaching) the boundary cycle.
pub struct Stop<'p, S: ?Sized> {
    replay_complete: bool,
    at_cycle: Option<u64>,
    budget: Option<u64>,
    check_every: u64,
    predicate: Option<StopPredicate<'p, S>>,
    watches: Vec<Watchpoint>,
}

/// A boxed session predicate, sampled at chunk boundaries.
type StopPredicate<'p, S> = Box<dyn FnMut(&mut S) -> bool + 'p>;

impl<'p, S: ?Sized> Stop<'p, S> {
    fn empty() -> Self {
        Stop {
            replay_complete: false,
            at_cycle: None,
            budget: None,
            check_every: DEFAULT_CHECK_EVERY,
            predicate: None,
            watches: Vec::new(),
        }
    }

    /// Stop when the shim reports replay completion.
    pub fn replay_complete() -> Self {
        Stop {
            replay_complete: true,
            ..Self::empty()
        }
    }

    /// Stop upon reaching absolute cycle `cycle` (chunks are clamped so
    /// the boundary is hit exactly).
    pub fn at_cycle(cycle: u64) -> Self {
        Stop {
            at_cycle: Some(cycle),
            ..Self::empty()
        }
    }

    /// Stop when `pred` returns `true` for the session.
    pub fn when(pred: impl FnMut(&mut S) -> bool + 'p) -> Self {
        Stop {
            predicate: Some(Box::new(pred)),
            ..Self::empty()
        }
    }

    /// Also stop on replay completion.
    pub fn or_replay_complete(mut self) -> Self {
        self.replay_complete = true;
        self
    }

    /// Also stop upon reaching absolute cycle `cycle`.
    pub fn or_at_cycle(mut self, cycle: u64) -> Self {
        self.at_cycle = Some(cycle);
        self
    }

    /// Also stop when `pred` returns `true` (replaces any prior predicate).
    pub fn or_when(mut self, pred: impl FnMut(&mut S) -> bool + 'p) -> Self {
        self.predicate = Some(Box::new(pred));
        self
    }

    /// Also stop when `watch` matches. Arming any watchpoint forces
    /// single-cycle stepping for the call.
    pub fn or_watch(mut self, watch: Watchpoint) -> Self {
        self.watches.push(watch);
        self
    }

    /// Also stop after strictly more than `budget` cycles advanced by
    /// this call (checked at chunk granularity, so the stop lands on the
    /// first chunk boundary past the budget — the historical timeout
    /// convention of the drive loops this cursor replaced).
    pub fn with_budget(mut self, budget: u64) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Sets the chunk size between condition checks (default
    /// [`DEFAULT_CHECK_EVERY`]). Use 1 for cycle-accurate predicates.
    pub fn check_every(mut self, cycles: u64) -> Self {
        self.check_every = cycles.max(1);
        self
    }
}

/// The stepping core. Borrows a session and advances it; all state
/// (cycle counter, shim progress) lives in the session itself, so cursors
/// are cheap and transient — create one per drive phase.
pub struct SessionCursor<'s, S: DriveSession + ?Sized> {
    session: &'s mut S,
}

impl<'s, S: DriveSession + ?Sized> SessionCursor<'s, S> {
    /// Wraps a session.
    pub fn new(session: &'s mut S) -> Self {
        SessionCursor { session }
    }

    /// The underlying session, for mid-drive inspection (checkpoint
    /// capture, digest probes, trace access).
    pub fn session(&mut self) -> &mut S {
        self.session
    }

    /// Current absolute cycle.
    pub fn cycle(&mut self) -> u64 {
        self.session.sim().cycle()
    }

    /// Runs exactly `n` cycles (in [`DEFAULT_CHECK_EVERY`]-sized batches),
    /// checking nothing. Returns the absolute cycle afterwards.
    ///
    /// # Errors
    ///
    /// Propagates any [`SimError`] from the simulator.
    pub fn step(&mut self, n: u64) -> Result<u64, SimError> {
        let mut remaining = n;
        while remaining > 0 {
            let step = remaining.min(DEFAULT_CHECK_EVERY);
            self.session.sim().run(step)?;
            remaining -= step;
        }
        Ok(self.session.sim().cycle())
    }

    /// Drains the trace store: runs cycle by cycle until the recording has
    /// nothing staged ([`VidiShim::store_drained`]). Sessions that do not
    /// record drain in zero cycles.
    ///
    /// # Errors
    ///
    /// [`SimError::Timeout`] naming the staged packet count when the store
    /// has not drained within 4096 cycles; otherwise propagates any
    /// [`SimError`] from the simulator.
    pub fn flush(&mut self) -> Result<(), SimError> {
        let deadline = self.cycle() + DRAIN_DEADLINE;
        let ev = self.run_until(
            Stop::when(|s: &mut S| s.shim().store_drained())
                .or_at_cycle(deadline)
                .check_every(1),
        )?;
        if ev.reason == StopReason::PredicateTrue {
            return Ok(());
        }
        let staged = self.session.shim().stats().staged_packets;
        Err(SimError::Timeout {
            cycle: ev.cycle,
            waiting_for: format!("the trace store to drain ({staged} packets staged)"),
            diagnostics: self.session.sim().diagnostics(),
        })
    }

    /// Advances the session until the first [`Stop`] condition holds and
    /// reports which one, where, and how far the call advanced.
    ///
    /// A `Stop` with no conditions at all would never return; debug
    /// builds assert against it.
    ///
    /// # Errors
    ///
    /// Propagates any [`SimError`] from the simulator. Stop conditions —
    /// including exhausted budgets — are *not* errors: the caller maps
    /// the [`StopReason`] onto its own success/timeout/deadlock policy.
    pub fn run_until(&mut self, mut stop: Stop<'_, S>) -> Result<StopEvent, SimError> {
        debug_assert!(
            stop.replay_complete
                || stop.at_cycle.is_some()
                || stop.budget.is_some()
                || stop.predicate.is_some()
                || !stop.watches.is_empty(),
            "run_until needs at least one stop condition"
        );
        let start = self.session.sim().cycle();
        loop {
            let cycle = self.session.sim().cycle();
            let advanced = cycle - start;
            let done = |reason| {
                Ok(StopEvent {
                    reason,
                    cycle,
                    advanced,
                })
            };
            if stop.replay_complete && self.session.shim().replay_complete() {
                return done(StopReason::ReplayComplete);
            }
            if let Some(pred) = stop.predicate.as_mut() {
                if pred(self.session) {
                    return done(StopReason::PredicateTrue);
                }
            }
            if !stop.watches.is_empty() {
                let pool = self.session.sim().pool();
                let mut hit = None;
                for (i, w) in stop.watches.iter_mut().enumerate() {
                    // Evaluate every watch so change tracking stays
                    // current; report the first hit.
                    if w.eval(pool) && hit.is_none() {
                        hit = Some(i);
                    }
                }
                if let Some(i) = hit {
                    return done(StopReason::WatchpointHit(i));
                }
            }
            if let Some(at) = stop.at_cycle {
                if cycle >= at {
                    return done(StopReason::CycleReached);
                }
            }
            if let Some(budget) = stop.budget {
                if advanced > budget {
                    return done(StopReason::BudgetExhausted);
                }
            }
            let mut step = stop.check_every;
            if let Some(at) = stop.at_cycle {
                step = step.min(at - cycle);
            }
            if !stop.watches.is_empty() {
                step = 1;
            }
            self.session.sim().run(step)?;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{VidiConfig, VidiShim};
    use vidi_chan::{Channel, Direction};

    fn quiet_session() -> (Simulator, VidiShim) {
        let mut sim = Simulator::new();
        let cmd = Channel::new(sim.pool_mut(), "cmd", 32);
        let shim = VidiShim::install(
            &mut sim,
            &[(cmd, Direction::Input)],
            VidiConfig::transparent(),
        )
        .expect("install");
        (sim, shim)
    }

    #[test]
    fn at_cycle_stops_exactly_and_clamps_chunks() {
        let (mut sim, shim) = quiet_session();
        let mut session = RawSession {
            sim: &mut sim,
            shim: &shim,
        };
        let mut cursor = SessionCursor::new(&mut session);
        let ev = cursor
            .run_until(Stop::at_cycle(1000).check_every(256))
            .unwrap();
        assert_eq!(ev.reason, StopReason::CycleReached);
        assert_eq!(ev.cycle, 1000);
        assert_eq!(ev.advanced, 1000);
        // Re-running against a boundary already reached is a no-op.
        let ev = cursor.run_until(Stop::at_cycle(500)).unwrap();
        assert_eq!((ev.reason, ev.advanced), (StopReason::CycleReached, 0));
    }

    #[test]
    fn budget_is_strict_and_chunk_aligned() {
        let (mut sim, shim) = quiet_session();
        let mut session = RawSession {
            sim: &mut sim,
            shim: &shim,
        };
        let mut cursor = SessionCursor::new(&mut session);
        // Budget 1000 at chunk 256: the loop runs whole chunks and stops
        // at the first boundary strictly past the budget -> 1024. A
        // budget equal to a chunk boundary runs one more whole chunk.
        let ev = cursor
            .run_until(Stop::replay_complete().with_budget(1000).check_every(256))
            .unwrap();
        assert_eq!(ev.reason, StopReason::BudgetExhausted);
        assert_eq!(ev.advanced, 1024);
        let ev = cursor
            .run_until(Stop::replay_complete().with_budget(512).check_every(256))
            .unwrap();
        assert_eq!(ev.advanced, 1792 - 1024);
    }

    #[test]
    fn predicate_checked_each_chunk() {
        let (mut sim, shim) = quiet_session();
        let mut session = RawSession {
            sim: &mut sim,
            shim: &shim,
        };
        let mut cursor = SessionCursor::new(&mut session);
        let ev = cursor
            .run_until(
                Stop::when(|s: &mut RawSession| s.sim.cycle() >= 10)
                    .check_every(4)
                    .with_budget(1_000),
            )
            .unwrap();
        assert_eq!(ev.reason, StopReason::PredicateTrue);
        assert_eq!(ev.cycle, 12, "first multiple of 4 at or past 10");
    }

    #[test]
    fn step_is_exact() {
        let (mut sim, shim) = quiet_session();
        let mut session = RawSession {
            sim: &mut sim,
            shim: &shim,
        };
        let mut cursor = SessionCursor::new(&mut session);
        assert_eq!(cursor.step(777).unwrap(), 777);
        assert_eq!(cursor.cycle(), 777);
    }

    #[test]
    fn watchpoint_hits_cycle_accurately() {
        let mut sim = Simulator::new();
        let counter = sim.pool_mut().add("counter", 32);
        struct Count {
            id: SignalId,
            v: u64,
        }
        impl vidi_hwsim::Component for Count {
            fn name(&self) -> &str {
                "count"
            }
            fn eval(&mut self, pool: &mut SignalPool) {
                pool.set_u64(self.id, self.v);
            }
            fn tick(&mut self, _pool: &mut SignalPool) {
                self.v += 1;
            }
        }
        sim.add_component(Count { id: counter, v: 0 });
        let cmd = Channel::new(sim.pool_mut(), "cmd", 32);
        let shim = VidiShim::install(
            &mut sim,
            &[(cmd, Direction::Input)],
            VidiConfig::transparent(),
        )
        .expect("install");
        let mut session = RawSession {
            sim: &mut sim,
            shim: &shim,
        };
        let mut cursor = SessionCursor::new(&mut session);
        let ev = cursor
            .run_until(
                Stop::at_cycle(1_000)
                    .or_watch(Watchpoint::new(counter, WatchCond::Eq(17)))
                    .check_every(64),
            )
            .unwrap();
        assert_eq!(ev.reason, StopReason::WatchpointHit(0));
        // The settle of cycle k publishes the value ticked at cycle k-1,
        // so the pool shows 17 at boundary 18 — and the hit is
        // cycle-accurate despite the 64-cycle check chunk.
        assert_eq!(ev.cycle, 18);
        assert_eq!(sim.pool().get_u64(counter), 17);
    }
}
