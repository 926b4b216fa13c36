//! The fleet supervisor: worker pool, isolation boundary, admission,
//! eviction, and session lifecycle.

use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, Once};
use std::thread::JoinHandle;

use vidi_apps::build_app_with_faults;
use vidi_core::{FaultInjection, SessionCursor, Stop, StopReason, VidiConfig};
use vidi_faults::FaultPlan;

use crate::arbiter::CreditArbiter;
use crate::ledger::{AdmissionError, AdmissionLedger};
use crate::session::{
    FailureCause, RunEnd, SessionFailure, SessionId, SessionReport, SessionSpec, SessionState,
    SharedImage, TracePrefix,
};

/// How many cycles a worker simulates between cancellation checks. Bounds
/// eviction latency without measurably slowing the simulation loop.
const RUN_SLICE: u64 = 256;

/// Fleet-wide policy knobs.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Worker threads — the number of sessions that run concurrently.
    pub workers: usize,
    /// Global memory budget for admission, in bytes. Each session reserves
    /// its [`buffer_bound`](SessionSpec::buffer_bound) against it.
    pub memory_budget: u64,
    /// Global store bandwidth distributed by the credit arbiter, in bytes
    /// per cycle across all running recordings.
    pub total_store_bytes_per_cycle: u64,
    /// Cap on live (queued + running) sessions.
    pub max_sessions: usize,
    /// When admission fails on memory, evict the least-recently-touched
    /// live session (finalizing its durable prefix) and retry, instead of
    /// rejecting. Off by default: rejection is the predictable behaviour.
    pub evict_to_admit: bool,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            workers: 4,
            memory_budget: 8 * VidiConfig::record().streaming_buffer_bound(),
            total_store_bytes_per_cycle: 8 * u64::from(VidiConfig::default().store_bytes_per_cycle),
            max_sessions: 64,
            evict_to_admit: false,
        }
    }
}

/// Point-in-time public view of one session.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionStatus {
    /// The session's fleet-assigned id.
    pub id: SessionId,
    /// The submitted name.
    pub name: String,
    /// Lifecycle state (terminal states carry report/failure).
    pub state: SessionState,
    /// Bytes of framed trace durably flushed to the session's image so far.
    pub trace_bytes: u64,
}

/// Aggregate fleet counters, for benchmarks and health checks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FleetStats {
    /// The admission budget.
    pub budget: u64,
    /// Bytes currently reserved by live sessions.
    pub reserved: u64,
    /// All-time reservation high-water mark (never exceeds `budget`).
    pub peak_reserved: u64,
    /// Sessions admitted over the fleet's lifetime.
    pub admitted: usize,
    /// Live sessions waiting for a worker.
    pub queued: usize,
    /// Sessions currently running.
    pub running: usize,
    /// Sessions that completed cleanly.
    pub completed: usize,
    /// Sessions that failed (in isolation, with attributed cause).
    pub failed: usize,
    /// Sessions evicted with a durable prefix.
    pub evicted: usize,
    /// Σ cycles simulated by terminal sessions.
    pub total_cycles: u64,
    /// Σ packets committed by terminal sessions.
    pub total_packets: u64,
    /// Σ per-session peak sink buffering of terminal sessions — the actual
    /// memory footprint the reservations bounded.
    pub sum_peak_buffered: u64,
}

struct Slot {
    name: String,
    /// Present until a worker claims the session.
    spec: Option<SessionSpec>,
    state: SessionState,
    cancel: Arc<AtomicBool>,
    image: SharedImage,
    /// Reserved admission bytes, released exactly once on the terminal
    /// transition.
    bound: u64,
    /// LRU clock value of the last submit/status/fetch touch.
    last_touch: u64,
}

struct State {
    slots: BTreeMap<u64, Slot>,
    queue: VecDeque<u64>,
    ledger: AdmissionLedger,
    next_id: u64,
    touch_clock: u64,
    live: usize,
    admitted: usize,
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    /// Signals workers that the queue (or the shutdown flag) changed.
    work_cv: Condvar,
    /// Signals waiters that some session reached a terminal state.
    done_cv: Condvar,
}

/// The multi-tenant session supervisor. See the crate docs for the design;
/// construct with [`Fleet::new`], submit [`SessionSpec`]s, and interact via
/// the typed methods or the wire-shaped [`FleetRequest`](crate::FleetRequest)
/// API.
pub struct Fleet {
    shared: Arc<Shared>,
    arbiter: Arc<CreditArbiter>,
    config: FleetConfig,
    workers: Vec<JoinHandle<()>>,
}

/// Worker threads are named with this prefix so the process-global panic
/// hook can suppress *injected* panic spew without muting anything else.
const WORKER_THREAD_PREFIX: &str = "vidi-fleet-worker";

/// Installs (once per process) a panic hook that stays silent for fleet
/// worker threads — their panics are caught, attributed, and reported
/// through [`SessionState::Failed`]; stderr noise would just look like an
/// escape of the isolation boundary.
fn install_panic_silencer() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let current = std::thread::current();
            if current
                .name()
                .is_some_and(|n| n.starts_with(WORKER_THREAD_PREFIX))
            {
                return;
            }
            previous(info);
        }));
    });
}

impl Fleet {
    /// Spawns a fleet with the given policy. Workers idle until sessions
    /// are submitted.
    pub fn new(config: FleetConfig) -> Self {
        install_panic_silencer();
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                slots: BTreeMap::new(),
                queue: VecDeque::new(),
                ledger: AdmissionLedger::new(config.memory_budget),
                next_id: 0,
                touch_clock: 0,
                live: 0,
                admitted: 0,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        });
        let arbiter = Arc::new(CreditArbiter::new(config.total_store_bytes_per_cycle));
        let workers = (0..config.workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                let arbiter = Arc::clone(&arbiter);
                std::thread::Builder::new()
                    .name(format!("{WORKER_THREAD_PREFIX}-{i}"))
                    .spawn(move || worker_loop(&shared, &arbiter))
                    .expect("spawn fleet worker")
            })
            .collect();
        Fleet {
            shared,
            arbiter,
            config,
            workers,
        }
    }

    /// The fleet's credit arbiter (for diagnostics).
    pub fn arbiter(&self) -> &CreditArbiter {
        &self.arbiter
    }

    /// The policy this fleet runs under.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// Admits a session: reserves its memory bound against the budget and
    /// queues it for a worker.
    ///
    /// # Errors
    ///
    /// Returns a typed [`AdmissionError`] when the fleet is shutting down,
    /// at its session cap, or when the reservation would exceed the memory
    /// budget (after LRU eviction, if [`FleetConfig::evict_to_admit`] is
    /// set and a victim exists).
    pub fn submit(&self, spec: SessionSpec) -> Result<SessionId, AdmissionError> {
        let bound = spec.buffer_bound();
        let mut st = self.lock();
        if st.shutdown {
            return Err(AdmissionError::ShuttingDown);
        }
        if st.live >= self.config.max_sessions {
            return Err(AdmissionError::TooManySessions {
                live: st.live,
                limit: self.config.max_sessions,
            });
        }
        loop {
            match st.ledger.try_reserve(bound) {
                Ok(()) => break,
                Err(err) => {
                    if !self.config.evict_to_admit {
                        return Err(err);
                    }
                    let Some(victim) = lru_victim(&st) else {
                        return Err(err);
                    };
                    st = self.evict_locked(st, victim);
                }
            }
        }
        let id = st.next_id;
        st.next_id += 1;
        st.touch_clock += 1;
        let touch = st.touch_clock;
        st.live += 1;
        st.admitted += 1;
        st.slots.insert(
            id,
            Slot {
                name: spec.name.clone(),
                spec: Some(spec),
                state: SessionState::Queued,
                cancel: Arc::new(AtomicBool::new(false)),
                image: SharedImage::new(),
                bound,
                last_touch: touch,
            },
        );
        st.queue.push_back(id);
        drop(st);
        self.shared.work_cv.notify_one();
        Ok(SessionId(id))
    }

    /// The session's current lifecycle state (touches its LRU clock).
    pub fn state_of(&self, id: SessionId) -> Option<SessionState> {
        let mut st = self.lock();
        st.touch_clock += 1;
        let touch = st.touch_clock;
        st.slots.get_mut(&id.0).map(|slot| {
            slot.last_touch = touch;
            slot.state.clone()
        })
    }

    /// A status snapshot of the session (touches its LRU clock).
    pub fn status(&self, id: SessionId) -> Option<SessionStatus> {
        let mut st = self.lock();
        st.touch_clock += 1;
        let touch = st.touch_clock;
        st.slots.get_mut(&id.0).map(|slot| {
            slot.last_touch = touch;
            SessionStatus {
                id,
                name: slot.name.clone(),
                state: slot.state.clone(),
                trace_bytes: slot.image.len() as u64,
            }
        })
    }

    /// Snapshots and certifies the session's trace image — live sessions
    /// included: every chunk the store has flushed is served, certified to
    /// the longest prefix the framing vouches for (touches the LRU clock).
    pub fn fetch_trace(&self, id: SessionId) -> Option<TracePrefix> {
        let image = {
            let mut st = self.lock();
            st.touch_clock += 1;
            let touch = st.touch_clock;
            let slot = st.slots.get_mut(&id.0)?;
            slot.last_touch = touch;
            slot.image.clone()
        };
        // Certification (CRC walk) happens outside the fleet lock.
        Some(TracePrefix::certify(image.snapshot()))
    }

    /// Cancels a session and waits until it reaches a terminal state,
    /// returning that state. Queued sessions are evicted immediately;
    /// running sessions stop at the next slice boundary and finalize their
    /// durable prefix. Already-terminal sessions are returned as-is.
    pub fn evict(&self, id: SessionId) -> Option<SessionState> {
        let st = self.lock();
        st.slots.get(&id.0)?;
        let st = self.evict_locked(st, id.0);
        st.slots.get(&id.0).map(|s| s.state.clone())
    }

    /// Blocks until every admitted session is terminal.
    pub fn wait_all(&self) {
        let mut st = self.lock();
        while st.slots.values().any(|s| !s.state.is_terminal()) {
            st = self
                .shared
                .done_cv
                .wait(st)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// Aggregate counters over the fleet's lifetime.
    pub fn stats(&self) -> FleetStats {
        let st = self.lock();
        let mut out = FleetStats {
            budget: st.ledger.budget(),
            reserved: st.ledger.reserved(),
            peak_reserved: st.ledger.peak_reserved(),
            admitted: st.admitted,
            ..FleetStats::default()
        };
        for slot in st.slots.values() {
            match &slot.state {
                SessionState::Queued => out.queued += 1,
                SessionState::Running => out.running += 1,
                SessionState::Completed(r) => {
                    out.completed += 1;
                    tally(&mut out, r);
                }
                SessionState::Evicted(r) => {
                    out.evicted += 1;
                    tally(&mut out, r);
                }
                SessionState::Failed(_) => out.failed += 1,
            }
        }
        out
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.shared
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Cancels `id` and blocks (releasing the lock) until it is terminal.
    /// Queued sessions transition synchronously right here.
    fn evict_locked<'a>(&self, mut st: MutexGuard<'a, State>, id: u64) -> MutexGuard<'a, State> {
        let Some(slot) = st.slots.get_mut(&id) else {
            return st;
        };
        slot.cancel.store(true, Ordering::Relaxed);
        if matches!(slot.state, SessionState::Queued) {
            slot.state = SessionState::Evicted(SessionReport::default());
            slot.spec = None;
            let bound = slot.bound;
            st.ledger.release(bound);
            st.live -= 1;
            self.shared.done_cv.notify_all();
            return st;
        }
        while st.slots.get(&id).is_some_and(|s| !s.state.is_terminal()) {
            st = self
                .shared
                .done_cv
                .wait(st)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        st
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        {
            let mut st = self.lock();
            st.shutdown = true;
            for slot in st.slots.values() {
                slot.cancel.store(true, Ordering::Relaxed);
            }
        }
        self.shared.work_cv.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn tally(out: &mut FleetStats, r: &SessionReport) {
    out.total_cycles += r.cycles;
    out.total_packets += r.packets;
    out.sum_peak_buffered += r.peak_buffered_bytes;
}

/// Least-recently-touched live session, if any (lowest id wins ties via
/// the BTreeMap iteration order).
fn lru_victim(st: &State) -> Option<u64> {
    st.slots
        .iter()
        .filter(|(_, s)| !s.state.is_terminal())
        .min_by_key(|(id, s)| (s.last_touch, **id))
        .map(|(id, _)| *id)
}

/// What a worker carries out of the queue-claim critical section.
struct Claim {
    id: u64,
    spec: SessionSpec,
    cancel: Arc<AtomicBool>,
    image: SharedImage,
}

fn claim_next(shared: &Shared) -> Option<Claim> {
    let mut st = shared
        .state
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    loop {
        if st.shutdown {
            return None;
        }
        // Skip queue entries whose slots were already evicted while queued.
        let next = loop {
            let Some(id) = st.queue.pop_front() else {
                break None;
            };
            if st
                .slots
                .get(&id)
                .is_some_and(|s| matches!(s.state, SessionState::Queued))
            {
                break Some(id);
            }
        };
        if let Some(id) = next {
            let slot = st.slots.get_mut(&id).expect("claimed slot exists");
            slot.state = SessionState::Running;
            let spec = slot.spec.take().expect("queued slot retains its spec");
            return Some(Claim {
                id,
                spec,
                cancel: Arc::clone(&slot.cancel),
                image: slot.image.clone(),
            });
        }
        st = shared
            .work_cv
            .wait(st)
            .unwrap_or_else(std::sync::PoisonError::into_inner);
    }
}

fn worker_loop(shared: &Shared, arbiter: &Arc<CreditArbiter>) {
    while let Some(claim) = claim_next(shared) {
        // Every running session holds an equal-weight arbiter membership
        // for exactly the duration of its run.
        arbiter.register(claim.id, 1);
        let outcome = catch_unwind(AssertUnwindSafe(|| run_session(&claim, arbiter)));
        arbiter.deregister(claim.id);
        let state = match outcome {
            Ok(Ok(RunEnd::Completed(report))) => SessionState::Completed(report),
            Ok(Ok(RunEnd::Evicted(report))) => SessionState::Evicted(report),
            Ok(Err(cause)) => SessionState::Failed(SessionFailure {
                cause,
                injected: claim.spec.faults,
            }),
            Err(payload) => SessionState::Failed(SessionFailure {
                cause: FailureCause::Panicked(panic_message(payload.as_ref())),
                injected: claim.spec.faults,
            }),
        };
        let mut st = shared
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(slot) = st.slots.get_mut(&claim.id) {
            let bound = slot.bound;
            slot.state = state;
            st.ledger.release(bound);
            st.live -= 1;
        }
        drop(st);
        shared.done_cv.notify_all();
    }
}

fn panic_message(payload: &dyn std::any::Any) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic payload of unknown type".to_string()
    }
}

/// Records `spec` solo — the same configuration, with no fleet, no credit
/// arbiter and no faults — and returns the finalized trace image. Clean
/// fleet tenants must reproduce it bit for bit. The run has the worker's
/// shape: completion checked every 256-cycle run slice, the store drain,
/// then finalize.
///
/// # Errors
///
/// [`FailureCause::Sim`] if the simulation fails or the CPU threads do not
/// finish within `spec.max_cycles`; [`FailureCause::Io`] if the image
/// cannot be streamed or finalized.
pub fn solo_image(spec: &SessionSpec) -> Result<Vec<u8>, FailureCause> {
    let image = SharedImage::new();
    let setup = spec.app.setup(spec.scale, spec.seed);
    let mut built = build_app_with_faults(setup, spec.vidi_config(), FaultInjection::none());
    built
        .shim
        .stream_to(Box::new(image.clone()))
        .map_err(|e| FailureCause::Io(e.to_string()))?;
    let mut cursor = SessionCursor::new(&mut built);
    let ev = cursor
        .run_until(
            Stop::when(|b: &mut vidi_apps::BuiltApp| b.cpu.iter().all(|h| h.borrow().finished))
                .or_at_cycle(spec.max_cycles)
                .check_every(RUN_SLICE),
        )
        .map_err(|e| FailureCause::Sim(e.to_string()))?;
    if ev.reason != StopReason::PredicateTrue {
        return Err(FailureCause::Sim(format!(
            "solo run of {} did not finish within {} cycles",
            spec.name, spec.max_cycles
        )));
    }
    cursor
        .flush()
        .map_err(|e| FailureCause::Sim(e.to_string()))?;
    built
        .shim
        .finalize_recording()
        .map_err(|e| FailureCause::Io(e.to_string()))?;
    Ok(image.snapshot())
}

/// Builds and runs one session entirely on the calling worker thread (the
/// simulator is thread-local by construction; only `Send` data crossed into
/// the claim). Runs in [`RUN_SLICE`]-cycle slices, honoring cancellation at
/// every slice boundary, and always finalizes the streamed image so
/// whatever was recorded stays durable and certifiable.
fn run_session(claim: &Claim, arbiter: &Arc<CreditArbiter>) -> Result<RunEnd, FailureCause> {
    let spec = &claim.spec;
    let mut faults = spec.faults.map_or_else(FaultInjection::none, |s| {
        FaultPlan::new(s).fault_injection()
    });
    {
        // The store's per-cycle credit accrual becomes a request against
        // the fleet-wide arbiter.
        let arbiter = Arc::clone(arbiter);
        let id = claim.id;
        faults.store_credit = Some(Box::new(move |_cycle, want| arbiter.request(id, want)));
    }
    let setup = spec.app.setup(spec.scale, spec.seed);
    let mut built = build_app_with_faults(setup, spec.vidi_config(), faults);
    built
        .shim
        .stream_to(Box::new(claim.image.clone()))
        .map_err(|e| FailureCause::Io(e.to_string()))?;

    let replaying = built.cpu.is_empty();
    // Cancellation (eviction) and workload completion fold into one stop
    // predicate; the flag records which one actually fired, preserving the
    // legacy check order (cancel before done, both before the budget).
    let evicted_flag = std::cell::Cell::new(false);
    let ev = SessionCursor::new(&mut built)
        .run_until(
            Stop::when(|b: &mut vidi_apps::BuiltApp| {
                if claim.cancel.load(Ordering::Relaxed) {
                    evicted_flag.set(true);
                    return true;
                }
                if replaying {
                    b.shim.replay_complete()
                } else {
                    b.cpu.iter().all(|h| h.borrow().finished)
                }
            })
            .or_at_cycle(spec.max_cycles)
            .check_every(RUN_SLICE),
        )
        .map_err(|e| FailureCause::Sim(e.to_string()))?;
    if ev.reason == StopReason::CycleReached {
        let waiting = if replaying {
            let progress = built.shim.replay_progress();
            format!("replay completion ({progress} packets)")
        } else {
            "all CPU threads to finish".to_string()
        };
        return Err(FailureCause::Sim(format!(
            "timeout at cycle {} waiting for {waiting}; diagnostics: {}",
            ev.cycle,
            built.sim.diagnostics().join(" | ")
        )));
    }
    let cycles = ev.cycle;
    let evicted = evicted_flag.get();

    if !evicted {
        SessionCursor::new(&mut built)
            .flush()
            .map_err(|e| FailureCause::Sim(e.to_string()))?;
    }
    // Finalize unconditionally (even for evicted sessions): flushes every
    // staged chunk straight through to the shared image, making the
    // recorded prefix durable. This path bypasses the store's write-fault
    // hook by design — it models the host salvaging buffered chunks, not
    // the faulted in-band stream.
    built
        .shim
        .finalize_recording()
        .map_err(|e| FailureCause::Io(e.to_string()))?;

    let stats = built.shim.stats();
    let report = SessionReport {
        cycles,
        packets: built.shim.recorded_packet_count() as u64,
        peak_buffered_bytes: stats.peak_buffered_bytes,
        chunks_flushed: stats.chunks_flushed,
        bytes_written: stats.bytes_written,
        dropped_packets: built.shim.dropped_packets(),
        write_retries: built.shim.write_retries(),
    };
    if evicted {
        return Ok(RunEnd::Evicted(report));
    }

    // At-rest corruption strikes after the recording lands, then the
    // integrity audit decides whether this session's trace is trustworthy.
    if let Some(fault_spec) = spec.faults {
        if fault_spec.corruption.is_some() {
            let plan = FaultPlan::new(fault_spec);
            claim.image.mutate(|bytes| plan.corrupt(bytes));
        }
    }
    let certified = TracePrefix::certify(claim.image.snapshot()).certified_packets;
    if certified != report.packets {
        return Err(FailureCause::CorruptTrace {
            certified,
            recorded: report.packets,
        });
    }

    (built.check)(&built.host_mem, &built.fpga_dram, &built.cpu)
        .map_err(FailureCause::BadOutput)?;
    Ok(RunEnd::Completed(report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use vidi_apps::AppId;

    #[test]
    fn single_session_completes() {
        let fleet = Fleet::new(FleetConfig {
            workers: 1,
            ..FleetConfig::default()
        });
        let id = fleet
            .submit(SessionSpec::record("solo-dma", AppId::Dma, 7))
            .unwrap();
        fleet.wait_all();
        let state = fleet.state_of(id).unwrap();
        let SessionState::Completed(report) = state else {
            panic!("expected completion, got {state:?}");
        };
        assert!(report.packets > 0);
        let prefix = fleet.fetch_trace(id).unwrap();
        assert!(prefix.complete);
        assert_eq!(prefix.certified_packets, report.packets);
        let stats = fleet.stats();
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.reserved, 0, "terminal sessions release their bound");
        assert!(stats.peak_reserved <= stats.budget);
    }

    #[test]
    fn shutdown_rejects_new_work() {
        let fleet = Fleet::new(FleetConfig {
            workers: 1,
            ..FleetConfig::default()
        });
        {
            let mut st = fleet.lock();
            st.shutdown = true;
        }
        let err = fleet
            .submit(SessionSpec::record("late", AppId::Dma, 1))
            .unwrap_err();
        assert_eq!(err, AdmissionError::ShuttingDown);
    }

    #[test]
    fn session_cap_is_enforced() {
        let fleet = Fleet::new(FleetConfig {
            workers: 1,
            max_sessions: 0,
            ..FleetConfig::default()
        });
        let err = fleet
            .submit(SessionSpec::record("one-too-many", AppId::Dma, 1))
            .unwrap_err();
        assert_eq!(err, AdmissionError::TooManySessions { live: 0, limit: 0 });
    }
}
