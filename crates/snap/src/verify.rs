//! Segmented replay verification: partition a replay at checkpoint
//! boundaries, re-run the segments independently (serially or across
//! threads), and report the **first divergent cycle**.
//!
//! Each segment restores its opening checkpoint into a freshly built
//! session and rolls forward to the next boundary — determinism makes the
//! segments independent, so they verify concurrently with
//! [`std::thread::scope`] while producing *exactly* the verdict a serial
//! sweep produces (both paths share one segment routine).
//!
//! Divergence attribution: a checkpoint records the per-channel
//! transaction counts committed to the validation trace at its boundary,
//! so every divergence reported by [`compare`] belongs to exactly one
//! segment (the one whose count window contains its transaction index).
//! Cycle packets carry no cycle numbers — the trace only has packets for
//! cycles with events — so the divergent *cycle* is recovered by re-running
//! the owning segment while probing the shim's committed-packet counter
//! until it passes the divergent packet. The reported cycle is therefore
//! the cycle at which the diverging transaction was committed to the
//! validation trace.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use vidi_core::{SessionCursor, Stop, StopReason};
use vidi_trace::{compare, Divergence, Trace};

use crate::{Checkpoint, CheckpointLog, SnapError, SnapSession};

/// Knobs for segment execution. The final segment drains the trace store
/// through [`SessionCursor::flush`] after it stops.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct VerifyOptions {
    /// Extra cycles the final segment may run past its checkpoint while
    /// waiting for replay completion before declaring a deadlock.
    pub final_budget: u64,
}

impl Default for VerifyOptions {
    fn default() -> Self {
        VerifyOptions {
            final_budget: 1_000_000,
        }
    }
}

/// The overall verdict of a segmented verification.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum VerifyVerdict {
    /// Every segment replayed bit-exactly and the validation trace matches
    /// the reference.
    Clean,
    /// The replay diverged from the reference trace.
    Diverged {
        /// Cycle at which the first diverging transaction was committed to
        /// the validation trace (end-of-run cycle for pure count
        /// mismatches, which have no specific transaction).
        cycle: u64,
        /// The first divergence, in trace-comparison terms.
        divergence: Divergence,
    },
    /// The replay stopped making progress — the §5.3 signature of a
    /// happens-before violation such as the mutated ATOP trace.
    Deadlock {
        /// Cycle at which the final segment gave up waiting.
        cycle: u64,
        /// The stall report at that point, rendered on query from engine
        /// state by [`vidi_hwsim::Simulator::diagnostics`]: the decoder's
        /// progress and every undrained replay channel with its handshake,
        /// queue length and vector-clock head.
        stalled: Vec<String>,
    },
    /// A segment's end state digest did not match the next checkpoint —
    /// the replay's trace matched but its internal state drifted, which
    /// for a deterministic simulator indicates a state-capture bug.
    StateMismatch {
        /// The boundary cycle whose digests disagree.
        cycle: u64,
    },
}

/// Result of a segmented verification.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct VerifyReport {
    /// The verdict.
    pub verdict: VerifyVerdict,
    /// Number of segments examined.
    pub segments: usize,
    /// Transactions compared against the reference (final segment's full
    /// sweep).
    pub transactions_checked: u64,
}

impl VerifyReport {
    /// Whether the replay verified divergence-free.
    pub fn is_clean(&self) -> bool {
        matches!(self.verdict, VerifyVerdict::Clean)
    }

    /// The first divergent cycle, however the divergence manifested.
    pub fn first_divergent_cycle(&self) -> Option<u64> {
        match &self.verdict {
            VerifyVerdict::Clean => None,
            VerifyVerdict::Diverged { cycle, .. }
            | VerifyVerdict::Deadlock { cycle, .. }
            | VerifyVerdict::StateMismatch { cycle } => Some(*cycle),
        }
    }
}

/// One segment: a start checkpoint and an optional end boundary (`None`
/// marks the final segment, which runs to replay completion).
struct Segment<'a> {
    start: &'a Checkpoint,
    end: Option<(u64, u64)>,
}

/// What one segment found, reduced to its earliest event.
struct SegmentResult {
    event: Option<VerifyVerdict>,
    event_cycle: u64,
    transactions_checked: u64,
}

/// Replays trace segments between checkpoints — serially or in parallel —
/// and stitches the per-segment results into one report.
///
/// The factory builds a fresh session per segment (and per divergence
/// probe); it must deterministically reproduce the session that produced
/// the checkpoint log — same application, same seed, same
/// `VidiMode::ReplayRecord` configuration. Sessions hold `Rc` internally
/// and never cross threads; the factory is called from worker threads, so
/// it must be `Sync` for the parallel path.
///
/// Cloning the replay configuration inside the factory is cheap: the
/// reference trace lives in a [`vidi_core::ReplayInput`], whose clone is an
/// `Arc` bump over one immutable chunk image. Every worker session opens
/// its own independent `TraceSource` cursor over that shared storage — the
/// packets themselves are never copied per worker.
pub struct ParallelVerifier<'a, F> {
    factory: F,
    log: &'a CheckpointLog,
    reference: &'a Trace,
    options: VerifyOptions,
}

impl<'a, F, S> ParallelVerifier<'a, F>
where
    F: Fn() -> S,
    S: SnapSession,
{
    /// Creates a verifier over `log`, comparing replays against
    /// `reference`.
    pub fn new(factory: F, log: &'a CheckpointLog, reference: &'a Trace) -> Self {
        ParallelVerifier {
            factory,
            log,
            reference,
            options: VerifyOptions::default(),
        }
    }

    /// Overrides the default execution knobs.
    pub fn with_options(mut self, options: VerifyOptions) -> Self {
        self.options = options;
        self
    }

    /// Verifies every segment on the calling thread, in order. Produces
    /// the same report as [`Self::verify_parallel`] — both run the same
    /// segment routine; only the scheduling differs.
    ///
    /// # Errors
    ///
    /// Propagates the first segment-level [`SnapError`].
    pub fn verify_serial(&self) -> Result<VerifyReport, SnapError> {
        let segments = self.segments();
        let mut results = Vec::with_capacity(segments.len());
        for seg in &segments {
            results.push(Some(self.run_segment(seg)));
        }
        self.aggregate(results)
    }

    fn segments(&self) -> Vec<Segment<'a>> {
        let cps = &self.log.checkpoints;
        cps.iter()
            .enumerate()
            .map(|(i, cp)| Segment {
                start: cp,
                end: cps.get(i + 1).map(|n| (n.cycle, n.digest)),
            })
            .collect()
    }

    /// The shared segment routine: restore, roll forward, compare, and
    /// pin the earliest divergence to a cycle.
    fn run_segment(&self, seg: &Segment<'a>) -> Result<SegmentResult, SnapError> {
        let mut s = (self.factory)();
        s.sim().restore(&seg.start.state)?;

        let mut deadlock: Option<(u64, Vec<String>)> = None;
        match seg.end {
            Some((end_cycle, _)) => {
                SessionCursor::new(&mut s).run_until(Stop::at_cycle(end_cycle))?;
            }
            None => {
                // The final segment runs to replay completion. The bound
                // covers a completed log's known end; an incomplete (stalled)
                // log re-manifests its deadlock here, at a cycle that is a
                // pure function of the options — identical for the serial
                // and parallel paths.
                let budget_end =
                    (seg.start.cycle + self.options.final_budget).max(self.log.final_cycle + 1);
                let ev = SessionCursor::new(&mut s)
                    .run_until(Stop::replay_complete().or_at_cycle(budget_end))?;
                if ev.reason == StopReason::CycleReached {
                    deadlock = Some((ev.cycle, s.sim().diagnostics()));
                }
                SessionCursor::new(&mut s).flush()?;
            }
        }

        let state_mismatch = seg
            .end
            .and_then(|(cycle, digest)| (s.sim().state_digest() != digest).then_some(cycle));
        let end_of_run = s.sim().cycle();
        let validation = s.shim().recorded_trace().ok_or(SnapError::NotReplaying)?;
        let report = compare(self.reference, &validation);
        let transactions_checked = report.transactions_checked;

        // Attribute divergences to this segment and find the earliest by
        // committed-packet position.
        let layout = validation.layout();
        let mut count_mismatch: Option<Divergence> = None;
        let mut best: Option<(usize, Divergence)> = None;
        for d in report.divergences {
            let (name, index) = match &d {
                Divergence::CountMismatch { .. } => {
                    // Totals are only meaningful once the whole trace has
                    // been replayed; a mid-run validation trace is a prefix
                    // by construction.
                    if seg.end.is_none() && count_mismatch.is_none() {
                        count_mismatch = Some(d);
                    }
                    continue;
                }
                Divergence::ContentMismatch { channel, index, .. }
                | Divergence::OrderMismatch { channel, index, .. } => (channel.clone(), *index),
            };
            let Some(ci) = layout.index_of(&name) else {
                continue;
            };
            if (index as u64) < seg.start.txn_counts.get(ci).copied().unwrap_or(0) {
                // Committed before this segment's start: an earlier segment
                // owns (and reports) it.
                continue;
            }
            if let Some(pi) = packet_index_of(&validation, ci, index) {
                if best.as_ref().is_none_or(|(b, _)| pi < *b) {
                    best = Some((pi, d));
                }
            }
        }

        // Pin the winning divergence to the cycle its packet was committed.
        let diverged = match best {
            Some((packet, divergence)) => {
                let cycle = self.locate_commit_cycle(seg, packet, end_of_run)?;
                Some((cycle, divergence))
            }
            // A deadlocked replay is short of transactions by construction:
            // the deadlock, not the count, is the report.
            None if deadlock.is_none() => count_mismatch.map(|d| (end_of_run, d)),
            None => None,
        };

        // Earliest event wins; ties prefer the trace-level divergence,
        // which is the actionable report.
        let mut event: Option<(u64, VerifyVerdict)> = None;
        if let Some((cycle, divergence)) = diverged {
            event = Some((cycle, VerifyVerdict::Diverged { cycle, divergence }));
        }
        if let Some((cycle, stalled)) = deadlock {
            if event.as_ref().is_none_or(|(c, _)| cycle < *c) {
                event = Some((cycle, VerifyVerdict::Deadlock { cycle, stalled }));
            }
        }
        if let Some(cycle) = state_mismatch {
            if event.as_ref().is_none_or(|(c, _)| cycle < *c) {
                event = Some((cycle, VerifyVerdict::StateMismatch { cycle }));
            }
        }
        let (event_cycle, event) = match event {
            Some((c, e)) => (c, Some(e)),
            None => (u64::MAX, None),
        };
        Ok(SegmentResult {
            event,
            event_cycle,
            transactions_checked,
        })
    }

    /// Re-runs a segment from its checkpoint, probing the committed-packet
    /// counter each cycle, to find when packet `target` was committed.
    fn locate_commit_cycle(
        &self,
        seg: &Segment<'a>,
        target: usize,
        end_of_run: u64,
    ) -> Result<u64, SnapError> {
        let mut s = (self.factory)();
        s.sim().restore(&seg.start.state)?;
        let ev = SessionCursor::new(&mut s).run_until(
            Stop::when(move |s: &mut S| s.shim().recorded_packet_count() > target)
                .or_at_cycle(end_of_run)
                .check_every(1),
        )?;
        Ok(ev.cycle)
    }

    fn aggregate(
        &self,
        results: Vec<Option<Result<SegmentResult, SnapError>>>,
    ) -> Result<VerifyReport, SnapError> {
        let segments = results.len();
        let mut transactions_checked = 0;
        let mut first: Option<(u64, VerifyVerdict)> = None;
        for r in results {
            let r = r.expect("every segment ran")?;
            transactions_checked = transactions_checked.max(r.transactions_checked);
            if let Some(event) = r.event {
                if first.as_ref().is_none_or(|(c, _)| r.event_cycle < *c) {
                    first = Some((r.event_cycle, event));
                }
            }
        }
        Ok(VerifyReport {
            verdict: first.map_or(VerifyVerdict::Clean, |(_, e)| e),
            segments,
            transactions_checked,
        })
    }
}

impl<'a, F, S> ParallelVerifier<'a, F>
where
    F: Fn() -> S + Sync,
    S: SnapSession,
{
    /// Verifies the segments across up to `threads` worker threads.
    /// Sessions are built inside each worker (they hold `Rc` and never
    /// cross threads); only checkpoint bytes and traces are shared, by
    /// reference. The report is identical to [`Self::verify_serial`]'s.
    ///
    /// # Errors
    ///
    /// Propagates the earliest segment-level [`SnapError`].
    ///
    /// # Panics
    ///
    /// Panics if a worker thread itself panics (a bug in the design under
    /// simulation, which would also panic the serial path).
    pub fn verify_parallel(&self, threads: usize) -> Result<VerifyReport, SnapError> {
        let segments = self.segments();
        let next = AtomicUsize::new(0);
        let results: Mutex<Vec<Option<Result<SegmentResult, SnapError>>>> =
            Mutex::new((0..segments.len()).map(|_| None).collect());
        std::thread::scope(|scope| {
            for _ in 0..threads.min(segments.len()).max(1) {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= segments.len() {
                        break;
                    }
                    let r = self.run_segment(&segments[i]);
                    results.lock().expect("no poisoned segment lock")[i] = Some(r);
                });
            }
        });
        let collected = results.into_inner().expect("no poisoned segment lock");
        self.aggregate(collected)
    }
}

/// Position of the packet that committed transaction `txn_index` (by end
/// events) on `channel`, within the validation trace.
fn packet_index_of(validation: &Trace, channel: usize, txn_index: usize) -> Option<usize> {
    let mut seen = 0usize;
    for (pi, p) in validation.packets().iter().enumerate() {
        if p.ends.get(channel).copied().unwrap_or(false) {
            if seen == txn_index {
                return Some(pi);
            }
            seen += 1;
        }
    }
    None
}
