//! Segmented replay verification: partition a replay at checkpoint
//! boundaries, re-run the segments independently (serially or across
//! threads), and report the **first divergent cycle**.
//!
//! Each segment restores its opening checkpoint and rolls forward to the
//! next boundary. Determinism makes the segments independent, so they
//! verify concurrently with [`std::thread::scope`] while producing
//! *exactly* the verdict a serial sweep produces (both paths share one
//! segment routine). A restore replaces all dynamic state, so the serial
//! sweep builds one session and each parallel worker builds one; every
//! segment restores into its worker's session instead of building anew.
//!
//! Cost model: a segment costs its restore, its roll-forward, its digest,
//! and a comparison of only the transactions it owns. The reference is
//! indexed once per verification ([`ReferenceIndex`]); after the restore
//! the segment takes a mark from the validation recording
//! ([`vidi_core::VidiShim::recorded_position`]) and afterwards decodes
//! only the packets committed since that mark
//! ([`vidi_core::VidiShim::recorded_trace_since`]). Apart from the restore
//! and digest copies and one integrity pass over the validation image,
//! nothing a segment does grows with the length of the run.
//!
//! Divergence attribution: a checkpoint records the per-channel
//! transaction counts committed to the validation trace at its boundary,
//! and a segment compares only the transactions at or past those counts
//! ([`ReferenceIndex::compare_window`]), so every divergence belongs to
//! exactly one segment (the one whose count window contains its
//! transaction index). Cycle packets carry no cycle numbers — the trace
//! only has packets for cycles with events — so the divergent *cycle* is
//! recovered by re-running the owning segment while probing the shim's
//! committed-packet counter until it passes the divergent packet. The
//! reported cycle is therefore the cycle at which the diverging
//! transaction was committed to the validation trace.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use vidi_core::{SessionCursor, Stop, StopReason};
use vidi_trace::{Divergence, ReferenceIndex, Trace};

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
/// The factory builds the sessions segments restore into: one for the
/// serial sweep, one per parallel worker. It must deterministically
/// reproduce the session that produced the checkpoint log — same
/// application, same seed, same `VidiMode::ReplayRecord` configuration.
/// Sessions hold `Rc` internally and never cross threads; the factory is
/// called from worker threads, so it must be `Sync` for the parallel path.
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

    /// Verifies every segment on the calling thread, in order, restoring
    /// each into one session. Produces the same report as
    /// [`Self::verify_parallel`] — both run the same segment routine; only
    /// the scheduling differs.
    ///
    /// # Errors
    ///
    /// Propagates the first segment-level [`SnapError`].
    pub fn verify_serial(&self) -> Result<VerifyReport, SnapError> {
        let index = ReferenceIndex::new(self.reference);
        let mut session = None;
        let results = self
            .segments()
            .iter()
            .map(|seg| {
                let s = session.get_or_insert_with(&self.factory);
                Some(self.run_segment(s, &index, seg))
            })
            .collect();
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

    /// The shared segment routine: restore into `s`, roll forward, compare
    /// the window of transactions the segment committed, and pin the
    /// earliest divergence to a cycle.
    fn run_segment(
        &self,
        s: &mut S,
        index: &ReferenceIndex,
        seg: &Segment<'a>,
    ) -> Result<SegmentResult, SnapError> {
        s.sim().restore(&seg.start.state)?;
        let mark = s
            .shim()
            .recorded_position()
            .ok_or(SnapError::NotReplaying)?;
        // The restored store's counts are the checkpoint's `txn_counts`:
        // the window starts there.
        let start = s.shim().recorded_transaction_counts();

        let mut deadlock: Option<(u64, Vec<String>)> = None;
        match seg.end {
            Some((end_cycle, _)) => {
                SessionCursor::new(&mut *s).run_until(Stop::at_cycle(end_cycle))?;
            }
            None => {
                // The final segment runs to replay completion. The bound
                // covers a completed log's known end; an incomplete (stalled)
                // log re-manifests its deadlock here, at a cycle that is a
                // pure function of the options — identical for the serial
                // and parallel paths.
                let budget_end =
                    (seg.start.cycle + self.options.final_budget).max(self.log.final_cycle + 1);
                let ev = SessionCursor::new(&mut *s)
                    .run_until(Stop::replay_complete().or_at_cycle(budget_end))?;
                if ev.reason == StopReason::CycleReached {
                    deadlock = Some((ev.cycle, s.sim().diagnostics()));
                }
                SessionCursor::new(&mut *s).flush()?;
            }
        }

        let state_mismatch = seg
            .end
            .and_then(|(cycle, digest)| (s.sim().state_digest() != digest).then_some(cycle));
        let end_of_run = s.sim().cycle();
        let window = s
            .shim()
            .recorded_trace_since(mark)
            .ok_or(SnapError::NotReplaying)??;
        // Only transactions this segment committed are compared, so every
        // content or order divergence reported is this segment's own.
        let report = index.compare_window(&start, &window);
        let transactions_checked = report.transactions_checked;

        // Find the earliest divergence by committed-packet position.
        let layout = window.layout();
        let mut count_mismatch: Option<Divergence> = None;
        let mut best: Option<(usize, Divergence)> = None;
        for d in report.divergences {
            let (ci, index) = match &d {
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
                | Divergence::OrderMismatch { channel, index, .. } => {
                    let Some(ci) = layout.index_of(channel) else {
                        continue;
                    };
                    (ci, *index)
                }
            };
            let local = index - start[ci] as usize;
            if let Some(pi) = packet_index_of(&window, ci, local) {
                let pi = mark.packets_read as usize + pi;
                if best.as_ref().is_none_or(|(b, _)| pi < *b) {
                    best = Some((pi, d));
                }
            }
        }

        // Pin the winning divergence to the cycle its packet was committed.
        let diverged = match best {
            Some((packet, divergence)) => {
                let cycle = self.locate_commit_cycle(s, seg, packet, end_of_run)?;
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

    /// Re-runs a segment from its checkpoint in `s`, probing the
    /// committed-packet counter each cycle, to find when packet `target`
    /// was committed.
    fn locate_commit_cycle(
        &self,
        s: &mut S,
        seg: &Segment<'a>,
        target: usize,
        end_of_run: u64,
    ) -> Result<u64, SnapError> {
        s.sim().restore(&seg.start.state)?;
        let ev = SessionCursor::new(s).run_until(
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
    /// Verifies the segments across up to `threads` worker threads. Each
    /// worker builds one session (sessions hold `Rc` and never cross
    /// threads) and restores every segment it claims into it; only
    /// checkpoint bytes, traces and the reference index are shared, by
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
        let index = ReferenceIndex::new(self.reference);
        let segments = self.segments();
        let next = AtomicUsize::new(0);
        let results: Mutex<Vec<Option<Result<SegmentResult, SnapError>>>> =
            Mutex::new((0..segments.len()).map(|_| None).collect());
        std::thread::scope(|scope| {
            for _ in 0..threads.min(segments.len()).max(1) {
                scope.spawn(|| {
                    let mut session = None;
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= segments.len() {
                            break;
                        }
                        let s = session.get_or_insert_with(&self.factory);
                        let r = self.run_segment(s, &index, &segments[i]);
                        results.lock().expect("no poisoned segment lock")[i] = Some(r);
                    }
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
