//! Trace validation: detecting replay divergences (§3.6, §5.4).
//!
//! Vidi's two-step divergence workflow records a *reference* trace (with
//! output contents), replays it while recording a *validation* trace, and
//! compares the two. Three properties are checked, mirroring §5.4:
//!
//! 1. every output channel produced the same **number** of transactions,
//! 2. every transaction has the same **content**, and
//! 3. the **happens-before relationships** among transaction end events are
//!    the same (compared via per-event vector clocks).
//!
//! Each content divergence is reported with the offending channel, the
//! transaction index, and the context — which transactions completed on that
//! channel before the divergence — exactly the report the paper used to
//! localize the DRAM DMA polling bug.

use vidi_hwsim::Bits;

use crate::layout::TraceLayout;
use crate::packet::CyclePacket;
use crate::trace::Trace;

/// One detected divergence between a reference trace and its replay.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Divergence {
    /// A channel completed a different number of transactions.
    CountMismatch {
        /// Channel name.
        channel: String,
        /// Transactions in the reference trace.
        reference: u64,
        /// Transactions in the validation trace.
        validation: u64,
    },
    /// A transaction's content differs between record and replay.
    ContentMismatch {
        /// Channel name.
        channel: String,
        /// Zero-based transaction index on the channel.
        index: usize,
        /// Content recorded in the reference execution.
        reference: Bits,
        /// Content observed during replay.
        validation: Bits,
        /// Contents of the transactions that completed on this channel
        /// immediately before the divergence (most recent last).
        context: Vec<Bits>,
    },
    /// The vector clock of an end event differs — a happens-before
    /// relationship was not preserved.
    OrderMismatch {
        /// Channel name.
        channel: String,
        /// Zero-based transaction index on the channel.
        index: usize,
        /// Per-channel completed-transaction counts at this event in the
        /// reference trace.
        reference_clock: Vec<u64>,
        /// The same counts in the validation trace.
        validation_clock: Vec<u64>,
    },
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Divergence::CountMismatch {
                channel,
                reference,
                validation,
            } => write!(
                f,
                "channel {channel}: {reference} transactions recorded but {validation} replayed"
            ),
            Divergence::ContentMismatch {
                channel,
                index,
                reference,
                validation,
                ..
            } => write!(
                f,
                "channel {channel} transaction #{index}: content {reference:x} recorded but {validation:x} replayed"
            ),
            Divergence::OrderMismatch { channel, index, .. } => write!(
                f,
                "channel {channel} transaction #{index}: happens-before relationships differ"
            ),
        }
    }
}

/// The outcome of comparing a reference trace with a validation trace.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct DivergenceReport {
    /// All detected divergences, in check order.
    pub divergences: Vec<Divergence>,
    /// Total transactions examined (reference side).
    pub transactions_checked: u64,
}

impl DivergenceReport {
    /// Whether the replay was divergence-free.
    pub fn is_clean(&self) -> bool {
        self.divergences.is_empty()
    }

    /// Number of content divergences (the §5.4 headline metric).
    pub fn content_divergences(&self) -> usize {
        self.divergences
            .iter()
            .filter(|d| matches!(d, Divergence::ContentMismatch { .. }))
            .count()
    }
}

/// How many preceding transactions to attach as context to a content
/// divergence report.
const CONTEXT_DEPTH: usize = 4;

/// Collects every output channel's transaction contents in one pass over
/// the trace (indexed by layout position; input channels get empty lists).
fn all_output_contents(trace: &Trace) -> Vec<Vec<Bits>> {
    let layout = trace.layout();
    let mut out: Vec<Vec<Bits>> = vec![Vec::new(); layout.len()];
    if !trace.records_output_content() {
        return out;
    }
    for packet in trace.packets() {
        push_output_contents(&mut out, packet, layout);
    }
    out
}

/// Appends one packet's output-end contents to the per-channel lists.
fn push_output_contents(out: &mut [Vec<Bits>], packet: &CyclePacket, layout: &TraceLayout) {
    let pkts = packet.disassemble(layout, true);
    for (idx, pkt) in pkts.into_iter().enumerate() {
        if layout.channels()[idx].direction == vidi_chan::Direction::Output && pkt.end {
            if let Some(c) = pkt.content {
                out[idx].push(c);
            }
        }
    }
}

/// A reference trace indexed once for repeated comparison: per-channel
/// transaction counts, output contents, and end-event vector clocks.
///
/// Segmented verification compares many short validation windows against
/// one reference; indexing the reference once makes each comparison cost
/// O(window) instead of O(reference). [`compare`] is the special case of a
/// window that starts at cycle 0.
#[derive(Clone, Debug)]
pub struct ReferenceIndex {
    layout: TraceLayout,
    records_output_content: bool,
    /// Completed transactions per channel, layout order.
    counts: Vec<u64>,
    /// Output-end contents per channel (empty for inputs, or when output
    /// contents were not recorded).
    contents: Vec<Vec<Bits>>,
    /// Per channel, the vector clock of every end event, flattened: the
    /// `k`-th end's clock is `clocks[c][k * n..(k + 1) * n]` over the `n`
    /// channels — the ends completed on every channel in strictly earlier
    /// cycle packets.
    clocks: Vec<Vec<u64>>,
}

impl ReferenceIndex {
    /// Indexes `reference` in one pass (plus one disassembly pass when it
    /// carries output contents).
    pub fn new(reference: &Trace) -> Self {
        let n = reference.layout().len();
        let mut counts = vec![0u64; n];
        let mut clocks: Vec<Vec<u64>> = vec![Vec::new(); n];
        for packet in reference.packets() {
            for (c, &ended) in packet.ends.iter().enumerate() {
                if ended {
                    clocks[c].extend_from_slice(&counts);
                }
            }
            for (c, &ended) in packet.ends.iter().enumerate() {
                if ended {
                    counts[c] += 1;
                }
            }
        }
        ReferenceIndex {
            layout: reference.layout().clone(),
            records_output_content: reference.records_output_content(),
            counts,
            contents: all_output_contents(reference),
            clocks,
        }
    }

    /// Compares a validation *window* — the packets a replay committed
    /// after `start[c]` transactions had completed on every channel `c` —
    /// against the reference, and reports exactly the divergences
    /// [`compare`] reports for the whole validation trace whose transaction
    /// index on its channel is at or above `start`, in the same order.
    /// Window clocks count from `start`, so vector clocks are absolute.
    ///
    /// Count mismatches compare the reference totals with `start` plus the
    /// window's ends; they are meaningful only once the replay has run to
    /// its end.
    ///
    /// # Panics
    ///
    /// Panics if the window was recorded over a different channel layout,
    /// or `start` does not hold one count per channel.
    pub fn compare_window(&self, start: &[u64], window: &Trace) -> DivergenceReport {
        assert_eq!(
            &self.layout,
            window.layout(),
            "traces have different channel layouts"
        );
        let n = self.layout.len();
        assert_eq!(start.len(), n, "one start count per channel");
        let channels = self.layout.channels();
        let with_contents = self.records_output_content && window.records_output_content();

        // One pass over the window: advance the validation clocks, check
        // every end's clock (3) and every output content (2).
        let mut v_counts = start.to_vec();
        let mut v_contents: Vec<Vec<Bits>> = vec![Vec::new(); n];
        let mut order: Vec<Vec<Divergence>> = vec![Vec::new(); n];
        for packet in window.packets() {
            for (c, &ended) in packet.ends.iter().enumerate() {
                if !ended || v_counts[c] >= self.counts[c] {
                    continue;
                }
                let i = v_counts[c] as usize;
                let rclk = &self.clocks[c][i * n..(i + 1) * n];
                if rclk != v_counts.as_slice() {
                    order[c].push(Divergence::OrderMismatch {
                        channel: channels[c].name.clone(),
                        index: i,
                        reference_clock: rclk.to_vec(),
                        validation_clock: v_counts.clone(),
                    });
                }
            }
            for (c, &ended) in packet.ends.iter().enumerate() {
                if ended {
                    v_counts[c] += 1;
                }
            }
            if with_contents {
                push_output_contents(&mut v_contents, packet, &self.layout);
            }
        }

        let mut report = DivergenceReport {
            transactions_checked: self.counts.iter().sum(),
            ..Default::default()
        };

        // 1. Per-channel transaction counts.
        for (idx, ch) in channels.iter().enumerate() {
            let (r, v) = (self.counts[idx], v_counts[idx]);
            if r != v {
                report.divergences.push(Divergence::CountMismatch {
                    channel: ch.name.clone(),
                    reference: r,
                    validation: v,
                });
            }
        }

        // 2. Output transaction contents (when both traces carry them).
        if with_contents {
            for idx in self.layout.output_indices() {
                let rc = &self.contents[idx];
                let first = start[idx] as usize;
                for (j, v) in v_contents[idx].iter().enumerate() {
                    let i = first + j;
                    let Some(r) = rc.get(i) else { break };
                    if r != v {
                        let context = rc[i.saturating_sub(CONTEXT_DEPTH)..i].to_vec();
                        report.divergences.push(Divergence::ContentMismatch {
                            channel: channels[idx].name.clone(),
                            index: i,
                            reference: r.clone(),
                            validation: v.clone(),
                            context,
                        });
                    }
                }
            }
        }

        // 3. Happens-before relationships of end events.
        report.divergences.extend(order.into_iter().flatten());
        report
    }
}

/// Compares a reference trace against a validation trace and reports every
/// divergence.
///
/// # Panics
///
/// Panics if the traces were recorded over different channel layouts —
/// comparing traces of different designs is a harness bug, not a divergence.
pub fn compare(reference: &Trace, validation: &Trace) -> DivergenceReport {
    let start = vec![0; reference.layout().len()];
    ReferenceIndex::new(reference).compare_window(&start, validation)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::{ChannelInfo, TraceLayout};
    use crate::packet::{ChannelPacket, CyclePacket};
    use vidi_chan::Direction;

    fn layout() -> TraceLayout {
        TraceLayout::new(vec![
            ChannelInfo {
                name: "in".into(),
                width: 8,
                direction: Direction::Input,
            },
            ChannelInfo {
                name: "out".into(),
                width: 8,
                direction: Direction::Output,
            },
        ])
    }

    /// Builds a trace from a script of (start_content, out_end_content)
    /// per cycle.
    fn build(script: &[(Option<u64>, Option<u64>)]) -> Trace {
        let l = layout();
        let mut t = Trace::new(l.clone(), true);
        for (start, end) in script {
            let in_pkt = match start {
                Some(v) => {
                    let mut p = ChannelPacket::start_with(Bits::from_u64(8, *v));
                    p.end = true; // same-cycle fire keeps these tests compact
                    p
                }
                None => ChannelPacket::default(),
            };
            let out_pkt = match end {
                Some(v) => ChannelPacket {
                    start: false,
                    content: Some(Bits::from_u64(8, *v)),
                    end: true,
                },
                None => ChannelPacket::default(),
            };
            t.push(CyclePacket::assemble(&l, &[in_pkt, out_pkt], true));
        }
        t
    }

    #[test]
    fn identical_traces_are_clean() {
        let a = build(&[(Some(1), None), (None, Some(2)), (Some(3), Some(4))]);
        let report = compare(&a, &a.clone());
        assert!(report.is_clean());
        assert_eq!(report.transactions_checked, 4);
    }

    #[test]
    fn detects_count_mismatch() {
        let a = build(&[(None, Some(1)), (None, Some(2))]);
        let b = build(&[(None, Some(1))]);
        let report = compare(&a, &b);
        assert!(report
            .divergences
            .iter()
            .any(|d| matches!(d, Divergence::CountMismatch { channel, .. } if channel == "out")));
    }

    #[test]
    fn detects_content_mismatch_with_context() {
        let a = build(&[(None, Some(1)), (None, Some(2)), (None, Some(3))]);
        let b = build(&[(None, Some(1)), (None, Some(2)), (None, Some(9))]);
        let report = compare(&a, &b);
        assert_eq!(report.content_divergences(), 1);
        match &report.divergences[0] {
            Divergence::ContentMismatch {
                channel,
                index,
                reference,
                validation,
                context,
            } => {
                assert_eq!(channel, "out");
                assert_eq!(*index, 2);
                assert_eq!(reference.to_u64(), 3);
                assert_eq!(validation.to_u64(), 9);
                assert_eq!(context.len(), 2);
            }
            other => panic!("unexpected divergence {other:?}"),
        }
    }

    #[test]
    fn detects_order_mismatch() {
        // Reference: input end, then output end. Validation: reversed.
        let a = build(&[(Some(7), None), (None, Some(1))]);
        let b = build(&[(None, Some(1)), (Some(7), None)]);
        let report = compare(&a, &b);
        assert!(report
            .divergences
            .iter()
            .any(|d| matches!(d, Divergence::OrderMismatch { .. })));
    }

    /// Every window of a validation trace reports exactly the full
    /// comparison's divergences at or past the window's start counts.
    #[test]
    fn windows_report_the_divergences_they_own() {
        let reference = build(&[
            (Some(1), None),
            (None, Some(2)),
            (Some(3), Some(4)),
            (None, Some(5)),
            (Some(6), None),
        ]);
        let validation = build(&[
            (None, Some(2)),
            (Some(1), None),
            (Some(3), Some(9)),
            (Some(6), Some(5)),
            (None, Some(7)),
        ]);
        let full = compare(&reference, &validation);
        assert!(full.content_divergences() > 0);
        let n = validation.layout().len();
        for split in 0..=validation.packets().len() {
            let mut start = vec![0u64; n];
            for p in &validation.packets()[..split] {
                for (c, &ended) in p.ends.iter().enumerate() {
                    start[c] += u64::from(ended);
                }
            }
            let mut window = Trace::new(validation.layout().clone(), true);
            for p in &validation.packets()[split..] {
                window.push(p.clone());
            }
            let owned: Vec<Divergence> = full
                .divergences
                .iter()
                .filter(|d| match d {
                    Divergence::CountMismatch { .. } => true,
                    Divergence::ContentMismatch { channel, index, .. }
                    | Divergence::OrderMismatch { channel, index, .. } => {
                        let c = validation.layout().index_of(channel).expect("channel");
                        *index as u64 >= start[c]
                    }
                })
                .cloned()
                .collect();
            let windowed = ReferenceIndex::new(&reference).compare_window(&start, &window);
            assert_eq!(windowed.divergences, owned, "window from packet {split}");
            assert_eq!(windowed.transactions_checked, full.transactions_checked);
        }
    }

    #[test]
    fn simultaneous_events_share_a_clock() {
        // Both events in the same cycle packet: neither happens before the
        // other, so clocks are equal across traces that keep them together.
        let a = build(&[(Some(7), Some(1))]);
        let report = compare(&a, &a.clone());
        assert!(report.is_clean());
    }
}
