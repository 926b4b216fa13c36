//! Streaming trace decoding.
//!
//! [`Trace::decode`](crate::Trace::decode) materializes every cycle packet;
//! for very long recordings (the paper supports "arbitrarily long execution
//! traces", §3.3) the offline tools want to scan a trace without holding it
//! in memory. [`TraceReader`] parses the self-describing header once and
//! then yields cycle packets one at a time. The header and packet codecs
//! here are the *only* decode path in the crate: [`Trace::decode`], the
//! chunked [`TraceSource`](crate::TraceSource), and framed recovery all
//! share them.

use vidi_chan::Direction;
use vidi_hwsim::Bits;

use crate::error::TraceError;
use crate::layout::{ChannelInfo, TraceLayout};
use crate::packet::CyclePacket;
use crate::stream::{SourcePos, TraceSource, DEFAULT_CHUNK_WORDS};
use crate::trace::Trace;

/// Incremental reader over the serialized trace format.
///
/// ```
/// use vidi_chan::Direction;
/// use vidi_hwsim::Bits;
/// use vidi_trace::{ChannelInfo, ChannelPacket, CyclePacket, Trace, TraceLayout, TraceReader};
///
/// let layout = TraceLayout::new(vec![ChannelInfo {
///     name: "c".into(),
///     width: 8,
///     direction: Direction::Input,
/// }]);
/// let mut trace = Trace::new(layout.clone(), false);
/// trace.push(CyclePacket::assemble(
///     &layout,
///     &[ChannelPacket::start_with(Bits::from_u64(8, 7))],
///     false,
/// ));
/// let bytes = trace.encode();
///
/// let mut reader = TraceReader::new(&bytes)?;
/// assert_eq!(reader.layout().len(), 1);
/// let first = reader.next_packet()?.expect("one packet");
/// assert!(first.starts[0]);
/// assert!(reader.next_packet()?.is_none());
/// # Ok::<(), vidi_trace::TraceError>(())
/// ```
#[derive(Debug)]
pub struct TraceReader<'a> {
    buf: &'a [u8],
    pos: usize,
    layout: TraceLayout,
    record_output_content: bool,
    remaining: u64,
}

impl<'a> TraceReader<'a> {
    /// Parses the header of a serialized trace.
    ///
    /// # Errors
    ///
    /// Returns a [`TraceError`] for malformed headers.
    pub fn new(buf: &'a [u8]) -> Result<Self, TraceError> {
        let mut r = Cursor::new(buf);
        let (layout, record_output_content, remaining, codec) = decode_header(&mut r)?;
        if codec != 0 {
            // The unframed reader decodes raw packet bytes only; compressed
            // streams live under the chunk framing (use TraceSource).
            return Err(TraceError::UnsupportedCodec { codec });
        }
        Ok(TraceReader {
            buf,
            pos: r.pos,
            layout,
            record_output_content,
            remaining,
        })
    }

    /// The trace's channel layout.
    pub fn layout(&self) -> &TraceLayout {
        &self.layout
    }

    /// Whether output contents were recorded.
    pub fn records_output_content(&self) -> bool {
        self.record_output_content
    }

    /// Packets not yet read.
    pub fn remaining(&self) -> u64 {
        self.remaining
    }

    /// Reads the next cycle packet, or `None` at end of trace.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Truncated`] if the buffer ends mid-packet.
    pub fn next_packet(&mut self) -> Result<Option<CyclePacket>, TraceError> {
        if self.remaining == 0 {
            return Ok(None);
        }
        let mut r = Cursor {
            buf: self.buf,
            pos: self.pos,
        };
        let packet = decode_packet(&mut r, &self.layout, self.record_output_content)?;
        self.pos = r.pos;
        self.remaining -= 1;
        Ok(Some(packet))
    }
}

/// Parses the self-description header: layout, output-content flag, the
/// declared packet count, and the negotiated block-codec id byte (version-1
/// headers are raw; version-2 headers carry the codec byte after the
/// output-content flag).
pub(crate) fn decode_header(
    r: &mut Cursor<'_>,
) -> Result<(TraceLayout, bool, u64, u8), TraceError> {
    if r.take(4)? != b"VIDI" {
        return Err(TraceError::BadMagic);
    }
    let version = r.u16()?;
    if version != 1 && version != 2 {
        return Err(TraceError::BadVersion(version));
    }
    let record_output_content = r.u8()? != 0;
    let codec = if version == 2 { r.u8()? } else { 0 };
    let n_channels = r.u16()? as usize;
    let mut channels = Vec::with_capacity(n_channels);
    for _ in 0..n_channels {
        let name_len = r.u16()? as usize;
        let name = std::str::from_utf8(r.take(name_len)?)
            .map_err(|_| TraceError::BadChannelName)?
            .to_string();
        let width = r.u32()?;
        let direction = if r.u8()? == 0 {
            Direction::Input
        } else {
            Direction::Output
        };
        channels.push(ChannelInfo {
            name,
            width,
            direction,
        });
    }
    let count = r.u64()?;
    Ok((
        TraceLayout::new(channels),
        record_output_content,
        count,
        codec,
    ))
}

/// Decodes one self-delimiting cycle packet at the cursor.
pub(crate) fn decode_packet(
    r: &mut Cursor<'_>,
    layout: &TraceLayout,
    record_output_content: bool,
) -> Result<CyclePacket, TraceError> {
    let n_inputs = layout.input_indices().count();
    let starts = r.bitvec(n_inputs)?;
    let ends = r.bitvec(layout.len())?;
    let mut contents = Vec::new();
    // Input-start contents, in channel order.
    let mut input_pos = 0;
    for ch in layout.channels() {
        if ch.direction == Direction::Input {
            if starts[input_pos] {
                contents.push(r.bits(ch.width)?);
            }
            input_pos += 1;
        }
    }
    // Output-end contents, when enabled.
    if record_output_content {
        for (idx, ch) in layout.channels().iter().enumerate() {
            if ch.direction == Direction::Output && ends[idx] {
                contents.push(r.bits(ch.width)?);
            }
        }
    }
    Ok(CyclePacket {
        starts,
        ends,
        contents,
    })
}

/// The result of recovering a CRC-framed trace stream (see
/// [`Trace::encode_framed`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveredTrace {
    /// The recovered packet prefix, with the original layout.
    pub trace: Trace,
    /// Packets actually recovered.
    pub recovered_packets: u64,
    /// Packets the (CRC-verified) header declared the trace to hold. For a
    /// streaming recording (whose header carries a sentinel count) this is
    /// the count the frame trailers certify.
    pub declared_packets: u64,
    /// First storage word that failed its integrity check, if any.
    pub first_corrupt_word: Option<usize>,
}

impl RecoveredTrace {
    /// Whether the whole trace survived intact.
    pub fn is_complete(&self) -> bool {
        self.first_corrupt_word.is_none() && self.recovered_packets == self.declared_packets
    }
}

/// Decodes a CRC-framed trace stream, resynchronizing past corruption.
///
/// Every 64-byte storage word is integrity-checked (CRC-32, sequence
/// number, length bound); the valid payload prefix before the first bad
/// word is then decoded up to the last packet the frame trailers certify as
/// complete. Bit flips, torn writes, and truncated tails therefore cost
/// only the suffix of the trace — the prefix replays normally.
///
/// This is a convenience over [`TraceSource`]: it opens a source over the
/// byte image and drains it into an in-memory [`Trace`].
///
/// # Errors
///
/// Returns a [`TraceError`] only when the corruption reaches into the
/// self-description header, leaving nothing to recover.
pub fn recover_trace(framed: &[u8]) -> Result<RecoveredTrace, TraceError> {
    let mut src = TraceSource::open(framed, DEFAULT_CHUNK_WORDS)?;
    let mut trace = Trace::new(src.layout().clone(), src.records_output_content());
    let mut recovered_packets = 0u64;
    // The trailer may certify more packets than the payload actually parses
    // to (adversarial or mis-written frames): keep the packets that did
    // decode rather than discarding the run.
    while let Ok(Some(p)) = src.next_packet() {
        trace.push(p);
        recovered_packets += 1;
    }
    Ok(RecoveredTrace {
        trace,
        recovered_packets,
        declared_packets: src.declared_packets(),
        first_corrupt_word: src.first_corrupt_word(),
    })
}

/// Decodes the packets of a framed trace stream from `mark` on — a
/// [`SourcePos`] minted over this stream by [`TraceSink::position`] or
/// [`TraceSource::position`] — as a trace over the stream's layout. The
/// image is certified whole, but nothing before the mark is decoded.
///
/// [`TraceSink::position`]: crate::TraceSink::position
///
/// # Errors
///
/// Returns a [`TraceError`] if the header is unreadable, the mark does not
/// fit this stream ([`TraceSource::seek`]), or a certified packet fails to
/// decode.
pub fn trace_from(framed: &[u8], mark: SourcePos) -> Result<Trace, TraceError> {
    let mut src = TraceSource::open(framed, mark.chunk_words as usize)?;
    src.seek(mark)?;
    let mut trace = Trace::new(src.layout().clone(), src.records_output_content());
    while let Some(packet) = src.next_packet()? {
        trace.push(packet);
    }
    Ok(trace)
}

impl Iterator for TraceReader<'_> {
    type Item = Result<CyclePacket, TraceError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_packet().transpose()
    }
}

pub(crate) struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }
    pub(crate) fn pos(&self) -> usize {
        self.pos
    }
    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], TraceError> {
        if self.pos + n > self.buf.len() {
            return Err(TraceError::Truncated { offset: self.pos });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, TraceError> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> Result<u16, TraceError> {
        Ok(u16::from_le_bytes(
            self.take(2)?.try_into().expect("2 bytes"),
        ))
    }
    fn u32(&mut self) -> Result<u32, TraceError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }
    pub(crate) fn u64(&mut self) -> Result<u64, TraceError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }
    fn bitvec(&mut self, n: usize) -> Result<Vec<bool>, TraceError> {
        let bytes = self.take(n.div_ceil(8))?;
        Ok((0..n).map(|i| bytes[i / 8] >> (i % 8) & 1 == 1).collect())
    }
    fn bits(&mut self, width: u32) -> Result<Bits, TraceError> {
        let bytes = self.take(width.div_ceil(8) as usize)?;
        Ok(Bits::from_bytes(bytes).resize(width))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::ChannelPacket;
    use crate::trace::Trace;

    fn sample() -> Trace {
        let layout = TraceLayout::new(vec![
            ChannelInfo {
                name: "in".into(),
                width: 16,
                direction: Direction::Input,
            },
            ChannelInfo {
                name: "out".into(),
                width: 8,
                direction: Direction::Output,
            },
        ]);
        let mut t = Trace::new(layout.clone(), true);
        for i in 0..5u64 {
            t.push(CyclePacket::assemble(
                &layout,
                &[
                    ChannelPacket {
                        start: true,
                        content: Some(Bits::from_u64(16, i)),
                        end: true,
                    },
                    ChannelPacket {
                        start: false,
                        content: Some(Bits::from_u64(8, i * 2)),
                        end: true,
                    },
                ],
                true,
            ));
        }
        t
    }

    #[test]
    fn streaming_matches_bulk_decode() {
        let trace = sample();
        let bytes = trace.encode();
        let reader = TraceReader::new(&bytes).unwrap();
        assert_eq!(reader.layout(), trace.layout());
        assert_eq!(reader.remaining(), 5);
        let streamed: Vec<CyclePacket> = reader.map(|p| p.unwrap()).collect();
        assert_eq!(streamed.as_slice(), trace.packets());
    }

    #[test]
    fn truncated_body_reports_offset() {
        let trace = sample();
        let mut bytes = trace.encode();
        bytes.truncate(bytes.len() - 2);
        let mut reader = TraceReader::new(&bytes).unwrap();
        let mut saw_err = false;
        for _ in 0..5 {
            match reader.next_packet() {
                Ok(Some(_)) => {}
                Ok(None) => break,
                Err(TraceError::Truncated { .. }) => {
                    saw_err = true;
                    break;
                }
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        assert!(saw_err, "must surface the truncation");
    }

    #[test]
    fn bad_header_is_rejected() {
        assert!(matches!(
            TraceReader::new(b"XXXX").unwrap_err(),
            TraceError::BadMagic
        ));
    }

    #[test]
    fn framed_roundtrip_recovers_everything() {
        let trace = sample();
        let framed = trace.encode_framed();
        let rec = recover_trace(&framed).unwrap();
        assert!(rec.is_complete());
        assert_eq!(rec.recovered_packets, 5);
        assert_eq!(rec.declared_packets, 5);
        assert_eq!(rec.trace, trace);
    }

    #[test]
    fn framed_bit_flip_recovers_prefix() {
        let trace = sample();
        let framed = trace.encode_framed();
        // Flip a payload bit in the last storage word.
        let last_word = framed.len() - crate::STORAGE_WORD_BYTES;
        let mut bad = framed.clone();
        bad[last_word + 5] ^= 0x10;
        let rec = recover_trace(&bad).unwrap();
        assert!(!rec.is_complete());
        assert_eq!(
            rec.first_corrupt_word,
            Some(framed.len() / crate::STORAGE_WORD_BYTES - 1)
        );
        assert_eq!(rec.declared_packets, 5);
        // Everything before the corrupt word replays.
        assert_eq!(
            rec.trace.packets(),
            &trace.packets()[..rec.recovered_packets as usize]
        );
    }

    #[test]
    fn framed_truncation_recovers_prefix() {
        let trace = sample();
        let mut framed = trace.encode_framed();
        // Keep the first word (which holds the header) plus a torn fragment.
        framed.truncate(crate::STORAGE_WORD_BYTES + 7);
        let rec = recover_trace(&framed).unwrap();
        assert!(!rec.is_complete());
        assert_eq!(
            rec.trace.packets(),
            &trace.packets()[..rec.recovered_packets as usize]
        );
    }

    #[test]
    fn framed_header_corruption_is_typed_error() {
        let trace = sample();
        let mut framed = trace.encode_framed();
        framed[3] ^= 0xFF; // word 0 carries the header
        assert!(recover_trace(&framed).is_err());
        assert!(recover_trace(&[]).is_err());
    }
}
