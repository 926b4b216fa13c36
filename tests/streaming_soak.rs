//! Streaming soak: a recording several times larger than the chunk window
//! streams to disk with O(chunk)-bounded memory, and a recording killed
//! mid-run recovers to a bit-exact, replayable prefix — the §4.2 huge-page
//! trace buffer contract, reproduced at file granularity.

use vidi_repro::apps::{build_app, run_app, AppId, Scale};
use vidi_repro::core::{ReplayInput, SessionCursor, VidiConfig};
use vidi_repro::host::{file_chunk_source, FileChunkSink};
use vidi_repro::trace::{Trace, TraceSource, STORAGE_WORD_BYTES};

/// Chunk window for the soak: 4 storage words = 256 bytes, small enough
/// that a test-scale recording spans many chunks.
const CHUNK_WORDS: usize = 4;

const APP: AppId = AppId::Sha;
const SEED: u64 = 7;
const MAX_CYCLES: u64 = 200_000;

fn soak_config() -> VidiConfig {
    VidiConfig {
        trace_chunk_words: CHUNK_WORDS,
        ..VidiConfig::record()
    }
}

/// Records the reference execution entirely in memory (same seed, same
/// configuration) — the ground truth the streamed file must match.
fn reference_trace() -> Trace {
    let outcome = run_app(
        build_app(APP.setup(Scale::Test, SEED), soak_config()),
        MAX_CYCLES,
    )
    .expect("in-memory recording completes");
    assert!(outcome.output_ok.is_ok(), "reference run incorrect");
    outcome
        .trace
        .expect("memory-backed recording yields a trace")
}

#[test]
fn long_recording_streams_to_disk_and_replays_without_loading() {
    let dir = std::env::temp_dir().join("vidi_streaming_soak");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("streamed.vidi");

    // Record straight to disk: chunks leave the sink as they fill, so the
    // in-memory high-water mark stays O(chunk window) however long the
    // recording runs.
    let cfg = soak_config();
    let mut built = build_app(APP.setup(Scale::Test, SEED), cfg.clone());
    built
        .shim
        .stream_to(Box::new(FileChunkSink::create(&path).unwrap()))
        .expect("no chunk flushed yet");
    let handles = built.cpu.clone();
    built
        .sim
        .run_until(
            move |_| handles.iter().all(|h| h.borrow().finished),
            MAX_CYCLES,
            "all CPU threads to finish",
        )
        .expect("streamed recording completes");
    SessionCursor::new(&mut built)
        .flush()
        .expect("store drains");
    built
        .shim
        .finalize_recording()
        .expect("tail flush succeeds");
    let stats = built.shim.stats();
    (built.check)(&built.host_mem, &built.fpga_dram, &built.cpu).expect("streamed run incorrect");

    // Bounded memory while the on-disk trace dwarfs the chunk window.
    let chunk_bytes = (CHUNK_WORDS * STORAGE_WORD_BYTES) as u64;
    let file_bytes = std::fs::metadata(&path).unwrap().len();
    assert!(
        file_bytes >= 4 * chunk_bytes,
        "soak must span several chunk windows: {file_bytes} bytes on disk \
         vs {chunk_bytes}-byte chunks"
    );
    assert!(stats.chunks_flushed >= 4, "streaming path not exercised");
    let bound = cfg.streaming_buffer_bound();
    assert!(
        stats.peak_buffered_bytes <= bound,
        "peak buffered {} bytes exceeds the streaming bound {bound}",
        stats.peak_buffered_bytes
    );

    // The streamed file decodes to exactly the trace an in-memory recording
    // of the same execution produces — one encode path, two backends.
    let reference = reference_trace();
    let mut source = TraceSource::open(file_chunk_source(&path).unwrap(), CHUNK_WORDS)
        .expect("streamed file opens");
    assert!(
        source.is_complete(),
        "finalized stream certifies completely"
    );
    assert_eq!(source.layout(), reference.layout());
    let mut packets = Vec::new();
    while let Some(p) = source.next_packet().expect("certified packets decode") {
        packets.push(p);
    }
    assert_eq!(packets, reference.packets(), "streamed != in-memory trace");

    // Replay directly off the file-backed chunk source — the whole trace is
    // never materialized in memory.
    let input = ReplayInput::from_chunks(file_chunk_source(&path).unwrap());
    let replay_cfg = VidiConfig {
        trace_chunk_words: CHUNK_WORDS,
        ..VidiConfig::replay(input)
    };
    let replay = build_app(APP.setup(Scale::Test, SEED), replay_cfg);
    run_app(replay, MAX_CYCLES).expect("file-backed replay completes");

    std::fs::remove_file(&path).ok();
}

#[test]
fn killed_mid_record_recovers_a_replayable_prefix() {
    let dir = std::env::temp_dir().join("vidi_streaming_soak");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("killed.vidi");

    // Stream to disk but kill the run mid-workload: stop the simulation
    // partway and drop everything without finalizing, then tear the last
    // storage word like a crash mid-write would.
    let built = build_app(APP.setup(Scale::Test, SEED), soak_config());
    built
        .shim
        .stream_to(Box::new(FileChunkSink::create(&path).unwrap()))
        .expect("no chunk flushed yet");
    {
        let mut built = built;
        built.sim.run(1200).expect("partial run");
    } // dropped: no finalize, the unflushed tail is lost
    let len = std::fs::metadata(&path).unwrap().len();
    assert!(
        len >= 2 * (CHUNK_WORDS * STORAGE_WORD_BYTES) as u64,
        "kill point must land after several chunk flushes ({len} bytes)"
    );
    let file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
    file.set_len(len - 13).unwrap(); // torn final word
    drop(file);

    // Recovery: the torn word is rejected, everything before it certifies,
    // and the certified packets are a bit-exact prefix of the reference.
    let reference = reference_trace();
    let mut source = TraceSource::open(file_chunk_source(&path).unwrap(), CHUNK_WORDS)
        .expect("torn file still opens");
    assert!(!source.is_complete(), "torn tail must not certify");
    let certified = usize::try_from(source.certified_packets()).unwrap();
    assert!(certified > 0, "kill point too early: nothing certified");
    assert!(
        certified < reference.packets().len(),
        "kill point too late: whole trace survived"
    );
    let mut packets = Vec::new();
    while let Some(p) = source.next_packet().expect("certified packets decode") {
        packets.push(p);
    }
    assert_eq!(
        packets.as_slice(),
        &reference.packets()[..certified],
        "recovered packets are not a prefix of the reference"
    );

    // The prefix replays to completion straight off the torn file.
    let input = ReplayInput::from_chunks(file_chunk_source(&path).unwrap());
    let replay_cfg = VidiConfig {
        trace_chunk_words: CHUNK_WORDS,
        ..VidiConfig::replay(input)
    };
    let replay = build_app(APP.setup(Scale::Test, SEED), replay_cfg);
    run_app(replay, MAX_CYCLES).expect("prefix replay completes");

    std::fs::remove_file(&path).ok();
}
