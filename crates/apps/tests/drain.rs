//! Drain to quiescence: [`SessionCursor::flush`] runs until the trace
//! store has nothing staged. These tests pin it against the fixed
//! 4096-cycle margin sessions used to run, and pin that a store which
//! cannot drain is reported instead of silently truncated.

use std::cell::Cell;
use std::rc::Rc;
use std::sync::Arc;

use vidi_apps::{
    build_app, build_app_with_faults, build_echo_atop, build_echo_fifo, AppId, BuiltApp,
    EchoFifoConfig, Scale,
};
use vidi_chan::AtopFilterMode;
use vidi_core::{
    DriveSession, FaultInjection, ReplayInput, SessionCursor, Stop, StopReason, VidiConfig,
};
use vidi_hwsim::SimError;
use vidi_trace::CodecId;

/// The idle margin every session ran after finishing, before `flush`
/// watched the store.
const FIXED_MARGIN: u64 = 4096;

/// Cycle bound for reaching a session's stop point.
const LIMIT: u64 = 2_000_000;

/// What a drained recording leaves behind.
#[derive(Debug, PartialEq)]
struct Drained {
    image: Vec<u8>,
    chunks_flushed: u64,
    bytes_written: u64,
    peak_buffered_bytes: u64,
}

/// Builds a session, runs it until `done`, then drains it through
/// `flush()` and, on a second build, through the fixed margin. Asserts the
/// two agree and returns the drained stream image.
fn drain_matches_margin<S: DriveSession>(
    what: &str,
    build: impl Fn() -> S,
    done: impl Fn(&mut S) -> bool + Copy,
) -> Vec<u8> {
    let run = |fixed: bool| {
        let mut session = build();
        let mut cursor = SessionCursor::new(&mut session);
        let ev = cursor
            .run_until(Stop::when(done).or_at_cycle(LIMIT).check_every(1))
            .expect("session runs");
        assert_eq!(ev.reason, StopReason::PredicateTrue, "{what}: unfinished");
        if fixed {
            cursor.step(FIXED_MARGIN).expect("fixed margin");
        } else {
            cursor.flush().expect("drain");
        }
        let shim = session.shim();
        let stats = shim.stats();
        Drained {
            image: shim.recorded_stream_image().expect("recording image"),
            chunks_flushed: stats.chunks_flushed,
            bytes_written: stats.bytes_written,
            peak_buffered_bytes: stats.peak_buffered_bytes,
        }
    };
    let drained = run(false);
    let reference = run(true);
    assert!(
        drained.image == reference.image,
        "{what}: stream image differs from the fixed margin's"
    );
    assert_eq!(drained, reference, "{what}");
    drained.image
}

fn cpus_finished(b: &mut BuiltApp) -> bool {
    b.cpu.iter().all(|h| h.borrow().finished)
}

fn replay_input(image: Vec<u8>) -> ReplayInput {
    ReplayInput::from_chunks(Arc::new(image))
}

#[test]
fn drain_matches_the_fixed_margin_on_every_catalog_app_and_codec() {
    for app in AppId::ALL {
        for codec in CodecId::ALL {
            let what = format!("{} {codec:?}", app.label());
            let config = || VidiConfig::record().with_trace_codec(codec);
            let image = drain_matches_margin(
                &format!("{what} record"),
                || build_app(app.setup(Scale::Test, 1), config()),
                cpus_finished,
            );
            let r3 =
                || VidiConfig::replay_record(replay_input(image.clone())).with_trace_codec(codec);
            drain_matches_margin(
                &format!("{what} R3"),
                || build_app(app.setup(Scale::Test, 1), r3()),
                |b: &mut BuiltApp| b.shim.replay_complete(),
            );
        }
    }
}

#[test]
fn drain_matches_the_fixed_margin_on_the_case_studies() {
    let fifo = |vidi: VidiConfig| {
        build_echo_fifo(&EchoFifoConfig {
            vidi,
            ..EchoFifoConfig::default()
        })
    };
    let image = drain_matches_margin(
        "echo-fifo record",
        || fifo(VidiConfig::record()),
        |b| b.cpu.iter().all(|h| h.borrow().finished),
    );
    drain_matches_margin(
        "echo-fifo R3",
        || fifo(VidiConfig::replay_record(replay_input(image.clone()))),
        |b| b.shim.replay_complete(),
    );

    let pings = 32;
    let expected_pongs = u64::from(pings).div_ceil(16);
    for filter in [AtopFilterMode::Buggy, AtopFilterMode::Fixed] {
        let image = drain_matches_margin(
            &format!("echo-atop {filter:?} record"),
            || build_echo_atop(filter, VidiConfig::record(), pings, 5),
            |b| {
                *b.pongs_acked.borrow() >= expected_pongs
                    && b.cpu.iter().all(|h| h.borrow().finished)
            },
        );
        drain_matches_margin(
            &format!("echo-atop {filter:?} R3"),
            || {
                let r3 = VidiConfig::replay_record(replay_input(image.clone()));
                build_echo_atop(filter, r3, pings, 5)
            },
            |b| b.shim.replay_complete(),
        );
    }
}

/// DMA finishes its CPU script with packets still waiting in the encoder
/// FIFO. If the store then loses all bandwidth, draining cannot finish:
/// `flush` must say so, naming the staged packets, rather than return with
/// them missing from the image.
#[test]
fn an_undrainable_store_is_a_timeout_not_a_truncated_image() {
    let setup = || AppId::Dma.setup(Scale::Test, 1);
    let mut clean = build_app(setup(), VidiConfig::record());
    SessionCursor::new(&mut clean)
        .run_until(Stop::when(cpus_finished).check_every(1))
        .expect("clean recording");
    SessionCursor::new(&mut clean).flush().expect("clean drain");
    let total = clean.shim.recorded_packet_count();

    let starved = Rc::new(Cell::new(false));
    let flag = Rc::clone(&starved);
    let faults = FaultInjection {
        // A divisor this large rounds the store's rate down to zero.
        store_bandwidth: Some(Box::new(move |_| if flag.get() { u32::MAX } else { 1 })),
        ..FaultInjection::none()
    };
    let mut built = build_app_with_faults(setup(), VidiConfig::record(), faults);
    SessionCursor::new(&mut built)
        .run_until(Stop::when(cpus_finished).check_every(1))
        .expect("faulted recording");
    let staged = total - built.shim.recorded_packet_count();
    assert!(staged > 0, "DMA finishes with packets staged");

    starved.set(true);
    match SessionCursor::new(&mut built).flush() {
        Err(SimError::Timeout { waiting_for, .. }) => assert!(
            waiting_for.contains(&format!("{staged} packets staged")),
            "timeout names the staged count: {waiting_for}"
        ),
        other => panic!("expected a drain timeout with {staged} packets staged, got {other:?}"),
    }
}
