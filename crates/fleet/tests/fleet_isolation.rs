//! The fleet fault-matrix soak: eight tenants — four clean, four under
//! distinct fault schedules (an injected engine panic, permanently failing
//! store writes, a total bandwidth collapse, and at-rest truncation) — run
//! concurrently under one supervisor, one credit arbiter, and one memory
//! budget. The contract, per tenant class:
//!
//! * clean sessions complete with traces **bit-identical** to their solo
//!   runs (arbitration under full provisioning is invisible);
//! * faulted sessions fail **independently**, each with a cause attributed
//!   to its own injected schedule — no cross-tenant blast radius;
//! * the crashed session's partial trace certifies to a non-empty prefix
//!   that replays to completion;
//! * admission never over-commits: the ninth tenant is refused with a
//!   typed error, and peak reservations stay within the budget.

use vidi_apps::{AppId, Scale};
use vidi_faults::{CorruptionSpec, FaultSpec, StorageFailureSpec, WindowSpec};
use vidi_fleet::{
    solo_image, AdmissionError, FailureCause, Fleet, FleetConfig, FleetRequest, FleetResponse,
    SessionId, SessionSpec, SessionState,
};

/// Cycle budget for the wedged (store-faulted) sessions: far beyond any
/// clean test-scale run (~2.6k cycles), far below patience-testing.
const WEDGE_BUDGET: u64 = 20_000;

fn clean_specs() -> Vec<SessionSpec> {
    vec![
        SessionSpec::record("clean-sha", AppId::Sha, 7),
        SessionSpec::record("clean-digitrec", AppId::DigitRec, 11),
        SessionSpec::record("clean-spamfilter", AppId::SpamFilter, 13),
        SessionSpec::record("clean-dma", AppId::Dma, 21),
    ]
}

/// The engine panics mid-run. Small chunks so several flush before the
/// crash and the surviving prefix is non-trivial.
fn crash_spec() -> SessionSpec {
    SessionSpec {
        trace_chunk_words: 4,
        ..SessionSpec::record("crash-sha", AppId::Sha, 31)
    }
    .with_faults(FaultSpec {
        seed: 31,
        panic_at: Some(1200),
        ..FaultSpec::default()
    })
}

/// Every store write fails forever: retry cannot absorb it, the recording
/// wedges, and the session times out on its own cycle budget. Chunks are
/// kept small so flushes (and thus write faults) occur early, and the
/// workload runs at bench scale so its traffic overwhelms the encoder FIFO
/// once flushing stops — a test-scale trace would ride entirely in buffers
/// and finish anyway.
fn wedge_spec() -> SessionSpec {
    SessionSpec {
        max_cycles: WEDGE_BUDGET,
        trace_chunk_words: 4,
        scale: Scale::Bench,
        ..SessionSpec::record("wedge-digitrec", AppId::DigitRec, 33)
    }
    .with_faults(FaultSpec {
        seed: 33,
        store_failures: Some(StorageFailureSpec {
            per_mille: 1000,
            failures_per_op: u32::MAX,
        }),
        ..FaultSpec::default()
    })
}

/// Store bandwidth collapses to zero on every cycle: credit never accrues,
/// the encoder back-pressures the design, and with no stall budget the
/// session starves against its own cycle budget — never a neighbor's.
fn starve_spec() -> SessionSpec {
    SessionSpec {
        max_cycles: WEDGE_BUDGET,
        scale: Scale::Bench,
        ..SessionSpec::record("starve-spamfilter", AppId::SpamFilter, 35)
    }
    .with_faults(FaultSpec {
        seed: 35,
        store_collapse: Some(WindowSpec {
            period: 1,
            window: 1,
            divisor: 1_000_000,
        }),
        ..FaultSpec::default()
    })
}

/// The recording lands intact, then at-rest truncation eats its tail: the
/// integrity audit must fail the session with the certified-vs-recorded
/// deficit on record.
fn rot_spec() -> SessionSpec {
    SessionSpec::record("rot-dma", AppId::Dma, 37).with_faults(FaultSpec {
        seed: 37,
        corruption: Some(CorruptionSpec::Truncate {
            keep_num: 3,
            keep_den: 4,
        }),
        ..FaultSpec::default()
    })
}

fn expect_failed(fleet: &Fleet, id: SessionId, spec: &SessionSpec) -> FailureCause {
    let state = fleet.state_of(id).expect("session exists");
    let SessionState::Failed(failure) = state else {
        panic!("{}: expected Failed, got {}", spec.name, state.label());
    };
    assert_eq!(
        failure.injected, spec.faults,
        "{}: failure must be attributed to the session's own fault schedule",
        spec.name
    );
    failure.cause
}

#[test]
fn eight_tenant_fault_matrix_soak() {
    let clean = clean_specs();
    let faulted = [crash_spec(), wedge_spec(), starve_spec(), rot_spec()];
    let all: Vec<SessionSpec> = clean.iter().chain(faulted.iter()).cloned().collect();

    // Budget: exactly the eight admitted bounds — a ninth tenant must not
    // fit. Bandwidth: full provisioning (every session's demand covered),
    // the precondition for clean-session bit-identity.
    let budget: u64 = all.iter().map(SessionSpec::buffer_bound).sum();
    let total_rate: u64 = all.iter().map(|s| u64::from(s.store_bytes_per_cycle)).sum();
    let fleet = Fleet::new(FleetConfig {
        workers: all.len(),
        memory_budget: budget,
        total_store_bytes_per_cycle: total_rate,
        max_sessions: 64,
        evict_to_admit: false,
    });

    let ids: Vec<SessionId> = all
        .iter()
        .map(|spec| fleet.submit(spec.clone()).expect("admission within budget"))
        .collect();

    // The ninth tenant: typed rejection, not an OOM and not an eviction.
    match fleet.submit(SessionSpec::record("ninth", AppId::Sha, 99)) {
        Err(AdmissionError::BudgetExceeded {
            requested,
            reserved,
            budget: b,
        }) => {
            assert_eq!(b, budget);
            assert!(reserved + requested > b);
        }
        other => panic!("ninth tenant must be budget-rejected, got {other:?}"),
    }

    fleet.wait_all();

    // Clean tenants: completed, within their reserved bound, bit-identical
    // to solo.
    for (spec, id) in clean.iter().zip(&ids) {
        let state = fleet.state_of(*id).expect("session exists");
        let SessionState::Completed(report) = state else {
            panic!("{}: expected completion, got {}", spec.name, state.label());
        };
        assert!(report.packets > 0, "{}: empty trace", spec.name);
        assert!(
            report.peak_buffered_bytes <= spec.buffer_bound(),
            "{}: peak buffering {} exceeded its admission reservation {}",
            spec.name,
            report.peak_buffered_bytes,
            spec.buffer_bound()
        );
        let prefix = fleet.fetch_trace(*id).expect("trace fetchable");
        assert!(
            prefix.complete,
            "{}: finalized trace must certify",
            spec.name
        );
        assert_eq!(
            prefix.bytes,
            solo_image(spec).expect("solo run"),
            "{}: fleet trace diverged from the solo run — arbitration leaked \
             into a fully provisioned tenant",
            spec.name
        );
    }

    // Faulted tenants: each fails in its own way, attributed to its own
    // schedule.
    let crash_cause = expect_failed(&fleet, ids[4], &faulted[0]);
    let FailureCause::Panicked(msg) = crash_cause else {
        panic!("crash-sha: expected Panicked, got {crash_cause}");
    };
    assert!(
        msg.contains("injected panic"),
        "crash-sha: panic message lost its attribution: {msg}"
    );

    let wedge_cause = expect_failed(&fleet, ids[5], &faulted[1]);
    assert!(
        matches!(wedge_cause, FailureCause::Sim(_)),
        "wedge-digitrec: expected a simulation timeout, got {wedge_cause}"
    );

    let starve_cause = expect_failed(&fleet, ids[6], &faulted[2]);
    assert!(
        matches!(starve_cause, FailureCause::Sim(_)),
        "starve-spamfilter: expected a starvation timeout, got {starve_cause}"
    );

    let rot_cause = expect_failed(&fleet, ids[7], &faulted[3]);
    let FailureCause::CorruptTrace {
        certified,
        recorded,
    } = rot_cause
    else {
        panic!("rot-dma: expected CorruptTrace, got {rot_cause}");
    };
    assert!(
        certified < recorded,
        "rot-dma: truncation must cost certified packets ({certified}/{recorded})"
    );

    // The crashed tenant's partial trace: a non-empty certified prefix that
    // is strictly shorter than the run would have produced (the crash cost
    // the unflushed tail) and replays to completion in a fresh session.
    // Note the prefix is whole-chunk clean — the crash interrupts the
    // engine between ticks, never mid-flush — so framing-level recovery
    // sees no tear; the *shortfall* is what marks it partial.
    let prefix = fleet.fetch_trace(ids[4]).expect("crashed trace fetchable");
    assert!(
        prefix.certified_packets > 0,
        "crash landed before any chunk flushed — nothing durable"
    );
    let full_packets = {
        let unfaulted = SessionSpec {
            faults: None,
            ..crash_spec()
        };
        vidi_fleet::TracePrefix::certify(solo_image(&unfaulted).expect("solo run"))
            .certified_packets
    };
    assert!(
        prefix.certified_packets < full_packets,
        "crash at cycle 1200 must cost trace packets ({}/{full_packets} survived)",
        prefix.certified_packets
    );
    let recovered = prefix.recover().expect("prefix recovers");
    let replay_id = fleet
        .submit(SessionSpec::replay(
            "replay-crash-prefix",
            AppId::Sha,
            31,
            recovered.trace,
        ))
        .expect("replay admitted after terminals released their bounds");
    fleet.wait_all();
    let replay_state = fleet.state_of(replay_id).expect("replay exists");
    assert!(
        matches!(replay_state, SessionState::Completed(_)),
        "crashed prefix must replay to completion, got {}",
        replay_state.label()
    );

    // Global accounting: admission never over-committed, every terminal
    // session released its reservation, and the across-fleet buffering the
    // reservations bounded stayed within budget.
    let stats = fleet.stats();
    assert_eq!(stats.completed, 5, "four clean + one replay");
    assert_eq!(stats.failed, 4);
    assert_eq!(stats.reserved, 0, "terminal sessions release their bounds");
    assert!(
        stats.peak_reserved <= stats.budget,
        "peak reservation {} exceeded budget {}",
        stats.peak_reserved,
        stats.budget
    );
    assert!(
        stats.sum_peak_buffered <= stats.budget,
        "aggregate peak buffering {} exceeded the admission budget {}",
        stats.sum_peak_buffered,
        stats.budget
    );

    // The wire-shaped view agrees with the typed one.
    let FleetResponse::Status(status) = fleet.handle(FleetRequest::Status(ids[4])) else {
        panic!("status over the wire shape");
    };
    assert_eq!(status.state.label(), "failed");
    assert!(status.trace_bytes > 0);
}
