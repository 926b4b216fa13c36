//! Direct tests of the channel-monitor ↔ trace-encoder machinery (§3.1,
//! §3.2): event timing, same-cycle fire logging, eager reservations under
//! back-pressure, and output-monitor gating.

use std::cell::RefCell;
use std::rc::Rc;

use vidi_chan::{Channel, Direction, ReceiverLatch, SenderQueue};
use vidi_core::{RawSession, SessionCursor, VidiConfig, VidiShim};
use vidi_hwsim::{Bits, Component, SignalPool, Simulator};
use vidi_trace::Trace;

/// Driver that sends `values` with `gap` idle cycles between transfers.
struct Driver {
    tx: SenderQueue,
    gap: u64,
    next_at: u64,
    cycle: u64,
}
impl Component for Driver {
    fn name(&self) -> &str {
        "driver"
    }
    fn eval(&mut self, p: &mut SignalPool) {
        self.tx.eval(p, self.cycle >= self.next_at);
    }
    fn tick(&mut self, p: &mut SignalPool) {
        self.cycle += 1;
        if self.tx.tick(p).is_some() {
            self.next_at = self.cycle + self.gap;
        }
    }
}

/// Sink accepting every `period`-th cycle.
struct Sink {
    rx: ReceiverLatch,
    period: u64,
    cycle: u64,
    got: Rc<RefCell<Vec<u64>>>,
}
impl Component for Sink {
    fn name(&self) -> &str {
        "sink"
    }
    fn eval(&mut self, p: &mut SignalPool) {
        let accept = self.period != 0 && self.cycle.is_multiple_of(self.period);
        self.rx.eval(p, accept);
    }
    fn tick(&mut self, p: &mut SignalPool) {
        self.cycle += 1;
        if let Some(v) = self.rx.tick(p) {
            self.got.borrow_mut().push(v.to_u64());
        }
    }
}

/// Runs `n` transfers through a recorded input channel with the given
/// schedules and returns (received values, trace).
fn run_input_channel(
    n: u64,
    gap: u64,
    sink_period: u64,
    store_bw: u32,
    fifo_capacity: usize,
) -> (Vec<u64>, Trace) {
    let mut sim = Simulator::new();
    let ch = Channel::new(sim.pool_mut(), "in", 32);
    let shim = VidiShim::install(
        &mut sim,
        &[(ch.clone(), Direction::Input)],
        VidiConfig {
            store_bytes_per_cycle: store_bw,
            fifo_capacity,
            ..VidiConfig::record()
        },
    )
    .unwrap();
    let mut tx = SenderQueue::new(shim.env_channel("in").unwrap().clone());
    for v in 0..n {
        tx.push(Bits::from_u64(32, v));
    }
    let got = Rc::new(RefCell::new(Vec::new()));
    sim.add_component(Driver {
        tx,
        gap,
        next_at: 0,
        cycle: 0,
    });
    sim.add_component(Sink {
        rx: ReceiverLatch::new(ch),
        period: sink_period,
        cycle: 0,
        got: Rc::clone(&got),
    });
    let done = Rc::clone(&got);
    sim.run_until(
        move |_| done.borrow().len() as u64 >= n,
        100_000,
        "transfers",
    )
    .unwrap();
    SessionCursor::new(&mut RawSession {
        sim: &mut sim,
        shim: &shim,
    })
    .flush()
    .unwrap();
    let v = got.borrow().clone();
    (v, shim.recorded_trace().unwrap())
}

#[test]
fn back_to_back_transfers_log_same_cycle_start_and_end() {
    // Sink always ready: every transfer fires in its start cycle, so every
    // cycle packet carries start+end for the channel.
    let (got, trace) = run_input_channel(20, 0, 1, 64, 128);
    assert_eq!(got, (0..20).collect::<Vec<_>>());
    assert_eq!(trace.channel_transaction_count(0), 20);
    for p in trace.packets() {
        if p.ends[0] {
            assert!(
                p.starts[0],
                "back-to-back fire should be start+end in one packet"
            );
        }
    }
}

#[test]
fn delayed_ready_splits_start_and_end_packets() {
    // Sink ready every 5 cycles: starts land well before ends.
    let (got, trace) = run_input_channel(8, 0, 5, 64, 128);
    assert_eq!(got.len(), 8);
    let split_packets = trace
        .packets()
        .iter()
        .filter(|p| p.starts[0] != p.ends[0])
        .count();
    assert!(
        split_packets >= 8,
        "slow receiver should split start and end events, got {split_packets} split packets"
    );
}

#[test]
fn contents_are_recorded_exactly_once_in_order() {
    let (_, trace) = run_input_channel(50, 1, 2, 64, 128);
    let contents: Vec<u64> = trace
        .input_contents(0)
        .iter()
        .map(vidi_hwsim::Bits::to_u64)
        .collect();
    assert_eq!(contents, (0..50).collect::<Vec<_>>());
}

#[test]
fn starving_store_backpressures_but_loses_nothing() {
    // 1 byte/cycle store bandwidth with a tiny FIFO: heavy back-pressure.
    let (got, trace) = run_input_channel(30, 0, 1, 1, 8);
    assert_eq!(got, (0..30).collect::<Vec<_>>());
    assert_eq!(trace.channel_transaction_count(0), 30);
    let contents: Vec<u64> = trace
        .input_contents(0)
        .iter()
        .map(vidi_hwsim::Bits::to_u64)
        .collect();
    assert_eq!(contents, (0..30).collect::<Vec<_>>());
}

#[test]
fn backpressure_is_observable_in_stats() {
    let mut sim = Simulator::new();
    let ch = Channel::new(sim.pool_mut(), "in", 512);
    let shim = VidiShim::install(
        &mut sim,
        &[(ch.clone(), Direction::Input)],
        VidiConfig {
            store_bytes_per_cycle: 2, // far below the 64 B/beat production
            fifo_capacity: 8,
            ..VidiConfig::record()
        },
    )
    .unwrap();
    let mut tx = SenderQueue::new(shim.env_channel("in").unwrap().clone());
    for v in 0..40u64 {
        tx.push(Bits::from_u64(512, v));
    }
    let got = Rc::new(RefCell::new(Vec::new()));
    sim.add_component(Driver {
        tx,
        gap: 0,
        next_at: 0,
        cycle: 0,
    });
    sim.add_component(Sink {
        rx: ReceiverLatch::new(ch),
        period: 1,
        cycle: 0,
        got: Rc::clone(&got),
    });
    let done = Rc::clone(&got);
    sim.run_until(move |_| done.borrow().len() >= 40, 200_000, "transfers")
        .unwrap();
    assert!(
        shim.stats().backpressure_cycles > 0,
        "a starving store must show back-pressure cycles"
    );
    assert_eq!(got.borrow().len(), 40, "...but never lose a transaction");
}

#[test]
fn output_monitor_records_end_events_and_contents() {
    // An output channel: the app side is the sender.
    let mut sim = Simulator::new();
    let ch = Channel::new(sim.pool_mut(), "out", 16);
    let shim = VidiShim::install(
        &mut sim,
        &[(ch.clone(), Direction::Output)],
        VidiConfig::record(), // record_output_content defaults to true
    )
    .unwrap();
    // App-side sender on the app channel; env-side receiver on the shim's
    // environment channel.
    let mut tx = SenderQueue::new(ch);
    for v in [7u64, 8, 9] {
        tx.push(Bits::from_u64(16, v));
    }
    let got = Rc::new(RefCell::new(Vec::new()));
    sim.add_component(Driver {
        tx,
        gap: 2,
        next_at: 0,
        cycle: 0,
    });
    sim.add_component(Sink {
        rx: ReceiverLatch::new(shim.env_channel("out").unwrap().clone()),
        period: 1,
        cycle: 0,
        got: Rc::clone(&got),
    });
    let done = Rc::clone(&got);
    sim.run_until(move |_| done.borrow().len() >= 3, 10_000, "transfers")
        .unwrap();
    sim.run(2048).unwrap();
    assert_eq!(&*got.borrow(), &[7, 8, 9]);

    let trace = shim.recorded_trace().unwrap();
    assert_eq!(trace.channel_transaction_count(0), 3);
    // Output channels have no start events in the trace...
    let starts: usize = trace
        .packets()
        .iter()
        .map(|p| p.starts.iter().filter(|&&s| s).count())
        .sum();
    assert_eq!(starts, 0, "output channels contribute no start events");
    // ...but carry content on end events when divergence detection is on.
    let contents: Vec<u64> = trace
        .output_contents(0)
        .iter()
        .map(vidi_hwsim::Bits::to_u64)
        .collect();
    assert_eq!(contents, vec![7, 8, 9]);
}

#[test]
fn transparent_mode_is_zero_overhead_passthrough() {
    // The same workload under R1 and R2 with an always-ready sink and an
    // ample store: cycle counts must be identical (monitors add no latency
    // when the encoder keeps up) or within one cycle of pipeline fill.
    let run = |config: VidiConfig| -> u64 {
        let mut sim = Simulator::new();
        let ch = Channel::new(sim.pool_mut(), "in", 32);
        let shim = VidiShim::install(&mut sim, &[(ch.clone(), Direction::Input)], config).unwrap();
        let mut tx = SenderQueue::new(shim.env_channel("in").unwrap().clone());
        for v in 0..100u64 {
            tx.push(Bits::from_u64(32, v));
        }
        let got = Rc::new(RefCell::new(Vec::new()));
        sim.add_component(Driver {
            tx,
            gap: 0,
            next_at: 0,
            cycle: 0,
        });
        sim.add_component(Sink {
            rx: ReceiverLatch::new(ch),
            period: 1,
            cycle: 0,
            got: Rc::clone(&got),
        });
        let done = Rc::clone(&got);
        sim.run_until(move |_| done.borrow().len() >= 100, 10_000, "transfers")
            .unwrap()
    };
    let r1 = run(VidiConfig::transparent());
    let r2 = run(VidiConfig {
        store_bytes_per_cycle: 64,
        ..VidiConfig::record()
    });
    assert!(
        r2 <= r1 + 2,
        "recording with ample bandwidth must be near-zero overhead: R1={r1} R2={r2}"
    );
}
