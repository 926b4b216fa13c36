//! Host times normalized to a fixed reference loop.
//!
//! On a shared 2-core virtual machine the simulator's speed swings by a third for
//! seconds at a time (one Test-scale BNN recording took 10 ms or 15 ms in
//! alternating phases) while a dependent integer chain ran at a steady
//! speed: the swings come from co-tenants contending for the core's
//! execution units and caches, not from the clock. They swamp any change
//! a benchmark should resolve. Every timed operation is therefore divided
//! by the speed of a fixed reference loop — independent integer chains
//! with loads and stores into an L1-sized table, which tracked the
//! simulator's swings (correlation 0.8) — timed just before and just after
//! it, and scaled back to seconds with [`REF_LOOP_SECONDS`]. A program
//! change moves the operation's time but not the loop's, so it still
//! shows; contention moves both and largely cancels.

use std::cell::{Cell, RefCell};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Iterations of the reference loop.
const REF_ITERS: u64 = 100_000;

/// Words in the reference loop's table (32 KiB, L1-sized).
const REF_TABLE_WORDS: usize = 4096;

/// Seconds the reference loop takes on an uncontended core of the 2-core
/// virtual machine the bounds were set on; normalized times are in these seconds.
pub const REF_LOOP_SECONDS: f64 = 0.000_34;

/// The loop is re-timed before an operation when its last timing is older
/// than this, and after an operation that took longer.
const REFRESH: Duration = Duration::from_millis(15);

/// Times the reference loop: the faster of two runs, so an interrupt in
/// one run does not read as contention.
fn time_reference_loop(table: &mut [u64]) -> f64 {
    let mask = table.len() - 1;
    let mut once = || {
        let start = Instant::now();
        let (mut a, mut b, mut c, mut d) = black_box((1u64, 2u64, 3u64, 4u64));
        for i in 0..REF_ITERS {
            a = a.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(i);
            b = (b ^ (b >> 7)).wrapping_add(a);
            let j = (a >> 40) as usize & mask;
            let k = (b >> 40) as usize & mask;
            c = c.wrapping_add(table[j]);
            table[k] = table[k].wrapping_add(c ^ d);
            d = d.rotate_left(5) ^ c;
        }
        black_box((a, b, c, d));
        start.elapsed().as_secs_f64()
    };
    once().min(once())
}

/// A started measurement.
#[derive(Clone, Copy, Debug)]
pub struct Stopwatch {
    start: Instant,
    loop_before: f64,
}

/// Measures operations in normalized seconds.
pub struct Clock {
    table: RefCell<Vec<u64>>,
    last_at: Cell<Instant>,
    last_loop: Cell<f64>,
    /// Set while [`Clock::measure`] runs: inner measurements then reuse the
    /// last timing instead of running the loop inside the outer one.
    held: Cell<bool>,
    loop_sum: Cell<f64>,
    loop_count: Cell<u64>,
}

impl Clock {
    /// A clock with a fresh timing of the reference loop.
    pub fn new() -> Clock {
        let clock = Clock {
            table: RefCell::new(vec![0; REF_TABLE_WORDS]),
            last_at: Cell::new(Instant::now()),
            last_loop: Cell::new(REF_LOOP_SECONDS),
            held: Cell::new(false),
            loop_sum: Cell::new(0.0),
            loop_count: Cell::new(0),
        };
        clock.sample();
        clock
    }

    fn sample(&self) {
        let t = time_reference_loop(&mut self.table.borrow_mut());
        self.last_loop.set(t);
        self.last_at.set(Instant::now());
        self.loop_sum.set(self.loop_sum.get() + t);
        self.loop_count.set(self.loop_count.get() + 1);
    }

    fn refresh(&self) {
        if !self.held.get() && self.last_at.get().elapsed() >= REFRESH {
            self.sample();
        }
    }

    /// Starts a measurement.
    pub fn start(&self) -> Stopwatch {
        self.refresh();
        Stopwatch {
            start: Instant::now(),
            loop_before: self.last_loop.get(),
        }
    }

    /// Ends a measurement; returns its normalized seconds.
    pub fn stop(&self, sw: Stopwatch) -> f64 {
        let raw = sw.start.elapsed().as_secs_f64();
        self.refresh();
        let loop_time = (sw.loop_before + self.last_loop.get()) / 2.0;
        raw * REF_LOOP_SECONDS / loop_time
    }

    /// Runs `f` as one measurement and returns its result and normalized
    /// seconds. The loop is timed only on the calling thread, just before
    /// and just after `f`: measurements `f` makes itself reuse the last
    /// timing, so the loop never runs inside the measured time. Used for
    /// work that contains timed operations (the set-up recordings) and for
    /// phases whose work runs on other threads (a fleet's workers), which
    /// are then normalized by the host's speed while those threads are idle.
    pub fn measure<R>(&self, f: impl FnOnce() -> R) -> (R, f64) {
        let sw = self.start();
        self.held.set(true);
        let out = f();
        self.held.set(false);
        (out, self.stop(sw))
    }

    /// Mean measured reference-loop time over `REF_LOOP_SECONDS`: above 1
    /// the host ran slower than the reference clock.
    pub fn mean_slowness(&self) -> f64 {
        self.loop_sum.get() / self.loop_count.get().max(1) as f64 / REF_LOOP_SECONDS
    }
}
