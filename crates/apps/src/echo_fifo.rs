//! The debugging case study (§5.2): an echo server built on the buggy
//! Frame FIFO.
//!
//! The FPGA component receives PCIe DMA writes on `pcis`, converts each
//! 512-bit beat (one frame) into 16 32-bit fragments, feeds them through a
//! [`FrameFifo`], and stores the FIFO's output to on-FPGA DRAM. CPU thread
//! T1 validates the design by writing frames and reading them back; thread
//! T2 writes the control register that enables the store stage.
//!
//! Both bugs of the case study are reproducible:
//!
//! * **Unaligned DMA access**: an unaligned transfer carries a partial
//!   write strobe on its first beat; the buggy frontend ignores strobes and
//!   echoes garbage bytes.
//! * **Delayed start**: if T2 enables the store stage after T1 starts
//!   DMA-ing, the (buggy) Frame FIFO fills and silently drops fragments.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use vidi_chan::{
    pack_frame, unpack_frame, AxFields, AxiChannel, AxiIface, BFields, Channel, Direction,
    F1Interface, FrameFifoMode, RFields, ReceiverLatch, SenderQueue, WFields, WideFrameFifo,
    FRAGS_PER_FRAME, FRAG_BITS, FRAME_CHANNEL_BITS,
};
use vidi_core::{DriveSession, RawSession, SessionCursor, Stop, StopReason, VidiConfig, VidiShim};
use vidi_host::{CpuThread, HostMemSubordinate, HostMemory, HostOp};
use vidi_hwsim::{Bits, Component, SignalId, SignalPool, SimError, Simulator};
use vidi_trace::Trace;

/// On-FPGA DRAM address where echoed fragments are stored.
pub const ECHO_DST: u64 = 0x8_0000;

/// Shared count of fragments the backend has stored.
pub type StoredCount = Rc<RefCell<u64>>;

/// Frontend: pcis subordinate that fragments write beats into the FIFO and
/// serves read bursts from DRAM; ocl write enables the backend.
struct EchoFront {
    pcis_aw: ReceiverLatch,
    pcis_w: ReceiverLatch,
    pcis_b: SenderQueue,
    pcis_ar: ReceiverLatch,
    pcis_r: SenderQueue,
    ocl_aw: ReceiverLatch,
    ocl_w: ReceiverLatch,
    ocl_b: SenderQueue,
    ocl_ar: ReceiverLatch,
    ocl_r: SenderQueue,
    started: SignalId,
    started_state: bool,
    ocl_aw_seen: bool,
    ocl_w_seen: bool,
    /// Respect write strobes (the fix for the bitmask bug).
    respect_strobes: bool,
    frag_tx: SenderQueue,
    bursts: VecDeque<(AxFields, usize)>,
    orphans: VecDeque<WFields>,
    dram: HostMemory,
    /// FIFO occupancy signal (pipeline-quiescence gate for reads).
    fifo_occupancy: SignalId,
    /// Read bursts withheld until the echo pipeline is quiescent. Serving a
    /// read mid-drain would make response contents depend on drain timing —
    /// exactly the cycle-dependence Vidi cannot replay (§3.6) — so the
    /// hardware orders reads after quiescence, which is transaction-
    /// deterministic.
    blocked_reads: VecDeque<AxFields>,
}

impl Component for EchoFront {
    fn name(&self) -> &str {
        "echo.front"
    }

    fn eval(&mut self, p: &mut SignalPool) {
        p.set_bool(self.started, self.started_state);
        self.pcis_aw.eval(p, true);
        // Back-pressure DMA when the frame queue is deep.
        let accept = self.frag_tx.pending() < 4;
        self.pcis_w.eval(p, accept);
        self.pcis_ar.eval(p, true);
        self.pcis_b.eval(p, true);
        self.pcis_r.eval(p, true);
        self.ocl_aw.eval(p, true);
        self.ocl_w.eval(p, true);
        self.ocl_ar.eval(p, true);
        self.ocl_b.eval(p, true);
        self.ocl_r.eval(p, true);
        self.frag_tx.eval(p, true);
    }

    fn tick(&mut self, p: &mut SignalPool) {
        // ocl: any completed write enables the backend.
        if self.ocl_aw.tick(p).is_some() {
            self.ocl_aw_seen = true;
        }
        if self.ocl_w.tick(p).is_some() {
            self.ocl_w_seen = true;
        }
        if self.ocl_aw_seen && self.ocl_w_seen {
            self.started_state = true;
            self.ocl_aw_seen = false;
            self.ocl_w_seen = false;
            self.ocl_b.push(Bits::from_u64(2, 0));
        }
        if let Some(raw) = self.ocl_ar.tick(p) {
            let _ = raw;
            self.ocl_r
                .push(vidi_chan::pack_lite_r(self.started_state as u32, 0));
        }

        // pcis writes → fragments.
        if let Some(raw) = self.pcis_aw.tick(p) {
            self.bursts.push_back((AxFields::unpack(&raw), 0));
        }
        if let Some(raw) = self.pcis_w.tick(p) {
            self.orphans.push_back(WFields::unpack(&raw));
        }
        while !self.orphans.is_empty() {
            let Some(pos) = self
                .bursts
                .iter()
                .position(|(aw, got)| *got < aw.len as usize + 1)
            else {
                break;
            };
            let beat = self.orphans.pop_front().expect("non-empty");
            let (aw, got) = &mut self.bursts[pos];
            let id = aw.id;
            *got += 1;
            let complete = *got == aw.len as usize + 1;
            // One beat = one frame, enqueued atomically with a fragment
            // validity mask. The buggy frontend ignores write strobes (all
            // fragments marked valid, garbage included); the fixed one
            // masks out dwords whose strobes are not fully set.
            let mask: u16 = if self.respect_strobes {
                let mut m = 0u16;
                for frag in 0..FRAGS_PER_FRAME {
                    if (beat.strb >> (frag * 4)) & 0xf == 0xf {
                        m |= 1 << frag;
                    }
                }
                m
            } else {
                0xffff
            };
            self.frag_tx.push(pack_frame(&beat.data, mask));
            if complete {
                self.bursts.remove(pos);
                self.pcis_b.push(BFields { id, resp: 0 }.pack());
            }
        }

        // pcis reads ← DRAM, withheld until the echo pipeline is quiescent.
        if let Some(raw) = self.pcis_ar.tick(p) {
            self.blocked_reads.push_back(AxFields::unpack(&raw));
        }
        let quiescent = self.frag_tx.pending() == 0 && p.get_u64(self.fifo_occupancy) == 0;
        while quiescent && !self.blocked_reads.is_empty() {
            let ar = self.blocked_reads.pop_front().expect("non-empty");
            for i in 0..=ar.len as u64 {
                let bytes = self.dram.read(ar.addr + i * 64, 64);
                self.pcis_r.push(
                    RFields {
                        data: Bits::from_bytes(&bytes),
                        id: ar.id,
                        resp: 0,
                        last: i == ar.len as u64,
                    }
                    .pack(),
                );
            }
        }
        self.pcis_b.tick(p);
        self.pcis_r.tick(p);
        self.ocl_b.tick(p);
        self.ocl_r.tick(p);
        self.frag_tx.tick(p);
    }
}

/// Backend: dequeues fragments (only once started) and stores them to DRAM.
struct EchoBack {
    frag_rx: ReceiverLatch,
    started: SignalId,
    dram: HostMemory,
    offset: u64,
    stored: StoredCount,
}

impl Component for EchoBack {
    fn name(&self) -> &str {
        "echo.back"
    }

    fn eval(&mut self, p: &mut SignalPool) {
        let started = p.get_bool(self.started);
        self.frag_rx.eval(p, started);
    }

    fn tick(&mut self, p: &mut SignalPool) {
        if let Some(frame) = self.frag_rx.tick(p) {
            let (data, mask) = unpack_frame(&frame);
            for i in 0..FRAGS_PER_FRAME {
                if mask >> i & 1 == 0 {
                    continue;
                }
                let word = data.slice((i as u32) * FRAG_BITS, FRAG_BITS).to_u64() as u32;
                self.dram.write(ECHO_DST + self.offset, &word.to_le_bytes());
                self.offset += 4;
                *self.stored.borrow_mut() += 1;
            }
        }
    }
}

/// Configuration of one echo-server experiment.
#[derive(Clone, Debug)]
pub struct EchoFifoConfig {
    /// Frame FIFO behaviour (the bug or the fix).
    pub fifo_mode: FrameFifoMode,
    /// FIFO capacity in fragments. A capacity that is not a multiple of the
    /// frame size makes frames land unaligned with remaining space.
    pub fifo_capacity: usize,
    /// Cycle at which T2 writes the start register (the delayed-start bug
    /// triggers when this is later than T1's first DMA).
    pub start_delay: u64,
    /// Leading bytes of the transfer masked out by the DMA engine
    /// (0 = aligned). Models the unaligned-access scenario.
    pub unaligned_skip: usize,
    /// Whether the frontend honours write strobes (the bitmask fix).
    pub respect_strobes: bool,
    /// Number of 64-byte frames T1 sends.
    pub frames: u32,
    /// Vidi configuration for the run.
    pub vidi: VidiConfig,
    /// Workload seed.
    pub seed: u64,
}

impl Default for EchoFifoConfig {
    fn default() -> Self {
        EchoFifoConfig {
            fifo_mode: FrameFifoMode::Buggy,
            fifo_capacity: 40,
            start_delay: 0,
            unaligned_skip: 0,
            respect_strobes: false,
            frames: 8,
            vidi: VidiConfig::transparent(),
            seed: 1,
        }
    }
}

/// Result of an echo-server run.
#[derive(Debug)]
pub struct EchoFifoOutcome {
    /// T1 observed consistent data (readback == sent).
    pub consistent: bool,
    /// The bytes T1 read back.
    pub readback: Vec<u8>,
    /// The bytes T1 expected.
    pub expected: Vec<u8>,
    /// Recorded trace (recording modes).
    pub trace: Option<Trace>,
    /// Echoed DRAM contents (for replay-side comparison).
    pub dram_echo: Vec<u8>,
    /// Cycles to completion.
    pub cycles: u64,
}

/// Builds and runs one echo-server experiment.
///
/// # Errors
///
/// Returns [`SimError::Timeout`] if the run does not complete.
pub fn run_echo_fifo(config: EchoFifoConfig) -> Result<EchoFifoOutcome, SimError> {
    let EchoFifoBuilt {
        mut sim,
        shim,
        dram,
        expected,
        cpu,
        stored,
        app_channels: _,
    } = build_echo_fifo(&config);
    let replaying = config.vidi.mode.replays();
    let cycles = if replaying {
        let mut session = RawSession {
            sim: &mut sim,
            shim: &shim,
        };
        let ev = SessionCursor::new(&mut session)
            .run_until(Stop::replay_complete().with_budget(4_000_000))?;
        if ev.reason != StopReason::ReplayComplete {
            return Err(SimError::Timeout {
                cycle: ev.advanced,
                waiting_for: "echo replay".into(),
                diagnostics: sim.diagnostics(),
            });
        }
        ev.advanced
    } else {
        let handles = cpu.clone();
        sim.run_until(
            move |_| handles.iter().all(|h| h.borrow().finished),
            4_000_000,
            "echo CPU threads",
        )?
    };
    SessionCursor::new(&mut RawSession {
        sim: &mut sim,
        shim: &shim,
    })
    .flush()?;

    let total_bytes = expected.len();
    let readback = if replaying {
        Vec::new()
    } else {
        cpu[0]
            .borrow()
            .dma_reads
            .first()
            .cloned()
            .unwrap_or_default()
    };
    let consistent = !replaying && readback == expected;
    let stored_frags = *stored.borrow();
    let dram_echo = dram.read(ECHO_DST, (stored_frags as usize * 4).max(total_bytes));
    Ok(EchoFifoOutcome {
        consistent,
        readback,
        expected,
        trace: shim.recorded_trace(),
        dram_echo,
        cycles,
    })
}

/// The assembled echo-server simulation, before any cycle has run.
pub struct EchoFifoBuilt {
    /// The simulator holding every component.
    pub sim: Simulator,
    /// The installed Vidi shim.
    pub shim: VidiShim,
    /// The server-side DRAM frames are echoed into.
    pub dram: HostMemory,
    /// The bytes T1 expects to read back.
    pub expected: Vec<u8>,
    /// CPU thread result handles (empty in replay modes).
    pub cpu: Vec<vidi_host::CpuHandle>,
    /// Count of fragments stored by the backend so far.
    pub stored: StoredCount,
    /// Every VALID/READY channel crossing the CPU↔FPGA boundary.
    pub app_channels: Vec<(Channel, Direction)>,
}

impl DriveSession for EchoFifoBuilt {
    fn sim(&mut self) -> &mut Simulator {
        &mut self.sim
    }
    fn shim(&self) -> &VidiShim {
        &self.shim
    }
}

/// Assembles the echo-server simulation — the build phase of
/// [`run_echo_fifo`], also used by static lint and the
/// scheduler-equivalence suite to inspect the design.
pub fn build_echo_fifo(config: &EchoFifoConfig) -> EchoFifoBuilt {
    let mut sim = Simulator::new();
    let replaying = config.vidi.mode.replays();

    let ifaces: Vec<AxiIface> = F1Interface::ALL
        .iter()
        .map(|f| f.instantiate(sim.pool_mut()))
        .collect();
    let app_channels: Vec<(Channel, Direction)> = ifaces
        .iter()
        .flat_map(vidi_chan::AxiIface::channels_with_direction)
        .collect();
    let shim = VidiShim::install(&mut sim, &app_channels, config.vidi.clone()).expect("shim");

    let find = |n: &str| {
        ifaces
            .iter()
            .find(|i| i.name() == n)
            .expect("iface")
            .clone()
    };
    let ocl = find("ocl");
    let pcis = find("pcis");
    let pcim = find("pcim");

    let dram = HostMemory::new();
    let started = sim.pool_mut().add("echo.started", 1);
    let fifo_occupancy = sim.pool_mut().add("echo.fifo_occupancy", 16);
    let frag_a = Channel::new(sim.pool_mut(), "echo.frame_in", FRAME_CHANNEL_BITS);
    let frag_b = Channel::new(sim.pool_mut(), "echo.frame_out", FRAME_CHANNEL_BITS);
    let stored: StoredCount = Rc::new(RefCell::new(0));

    sim.add_component(EchoFront {
        pcis_aw: ReceiverLatch::new(pcis.channel(AxiChannel::Aw).clone()),
        pcis_w: ReceiverLatch::new(pcis.channel(AxiChannel::W).clone()),
        pcis_b: SenderQueue::new(pcis.channel(AxiChannel::B).clone()),
        pcis_ar: ReceiverLatch::new(pcis.channel(AxiChannel::Ar).clone()),
        pcis_r: SenderQueue::new(pcis.channel(AxiChannel::R).clone()),
        ocl_aw: ReceiverLatch::new(ocl.channel(AxiChannel::Aw).clone()),
        ocl_w: ReceiverLatch::new(ocl.channel(AxiChannel::W).clone()),
        ocl_b: SenderQueue::new(ocl.channel(AxiChannel::B).clone()),
        ocl_ar: ReceiverLatch::new(ocl.channel(AxiChannel::Ar).clone()),
        ocl_r: SenderQueue::new(ocl.channel(AxiChannel::R).clone()),
        started,
        started_state: false,
        ocl_aw_seen: false,
        ocl_w_seen: false,
        respect_strobes: config.respect_strobes,
        frag_tx: SenderQueue::new(frag_a.clone()),
        bursts: VecDeque::new(),
        orphans: VecDeque::new(),
        dram: dram.clone(),
        fifo_occupancy,
        blocked_reads: VecDeque::new(),
    });
    let mut fifo = WideFrameFifo::new(
        "echo.fifo",
        frag_a,
        frag_b.clone(),
        config.fifo_capacity,
        config.fifo_mode,
    );
    fifo.set_occupancy_signal(fifo_occupancy);
    sim.add_component(fifo);
    sim.add_component(EchoBack {
        frag_rx: ReceiverLatch::new(frag_b),
        started,
        dram: dram.clone(),
        offset: 0,
        stored: Rc::clone(&stored),
    });
    // pcim is unused by the echo server; leave its app side idle.
    let _ = pcim;

    // Workload: what T1 sends, and what it should read back. For an
    // unaligned transfer the DMA engine drives undefined data (0xEE here)
    // in the masked leading byte lanes; T1's ground truth is the valid
    // bytes only. The buggy frontend (ignoring strobes) echoes the
    // undefined lanes too, which is exactly the inconsistency T1 observes.
    assert_eq!(config.unaligned_skip % 4, 0, "skip is dword-granular");
    assert!(
        config.unaligned_skip < 64,
        "skip stays within the first beat"
    );
    let payload = crate::util::prng_bytes(config.seed, config.frames as usize * 64);
    let mut wire_payload = payload.clone();
    for b in wire_payload.iter_mut().take(config.unaligned_skip) {
        *b = 0xee;
    }
    let expected: Vec<u8> = payload[config.unaligned_skip..].to_vec();

    let mut cpu_handles = Vec::new();
    if !replaying {
        let env_iface = |name: &str, src: &AxiIface| {
            let chans: Vec<Channel> = AxiChannel::ALL
                .iter()
                .map(|&c| {
                    shim.env_channel(src.channel(c).name())
                        .expect("env")
                        .clone()
                })
                .collect();
            AxiIface::from_channels(format!("env.{name}"), src.kind(), src.role(), chans)
        };
        let ocl_env = env_iface("ocl", &ocl);
        let pcis_env = env_iface("pcis", &pcis);
        let pcim_env = env_iface("pcim", &pcim);

        // Idle host-memory subordinate behind pcim (keeps wiring uniform).
        let pcim_chans: [Channel; 5] = AxiChannel::ALL.map(|c| pcim_env.channel(c).clone());
        sim.add_component(HostMemSubordinate::new(
            "host.pcim",
            pcim_chans,
            HostMemory::new(),
            config.seed,
            (3, 10),
        ));

        // T1: DMA frames in, wait, read the echo back.
        let dma_op = if config.unaligned_skip > 0 {
            let mask = !((1u64 << config.unaligned_skip) - 1);
            HostOp::DmaWriteMasked {
                iface: "pcis",
                addr: 0,
                bytes: wire_payload.clone(),
                first_strb: mask,
            }
        } else {
            HostOp::DmaWrite {
                iface: "pcis",
                addr: 0,
                bytes: wire_payload.clone(),
            }
        };
        let t1_ops = vec![
            dma_op,
            HostOp::Delay(3000 + config.start_delay),
            HostOp::DmaRead {
                iface: "pcis",
                addr: ECHO_DST,
                len: expected.len(),
            },
        ];
        // T1 drives only the DMA interface; T2 owns the control bus. (Two
        // masters on one channel would contend for the same wires.)
        let (mut t1, h1) = CpuThread::new("t1", t1_ops, config.seed ^ 1, 0, 4);
        t1.attach_dma("pcis", &pcis_env);
        sim.add_component(t1);
        cpu_handles.push(h1);

        // T2: (possibly delayed) start write.
        let t2_ops = vec![HostOp::LiteWrite {
            iface: "ocl",
            addr: 0,
            data: 1,
        }];
        let (mut t2, h2) = CpuThread::new("t2", t2_ops, config.seed ^ 2, config.start_delay, 0);
        t2.attach_lite("ocl", &ocl_env);
        sim.add_component(t2);
        cpu_handles.push(h2);
    }

    EchoFifoBuilt {
        sim,
        shim,
        dram,
        expected,
        cpu: cpu_handles,
        stored,
        app_channels,
    }
}
