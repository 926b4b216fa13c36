//! The testing case study (§5.3): a ping-pong echo server whose `pcim`
//! write-back path runs through the buggy `axi_atop_filter`.
//!
//! The FPGA component receives PCIe DMA writes ("pings") on `pcis`, stores
//! the data to on-FPGA DRAM, and issues PCIe DMA writes ("pongs") through
//! the [`AtopFilter`] that copy the data back into CPU DRAM via `pcim`.
//!
//! In normal operation — recording included — the CPU-side DMA controller
//! completes the write address handshake promptly and the bug never
//! surfaces. The paper's workflow *mutates* the recorded trace so the first
//! write data end event precedes the write address end event (legal AXI
//! behaviour) and replays it: the buggy filter deadlocks, the fixed one
//! does not. See `examples/testing_case_study.rs`.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use vidi_chan::{
    AtopFilter, AtopFilterMode, AxFields, AxiChannel, AxiIface, BFields, Channel, Direction,
    F1Interface, ReceiverLatch, SenderQueue, WFields, W_LAST_BIT,
};
use vidi_core::{DriveSession, RawSession, SessionCursor, Stop, StopReason, VidiConfig, VidiShim};
use vidi_host::{CpuThread, HostMemSubordinate, HostMemory, HostOp};
use vidi_hwsim::{
    Component, SignalPool, SimError, Simulator, StateError, StateReader, StateWriter,
};
use vidi_trace::Trace;

/// CPU DRAM address where pongs land.
pub const PONG_ADDR: u64 = 0x20_0000;

/// The ping-pong server core (everything except the interposed filter).
struct PingPong {
    // pcis subordinate side.
    pcis_aw: ReceiverLatch,
    pcis_w: ReceiverLatch,
    pcis_b: SenderQueue,
    // Upstream side of the atop filter (the server's DMA engine output).
    up_aw: SenderQueue,
    up_w: SenderQueue,
    up_b: ReceiverLatch,
    dram: HostMemory,
    bursts: VecDeque<(AxFields, Vec<WFields>)>,
    orphans: VecDeque<WFields>,
    pongs_acked: Rc<RefCell<u64>>,
    next_id: u16,
}

impl Component for PingPong {
    fn name(&self) -> &str {
        "pingpong"
    }

    fn eval(&mut self, p: &mut SignalPool) {
        self.pcis_aw.eval(p, true);
        self.pcis_w.eval(p, true);
        self.pcis_b.eval(p, true);
        self.up_aw.eval(p, true);
        self.up_w.eval(p, true);
        self.up_b.eval(p, true);
    }

    fn tick(&mut self, p: &mut SignalPool) {
        if let Some(raw) = self.pcis_aw.tick(p) {
            self.bursts.push_back((AxFields::unpack(&raw), Vec::new()));
        }
        if let Some(raw) = self.pcis_w.tick(p) {
            self.orphans.push_back(WFields::unpack(&raw));
        }
        while !self.orphans.is_empty() {
            let Some(pos) = self
                .bursts
                .iter()
                .position(|(aw, got)| got.len() < aw.len as usize + 1)
            else {
                break;
            };
            let beat = self.orphans.pop_front().expect("non-empty");
            self.bursts[pos].1.push(beat);
            let complete = {
                let (aw, got) = &self.bursts[pos];
                got.len() == aw.len as usize + 1
            };
            if complete {
                let (aw, beats) = self.bursts.remove(pos).expect("present");
                // Store the ping to DRAM and issue the pong through the
                // (possibly buggy) filter.
                let id = self.next_id;
                self.next_id = self.next_id.wrapping_add(1);
                self.up_aw.push(
                    AxFields {
                        addr: PONG_ADDR + aw.addr,
                        id,
                        len: aw.len,
                        size: 6,
                    }
                    .pack(),
                );
                for (i, beat) in beats.iter().enumerate() {
                    self.dram
                        .write(aw.addr + (i as u64) * 64, &beat.data.to_bytes());
                    self.up_w.push(
                        WFields {
                            data: beat.data.clone(),
                            strb: u64::MAX,
                            id,
                            last: i == beats.len() - 1,
                        }
                        .pack(),
                    );
                }
                self.pcis_b.push(BFields { id: aw.id, resp: 0 }.pack());
            }
        }
        if self.up_b.tick(p).is_some() {
            *self.pongs_acked.borrow_mut() += 1;
        }
        self.pcis_b.tick(p);
        self.up_aw.tick(p);
        self.up_w.tick(p);
    }

    fn save_state(&self, w: &mut StateWriter) {
        self.pcis_aw.save_state(w);
        self.pcis_w.save_state(w);
        self.pcis_b.save_state(w);
        self.up_aw.save_state(w);
        self.up_w.save_state(w);
        self.up_b.save_state(w);
        // This component holds the only handle to the server's DRAM.
        self.dram.save_contents(w);
        w.seq(self.bursts.iter(), |w, (aw, beats)| {
            w.bits(&aw.pack());
            w.seq(beats.iter(), |w, b| w.bits(&b.pack()));
        });
        w.seq(self.orphans.iter(), |w, b| w.bits(&b.pack()));
        w.u64(*self.pongs_acked.borrow());
        w.u16(self.next_id);
    }

    fn load_state(&mut self, r: &mut StateReader) -> Result<(), StateError> {
        self.pcis_aw.load_state(r)?;
        self.pcis_w.load_state(r)?;
        self.pcis_b.load_state(r)?;
        self.up_aw.load_state(r)?;
        self.up_w.load_state(r)?;
        self.up_b.load_state(r)?;
        self.dram.load_contents(r)?;
        self.bursts = r
            .seq(|r| {
                let aw = AxFields::unpack(&r.bits_expect(91, "AW")?);
                let beats = r.seq(|r| Ok(WFields::unpack(&r.bits_expect(593, "W")?)))?;
                Ok((aw, beats))
            })?
            .into();
        self.orphans = r
            .seq(|r| Ok(WFields::unpack(&r.bits_expect(593, "W")?)))?
            .into();
        *self.pongs_acked.borrow_mut() = r.u64()?;
        self.next_id = r.u16()?;
        Ok(())
    }
}

/// Result of a ping-pong run.
#[derive(Debug)]
pub struct EchoAtopOutcome {
    /// The run completed (no deadlock).
    pub completed: bool,
    /// Every pong landed correctly in CPU DRAM (recording modes only).
    pub host_ok: bool,
    /// Recorded trace, in recording modes.
    pub trace: Option<Trace>,
    /// Cycles to completion (or to the deadlock verdict).
    pub cycles: u64,
    /// On a deadlock verdict, the watchdog's per-component diagnostics:
    /// which channels are blocked (VALID/READY state, head-of-line
    /// element) and where the replay's vector clocks stalled. Empty for
    /// completed runs.
    pub diagnostics: Vec<String>,
}

/// The assembled ping-pong simulation, before any cycle has run.
pub struct EchoAtopBuilt {
    /// The simulator holding every component.
    pub sim: Simulator,
    /// The installed Vidi shim.
    pub shim: VidiShim,
    /// Every VALID/READY channel crossing the CPU↔FPGA boundary.
    pub app_channels: Vec<(Channel, Direction)>,
    /// CPU thread result handles (empty in replay modes).
    pub cpu: Vec<vidi_host::CpuHandle>,
    /// Count of pongs acknowledged by the server so far.
    pub pongs_acked: Rc<RefCell<u64>>,
    /// CPU-side DRAM (pongs land here).
    pub host_mem: HostMemory,
    /// The ping payload the workload sends.
    pub payload: Vec<u8>,
}

impl DriveSession for EchoAtopBuilt {
    fn sim(&mut self) -> &mut Simulator {
        &mut self.sim
    }
    fn shim(&self) -> &VidiShim {
        &self.shim
    }
}

/// Assembles the ping-pong server (app + filter + shim + host side)
/// without running it — the build phase of [`run_echo_atop`], also used by
/// static lint and the scheduler-equivalence suite to inspect the design.
pub fn build_echo_atop(
    filter_mode: AtopFilterMode,
    vidi: VidiConfig,
    pings: u32,
    seed: u64,
) -> EchoAtopBuilt {
    let mut sim = Simulator::new();
    let replaying = vidi.mode.replays();

    let ifaces: Vec<AxiIface> = F1Interface::ALL
        .iter()
        .map(|f| f.instantiate(sim.pool_mut()))
        .collect();
    let app_channels: Vec<(Channel, Direction)> = ifaces
        .iter()
        .flat_map(vidi_chan::AxiIface::channels_with_direction)
        .collect();
    let shim = VidiShim::install(&mut sim, &app_channels, vidi).expect("shim");
    let find = |n: &str| {
        ifaces
            .iter()
            .find(|i| i.name() == n)
            .expect("iface")
            .clone()
    };
    let pcis = find("pcis");
    let pcim = find("pcim");

    // Internal channels between the server's DMA engine and the filter.
    let p = sim.pool_mut();
    let up_aw = Channel::new(p, "atop.up.aw", 91);
    let up_w = Channel::new(p, "atop.up.w", 593);
    let up_b = Channel::new(p, "atop.up.b", 18);

    let dram = HostMemory::new();
    let pongs_acked = Rc::new(RefCell::new(0u64));
    sim.add_component(PingPong {
        pcis_aw: ReceiverLatch::new(pcis.channel(AxiChannel::Aw).clone()),
        pcis_w: ReceiverLatch::new(pcis.channel(AxiChannel::W).clone()),
        pcis_b: SenderQueue::new(pcis.channel(AxiChannel::B).clone()),
        up_aw: SenderQueue::new(up_aw.clone()),
        up_w: SenderQueue::new(up_w.clone()),
        up_b: ReceiverLatch::new(up_b.clone()),
        dram,
        bursts: VecDeque::new(),
        orphans: VecDeque::new(),
        pongs_acked: Rc::clone(&pongs_acked),
        next_id: 0,
    });
    // The filter sits between the server and the recorded pcim boundary.
    sim.add_component(AtopFilter::new(
        "atop",
        filter_mode,
        up_aw,
        up_w,
        up_b,
        pcim.channel(AxiChannel::Aw).clone(),
        pcim.channel(AxiChannel::W).clone(),
        pcim.channel(AxiChannel::B).clone(),
        W_LAST_BIT,
    ));

    let payload = crate::util::prng_bytes(seed, pings as usize * 64);
    let host_mem = HostMemory::new();
    let mut cpu_handles = Vec::new();
    if !replaying {
        let env_iface = |src: &AxiIface| {
            let chans: Vec<Channel> = AxiChannel::ALL
                .iter()
                .map(|&c| {
                    shim.env_channel(src.channel(c).name())
                        .expect("env")
                        .clone()
                })
                .collect();
            AxiIface::from_channels(format!("env.{}", src.name()), src.kind(), src.role(), chans)
        };
        let pcis_env = env_iface(&pcis);
        let pcim_env = env_iface(&pcim);
        let pcim_chans: [Channel; 5] = AxiChannel::ALL.map(|c| pcim_env.channel(c).clone());
        sim.add_component(HostMemSubordinate::new(
            "host.pcim",
            pcim_chans,
            host_mem.clone(),
            seed ^ 0xa7,
            (2, 12),
        ));
        let ops = vec![HostOp::DmaWrite {
            iface: "pcis",
            addr: 0,
            bytes: payload.clone(),
        }];
        let (mut t1, h1) = CpuThread::new("t1", ops, seed, 0, 4);
        t1.attach_dma("pcis", &pcis_env);
        sim.add_component(t1);
        cpu_handles.push(h1);
    }

    EchoAtopBuilt {
        sim,
        shim,
        app_channels,
        cpu: cpu_handles,
        pongs_acked,
        host_mem,
        payload,
    }
}

/// Builds and runs the ping-pong server with the given filter mode.
///
/// A [`SimError::Timeout`] from the inner simulation is converted into
/// `completed: false` — a deadlock verdict, which is the §5.3 signal.
///
/// # Errors
///
/// Propagates only non-timeout simulator errors.
pub fn run_echo_atop(
    filter_mode: AtopFilterMode,
    vidi: VidiConfig,
    pings: u32,
    seed: u64,
) -> Result<EchoAtopOutcome, SimError> {
    let replaying = vidi.mode.replays();
    let EchoAtopBuilt {
        mut sim,
        shim,
        app_channels: _,
        cpu: cpu_handles,
        pongs_acked,
        host_mem,
        payload,
    } = build_echo_atop(filter_mode, vidi, pings, seed);

    // Drive to completion: all pongs acknowledged (record) or replay done.
    let expected_pongs = (pings as u64).div_ceil(16);
    // Budget scales with the workload so a large-but-healthy replay is
    // never misreported as a deadlock.
    let budget = 400_000u64.max(pings as u64 * 2_000);
    let result = if replaying {
        let mut session = RawSession {
            sim: &mut sim,
            shim: &shim,
        };
        let ev = SessionCursor::new(&mut session)
            .run_until(Stop::replay_complete().with_budget(budget).check_every(128))?;
        match ev.reason {
            StopReason::ReplayComplete => Ok(ev.advanced),
            _ => Err(SimError::Timeout {
                cycle: ev.advanced,
                waiting_for: "ping-pong replay".into(),
                diagnostics: sim.diagnostics(),
            }),
        }
    } else {
        let acked = Rc::clone(&pongs_acked);
        let cpus = cpu_handles.clone();
        sim.run_until(
            move |_| *acked.borrow() >= expected_pongs && cpus.iter().all(|h| h.borrow().finished),
            budget,
            "all pongs acknowledged",
        )
    };

    match result {
        Ok(cycles) => {
            SessionCursor::new(&mut RawSession {
                sim: &mut sim,
                shim: &shim,
            })
            .flush()?;
            let host_ok = if replaying {
                true
            } else {
                host_mem.read(PONG_ADDR, payload.len()) == payload
            };
            Ok(EchoAtopOutcome {
                completed: true,
                host_ok,
                trace: shim.recorded_trace(),
                cycles,
                diagnostics: Vec::new(),
            })
        }
        Err(SimError::Timeout {
            cycle, diagnostics, ..
        }) => Ok(EchoAtopOutcome {
            completed: false,
            host_ok: false,
            trace: shim.recorded_trace(),
            cycles: cycle,
            diagnostics,
        }),
        Err(e) => Err(e),
    }
}
