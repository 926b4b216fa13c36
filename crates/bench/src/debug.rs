//! `vidi debug` — the time-travel replay debugger behind
//! `trace_tool debug`.
//!
//! A debugging session wraps one recorded trace plus the deterministic
//! session construction that produced it (a catalog application or the
//! §5.3 echo/ATOP case study). On startup it replays the trace once under
//! a checkpoint policy ([`vidi_snap::checkpointed_replay`]) to build the
//! seek index; every subsequent command is answered from that index plus
//! targeted re-execution:
//!
//! * `step [n]` — run forward `n` cycles ([`SessionCursor::step`]).
//! * `rstep [n]` — *reverse*-step: restore the nearest checkpoint at or
//!   before `cycle - n` into the live session and roll forward the
//!   remainder ([`vidi_snap::replay_from`]), reporting the restore point
//!   and roll-forward cost.
//! * `seek <cycle>` — jump anywhere in the execution, same mechanism.
//! * `watch <signal> <cond>` — arm a cycle-accurate [`Watchpoint`] and run
//!   until it fires, reporting the hit cycle, the value, and which
//!   components read/write the signal (from a one-time
//!   [`vidi_hwsim::Simulator::access_scan`]).
//! * `txns <chan> [from [to]]` — list the reference trace's transactions
//!   on a channel, with packet positions and recorded contents.
//! * `bisect` — run the segmented verifier over the checkpoint index and
//!   name the **causal transaction**: the divergent transaction for a
//!   diverged replay (§3.6), or the earliest recorded-but-never-committed
//!   end event for a deadlocked one (§5.3).
//!
//! Everything is derived from the trace and the deterministic rebuild —
//! no state from the original recording run is consulted.

use std::fmt::Write as _;

use vidi_apps::{build_app, build_echo_atop, AppId, Scale};
use vidi_chan::AtopFilterMode;
use vidi_core::{SessionCursor, Stop, StopReason, VidiConfig, WatchCond, Watchpoint};
use vidi_hwsim::SignalId;
use vidi_snap::{
    checkpointed_replay, replay_from, CheckpointLog, CheckpointPolicy, ParallelVerifier, SnapError,
    SnapSession, VerifyOptions, VerifyVerdict,
};
use vidi_trace::{Divergence, Trace};

/// How the debugger rebuilds the session a trace was recorded from. The
/// construction must be deterministic and must match the recording run
/// (same app, same seed) — exactly the contract `replay_from` has.
#[derive(Clone, Copy, Debug)]
pub enum DebugTarget {
    /// A catalog application ([`AppId`]) under the generic harness.
    Catalog {
        /// The application.
        app: AppId,
        /// Workload scale.
        scale: Scale,
        /// Recording seed.
        seed: u64,
    },
    /// The §5.3 echo/ATOP case study.
    EchoAtop {
        /// Buggy or fixed `axi_atop_filter`.
        filter: AtopFilterMode,
        /// Ping count of the recorded workload.
        pings: u32,
        /// Recording seed.
        seed: u64,
    },
}

impl DebugTarget {
    /// Builds a fresh session replaying `trace` while re-recording (the
    /// R3 configuration — the validation trace drives divergence
    /// attribution).
    fn build(&self, trace: &Trace) -> Box<dyn SnapSession> {
        let cfg = VidiConfig::replay_record(trace.clone());
        match *self {
            DebugTarget::Catalog { app, scale, seed } => {
                Box::new(build_app(app.setup(scale, seed), cfg))
            }
            DebugTarget::EchoAtop {
                filter,
                pings,
                seed,
            } => Box::new(build_echo_atop(filter, cfg, pings, seed)),
        }
    }
}

/// Tunables for a debugging session.
#[derive(Clone, Copy, Debug)]
pub struct DebugOptions {
    /// Checkpoint cadence for the seek index.
    pub every: u64,
    /// Cycle budget for the indexing replay (a deadlocked trace stops
    /// making progress; this bounds how long the debugger waits).
    pub max_cycles: u64,
    /// Extra cycles `bisect`'s final segment may wait for completion
    /// before declaring a deadlock.
    pub final_budget: u64,
}

impl Default for DebugOptions {
    fn default() -> Self {
        DebugOptions {
            every: 256,
            max_cycles: 200_000,
            final_budget: 50_000,
        }
    }
}

/// Per-component signal access sets, cached from one `access_scan` at
/// startup so `watch` can name readers and writers.
struct AccessMap {
    entries: Vec<(String, Vec<SignalId>, Vec<SignalId>)>,
}

impl AccessMap {
    fn readers(&self, id: SignalId) -> Vec<&str> {
        self.entries
            .iter()
            .filter(|(_, reads, _)| reads.contains(&id))
            .map(|(name, _, _)| name.as_str())
            .collect()
    }
    fn writers(&self, id: SignalId) -> Vec<&str> {
        self.entries
            .iter()
            .filter(|(_, _, writes)| writes.contains(&id))
            .map(|(name, _, _)| name.as_str())
            .collect()
    }
}

/// One interactive debugging session over a recorded trace.
pub struct Debugger {
    target: DebugTarget,
    reference: Trace,
    log: CheckpointLog,
    session: Box<dyn SnapSession>,
    access: AccessMap,
    options: DebugOptions,
}

impl Debugger {
    /// Opens a session: replays `reference` once under the checkpoint
    /// policy to build the seek index, scans signal access sets on a
    /// scratch session, and positions the live session at cycle 0.
    ///
    /// # Errors
    ///
    /// Propagates indexing-replay failures as a rendered message.
    pub fn new(
        reference: Trace,
        target: DebugTarget,
        options: DebugOptions,
    ) -> Result<Self, String> {
        let mut probe = target.build(&reference);
        let log = checkpointed_replay(
            &mut probe,
            CheckpointPolicy::every(options.every),
            options.max_cycles,
        )
        .map_err(|e| format!("indexing replay failed: {e}"))?;
        // The scan perturbs scheduler state, so it runs on a throwaway
        // session, never the live one.
        let mut scratch = target.build(&reference);
        let access = AccessMap {
            entries: scratch
                .sim()
                .access_scan()
                .iter()
                .map(|a| (a.component.clone(), a.read_set(), a.write_set()))
                .collect(),
        };
        let session = target.build(&reference);
        Ok(Debugger {
            target,
            reference,
            log,
            session,
            access,
            options,
        })
    }

    /// The live session's current cycle.
    pub fn cycle(&mut self) -> u64 {
        self.session.sim().cycle()
    }

    /// The seek index built at startup.
    pub fn log(&self) -> &CheckpointLog {
        &self.log
    }

    /// Executes one command line and returns its rendered output.
    ///
    /// # Errors
    ///
    /// Returns a rendered message for unknown commands, bad operands, and
    /// simulation failures; the session stays usable afterwards.
    pub fn exec(&mut self, line: &str) -> Result<String, String> {
        let words: Vec<&str> = line.split_whitespace().collect();
        match words.as_slice() {
            [] => Ok(String::new()),
            ["info"] => Ok(self.info()),
            ["where"] => Ok(self.where_am_i()),
            ["step"] => self.step(1),
            ["step", n] => self.step(parse_num(n)?),
            ["rstep"] => self.rstep(1),
            ["rstep", n] => self.rstep(parse_num(n)?),
            ["seek", c] => self.seek(parse_num(c)?),
            ["run"] => self.run(),
            ["sigs", frag] => Ok(self.sigs(frag)),
            ["watch", signal, cond] => self.watch(signal, cond),
            ["txns", chan] => self.txns(chan, 0, 10),
            ["txns", chan, from] => {
                let from = parse_num(from)? as usize;
                self.txns(chan, from, from + 10)
            }
            ["txns", chan, from, to] => {
                self.txns(chan, parse_num(from)? as usize, parse_num(to)? as usize)
            }
            ["bisect"] => self.bisect(),
            _ => Err(format!(
                "unknown command {line:?} (try: info, where, step [n], rstep [n], \
                 seek <cycle>, run, sigs <fragment>, watch <signal> <cond>, \
                 txns <chan> [from [to]], bisect)"
            )),
        }
    }

    fn info(&mut self) -> String {
        let mut out = String::new();
        let layout = self.reference.layout().clone();
        let _ = writeln!(
            out,
            "trace: {} channels, {} packets, {} transactions",
            layout.len(),
            self.reference.packets().len(),
            self.reference.transaction_count()
        );
        let _ = writeln!(
            out,
            "index: {} checkpoints every {} cycles, final cycle {}, replay {}",
            self.log.checkpoints.len(),
            self.options.every,
            self.log.final_cycle,
            if self.log.completed {
                "completed"
            } else {
                "DID NOT COMPLETE (deadlock suspected)"
            }
        );
        for (i, ch) in layout.channels().iter().enumerate() {
            let _ = writeln!(
                out,
                "  [{i}] {} ({}, {} bits): {} transactions",
                ch.name,
                ch.direction,
                ch.width,
                self.reference.channel_transaction_count(i)
            );
        }
        out
    }

    fn where_am_i(&mut self) -> String {
        let cycle = self.session.sim().cycle();
        let digest = self.session.sim().state_digest();
        let progress = self.session.shim().replay_progress();
        format!("@cycle {cycle}  digest {digest:016x}  dispatched {progress} packets\n")
    }

    fn step(&mut self, n: u64) -> Result<String, String> {
        let cycle = SessionCursor::new(&mut self.session)
            .step(n)
            .map_err(|e| e.to_string())?;
        Ok(format!("stepped {n} -> @cycle {cycle}\n"))
    }

    fn rstep(&mut self, n: u64) -> Result<String, String> {
        let target = self.session.sim().cycle().saturating_sub(n);
        let outcome = self.do_seek(target)?;
        Ok(format!(
            "reverse-stepped {n} -> @cycle {} (restored checkpoint @{}, rolled forward {})\n",
            outcome.target, outcome.restored_from, outcome.rolled_forward
        ))
    }

    fn seek(&mut self, target: u64) -> Result<String, String> {
        let outcome = self.do_seek(target)?;
        Ok(format!(
            "seek -> @cycle {} (restored checkpoint @{}, rolled forward {})\n",
            outcome.target, outcome.restored_from, outcome.rolled_forward
        ))
    }

    /// The reverse-travel core: restore the nearest checkpoint at or before
    /// `target` into the live session and roll forward the rest. A restore
    /// replaces all dynamic state, so the live session serves every seek;
    /// only a failed restore, which may leave it half restored, rebuilds it.
    fn do_seek(&mut self, target: u64) -> Result<vidi_snap::SeekOutcome, String> {
        replay_from(&mut self.session, &self.log, target).map_err(|e| {
            if matches!(e, SnapError::State(_)) {
                self.session = self.target.build(&self.reference);
            }
            e.to_string()
        })
    }

    fn run(&mut self) -> Result<String, String> {
        let budget = self.options.max_cycles;
        let ev = SessionCursor::new(&mut self.session)
            .run_until(Stop::replay_complete().or_at_cycle(budget))
            .map_err(|e| e.to_string())?;
        Ok(match ev.reason {
            StopReason::ReplayComplete => format!("replay complete @cycle {}\n", ev.cycle),
            _ => {
                let mut out = format!("replay NOT complete by @cycle {}\n", ev.cycle);
                for line in self.session.sim().diagnostics() {
                    let _ = writeln!(out, "  {line}");
                }
                out
            }
        })
    }

    fn sigs(&mut self, fragment: &str) -> String {
        let pool = self.session.sim().pool();
        let matches = pool.lookup_fuzzy(fragment);
        let mut out = String::new();
        let _ = writeln!(out, "{} signals matching {fragment:?}:", matches.len());
        for id in matches.iter().take(40) {
            let _ = writeln!(out, "  {} ({} bits)", pool.name(*id), pool.width(*id));
        }
        if matches.len() > 40 {
            let _ = writeln!(out, "  ... and {} more", matches.len() - 40);
        }
        out
    }

    fn resolve_signal(&mut self, name: &str) -> Result<SignalId, String> {
        let pool = self.session.sim().pool();
        if let Some(id) = pool.lookup(name) {
            return Ok(id);
        }
        let matches = pool.lookup_fuzzy(name);
        match matches.as_slice() {
            [] => Err(format!("no signal matches {name:?} (try `sigs {name}`)")),
            [one] => Ok(*one),
            many => Err(format!(
                "{name:?} is ambiguous: {}",
                many.iter()
                    .take(8)
                    .map(|id| pool.name(*id))
                    .collect::<Vec<_>>()
                    .join(", ")
            )),
        }
    }

    fn watch(&mut self, signal: &str, cond: &str) -> Result<String, String> {
        let id = self.resolve_signal(signal)?;
        let cond = parse_cond(cond)?;
        let full_name = self.session.sim().pool().name(id).to_string();
        let budget = self.options.max_cycles;
        let ev = SessionCursor::new(&mut self.session)
            .run_until(
                Stop::replay_complete()
                    .or_at_cycle(budget)
                    .or_watch(Watchpoint::new(id, cond)),
            )
            .map_err(|e| e.to_string())?;
        let mut out = String::new();
        match ev.reason {
            StopReason::WatchpointHit(_) => {
                let pool = self.session.sim().pool();
                let value = if pool.width(id) <= 64 {
                    pool.get_u64(id)
                } else {
                    pool.limbs(id)[0]
                };
                let _ = writeln!(
                    out,
                    "watch hit: {full_name} {cond:?} @cycle {} (value {value:#x})",
                    ev.cycle
                );
                let writers = self.access.writers(id);
                let readers = self.access.readers(id);
                let _ = writeln!(
                    out,
                    "  written by: {}; read by: {}",
                    if writers.is_empty() {
                        "-".to_string()
                    } else {
                        writers.join(", ")
                    },
                    if readers.is_empty() {
                        "-".to_string()
                    } else {
                        readers.join(", ")
                    }
                );
            }
            StopReason::ReplayComplete => {
                let _ = writeln!(
                    out,
                    "no hit: replay completed @cycle {} before {full_name} {cond:?}",
                    ev.cycle
                );
            }
            _ => {
                let _ = writeln!(out, "no hit by @cycle {} ({full_name} {cond:?})", ev.cycle);
            }
        }
        Ok(out)
    }

    fn channel_index(&self, arg: &str) -> Result<usize, String> {
        if let Some(i) = self.reference.layout().index_of(arg) {
            return Ok(i);
        }
        arg.parse::<usize>()
            .ok()
            .filter(|&i| i < self.reference.layout().len())
            .ok_or_else(|| format!("unknown channel {arg:?}"))
    }

    fn txns(&mut self, chan: &str, from: usize, to: usize) -> Result<String, String> {
        let ci = self.channel_index(chan)?;
        let layout = self.reference.layout();
        let ch = &layout.channels()[ci];
        let is_input = ch.direction == vidi_chan::Direction::Input;
        let contents = if is_input {
            self.reference.input_contents(ci)
        } else if self.reference.records_output_content() {
            self.reference.output_contents(ci)
        } else {
            Vec::new()
        };
        let mut out = String::new();
        let total = self.reference.channel_transaction_count(ci);
        let _ = writeln!(
            out,
            "{} ({}, {} bits): {} transactions",
            ch.name, ch.direction, ch.width, total
        );
        let mut ends = 0usize;
        for (pi, p) in self.reference.packets().iter().enumerate() {
            if !p.ends.get(ci).copied().unwrap_or(false) {
                continue;
            }
            if ends >= from && ends < to {
                let content = contents
                    .get(ends)
                    .map_or(String::new(), |b| format!("  content {b:x}"));
                let _ = writeln!(out, "  end #{ends} @packet {pi}{content}");
            }
            ends += 1;
            if ends >= to {
                break;
            }
        }
        if ends == 0 {
            let _ = writeln!(out, "  (no end events in range)");
        }
        Ok(out)
    }

    /// Localizes the trace's failure to its causal transaction, from the
    /// traces alone: segmented verification attributes a divergence to a
    /// committed transaction and its commit cycle (§3.6); for a deadlock,
    /// the earliest recorded end event the replay never committed is the
    /// transaction whose happens-before constraint wedged the design
    /// (§5.3).
    fn bisect(&mut self) -> Result<String, String> {
        let target = self.target;
        let reference = self.reference.clone();
        let factory = || target.build(&reference);
        let options = VerifyOptions {
            final_budget: self.options.final_budget,
        };
        let verifier =
            ParallelVerifier::new(factory, &self.log, &self.reference).with_options(options);
        let report = verifier.verify_serial().map_err(|e| e.to_string())?;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "bisect: {} segments, {} transactions checked",
            report.segments, report.transactions_checked
        );
        match &report.verdict {
            VerifyVerdict::Clean => {
                let _ = writeln!(out, "verdict: clean — replay is transaction-deterministic");
            }
            VerifyVerdict::Diverged { cycle, divergence } => {
                let _ = writeln!(out, "verdict: diverged@{cycle}");
                let _ = writeln!(out, "  {divergence}");
                let causal = match divergence {
                    Divergence::ContentMismatch { channel, index, .. }
                    | Divergence::OrderMismatch { channel, index, .. } => {
                        Some((channel.clone(), *index))
                    }
                    Divergence::CountMismatch { .. } => None,
                };
                if let Some((channel, index)) = causal {
                    let _ = writeln!(
                        out,
                        "causal transaction: {channel} end #{index} (committed @cycle {cycle})"
                    );
                }
            }
            VerifyVerdict::Deadlock { cycle, stalled } => {
                let _ = writeln!(out, "verdict: deadlock@{cycle}");
                for line in stalled {
                    let _ = writeln!(out, "  {line}");
                }
                match self.first_uncommitted_end() {
                    Some((name, index, pi)) => {
                        let _ = writeln!(
                            out,
                            "causal transaction: {name} end #{index} (recorded @packet {pi}, \
                             never committed by the replay)"
                        );
                    }
                    None => {
                        let _ = writeln!(
                            out,
                            "causal transaction: none — every recorded end committed"
                        );
                    }
                }
            }
            VerifyVerdict::StateMismatch { cycle } => {
                let _ = writeln!(out, "verdict: state-mismatch@{cycle}");
            }
        }
        Ok(out)
    }

    /// The earliest end event in recorded order that the indexing replay
    /// never committed to its validation trace — read off the last
    /// checkpoint's per-channel transaction counts, which are frozen at
    /// their stall values for a deadlocked replay.
    fn first_uncommitted_end(&self) -> Option<(String, u64, usize)> {
        let committed = &self.log.checkpoints.last()?.txn_counts;
        let layout = self.reference.layout();
        let mut seen = vec![0u64; layout.len()];
        for (pi, p) in self.reference.packets().iter().enumerate() {
            for (ci, count) in seen.iter_mut().enumerate() {
                if !p.ends.get(ci).copied().unwrap_or(false) {
                    continue;
                }
                let index = *count;
                *count += 1;
                if index >= committed.get(ci).copied().unwrap_or(0) {
                    return Some((layout.channels()[ci].name.clone(), index, pi));
                }
            }
        }
        None
    }
}

/// Runs a newline-separated command script, echoing each command and its
/// output as a transcript. `#`-prefixed lines are comments.
///
/// # Errors
///
/// Returns the transcript so far plus the failing command's message.
pub fn run_script(dbg: &mut Debugger, script: &str) -> Result<String, String> {
    let mut out = String::new();
    for line in script.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let _ = writeln!(out, "(vidi) {line}");
        match dbg.exec(line) {
            Ok(text) => out.push_str(&text),
            Err(e) => return Err(format!("{out}error: {e}")),
        }
    }
    Ok(out)
}

fn parse_num(s: &str) -> Result<u64, String> {
    let parsed = if let Some(hex) = s.strip_prefix("0x") {
        u64::from_str_radix(hex, 16)
    } else {
        s.parse()
    };
    parsed.map_err(|_| format!("expected a number, got {s:?}"))
}

fn parse_cond(s: &str) -> Result<WatchCond, String> {
    Ok(match s {
        "changed" => WatchCond::Changed,
        "rise" => WatchCond::Rise,
        "fall" => WatchCond::Fall,
        _ => {
            if let Some(v) = s.strip_prefix("!=") {
                WatchCond::Ne(parse_num(v)?)
            } else if let Some(v) = s.strip_prefix('=') {
                WatchCond::Eq(parse_num(v)?)
            } else if let Some(v) = s.strip_prefix('<') {
                WatchCond::Lt(parse_num(v)?)
            } else if let Some(v) = s.strip_prefix('>') {
                WatchCond::Gt(parse_num(v)?)
            } else {
                return Err(format!(
                    "bad watch condition {s:?} (use =N, !=N, <N, >N, changed, rise, fall)"
                ));
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cond_parser_accepts_the_documented_forms() {
        assert_eq!(parse_cond("=17").unwrap(), WatchCond::Eq(17));
        assert_eq!(parse_cond("!=0x10").unwrap(), WatchCond::Ne(16));
        assert_eq!(parse_cond("<5").unwrap(), WatchCond::Lt(5));
        assert_eq!(parse_cond(">5").unwrap(), WatchCond::Gt(5));
        assert_eq!(parse_cond("changed").unwrap(), WatchCond::Changed);
        assert!(parse_cond("~3").is_err());
    }

    #[test]
    fn debugger_steps_seeks_and_bisects_a_catalog_trace() {
        let rec = vidi_apps::run_app(
            build_app(AppId::Sha.setup(Scale::Test, 7), VidiConfig::record()),
            2_000_000,
        )
        .expect("recording");
        let trace = rec.trace.expect("trace");
        let target = DebugTarget::Catalog {
            app: AppId::Sha,
            scale: Scale::Test,
            seed: 7,
        };
        let mut dbg = Debugger::new(trace, target, DebugOptions::default()).expect("open");
        assert!(dbg.log().completed, "SHA replay completes");

        let out = run_script(
            &mut dbg,
            "info\nstep 100\nwhere\nseek 300\nrstep 50\ntxns 0 0 3\nbisect\n",
        )
        .expect("script runs");
        assert!(out.contains("stepped 100 -> @cycle 100"), "{out}");
        assert!(out.contains("seek -> @cycle 300"), "{out}");
        assert!(out.contains("reverse-stepped 50 -> @cycle 250"), "{out}");
        assert!(out.contains("verdict: clean"), "{out}");
    }

    #[test]
    fn rstep_restores_bit_exact_state() {
        let rec = vidi_apps::run_app(
            build_app(AppId::Sha.setup(Scale::Test, 7), VidiConfig::record()),
            2_000_000,
        )
        .expect("recording");
        let trace = rec.trace.expect("trace");
        let target = DebugTarget::Catalog {
            app: AppId::Sha,
            scale: Scale::Test,
            seed: 7,
        };
        let mut dbg = Debugger::new(trace, target, DebugOptions::default()).expect("open");
        dbg.exec("seek 400").expect("seek");
        let forward_digest = dbg.session.sim().state_digest();
        dbg.exec("step 100").expect("step");
        dbg.exec("rstep 100").expect("rstep");
        assert_eq!(
            dbg.session.sim().state_digest(),
            forward_digest,
            "reverse-step must land on the identical state"
        );
    }
}
