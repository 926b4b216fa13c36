//! The workloads and the seeded generation of their inputs.
//!
//! Every workload runs the same user pipeline — record → finalize →
//! recover, plain replay, debugger open, seek/`rstep`, `bisect`, and a
//! fleet batch of record tenants followed by their replays — so that every
//! end-to-end metric is measured on every workload. The workloads differ in
//! the property the layers' costs depend on: session length relative to
//! the fixed 4096-cycle drain and the per-session set-up costs.

use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};
use vidi_apps::{AppId, Scale};
use vidi_trace::CodecId;

/// Uniform in `[0, 1)`.
fn unit(rng: &mut SmallRng) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

/// One application session: which app, with which seed, recording through
/// which codec.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Session {
    /// Catalog application.
    pub app: AppId,
    /// Application seed (workload data and host jitter).
    pub seed: u64,
    /// Codec the session records through.
    pub codec: CodecId,
}

/// A seek request: absolute (`seek`) or relative to the previous target
/// (`rstep`). Both become a `replay_from` on a freshly built session.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SeekKind {
    /// Seek to this fraction of the replay's length.
    Seek(f64),
    /// Step back this many cycles from the previous target.
    Rstep(u64),
}

/// A workload's generated inputs and sizing.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Name given on the command line.
    pub name: &'static str,
    /// Catalog scale of every session.
    pub scale: Scale,
    /// Sessions recorded solo under `VidiConfig::record()`.
    pub record: Vec<Session>,
    /// Reference recordings made at set-up; replay, debugger open, seek and
    /// bisect run on these.
    pub replay: Vec<Session>,
    /// Record tenants of the fleet batch (their replays follow).
    pub fleet: Vec<Session>,
    /// Seed of the seek requests; each pass draws fresh ones.
    pub seek_seed: u64,
    /// Seek requests per replayed app and pass.
    pub seeks_per_app: usize,
    /// Times the set-up is repeated to report its median.
    pub setup_reps: usize,
}

/// Workload names accepted on the command line.
pub const WORKLOADS: [&str; 2] = ["long-sessions", "short-sessions"];

/// Long sessions: Bench-scale recordings whose work (4k–808k cycles)
/// dwarfs the drain tail; replay and debugging on the Bench apps whose
/// replays take at most about half a second each.
pub const LONG_REPLAY: [AppId; 6] = [
    AppId::Dma,
    AppId::Rendering3d,
    AppId::Bnn,
    AppId::FaceDetect,
    AppId::SpamFilter,
    AppId::OpticalFlow,
];

/// Fleet tenants per app, a multiple of the worker count of a 2-core host
/// so each app's tenants fill whole batches of one tenant per worker.
const LONG_FLEET_SEEDS: usize = 6;
const SHORT_FLEET_SEEDS: usize = 6;

impl Workload {
    /// Generates the named workload's inputs from `seed`.
    ///
    /// # Errors
    ///
    /// Returns a message naming the accepted workloads for an unknown name.
    pub fn generate(name: &str, seed: u64) -> Result<Workload, String> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let codec_offset = rng.gen_range(0..4);
        match name {
            "long-sessions" => {
                let record = sessions(&mut rng, &AppId::ALL, |_| CodecId::Raw);
                let replay = sessions(&mut rng, &LONG_REPLAY, |_| CodecId::Columnar);
                let fleet = fleet_sessions(&mut rng, &LONG_REPLAY, LONG_FLEET_SEEDS, codec_offset);
                Ok(Workload {
                    name: "long-sessions",
                    scale: Scale::Bench,
                    record,
                    replay,
                    fleet,
                    seek_seed: rng.next_u64(),
                    seeks_per_app: 40,
                    setup_reps: 5,
                })
            }
            "short-sessions" => {
                let record = sessions(&mut rng, &AppId::ALL, |_| CodecId::Raw);
                let replay = sessions(&mut rng, &AppId::ALL, |i| CodecId::ALL[i % 4]);
                let fleet = fleet_sessions(&mut rng, &AppId::ALL, SHORT_FLEET_SEEDS, codec_offset);
                Ok(Workload {
                    name: "short-sessions",
                    scale: Scale::Test,
                    record,
                    replay,
                    fleet,
                    seek_seed: rng.next_u64(),
                    seeks_per_app: 28,
                    setup_reps: 9,
                })
            }
            other => Err(format!(
                "unknown workload {other:?}; expected one of {}",
                WORKLOADS.join(", ")
            )),
        }
    }

    /// The seek requests of pass `pass`, per replayed app.
    pub fn seeks(&self, pass: usize) -> Vec<Vec<SeekKind>> {
        let mut rng = SmallRng::seed_from_u64(
            self.seek_seed ^ (pass as u64).wrapping_mul(0xa076_1d64_78bd_642f),
        );
        seek_plan(&mut rng, self.replay.len(), self.seeks_per_app)
    }
}

fn sessions(rng: &mut SmallRng, apps: &[AppId], codec: impl Fn(usize) -> CodecId) -> Vec<Session> {
    apps.iter()
        .enumerate()
        .map(|(i, &app)| Session {
            app,
            seed: rng.next_u64() >> 16,
            codec: codec(i),
        })
        .collect()
}

/// `copies` consecutive fleet tenants per app; copy `k` of the app at
/// index `a` records through codec `(a + k + offset) mod 4`, so the codecs
/// are spread evenly over the apps and the seed only rotates them.
fn fleet_sessions(
    rng: &mut SmallRng,
    apps: &[AppId],
    copies: usize,
    offset: usize,
) -> Vec<Session> {
    let all: Vec<AppId> = apps
        .iter()
        .flat_map(|&app| std::iter::repeat_n(app, copies))
        .collect();
    sessions(rng, &all, |i| {
        CodecId::ALL[(i / copies + i % copies + offset) % 4]
    })
}

/// Alternating `seek`/`rstep` requests per app: a seek to a uniform point
/// of the replay, then a reverse step of 1–64 cycles from it.
fn seek_plan(rng: &mut SmallRng, apps: usize, per_app: usize) -> Vec<Vec<SeekKind>> {
    (0..apps)
        .map(|_| {
            (0..per_app)
                .map(|k| {
                    if k % 2 == 0 {
                        SeekKind::Seek(unit(rng))
                    } else {
                        SeekKind::Rstep(rng.gen_range(1..65))
                    }
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_derive_from_the_seed_alone() {
        let a = Workload::generate("short-sessions", 1).unwrap();
        let b = Workload::generate("short-sessions", 1).unwrap();
        let c = Workload::generate("short-sessions", 2).unwrap();
        assert_eq!(a.fleet, b.fleet);
        assert_eq!(a.seeks(3), b.seeks(3));
        assert_ne!(a.seeks(0), a.seeks(1));
        assert_ne!(a.fleet, c.fleet);
        assert!(Workload::generate("nope", 1).is_err());
    }

    #[test]
    fn short_fleet_spreads_codecs_evenly_over_apps() {
        for seed in 0..8 {
            let w = Workload::generate("short-sessions", seed).unwrap();
            for app in AppId::ALL {
                let counts = CodecId::ALL.map(|c| {
                    w.fleet
                        .iter()
                        .filter(|s| s.app == app && s.codec == c)
                        .count()
                });
                let (lo, hi) = (counts.iter().min(), counts.iter().max());
                assert!(lo >= Some(&1) && hi <= Some(&2), "seed {seed}: {counts:?}");
            }
        }
    }
}
