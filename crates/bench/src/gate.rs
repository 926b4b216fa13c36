//! The gate table: every check `bench_sim`, `bench_snap` and `bench_fleet`
//! enforce, declared once and run by one evaluator.
//!
//! Each bench has one [`Table`] ([`sim`], [`snap`], [`fleet`]): the name of
//! the document's row array, the key that identifies a row, and a list of
//! [`Gate`]s. [`Table::check`] runs every gate over the emitted
//! `BENCH_*.json` document and, when given, the committed baseline. The
//! checks on the current run and the checks against the baseline share
//! this one code path, and every failure names the field and, when one row
//! is at fault, the app or tenant.
//!
//! Rules common to every gate:
//!
//! * A missing or mistyped value fails a gate over the current run. Only a
//!   vacuity gate ([`Gate::NotVacuous`]) counts a missing value as zero.
//! * With a baseline, every baseline row must be present in the current
//!   run, and a baseline gate fails when the baseline row pins its field
//!   but the current row lacks it. A baseline row without the field pins
//!   nothing, so a baseline older than a field never demands it.
//! * Catalog floors and vacuity gates pass on an empty catalog.
//!
//! The tables below are the single statement of what CI gates on; the
//! binaries, `scripts/ci.sh`, README and DESIGN refer here.

use std::process::ExitCode;

use vidi_core::VidiConfig;

use crate::json::Json;

/// Relative tolerance of the baseline ceilings and floors.
pub const TOLERANCE: f64 = 0.10;

/// One declarative check over a `BENCH_*.json` document.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Gate {
    /// Every row has the boolean field set to `true`.
    AllTrue(&'static str),
    /// Every row has the numeric field at or below the bound.
    AtMost(&'static str, f64),
    /// At least half the rows have the numeric field at or above the floor.
    HalfAtLeast(&'static str, f64),
    /// Every row whose `when` field equals the `when` string has the `then`
    /// field equal to the `then` string.
    Implies {
        /// `(field, value)` that selects the rows.
        when: (&'static str, &'static str),
        /// `(field, value)` the selected rows must carry.
        then: (&'static str, &'static str),
    },
    /// The document's top-level boolean field is `true`.
    TopTrue(&'static str),
    /// Vacuity: not every row is zero, false or missing in the field — the
    /// gates over it must have something to gate.
    NotVacuous(&'static str),
    /// Baseline: each row's field equals the baseline row's.
    Same(&'static str),
    /// Baseline: each row's field is at most the baseline's times
    /// `1 + tolerance`.
    Ceiling(&'static str, f64),
    /// Baseline: each row's field is at least the baseline's times
    /// `1 - tolerance`.
    Floor(&'static str, f64),
}

/// A bench's gates over its document's rows.
#[derive(Debug, Clone)]
pub struct Table {
    /// Key of the row array (`apps`, `tenants`).
    pub rows: &'static str,
    /// Row key that names a row (`app`, `name`).
    pub id: &'static str,
    /// The gates, in the order failures are reported.
    pub gates: Vec<Gate>,
}

/// `BENCH_sim.json`, one row per catalog app.
pub fn sim() -> Table {
    Table {
        rows: "apps",
        id: "app",
        gates: vec![
            // Full, Incremental and Compiled record bit-identical traces.
            Gate::AllTrue("traces_identical"),
            // Incremental evaluates at least 2x fewer components than Full
            // on half the catalog.
            Gate::HalfAtLeast("eval_reduction", 2.0),
            // Compiled reaches 2x the Incremental cycles/sec on half the
            // catalog, and does it by skipping clock edges: if no compiled
            // run skipped one, the speedup gate exercised nothing.
            Gate::HalfAtLeast("compiled_speedup", 2.0),
            Gate::NotVacuous("tick_skips"),
            // Every codec's stream decodes to the reference packets and
            // replays; the best codec compresses 3x on half the catalog,
            // measured over real stream bytes.
            Gate::AllTrue("codec_roundtrip_ok"),
            Gate::HalfAtLeast("compression_ratio", 3.0),
            Gate::NotVacuous("bytes_written"),
            // Recording buffers stay under the streaming bound, and some
            // recording flushed a chunk, so the bound was exercised.
            Gate::AtMost(
                "peak_buffered_bytes",
                VidiConfig::record().streaming_buffer_bound() as f64,
            ),
            Gate::NotVacuous("chunks_flushed"),
            // Deterministic counters against the baseline.
            Gate::Ceiling("evals_per_cycle_incremental", TOLERANCE),
            Gate::Ceiling("evals_per_cycle_compiled", TOLERANCE),
            Gate::Floor("compression_ratio", TOLERANCE),
        ],
    }
}

/// `BENCH_snap.json`, one row per catalog app.
pub fn snap() -> Table {
    Table {
        rows: "apps",
        id: "app",
        gates: vec![
            // Every checkpoint restores and re-serializes exactly, in both
            // eval modes, and the container decodes to the log it encoded.
            Gate::AllTrue("roundtrip_exact"),
            // Serial and parallel verification return the same report.
            Gate::AllTrue("verify_consistent"),
            // The modeled 4-thread verify schedule is 2x on half the
            // catalog (host-independent; wall times are not gated).
            Gate::HalfAtLeast("verify_speedup", 2.0),
            // The verdict, clean or not, stays pinned: DMA's
            // `diverged@215` is the §3.6 poll, expected and gated.
            Gate::Same("verdict"),
            // The reverse-step cost ceiling stays at the pinned cadence,
            // and is not zero everywhere (a zero ceiling pins nothing).
            Gate::Same("rstep_worst_roll_forward"),
            Gate::NotVacuous("rstep_worst_roll_forward"),
        ],
    }
}

/// `BENCH_fleet.json`, one row per tenant of the eight-tenant soak.
pub fn fleet() -> Table {
    Table {
        rows: "tenants",
        id: "name",
        gates: vec![
            // Clean tenants complete, with traces bit-identical to their
            // solo runs (faulted tenants report `true` vacuously).
            Gate::Implies {
                when: ("cause", "-"),
                then: ("outcome", "completed"),
            },
            Gate::AllTrue("bit_identical"),
            // Admission never over-commits, and the buffering it bounded
            // stayed inside the budget.
            Gate::TopTrue("reservation_within_budget"),
            Gate::TopTrue("buffering_within_budget"),
            // Every tenant keeps its outcome and attributed cause.
            Gate::Same("outcome"),
            Gate::Same("cause"),
        ],
    }
}

/// Renders a value for a failure line.
fn show(v: Option<&Json>) -> String {
    v.map_or_else(|| "missing".into(), |v| v.pretty().trim_end().to_string())
}

impl Table {
    /// Runs every gate over `current` and, when given, `baseline`.
    /// Returns one line per failure; empty when every gate passes.
    pub fn check(&self, current: &Json, baseline: Option<&Json>) -> Vec<String> {
        let rows = self.rows_of(current);
        let mut failures = Vec::new();
        for gate in &self.gates {
            self.check_run(*gate, current, rows, &mut failures);
        }
        for base in baseline.map_or(&[][..], |b| self.rows_of(b)) {
            let id = self.id_of(base);
            let Some(row) = rows.iter().find(|r| self.id_of(r) == id) else {
                failures.push(format!("{id}: present in baseline but not measured"));
                continue;
            };
            for gate in &self.gates {
                check_row(*gate, id, row, base, &mut failures);
            }
        }
        failures
    }

    fn rows_of<'a>(&self, doc: &'a Json) -> &'a [Json] {
        doc.get(self.rows)
            .and_then(Json::as_arr)
            .unwrap_or_default()
    }

    fn id_of<'a>(&self, row: &'a Json) -> &'a str {
        row.get(self.id).and_then(Json::as_str).unwrap_or("?")
    }

    /// The gates that read only the current run.
    fn check_run(&self, gate: Gate, doc: &Json, rows: &[Json], failures: &mut Vec<String>) {
        let num = |r: &Json, f: &str| r.get(f).and_then(Json::as_f64);
        match gate {
            Gate::AllTrue(f) => {
                for r in rows
                    .iter()
                    .filter(|r| r.get(f).and_then(Json::as_bool) != Some(true))
                {
                    failures.push(format!("{}: {f} is {}", self.id_of(r), show(r.get(f))));
                }
            }
            Gate::AtMost(f, bound) => {
                for r in rows
                    .iter()
                    .filter(|r| !num(r, f).is_some_and(|v| v <= bound))
                {
                    failures.push(format!(
                        "{}: {f} is {}, above the bound {bound}",
                        self.id_of(r),
                        show(r.get(f))
                    ));
                }
            }
            Gate::HalfAtLeast(f, floor) => {
                let below: Vec<&str> = rows
                    .iter()
                    .filter(|r| !num(r, f).is_some_and(|v| v >= floor))
                    .map(|r| self.id_of(r))
                    .collect();
                let reached = rows.len() - below.len();
                if reached * 2 < rows.len() {
                    failures.push(format!(
                        "{f} >= {floor} on only {reached}/{} {}; below: {}",
                        rows.len(),
                        self.rows,
                        below.join(", ")
                    ));
                }
            }
            Gate::Implies {
                when: (wf, wv),
                then: (tf, tv),
            } => {
                for r in rows {
                    let is = |f: &str, v: &str| r.get(f).and_then(Json::as_str) == Some(v);
                    if is(wf, wv) && !is(tf, tv) {
                        failures.push(format!(
                            "{}: {tf} is {}, want \"{tv}\" when {wf} is \"{wv}\"",
                            self.id_of(r),
                            show(r.get(tf))
                        ));
                    }
                }
            }
            Gate::TopTrue(f) => {
                if doc.get(f).and_then(Json::as_bool) != Some(true) {
                    failures.push(format!("{f} is {}", show(doc.get(f))));
                }
            }
            Gate::NotVacuous(f) => {
                let zero = |v: Option<&Json>| {
                    v.is_none_or(|v| {
                        matches!(v, Json::Null | Json::Bool(false)) || v.as_f64() == Some(0.0)
                    })
                };
                if !rows.is_empty() && rows.iter().all(|r| zero(r.get(f))) {
                    failures.push(format!(
                        "{f} is zero, false or missing on all {} {} — its gates are vacuous",
                        rows.len(),
                        self.rows
                    ));
                }
            }
            Gate::Same(_) | Gate::Ceiling(..) | Gate::Floor(..) => {}
        }
    }
}

/// The gates that compare a current row with its baseline row.
fn check_row(gate: Gate, id: &str, row: &Json, base: &Json, failures: &mut Vec<String>) {
    let (Gate::Same(f) | Gate::Ceiling(f, _) | Gate::Floor(f, _)) = gate else {
        return;
    };
    let Some(pinned) = base.get(f) else {
        return;
    };
    let Some(cur) = row.get(f) else {
        failures.push(format!("{id}: {f} pinned by the baseline but not measured"));
        return;
    };
    let (held, verb) = match (gate, cur.as_f64(), pinned.as_f64()) {
        (Gate::Ceiling(_, t), Some(c), Some(b)) => (c <= b * (1.0 + t), "regressed"),
        (Gate::Floor(_, t), Some(c), Some(b)) => (c >= b * (1.0 - t), "regressed"),
        (Gate::Same(_), ..) => (cur == pinned, "drifted"),
        _ => (false, "regressed"),
    };
    if !held {
        failures.push(format!(
            "{id}: {f} {verb} {} -> {}",
            show(Some(pinned)),
            show(Some(cur))
        ));
    }
}

/// The shared tail of the bench binaries: gates `doc` against `table` and,
/// when `baseline` names one, the committed baseline document; prints
/// every failure and returns the exit status.
pub fn gate_and_exit(table: &Table, doc: &Json, baseline: Option<&str>) -> ExitCode {
    let base = match baseline.map(read_baseline).transpose() {
        Ok(base) => base,
        Err(e) => {
            eprintln!("FAIL: {e}");
            return ExitCode::FAILURE;
        }
    };
    let failures = table.check(doc, base.as_ref());
    for f in &failures {
        eprintln!("FAIL: {f}");
    }
    if failures.is_empty() {
        let against = baseline.map_or_else(String::new, |p| format!(", baseline {p}"));
        println!("all {} gates passed{against}", table.gates.len());
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn read_baseline(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read baseline {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("parse baseline {path}: {e}"))
}
