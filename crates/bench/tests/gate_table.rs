//! One fixture per gate-table entry. Each fixture starts from the committed
//! baseline (which passes its own table), breaks exactly one entry, and
//! requires exactly one failure that names the field and, for a per-row
//! entry, the app or tenant.

use vidi_bench::gate::{self, Table};
use vidi_bench::json::Json;
use vidi_core::VidiConfig;

const SIM: &str = include_str!("../../../scripts/bench_sim_baseline.json");
const SNAP: &str = include_str!("../../../scripts/bench_snap_baseline.json");
const FLEET: &str = include_str!("../../../scripts/bench_fleet_baseline.json");

fn parse(text: &str) -> Json {
    Json::parse(text).expect("committed baseline parses")
}

fn rows_mut<'a>(doc: &'a mut Json, table: &Table) -> &'a mut Vec<Json> {
    let Json::Obj(top) = doc else {
        panic!("document is an object")
    };
    let Some(Json::Arr(rows)) = top.get_mut(table.rows) else {
        panic!("document has a {} array", table.rows)
    };
    rows
}

/// Sets `field` of the row named `id`; `None` removes the field.
fn set(doc: &mut Json, table: &Table, id: &str, field: &str, value: Option<Json>) {
    let row = rows_mut(doc, table)
        .iter_mut()
        .find(|r| r.get(table.id).and_then(Json::as_str) == Some(id))
        .unwrap_or_else(|| panic!("row {id} exists"));
    let Json::Obj(row) = row else {
        panic!("row is an object")
    };
    match value {
        Some(v) => row.insert(field.to_string(), v),
        None => row.remove(field),
    };
}

/// Sets `field` on every row.
fn set_all(doc: &mut Json, table: &Table, field: &str, value: Json) {
    for row in rows_mut(doc, table) {
        let Json::Obj(row) = row else {
            panic!("row is an object")
        };
        row.insert(field.to_string(), value.clone());
    }
}

/// Checks `doc` (against `baseline`, when given) and requires exactly one
/// failure, containing every needle.
fn fails_once(table: &Table, doc: &Json, baseline: Option<&Json>, needles: &[&str]) {
    let failures = table.check(doc, baseline);
    assert_eq!(failures.len(), 1, "{failures:?}");
    for needle in needles {
        assert!(failures[0].contains(needle), "{needle:?} in {failures:?}");
    }
}

#[test]
fn committed_baselines_pass_their_own_tables() {
    for (table, text) in [
        (gate::sim(), SIM),
        (gate::snap(), SNAP),
        (gate::fleet(), FLEET),
    ] {
        let doc = parse(text);
        assert_eq!(table.check(&doc, Some(&doc)), Vec::<String>::new());
        assert_eq!(table.check(&doc, None), Vec::<String>::new());
    }
}

#[test]
fn every_entry_has_a_fixture() {
    // Adding an entry to a table means adding its fixture below.
    assert_eq!(gate::sim().gates.len(), 12);
    assert_eq!(gate::snap().gates.len(), 6);
    assert_eq!(gate::fleet().gates.len(), 6);
}

// ---- bench_sim ----------------------------------------------------------

fn sim_with(mutate: impl FnOnce(&mut Json, &Table)) -> (Table, Json) {
    let table = gate::sim();
    let mut doc = parse(SIM);
    mutate(&mut doc, &table);
    (table, doc)
}

#[test]
fn sim_traces_identical() {
    let (t, doc) = sim_with(|d, t| set(d, t, "SHA", "traces_identical", Some(Json::Bool(false))));
    fails_once(&t, &doc, None, &["SHA", "traces_identical"]);
}

#[test]
fn sim_eval_reduction_floor() {
    let (t, doc) = sim_with(|d, t| {
        for app in ["DMA", "3D", "BNN", "DigitR", "FaceD", "SpamF"] {
            set(d, t, app, "eval_reduction", Some(Json::Num(1.5)));
        }
    });
    fails_once(&t, &doc, None, &["eval_reduction >= 2", "4/10", "SpamF"]);
}

#[test]
fn sim_compiled_speedup_floor() {
    let (t, doc) = sim_with(|d, t| {
        for app in ["DMA", "3D", "BNN", "DigitR", "FaceD", "SpamF"] {
            set(d, t, app, "compiled_speedup", Some(Json::Num(1.5)));
        }
    });
    fails_once(&t, &doc, None, &["compiled_speedup >= 2", "4/10", "DMA"]);
}

#[test]
fn sim_tick_skips_not_vacuous() {
    let (t, doc) = sim_with(|d, t| set_all(d, t, "tick_skips", Json::Num(0.0)));
    fails_once(&t, &doc, None, &["tick_skips", "vacuous"]);
}

#[test]
fn sim_codec_roundtrip_ok() {
    let (t, doc) =
        sim_with(|d, t| set(d, t, "FaceD", "codec_roundtrip_ok", Some(Json::Bool(false))));
    fails_once(&t, &doc, None, &["FaceD", "codec_roundtrip_ok"]);
}

#[test]
fn sim_compression_floor() {
    let (t, doc) = sim_with(|d, t| set_all(d, t, "compression_ratio", Json::Num(1.0)));
    fails_once(&t, &doc, None, &["compression_ratio >= 3", "0/10", "OpFlw"]);
}

#[test]
fn sim_bytes_written_not_vacuous() {
    let (t, doc) = sim_with(|d, t| set_all(d, t, "bytes_written", Json::Num(0.0)));
    fails_once(&t, &doc, None, &["bytes_written", "vacuous"]);
}

#[test]
fn sim_peak_buffered_bytes_bound() {
    let over = Json::Num((VidiConfig::record().streaming_buffer_bound() + 1) as f64);
    let (t, doc) = sim_with(|d, t| set(d, t, "MNet", "peak_buffered_bytes", Some(over)));
    fails_once(&t, &doc, None, &["MNet", "peak_buffered_bytes"]);
}

#[test]
fn sim_chunks_flushed_not_vacuous() {
    let (t, doc) = sim_with(|d, t| set_all(d, t, "chunks_flushed", Json::Num(0.0)));
    fails_once(&t, &doc, None, &["chunks_flushed", "vacuous"]);
}

#[test]
fn sim_evals_per_cycle_incremental_ceiling() {
    let base = parse(SIM);
    let (t, doc) = sim_with(|d, t| {
        set(
            d,
            t,
            "BNN",
            "evals_per_cycle_incremental",
            Some(Json::Num(1.0)),
        );
    });
    fails_once(
        &t,
        &doc,
        Some(&base),
        &["BNN", "evals_per_cycle_incremental", "regressed"],
    );
    let (t, doc) = sim_with(|d, t| set(d, t, "BNN", "evals_per_cycle_incremental", None));
    fails_once(
        &t,
        &doc,
        Some(&base),
        &["BNN", "evals_per_cycle_incremental", "not measured"],
    );
}

#[test]
fn sim_evals_per_cycle_compiled_ceiling() {
    let base = parse(SIM);
    let (t, doc) = sim_with(|d, t| {
        set(
            d,
            t,
            "SHA",
            "evals_per_cycle_compiled",
            Some(Json::Num(1.0)),
        );
    });
    fails_once(
        &t,
        &doc,
        Some(&base),
        &["SHA", "evals_per_cycle_compiled", "regressed"],
    );
}

#[test]
fn sim_compression_ratio_baseline_floor() {
    // DMA drops from 5.4x to 4x: still above the 3x catalog floor, but
    // more than 10% below its baseline.
    let base = parse(SIM);
    let (t, doc) = sim_with(|d, t| set(d, t, "DMA", "compression_ratio", Some(Json::Num(4.0))));
    fails_once(
        &t,
        &doc,
        Some(&base),
        &["DMA", "compression_ratio", "regressed"],
    );
}

#[test]
fn sim_missing_app() {
    let base = parse(SIM);
    // BNN is below the 3x compression floor, so dropping it leaves that
    // catalog floor at 5/9.
    let (t, doc) = sim_with(|d, t| {
        rows_mut(d, t).retain(|r| r.get("app").and_then(Json::as_str) != Some("BNN"));
    });
    fails_once(&t, &doc, Some(&base), &["BNN", "not measured"]);
}

// ---- bench_snap ---------------------------------------------------------

fn snap_with(mutate: impl FnOnce(&mut Json, &Table)) -> (Table, Json) {
    let table = gate::snap();
    let mut doc = parse(SNAP);
    mutate(&mut doc, &table);
    (table, doc)
}

#[test]
fn snap_roundtrip_exact() {
    let (t, doc) = snap_with(|d, t| set(d, t, "3D", "roundtrip_exact", Some(Json::Bool(false))));
    fails_once(&t, &doc, None, &["3D", "roundtrip_exact"]);
}

#[test]
fn snap_verify_consistent() {
    let (t, doc) = snap_with(|d, t| set(d, t, "DMA", "verify_consistent", Some(Json::Bool(false))));
    fails_once(&t, &doc, None, &["DMA", "verify_consistent"]);
}

#[test]
fn snap_verify_speedup_floor() {
    let (t, doc) = snap_with(|d, t| set_all(d, t, "verify_speedup", Json::Num(1.0)));
    fails_once(&t, &doc, None, &["verify_speedup >= 2", "0/10", "SHA"]);
}

#[test]
fn snap_verdict_pinned() {
    let base = parse(SNAP);
    let (t, doc) = snap_with(|d, t| {
        set(
            d,
            t,
            "DMA",
            "verdict",
            Some(Json::Str("diverged@216".into())),
        );
    });
    fails_once(
        &t,
        &doc,
        Some(&base),
        &["DMA", "verdict", "diverged@215", "diverged@216"],
    );
}

#[test]
fn snap_rstep_pinned() {
    let base = parse(SNAP);
    let (t, doc) = snap_with(|d, t| {
        set(
            d,
            t,
            "BNN",
            "rstep_worst_roll_forward",
            Some(Json::Num(511.0)),
        );
    });
    fails_once(
        &t,
        &doc,
        Some(&base),
        &["BNN", "rstep_worst_roll_forward", "drifted"],
    );
}

#[test]
fn snap_rstep_dropped_by_the_run_fails() {
    let base = parse(SNAP);
    let (t, doc) = snap_with(|d, t| set(d, t, "BNN", "rstep_worst_roll_forward", None));
    fails_once(
        &t,
        &doc,
        Some(&base),
        &["BNN", "rstep_worst_roll_forward", "not measured"],
    );
}

#[test]
fn snap_rstep_not_vacuous() {
    let (t, doc) = snap_with(|d, t| set_all(d, t, "rstep_worst_roll_forward", Json::Num(0.0)));
    fails_once(&t, &doc, None, &["rstep_worst_roll_forward", "vacuous"]);
}

// ---- bench_fleet --------------------------------------------------------

fn fleet_with(mutate: impl FnOnce(&mut Json, &Table)) -> (Table, Json) {
    let table = gate::fleet();
    let mut doc = parse(FLEET);
    mutate(&mut doc, &table);
    (table, doc)
}

fn set_top(doc: &mut Json, field: &str, value: Json) {
    let Json::Obj(top) = doc else {
        panic!("document is an object")
    };
    top.insert(field.to_string(), value);
}

#[test]
fn fleet_clean_tenant_completes() {
    let (t, doc) = fleet_with(|d, t| {
        set(
            d,
            t,
            "clean-dma",
            "outcome",
            Some(Json::Str("failed".into())),
        );
    });
    fails_once(&t, &doc, None, &["clean-dma", "outcome", "completed"]);
}

#[test]
fn fleet_bit_identical() {
    let (t, doc) =
        fleet_with(|d, t| set(d, t, "clean-sha", "bit_identical", Some(Json::Bool(false))));
    fails_once(&t, &doc, None, &["clean-sha", "bit_identical"]);
}

#[test]
fn fleet_reservation_within_budget() {
    let (t, doc) = fleet_with(|d, _| set_top(d, "reservation_within_budget", Json::Bool(false)));
    fails_once(&t, &doc, None, &["reservation_within_budget"]);
}

#[test]
fn fleet_buffering_within_budget() {
    let (t, doc) = fleet_with(|d, _| set_top(d, "buffering_within_budget", Json::Bool(false)));
    fails_once(&t, &doc, None, &["buffering_within_budget"]);
}

#[test]
fn fleet_outcome_pinned() {
    let base = parse(FLEET);
    let (t, doc) = fleet_with(|d, t| {
        set(
            d,
            t,
            "crash-sha",
            "outcome",
            Some(Json::Str("evicted".into())),
        );
    });
    fails_once(&t, &doc, Some(&base), &["crash-sha", "outcome", "drifted"]);
}

#[test]
fn fleet_cause_pinned() {
    let base = parse(FLEET);
    let (t, doc) =
        fleet_with(|d, t| set(d, t, "crash-sha", "cause", Some(Json::Str("sim".into()))));
    fails_once(&t, &doc, Some(&base), &["crash-sha", "cause", "drifted"]);
}

#[test]
fn fleet_missing_tenant() {
    let base = parse(FLEET);
    let (t, doc) = fleet_with(|d, t| {
        rows_mut(d, t).retain(|r| r.get("name").and_then(Json::as_str) != Some("rot-dma"));
    });
    fails_once(&t, &doc, Some(&base), &["rot-dma", "not measured"]);
}
