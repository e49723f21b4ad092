//! `fig9_cold`: the ten scale-1 Fig. 9 rows, each verified in a fresh
//! process — one `Session`, parallelism = nproc, all six properties on one
//! shared LTS, report rendered. This is the CLI user's spec → verdict path,
//! free of the row-order warmth that confounds the in-process `fig9` table.
//!
//! The traced child replays `Session::run_scenario` call by call so that each
//! public call into a crate is timed from outside: the cold and a warm LTS
//! build and an engine replay (`lts`), the property checks and witnesses
//! (`mucalc`), and rendering (`effpi`), together with the interner
//! (`lambdapi`) and derivation-cache (`dbt-types`) counters. The probe
//! (`mucalc`) is timed in a fresh process of its own.

use std::time::Instant;

use effpi::protocols::{fig9_scenarios, Scenario};
use effpi::{
    checker_stats, intern_stats, Name, PropertyReport, Report, Session, TyRef, TypeLabel,
    VerificationOutcome, Verifier,
};
use lts::Lts;
use wire::Json;

use crate::expected::{Expected, Outcome};
use crate::sys;

/// The scale of the measured rows.
pub const SCALE: usize = 1;

fn ms(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Child process, untraced: one row from `Session` build to rendered report.
pub fn row_child(index: usize) -> Json {
    let scenario = &fig9_scenarios(SCALE)[index];
    let ready = sys::unix_ns();
    let cpu = sys::cpu_secs();
    let start = Instant::now();
    let session = Session::builder().parallelism(sys::nproc()).build();
    let report = session.run_scenario(scenario);
    let rendered = report.to_wire_json().to_string() + &report.to_string();
    let row_ms = ms(start);
    let row_cpu_ms = (sys::cpu_secs() - cpu) * 1e3;
    std::hint::black_box(rendered);
    row_record(
        scenario,
        &report,
        ready,
        row_ms,
        vec![("row_cpu_ms", row_cpu_ms)],
    )
}

fn row_record(
    scenario: &Scenario,
    report: &Report,
    ready: u128,
    row_ms: f64,
    layers: Vec<(&str, f64)>,
) -> Json {
    let mut fields = vec![
        ("name", Json::str(scenario.name.clone())),
        ("outcome", Outcome::of_report(report).to_json()),
        (
            "error",
            report
                .first_error()
                .map_or(Json::Null, |e| Json::str(e.to_string())),
        ),
        ("ready_unix_ns", Json::Num(ready as f64)),
        ("row_ms", Json::Num(row_ms)),
        ("vm_hwm_bytes", Json::Num(sys::vm_hwm_bytes() as f64)),
    ];
    fields.extend(layers.into_iter().map(|(k, v)| (k, Json::Num(v))));
    Json::obj(fields)
}

/// The session and the scoped verifier of a row, as `Session::run_scenario`
/// builds them, with the row's property interfaces as exploration targets.
fn scoped(scenario: &Scenario) -> (Session, Verifier, Vec<Name>) {
    let session = Session::builder().parallelism(sys::nproc()).build();
    let mut verifier = session.verifier().clone();
    verifier.visible = Some(scenario.visible.clone());
    let mut targets = Vec::new();
    for p in &scenario.properties {
        for x in p.interfaces() {
            if !targets.contains(&x) {
                targets.push(x);
            }
        }
    }
    (session, verifier, targets)
}

/// Child process, traced: `Verifier::probe_env` alone, cold. The traced row
/// cannot time it: `build_lts_for` runs the probe itself, and a separate
/// call before it would warm the cold build.
pub fn probe_child(index: usize) -> Json {
    let scenario = &fig9_scenarios(SCALE)[index];
    let (_session, verifier, _) = scoped(scenario);
    let t = Instant::now();
    std::hint::black_box(verifier.probe_env(&scenario.env, &scenario.ty));
    Json::obj([("probe_ms", Json::Num(ms(t)))])
}

/// Cache lookups so far, interner and checker together: the work a pass does,
/// counted rather than timed.
fn lookups() -> f64 {
    let (i, c) = (intern_stats(), checker_stats());
    (i.normalize_hits
        + i.normalize_misses
        + i.canonical_hits
        + i.canonical_misses
        + i.par_hits
        + i.par_misses
        + i.fv_hits
        + i.fv_misses
        + c.subtype_hits
        + c.subtype_misses
        + c.interact_hits
        + c.interact_misses
        + c.typing_hits
        + c.typing_misses) as f64
}

/// One pass of the ledger: `Session::run_scenario`'s calls, each timed.
struct Ledger {
    build_ms: f64,
    check_ms: f64,
    witness_ms: f64,
    render_ms: f64,
    /// CPU time of the whole pass, all threads.
    cpu_ms: f64,
    report: Report,
    lts: Option<Lts<TyRef, TypeLabel>>,
}

/// Builds the row's LTS (the build includes the probe `build_lts_for` runs
/// itself), checks every property, finds the witnesses of the failing ones
/// and renders the report, as `Session::run_scenario` does. Unless `keep`,
/// the LTS is dropped inside the timed pass, as `run_scenario` drops it.
fn ledger(
    session: &Session,
    verifier: &Verifier,
    targets: &[Name],
    scenario: &Scenario,
    keep: bool,
) -> Ledger {
    let cpu = sys::cpu_secs();
    let mut report = Report {
        name: Some(scenario.name.clone()),
        strategy: session.config().strategy,
        ..Report::default()
    };
    let t = Instant::now();
    let built = verifier
        .check_applicable(&scenario.env, &scenario.ty)
        .and_then(|()| verifier.build_lts_for(&scenario.env, &scenario.ty, targets));
    let build_ms = ms(t);
    let (mut check_ms, mut witness_ms) = (0.0, 0.0);
    let mut kept = None;
    match built {
        Ok((env, lts)) => {
            for p in &scenario.properties {
                let t = Instant::now();
                let holds = p.holds(verifier.checker(), &env, &lts);
                check_ms += ms(t);
                let t = Instant::now();
                let trace = if holds {
                    None
                } else {
                    p.witness(verifier.checker(), &env, &lts)
                };
                witness_ms += ms(t);
                report.properties.push(PropertyReport {
                    property: p.clone(),
                    result: Ok(VerificationOutcome {
                        property: p.clone(),
                        holds,
                        states: lts.num_states(),
                        transitions: lts.num_transitions(),
                        duration: std::time::Duration::from_secs_f64(build_ms / 1e3),
                        trace,
                    }),
                });
            }
            kept = keep.then_some(lts);
        }
        Err(e) => report.error = Some(e.into()),
    }
    let t = Instant::now();
    std::hint::black_box(report.to_wire_json().to_string() + &report.to_string());
    let render_ms = ms(t);
    Ledger {
        build_ms,
        check_ms,
        witness_ms,
        render_ms,
        cpu_ms: (sys::cpu_secs() - cpu) * 1e3,
        report,
        lts: kept,
    }
}

/// Child process, traced: `Session::run_scenario` call by call, each public
/// call into a crate timed: the ledger once cold, then an engine replay of
/// its LTS, then the ledger twice more on warm caches.
///
/// The ledger is a re-implementation of `run_scenario`, so it is checked
/// against the real call: each warm ledger pass is followed by the real
/// `run_scenario` on the same session. `unattributed_frac` is the share of
/// the real calls' interner and checker lookups that the ledger's passes do
/// not make: counted work, which repeats to a few lookups in 10⁵, where the
/// CPU time of two identical warm calls differs by up to ±6% on a shared
/// host. The CPU-time comparison is kept too, as `unattributed_cpu_frac`,
/// for work that does no lookup.
pub fn traced_row_child(index: usize) -> Json {
    let scenario = &fig9_scenarios(SCALE)[index];
    let ready = sys::unix_ns();
    let t = Instant::now();
    let (session, verifier, targets) = scoped(scenario);
    let setup_ms = ms(t);

    let (types0, check0) = (intern_stats(), checker_stats());
    let cold = ledger(&session, &verifier, &targets, scenario, true);
    let (types1, check1) = (intern_stats(), checker_stats());

    let t = Instant::now();
    let replayed = cold
        .lts
        .as_ref()
        .map(|l| crate::engine::replay(l, sys::nproc()));
    let replay_ms = ms(t);

    let (mut warm_ms, mut ledger_cpu_ms, mut real_cpu_ms) =
        (f64::INFINITY, f64::INFINITY, f64::INFINITY);
    let (mut ledger_lookups, mut real_lookups) = (0.0, 0.0);
    let mut warm_matches = true;
    for _ in 0..2 {
        let before = lookups();
        let warm = ledger(&session, &verifier, &targets, scenario, false);
        ledger_lookups += lookups() - before;
        warm_ms = warm_ms.min(warm.build_ms);
        ledger_cpu_ms = ledger_cpu_ms.min(warm.cpu_ms);
        warm_matches &= Outcome::of_report(&warm.report) == Outcome::of_report(&cold.report);
        let before = lookups();
        let cpu = sys::cpu_secs();
        let real = session.run_scenario(scenario);
        std::hint::black_box(real.to_wire_json().to_string() + &real.to_string());
        real_cpu_ms = real_cpu_ms.min((sys::cpu_secs() - cpu) * 1e3);
        real_lookups += lookups() - before;
        warm_matches &= Outcome::of_report(&real) == Outcome::of_report(&cold.report);
    }
    let replay_matches = warm_matches
        && replayed
            == cold
                .lts
                .as_ref()
                .map(|l| (l.num_states(), l.num_transitions()));

    let derivations =
        |s: &effpi::CheckerStats| (s.subtype_misses + s.interact_misses + s.typing_misses) as f64;
    let hits = |s: &effpi::CheckerStats| (s.subtype_hits + s.interact_hits + s.typing_hits) as f64;
    let canonical_hits = (types1.canonical_hits - types0.canonical_hits) as f64;
    let canonical_misses = (types1.canonical_misses - types0.canonical_misses) as f64;
    let new_derivations = derivations(&check1) - derivations(&check0);
    let derivation_hits = hits(&check1) - hits(&check0);
    // Counters are deltas over the cold pass: first-sight interning and the
    // checker derivations it triggered.
    let layers = vec![
        ("setup_ms", setup_ms),
        ("build_cold_ms", cold.build_ms),
        ("build_warm_ms", warm_ms),
        ("engine_replay_ms", replay_ms),
        ("check_ms", cold.check_ms),
        ("witness_ms", cold.witness_ms),
        ("render_ms", cold.render_ms),
        ("ledger_warm_cpu_ms", ledger_cpu_ms),
        ("real_warm_cpu_ms", real_cpu_ms),
        ("unattributed_cpu_frac", 1.0 - ledger_cpu_ms / real_cpu_ms),
        ("ledger_warm_lookups", ledger_lookups),
        ("real_warm_lookups", real_lookups),
        ("unattributed_frac", 1.0 - ledger_lookups / real_lookups),
        ("replay_matches", if replay_matches { 1.0 } else { 0.0 }),
        ("new_types", (types1.types - types0.types) as f64),
        ("canonical_hits", canonical_hits),
        ("canonical_lookups", canonical_hits + canonical_misses),
        ("derivations", new_derivations),
        ("derivation_hits", derivation_hits),
        ("derivation_lookups", derivation_hits + new_derivations),
    ];
    // The traced row's cold path, what the untraced row runs: set-up and the
    // cold ledger pass.
    let cold_path_ms = setup_ms + cold.build_ms + cold.check_ms + cold.witness_ms + cold.render_ms;
    row_record(scenario, &cold.report, ready, cold_path_ms, layers)
}

/// One measured row, as the parent sees it.
#[derive(Clone, Debug)]
pub struct Row {
    pub name: String,
    pub setup_s: f64,
    pub record: Json,
}

/// Runs row `index` in a fresh process.
pub fn run_row(index: usize, trace: bool) -> Result<Row, String> {
    let mut args = vec!["fig9-row".to_string(), index.to_string()];
    if trace {
        args.push("--trace".into());
    }
    let (spawned, mut record) = sys::run_child(&args)?;
    if trace {
        let (_, probe) = sys::run_child(&["fig9-probe".into(), index.to_string()])?;
        if let Json::Obj(m) = &mut record {
            m.insert("probe_ms".into(), Json::Num(sys::num(&probe, "probe_ms")));
        }
    }
    let name = record
        .get("name")
        .and_then(Json::as_str)
        .unwrap_or_default()
        .to_string();
    let setup_s = (sys::num(&record, "ready_unix_ns") - spawned as f64) / 1e9;
    Ok(Row {
        name,
        setup_s,
        record,
    })
}

/// Checks a row's record against the expected file: no error, and the
/// recorded verdicts, states and transitions.
pub fn check_row(row: &Row, expected: &Expected) -> Result<(), String> {
    if let Some(e) = row.record.get("error").and_then(Json::as_str) {
        return Err(format!("{}: run failed: {e}", row.name));
    }
    let got = row
        .record
        .get("outcome")
        .ok_or("row record without outcome")
        .and_then(|o| Outcome::from_json(o).map_err(|_| "malformed outcome"))?;
    expected.check(&row.name, &got)?;
    if sys::num(&row.record, "replay_matches") == 0.0 {
        return Err(format!(
            "{}: engine replay or warm rebuild drifted",
            row.name
        ));
    }
    Ok(())
}

/// The row count of the workload.
pub fn rows() -> usize {
    fig9_scenarios(SCALE).len()
}
