//! The repository benchmark.
//!
//! ```text
//! effpi-benchmark --workload fig9_cold|serve_open|engine_replay
//!                 --seed N --seconds S --trace 0|1
//! ```
//!
//! Untraced runs (`--trace 0`) print the end-to-end metrics; traced runs
//! (`--trace 1`) print the per-layer ledger. The last stdout line is one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`; the line
//! before it is the full record, provenance included. The exit code is
//! non-zero when any output was wrong. See `README.md` for the workloads and
//! the metrics.

mod engine;
mod expected;
mod fig9;
mod loadgen;
mod population;
mod serve_open;
mod stats;
mod sys;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use wire::Json;

use stats::median;
use sys::num;

/// A metric as printed: value and unit.
type Metrics = BTreeMap<String, (f64, &'static str)>;

/// What a workload run produced.
struct RunResult {
    attempted: usize,
    failed: usize,
    /// `false` when an output disagreed with its expected value.
    correct: bool,
    metrics: Metrics,
    detail: Json,
}

const MIB: f64 = 1024.0 * 1024.0;

/// The per-layer metrics, in the order `BENCHMARK.json` lists them. A
/// traced run prints all of them; a layer its workload does not exercise
/// reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("mucalc.probe_ms", "ms"),
    ("lts.build_cold_ms", "ms"),
    ("lts.build_warm_ms", "ms"),
    ("lts.first_sight_ms", "ms"),
    ("lts.engine_replay_ms", "ms"),
    ("lts.successor_warm_ms", "ms"),
    ("mucalc.check_ms", "ms"),
    ("mucalc.witness_ms", "ms"),
    ("effpi.render_ms", "ms"),
    ("lambdapi.types_per_state", "count"),
    ("lambdapi.canonical_hit_ratio", "ratio"),
    ("dbt-types.derivations_per_state", "count"),
    ("dbt-types.hit_ratio", "ratio"),
    ("lts.states", "count"),
    ("lts.transitions", "count"),
    ("lts.engine_replay_frac_max", "ratio"),
    ("mucalc.check_witness_frac_max", "ratio"),
    ("bench.unattributed_frac", "ratio"),
    ("serve.parse_us", "us"),
    ("serve.fingerprint_us", "us"),
    ("serve.lru_probe_us", "us"),
    ("serve.disk_probe_us", "us"),
    ("serve.typecheck_us", "us"),
    ("serve.explore_us", "us"),
    ("serve.check_us", "us"),
    ("serve.render_us", "us"),
    ("serve.hit_residual_ms", "ms"),
    ("serve.miss_residual_ms", "ms"),
    ("serve.hit_ratio", "ratio"),
    ("serve.shed", "count"),
    ("serve.p50_ms", "ms"),
    ("serve.tail_ms", "ms"),
    ("serve.hit_p50_ms", "ms"),
    ("serve.miss_p50_ms", "ms"),
    ("serve.max_rps", "1/s"),
    ("store.insertions", "count"),
    ("store.file_bytes", "B"),
    ("loadgen.late_ms_tail", "ms"),
    ("loadgen.backlog_max", "count"),
    ("lts.serial_states_per_s", "1/s"),
    ("lts.spill_states_per_s", "1/s"),
    ("lts.parallel_speedup", "ratio"),
    ("lts.resident_peak_bytes.serial", "B"),
    ("lts.resident_peak_bytes.parallel", "B"),
    ("lts.resident_peak_bytes.spill", "B"),
    ("lts.working_set_share.serial", "ratio"),
    ("lts.working_set_share.parallel", "ratio"),
    ("lts.working_set_share.spill", "ratio"),
    ("lts.spill_segments", "count"),
    ("lts.spill_bytes", "B"),
    ("lts.spill_reloads", "count"),
    ("bench.latency_ms", "ms"),
    ("bench.ref_states_per_cpu_s", "1/s"),
    ("obs.trace_overhead_frac", "ratio"),
    ("bench.failed_frac", "ratio"),
];

/// The end-to-end metrics, every workload reporting each.
const END_TO_END: &[(&str, &str)] = &[
    ("states_per_cpu_s", "1/s"),
    ("bytes_per_state", "B"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
];

/// Metrics an untraced run measures beyond the end-to-end ones, reported in
/// its record under `also_measured`.
const ALSO_MEASURED: &[(&str, &str)] = &[("raw_states_per_cpu_s", "1/s"), ("raw_setup_s", "s")];

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .chain(ALSO_MEASURED)
        .find(|(n, _)| *n == name)
        .map_or("", |(_, u)| u)
}

fn put(metrics: &mut Metrics, name: &'static str, value: f64) {
    metrics.insert(name.to_string(), (value, unit_of(name)));
}

/// The scratch directory of this process, inside the working directory.
fn work_dir() -> PathBuf {
    PathBuf::from(".bench_work").join(std::process::id().to_string())
}

/// Runs `pass` until another pass would overrun `seconds` (at least once),
/// or until a pass `failed`: a failing pass can take no time at all, and
/// repeating it would only repeat the failure.
fn passes<T>(seconds: f64, mut pass: impl FnMut() -> T, failed: impl Fn(&T) -> bool) -> Vec<T> {
    let start = Instant::now();
    let mut out = Vec::new();
    loop {
        let t = Instant::now();
        out.push(pass());
        let last = t.elapsed().as_secs_f64();
        if out.last().is_some_and(&failed) || start.elapsed().as_secs_f64() + last > seconds {
            return out;
        }
    }
}

/// The reference's rate, states per CPU-second, that scaled figures are
/// expressed at: about its median on the 2-CPU host the benchmark was
/// defined on, whose slow and fast hours ran it at 490,000 to 750,000.
const REFERENCE_RATE: f64 = 600_000.0;

/// The host reference, sampled in fresh processes between the measured
/// ones: the states per CPU-second of a plain search on the standard library
/// alone ([`engine::reference_child`]). On a shared host the speed of
/// memory-bound work drifts by up to 45% between spells of the neighbours'
/// load, and the reference, memory-bound itself, drifts with it.
///
/// One rule decides what is scaled to [`REFERENCE_RATE`]: a figure of
/// memory-bound work, as the reference is. That is every workload's set-up
/// (process spawn and page faults) and the engine's search on
/// `engine_replay` (a few microseconds of memory traffic per state).
/// Verification throughput (`fig9_cold`, `serve_open`) is type derivation,
/// about a hundred times more computation per state, and is reported as
/// measured: `fig9_cold` moved by 9% and 22% where the reference moved by
/// 28% and 84%, so scaling would overcorrect it.
#[derive(Default)]
struct Reference {
    rates: Vec<f64>,
    attempted: usize,
    failed: usize,
}

impl Reference {
    /// Runs the reference once, always on the same graph.
    fn probe(&mut self) {
        self.attempted += 1;
        match sys::run_child(&["engine-reference".into()]) {
            Ok((_, r)) if r.get("correct").and_then(Json::as_bool) == Some(true) => {
                self.rates.push(num(&r, "states_per_cpu_s"));
            }
            Ok(_) => {
                eprintln!("host reference: the search miscounted the graph");
                self.failed += 1;
            }
            Err(e) => {
                eprintln!("host reference: {e}");
                self.failed += 1;
            }
        }
    }

    /// Puts the reference's median: how fast the host ran during the run.
    fn put_host(&self, metrics: &mut Metrics) {
        put(metrics, "bench.ref_states_per_cpu_s", median(&self.rates));
    }

    /// Puts a search throughput, raw and, as `states_per_cpu_s`, scaled to
    /// the host running the reference at [`REFERENCE_RATE`].
    fn put_search_throughput(&self, metrics: &mut Metrics, raw: f64) {
        put(metrics, "raw_states_per_cpu_s", raw);
        put(
            metrics,
            "states_per_cpu_s",
            raw * REFERENCE_RATE / median(&self.rates),
        );
    }

    /// Puts the median set-up time, raw and, as `setup_s`, scaled to the
    /// host running the reference at [`REFERENCE_RATE`].
    fn put_setup(&self, metrics: &mut Metrics, setups: &[f64]) {
        let raw = median(setups);
        put(metrics, "raw_setup_s", raw);
        put(
            metrics,
            "setup_s",
            raw * median(&self.rates) / REFERENCE_RATE,
        );
    }
}

// ---------------------------------------------------------------- fig9_cold

/// An untraced row is repeated in fresh processes until its runs add up to
/// about [`ROW_SECONDS`] (at most [`MAX_REPS`] runs), so a short row
/// contributes the median of several processes, not one noisy sample.
const ROW_SECONDS: f64 = 3.0;
const MAX_REPS: usize = 15;

/// Seconds of row processes between two probes of the host reference.
const PROBE_EVERY_S: f64 = 2.5;

/// One pass over the rows: the runs of each row, in row order.
struct Fig9Pass {
    rows: Vec<Vec<fig9::Row>>,
    attempted: usize,
    failed: usize,
    correct: bool,
    /// When the host reference was last probed.
    probed: Option<Instant>,
}

impl Fig9Pass {
    fn run(
        &mut self,
        slot: usize,
        index: usize,
        traced: bool,
        expected: &expected::Expected,
        reference: &mut Reference,
    ) {
        if self
            .probed
            .is_none_or(|t| t.elapsed().as_secs_f64() >= PROBE_EVERY_S)
        {
            reference.probe();
            self.probed = Some(Instant::now());
        }
        self.attempted += 1;
        match fig9::run_row(index, traced) {
            Ok(row) => {
                if let Err(e) = fig9::check_row(&row, expected) {
                    eprintln!("fig9_cold: {e}");
                    self.failed += 1;
                    self.correct = false;
                }
                self.rows[slot].push(row);
            }
            Err(e) => {
                eprintln!("fig9_cold row {index}: {e}");
                self.failed += 1;
            }
        }
    }
}

/// Runs every row once; with `repeat`, then runs the extra repeats of the
/// short rows interleaved, each row's spread evenly over the rest of the
/// pass, so that a slow spell of the host cannot take all of one row's
/// samples.
fn fig9_pass(
    order: &[usize],
    traced: bool,
    repeat: bool,
    expected: &expected::Expected,
    reference: &mut Reference,
) -> Fig9Pass {
    let mut pass = Fig9Pass {
        rows: vec![Vec::new(); order.len()],
        attempted: 0,
        failed: 0,
        correct: true,
        probed: None,
    };
    for (slot, &i) in order.iter().enumerate() {
        pass.run(slot, i, traced, expected, reference);
    }
    if repeat {
        // (position in the rest of the pass, slot) for every extra run.
        let mut extra: Vec<(f64, usize)> = Vec::new();
        for (slot, runs) in pass.rows.iter().enumerate() {
            let Some(first) = runs.first() else { continue };
            let ms = num(&first.record, "row_ms").max(1e-3);
            let reps = ((ROW_SECONDS * 1e3 / ms).ceil() as usize).clamp(1, MAX_REPS) - 1;
            extra.extend((0..reps).map(|j| ((j as f64 + 0.5) / reps as f64, slot)));
        }
        extra.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        for (_, slot) in extra {
            pass.run(slot, order[slot], traced, expected, reference);
        }
    }
    pass
}

/// A count (`states` or `transitions`) of a row's outcome.
fn row_count(r: &fig9::Row, key: &str) -> f64 {
    r.record
        .get("outcome")
        .and_then(|o| o.get(key))
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
}

fn fig9_cold(seed: u64, seconds: f64, trace: bool) -> RunResult {
    let expected = expected::Expected::load();
    let mut order: Vec<usize> = (0..fig9::rows()).collect();
    stats::Rng::new(seed).shuffle(&mut order);
    let mut reference = Reference::default();
    // A traced run makes one untraced pass, for the overhead comparison, and
    // one traced pass.
    let results = if trace {
        vec![
            fig9_pass(&order, false, false, &expected, &mut reference),
            fig9_pass(&order, true, false, &expected, &mut reference),
        ]
    } else {
        passes(
            seconds,
            || fig9_pass(&order, false, true, &expected, &mut reference),
            |p| p.failed > 0,
        )
    };
    let attempted = results.iter().map(|p| p.attempted).sum::<usize>() + reference.attempted;
    let failed = results.iter().map(|p| p.failed).sum::<usize>() + reference.failed;
    let mut correct = results.iter().all(|p| p.correct);
    let row_ms = |r: &fig9::Row| num(&r.record, "row_ms");
    let untraced = &results[..if trace { 1 } else { results.len() }];
    /// One row of a pass: its states and the medians over its runs.
    struct RowSummary {
        states: f64,
        ms: f64,
        cpu_ms: f64,
        hwm: f64,
    }
    let rows: Vec<RowSummary> = untraced
        .iter()
        .flat_map(|p| &p.rows)
        .filter(|runs| !runs.is_empty())
        .map(|runs| {
            let of =
                |key: &str| median(&runs.iter().map(|r| num(&r.record, key)).collect::<Vec<_>>());
            RowSummary {
                states: row_count(&runs[0], "states"),
                ms: of("row_ms"),
                cpu_ms: of("row_cpu_ms"),
                hwm: of("vm_hwm_bytes"),
            }
        })
        .collect();
    let total_ms: f64 = rows.iter().map(|r| r.ms).sum();
    let mut metrics = Metrics::new();
    put(
        &mut metrics,
        "bench.latency_ms",
        stats::geomean(rows.iter().map(|r| r.ms)),
    );
    reference.put_host(&mut metrics);
    if !trace {
        // Geometric means over the rows: every row weighs the same whatever
        // its size, and the rows' independent processes average out.
        let largest = rows.iter().map(|r| r.states).fold(0.0, f64::max);
        let largest_bps: Vec<f64> = rows
            .iter()
            .filter(|r| r.states == largest)
            .map(|r| r.hwm / r.states)
            .collect();
        put(
            &mut metrics,
            "states_per_cpu_s",
            stats::geomean(rows.iter().map(|r| r.states / (r.cpu_ms / 1e3))),
        );
        put(&mut metrics, "bytes_per_state", median(&largest_bps));
        put(
            &mut metrics,
            "peak_rss_mb",
            rows.iter().map(|r| r.hwm).fold(0.0, f64::max) / MIB,
        );
        let setups: Vec<f64> = untraced
            .iter()
            .flat_map(|p| p.rows.iter().flatten())
            .map(|r| r.setup_s)
            .collect();
        reference.put_setup(&mut metrics, &setups);
    } else {
        let traced: Vec<&fig9::Row> = results[1].rows.iter().flatten().collect();
        let sum = |k: &str| traced.iter().map(|r| num(&r.record, k)).sum::<f64>();
        let max = |f: &dyn Fn(&fig9::Row) -> f64| traced.iter().map(|r| f(r)).fold(0.0, f64::max);
        let states_sum: f64 = traced.iter().map(|r| row_count(r, "states")).sum();
        let (cold, warm, replay) = (
            sum("build_cold_ms"),
            sum("build_warm_ms"),
            sum("engine_replay_ms"),
        );
        put(&mut metrics, "mucalc.probe_ms", sum("probe_ms"));
        put(&mut metrics, "lts.build_cold_ms", cold);
        put(&mut metrics, "lts.build_warm_ms", warm);
        put(&mut metrics, "lts.first_sight_ms", cold - warm);
        put(&mut metrics, "lts.engine_replay_ms", replay);
        put(&mut metrics, "lts.successor_warm_ms", warm - replay);
        put(&mut metrics, "mucalc.check_ms", sum("check_ms"));
        put(&mut metrics, "mucalc.witness_ms", sum("witness_ms"));
        put(&mut metrics, "effpi.render_ms", sum("render_ms"));
        put(
            &mut metrics,
            "lambdapi.types_per_state",
            sum("new_types") / states_sum,
        );
        put(
            &mut metrics,
            "lambdapi.canonical_hit_ratio",
            sum("canonical_hits") / sum("canonical_lookups"),
        );
        put(
            &mut metrics,
            "dbt-types.derivations_per_state",
            sum("derivations") / states_sum,
        );
        put(
            &mut metrics,
            "dbt-types.hit_ratio",
            sum("derivation_hits") / sum("derivation_lookups"),
        );
        put(&mut metrics, "lts.states", states_sum);
        put(
            &mut metrics,
            "lts.transitions",
            traced.iter().map(|r| row_count(r, "transitions")).sum(),
        );
        // Shares are taken over the rows long enough to time (ROADMAP's
        // 100 ms rule); a few-millisecond row is all fixed costs.
        let timeable =
            |f: &dyn Fn(&fig9::Row) -> f64| max(&|r| if row_ms(r) >= 100.0 { f(r) } else { 0.0 });
        put(
            &mut metrics,
            "lts.engine_replay_frac_max",
            timeable(&|r| num(&r.record, "engine_replay_ms") / row_ms(r)),
        );
        put(
            &mut metrics,
            "mucalc.check_witness_frac_max",
            timeable(&|r| (num(&r.record, "check_ms") + num(&r.record, "witness_ms")) / row_ms(r)),
        );
        // The ledger against the real `run_scenario`, worst row, whichever
        // side does more: a ledger that does extra work is as wrong as one
        // that misses some.
        let unattributed = max(&|r| num(&r.record, "unattributed_frac").abs());
        put(&mut metrics, "bench.unattributed_frac", unattributed);
        if unattributed > 0.05 {
            eprintln!("fig9_cold: the ledger and the real run_scenario differ by {unattributed:.3} of a row's lookups (> 0.05)");
            correct = false;
        }
        let traced_ms: f64 = traced.iter().map(|r| row_ms(r)).sum();
        put(
            &mut metrics,
            "obs.trace_overhead_frac",
            traced_ms / total_ms - 1.0,
        );
    }
    let detail = Json::Arr(
        results
            .iter()
            .flat_map(|p| p.rows.iter().flatten())
            .map(|r| with_setup(&r.record, r.setup_s))
            .collect(),
    );
    RunResult {
        attempted,
        failed,
        correct,
        metrics,
        detail,
    }
}

/// A child's record with the set-up time the parent measured for it.
fn with_setup(record: &Json, setup_s: f64) -> Json {
    let mut record = record.clone();
    if let Json::Obj(m) = &mut record {
        m.insert("setup_s".into(), Json::Num(setup_s));
    }
    record
}

// ------------------------------------------------------------ engine_replay

fn engine_replay(seed: u64, seconds: f64, trace: bool) -> RunResult {
    let mut reference = Reference::default();
    let mut run_pass = |legs: &[&str]| -> Vec<Result<(String, f64, Json), String>> {
        reference.probe();
        legs.iter()
            .map(|leg| {
                let (spawned, record) =
                    sys::run_child(&["engine-leg".into(), seed.to_string(), leg.to_string()])?;
                Ok((
                    leg.to_string(),
                    (num(&record, "ready_unix_ns") - spawned as f64) / 1e9,
                    record,
                ))
            })
            .collect()
    };
    let results: Vec<Vec<_>> = if trace {
        vec![run_pass(&engine::LEGS), run_pass(&["parallel"])]
    } else {
        passes(
            seconds,
            || run_pass(&engine::LEGS),
            |legs| legs.iter().any(Result::is_err),
        )
    };
    let mut attempted = reference.attempted;
    let mut failed = reference.failed;
    let mut correct = true;
    let mut by_leg: BTreeMap<String, Vec<(f64, Json)>> = BTreeMap::new();
    for r in results.iter().flatten() {
        attempted += 1;
        match r {
            Ok((leg, setup, record)) => {
                if record.get("correct").and_then(Json::as_bool) != Some(true) {
                    failed += 1;
                    correct = false;
                }
                by_leg
                    .entry(leg.clone())
                    .or_default()
                    .push((*setup, record.clone()));
            }
            Err(e) => {
                eprintln!("engine_replay: {e}");
                failed += 1;
            }
        }
    }
    let leg_median = |leg: &str, key: &str| {
        median(
            &by_leg
                .get(leg)
                .map(|v| v.iter().map(|(_, r)| num(r, key)).collect::<Vec<_>>())
                .unwrap_or_default(),
        )
    };
    let states = leg_median("parallel", "states");
    let mut metrics = Metrics::new();
    reference.put_host(&mut metrics);
    if !trace {
        // Geometric means over the three legs of each leg's median: every
        // engine configuration counts, and every process of the run damps
        // the host's per-process noise.
        let over_legs =
            |key: &str| stats::geomean(engine::LEGS.iter().map(|leg| leg_median(leg, key)));
        let secs = over_legs("secs");
        reference.put_search_throughput(&mut metrics, states / over_legs("cpu_secs"));
        put(
            &mut metrics,
            "bytes_per_state",
            leg_median("parallel", "vm_hwm_bytes") / states,
        );
        put(
            &mut metrics,
            "peak_rss_mb",
            by_leg
                .values()
                .flatten()
                .map(|(_, r)| num(r, "vm_hwm_bytes"))
                .fold(0.0, f64::max)
                / MIB,
        );
        put(&mut metrics, "bench.latency_ms", secs * 1e3);
        let setups: Vec<f64> = by_leg.values().flatten().map(|(s, _)| *s).collect();
        reference.put_setup(&mut metrics, &setups);
    } else {
        // The legs carry no instrumentation beyond `Exploration::stats`, so
        // the second pass's repeat of the parallel leg measures the noise
        // floor of the overhead comparison.
        let first = |leg: &str, key: &str| {
            by_leg
                .get(leg)
                .and_then(|v| v.first())
                .map_or(0.0, |(_, r)| num(r, key))
        };
        put(
            &mut metrics,
            "bench.latency_ms",
            stats::geomean(engine::LEGS.iter().map(|leg| first(leg, "secs"))) * 1e3,
        );
        let untraced_parallel = by_leg
            .get("parallel")
            .and_then(|v| v.get(1))
            .map_or(f64::NAN, |(_, r)| num(r, "secs"));
        put(
            &mut metrics,
            "lts.serial_states_per_s",
            first("serial", "states") / first("serial", "secs"),
        );
        put(
            &mut metrics,
            "lts.spill_states_per_s",
            first("spill", "states") / first("spill", "secs"),
        );
        put(
            &mut metrics,
            "lts.parallel_speedup",
            first("serial", "secs") / first("parallel", "secs"),
        );
        for (leg, peak, share) in [
            (
                "serial",
                "lts.resident_peak_bytes.serial",
                "lts.working_set_share.serial",
            ),
            (
                "parallel",
                "lts.resident_peak_bytes.parallel",
                "lts.working_set_share.parallel",
            ),
            (
                "spill",
                "lts.resident_peak_bytes.spill",
                "lts.working_set_share.spill",
            ),
        ] {
            put(&mut metrics, peak, first(leg, "resident_peak_bytes"));
            put(
                &mut metrics,
                share,
                first(leg, "resident_peak_bytes") / first(leg, "vm_hwm_bytes"),
            );
        }
        put(
            &mut metrics,
            "lts.spill_segments",
            first("spill", "spill_segments"),
        );
        put(
            &mut metrics,
            "lts.spill_bytes",
            first("spill", "spill_bytes"),
        );
        put(
            &mut metrics,
            "lts.spill_reloads",
            first("spill", "spill_reloads"),
        );
        put(&mut metrics, "lts.states", first("parallel", "states"));
        put(
            &mut metrics,
            "lts.transitions",
            first("parallel", "transitions"),
        );
        put(
            &mut metrics,
            "obs.trace_overhead_frac",
            first("parallel", "secs") / untraced_parallel - 1.0,
        );
        if first("spill", "spill_segments") == 0.0 {
            eprintln!("engine_replay: the budgeted leg never spilled");
            correct = false;
        }
    }
    let detail = Json::Arr(
        by_leg
            .values()
            .flatten()
            .map(|(s, r)| with_setup(r, *s))
            .collect(),
    );
    RunResult {
        attempted,
        failed,
        correct,
        metrics,
        detail,
    }
}

// --------------------------------------------------------------- serve_open

/// Set-ups an untraced `serve_open` run makes beyond its three rates.
const SERVE_EXTRA_SETUPS: usize = 9;

fn serve_open(seed: u64, seconds: f64, trace: bool) -> RunResult {
    // The nominal rate gets half the run, the others share the rest.
    let rung_seconds = |k: usize| {
        let share = if k == serve_open::NOMINAL {
            0.5
        } else {
            0.5 / (serve_open::RATES.len() - 1) as f64
        };
        seconds * share
    };
    let mut rungs = Vec::new();
    let mut attempted = 0;
    let mut failed = 0;
    let rung_seed = |k: usize| seed.wrapping_mul(31).wrapping_add(k as u64);
    let mut reference = Reference::default();
    let mut run = |k: usize, traced: bool| {
        reference.probe();
        match serve_open::run_rung(rung_seed(k), serve_open::RATES[k], rung_seconds(k), traced) {
            Ok(rung) => {
                attempted += num(&rung.record, "attempted") as usize;
                failed += num(&rung.record, "failed") as usize;
                Some(rung)
            }
            Err(e) => {
                eprintln!("serve_open rate {}: {e}", serve_open::RATES[k]);
                attempted += 1;
                failed += 1;
                None
            }
        }
    };
    for k in 0..serve_open::RATES.len() {
        rungs.push(run(k, trace));
    }
    let untraced_nominal = if trace {
        run(serve_open::NOMINAL, false)
    } else {
        None
    };
    // More set-up samples than the three rates give: the nominal rate's
    // set-up again, each in a fresh process.
    let mut setups: Vec<f64> = rungs.iter().flatten().map(|r| r.setup_s).collect();
    if !trace {
        let k = serve_open::NOMINAL;
        for _ in 0..SERVE_EXTRA_SETUPS {
            reference.probe();
            attempted += 1;
            match serve_open::run_setup(rung_seed(k), serve_open::RATES[k], rung_seconds(k)) {
                Ok(s) => setups.push(s),
                Err(e) => {
                    eprintln!("serve_open set-up: {e}");
                    failed += 1;
                }
            }
        }
    }
    attempted += reference.attempted;
    failed += reference.failed;
    let mut metrics = Metrics::new();
    let nominal = rungs[serve_open::NOMINAL].clone();
    let nominal_num = |k: &str| nominal.as_ref().map_or(f64::NAN, |r| num(&r.record, k));
    let done: Vec<&serve_open::Rung> = rungs.iter().flatten().collect();
    put(&mut metrics, "bench.latency_ms", nominal_num("p50_ms"));
    reference.put_host(&mut metrics);
    if !trace {
        // The nominal rate only: at 40 req/s both workers explore at once
        // nearly all the time, and the CPU a state costs then swings with
        // how the two contend.
        put(
            &mut metrics,
            "states_per_cpu_s",
            nominal_num("miss_states") / nominal_num("cpu_secs"),
        );
        put(
            &mut metrics,
            "bytes_per_state",
            nominal_num("vm_hwm_bytes") / nominal_num("distinct_states"),
        );
        put(
            &mut metrics,
            "peak_rss_mb",
            done.iter()
                .map(|r| num(&r.record, "vm_hwm_bytes"))
                .fold(0.0, f64::max)
                / MIB,
        );
        reference.put_setup(&mut metrics, &setups);
    } else {
        for (name, key) in [
            ("serve.parse_us", "parse"),
            ("serve.fingerprint_us", "fingerprint"),
            ("serve.lru_probe_us", "lru_probe"),
            ("serve.disk_probe_us", "disk_probe"),
            ("serve.typecheck_us", "typecheck"),
            ("serve.explore_us", "explore"),
            ("serve.check_us", "check"),
            ("serve.render_us", "render"),
            ("serve.hit_residual_ms", "hit_residual_ms"),
            ("serve.miss_residual_ms", "miss_residual_ms"),
            ("serve.hit_ratio", "hit_ratio"),
            ("serve.shed", "shed"),
            ("serve.p50_ms", "p50_ms"),
            ("serve.tail_ms", "tail_ms"),
            ("serve.hit_p50_ms", "hit_p50_ms"),
            ("serve.miss_p50_ms", "miss_p50_ms"),
            ("store.insertions", "store_insertions"),
            ("store.file_bytes", "store_file_bytes"),
            ("loadgen.late_ms_tail", "late_tail_ms"),
            ("loadgen.backlog_max", "backlog_max"),
        ] {
            put(&mut metrics, name, nominal_num(key));
        }
        let max_rps = rungs
            .iter()
            .flatten()
            .filter(|r| serve_open::sustained(&r.record))
            .map(|r| num(&r.record, "attempted") / num(&r.record, "seconds"))
            .fold(0.0, f64::max);
        put(&mut metrics, "serve.max_rps", max_rps);
        let untraced_p50 = untraced_nominal
            .as_ref()
            .map_or(f64::NAN, |r| num(&r.record, "p50_ms"));
        put(
            &mut metrics,
            "obs.trace_overhead_frac",
            nominal_num("p50_ms") / untraced_p50 - 1.0,
        );
    }
    // At the nominal rate every repeat must be a hit: its key's first
    // sighting was due at least a second earlier.
    let drift = (nominal_num("hit_ratio") - nominal_num("planned_repeat_share")).abs();
    let correct = drift <= 0.05;
    if !correct {
        eprintln!("serve_open: hit ratio drifted {drift:.3} from the planned repeat share");
    }
    let detail = Json::Arr(
        rungs
            .iter()
            .chain(std::iter::once(&untraced_nominal))
            .flatten()
            .map(|r| with_setup(&r.record, r.setup_s))
            .collect(),
    );
    RunResult {
        attempted,
        failed,
        correct: correct && failed == 0,
        metrics,
        detail,
    }
}

// --------------------------------------------------------------------- main

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => parsed.workload = value.clone(),
            "--seed" => parsed.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => parsed.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => parsed.trace = value == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(parsed)
}

fn child(args: &[String]) -> Result<Json, String> {
    let trace = args.iter().any(|a| a == "--trace");
    let arg = |i: usize| args.get(i).ok_or_else(|| format!("missing argument {i}"));
    let parse_u64 = |i: usize| arg(i)?.parse::<u64>().map_err(|e| e.to_string());
    let parse_f64 = |i: usize| arg(i)?.parse::<f64>().map_err(|e| e.to_string());
    let work = work_dir();
    let result = match args[0].as_str() {
        "fig9-row" => {
            let index = parse_u64(1)? as usize;
            Ok(if trace {
                fig9::traced_row_child(index)
            } else {
                fig9::row_child(index)
            })
        }
        "fig9-probe" => Ok(fig9::probe_child(parse_u64(1)? as usize)),
        "engine-leg" => Ok(engine::leg_child(parse_u64(1)?, arg(2)?, &work)),
        "engine-reference" => Ok(engine::reference_child()),
        "serve-rung" => {
            serve_open::rung_child(parse_u64(1)?, parse_f64(2)?, parse_f64(3)?, trace, &work)
        }
        "serve-setup" => {
            serve_open::setup_child(parse_u64(1)?, parse_f64(2)?, parse_f64(3)?, &work)
        }
        "expected" => Ok(expected::record()),
        other => Err(format!("unknown subcommand {other}")),
    };
    let _ = std::fs::remove_dir_all(&work);
    result
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_some_and(|a| !a.starts_with("--")) {
        return match child(&args) {
            Ok(json) => {
                println!("{json}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("effpi-benchmark {}: {e}", args[0]);
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("effpi-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "fig9_cold" => fig9_cold(args.seed, args.seconds, args.trace),
        "serve_open" => serve_open(args.seed, args.seconds, args.trace),
        "engine_replay" => engine_replay(args.seed, args.seconds, args.trace),
        other => {
            eprintln!("effpi-benchmark: unknown workload {other:?} (fig9_cold, serve_open, engine_replay)");
            return ExitCode::from(2);
        }
    };
    let _ = std::fs::remove_dir(".bench_work");
    let mut metrics = outcome.metrics;
    if args.trace {
        put(
            &mut metrics,
            "bench.failed_frac",
            outcome.failed as f64 / outcome.attempted.max(1) as f64,
        );
        for (name, unit) in PER_LAYER {
            metrics.entry(name.to_string()).or_insert((0.0, unit));
        }
    }
    let listed = if args.trace { PER_LAYER } else { END_TO_END };
    let mut correct = outcome.correct && outcome.failed == 0;
    for (name, (value, unit)) in &metrics {
        eprintln!("{name:>34} {value:>16.4} {unit}");
    }
    for (name, _) in listed {
        if !metrics.get(*name).is_some_and(|(v, _)| v.is_finite()) {
            eprintln!("effpi-benchmark: metric {name} is missing or not finite");
            correct = false;
        }
    }
    // The result line carries exactly the listed metrics; anything else
    // measured (an untraced run's wall latency) goes to the record.
    let (metrics, also): (Metrics, Metrics) = metrics
        .into_iter()
        .partition(|(name, _)| listed.iter().any(|(n, _)| n == name));
    let as_json = |metrics: Metrics| {
        Json::Obj(
            metrics
                .into_iter()
                .map(|(k, (v, u))| {
                    let v = if v.is_finite() {
                        Json::Num(v)
                    } else {
                        Json::Null
                    };
                    (k, Json::obj([("value", v), ("unit", Json::str(u))]))
                })
                .collect(),
        )
    };
    let record = Json::obj([
        (
            "provenance",
            sys::provenance(args.seed, &args.workload, args.trace),
        ),
        ("also_measured", as_json(also)),
        ("detail", outcome.detail),
    ]);
    println!("{record}");
    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("metrics", as_json(metrics)),
    ]);
    println!("{result}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
