//! `serve_open`: an in-process `effpi-serve` over TCP loopback (the CLI's
//! default transport) with `workers = nproc` and a persistent store in a
//! fresh directory, fed an open-loop Poisson schedule over `nproc`
//! pipelined connections. Each rate of the ladder runs in a fresh process,
//! so no rate inherits another's warm interner.
//!
//! A fixed share of requests repeats a key first sent at least
//! [`MIN_AGE_S`] earlier: reads served by the LRU or disk tier, which bypass
//! exploration. The rest are first sightings: a cold verification and a
//! store write-through.

use std::collections::{BTreeMap, BTreeSet};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::time::Duration;

use serve::{Client, Endpoints, Server, ServerConfig, ServerHandle, StoreTier, WireReport};
use wire::Json;

use crate::expected::{Expected, Outcome};
use crate::loadgen::{self, Halves};
use crate::population::{self, Planned};
use crate::stats::{self, median};
use crate::sys;

// The traffic below is assumed, not taken from a serve log: the repository
// has none. README.md ("Traffic assumptions") gives the reasons and how the
// gated metrics move with the repeat share.

/// The rate ladder, requests/s; [`NOMINAL`] indexes the nominal rate.
pub const RATES: [f64; 3] = [10.0, 20.0, 40.0];
pub const NOMINAL: usize = 1;
/// The share of requests that repeat an earlier key.
pub const REPEAT_SHARE: f64 = 0.7;
/// A repeat re-sends a key first due at least this long before, so that its
/// first sighting has been answered and the repeat is a hit.
pub const MIN_AGE_S: f64 = 1.0;
/// The tail latency limit a rate must meet to count towards `max_rps`.
pub const TAIL_LIMIT_MS: f64 = 500.0;
/// The read timeout after which a silent connection counts its outstanding
/// requests as failed.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// The phases a profiled reply may carry, in pipeline order.
pub const PHASES: [&str; 8] = [
    "parse",
    "fingerprint",
    "lru_probe",
    "disk_probe",
    "typecheck",
    "explore",
    "check",
    "render",
];

fn connect(addr: &str) -> std::io::Result<Halves> {
    let stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
    Ok((Box::new(stream.try_clone()?), Box::new(stream)))
}

fn field(json: &Json, section: &str, key: &str) -> f64 {
    json.get(section)
        .and_then(|s| s.get(key))
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
}

/// What one checked reply carries.
struct Checked {
    cached: bool,
    states: usize,
    /// The report object, as text.
    text: String,
    /// Per-phase microseconds of a profiled reply.
    phases: BTreeMap<String, f64>,
}

fn check_reply(body: &Json, want: &Outcome) -> Result<Checked, String> {
    if body.get("ok").and_then(Json::as_bool) != Some(true) {
        return Err(format!(
            "refused: {}",
            body.get("error").unwrap_or(&Json::Null)
        ));
    }
    let reply = serve::client::decode_verify(body).map_err(|e| e.to_string())?;
    let report: &WireReport = &reply.report;
    if let Some(e) = &report.error {
        return Err(format!("run failed: {e}"));
    }
    let got = Outcome {
        states: report.states,
        transitions: report.transitions,
        verdicts: report.verdicts.clone(),
    };
    if &got != want {
        return Err(format!("got {} expected {}", got.to_json(), want.to_json()));
    }
    let phases = match body.get("phases") {
        Some(Json::Obj(map)) => map
            .iter()
            .filter_map(|(k, v)| Some((k.strip_suffix("_us")?.to_string(), v.as_f64()?)))
            .collect(),
        _ => BTreeMap::new(),
    };
    let report_json = body.get("report").ok_or("reply without report")?;
    Ok(Checked {
        cached: reply.cached,
        states: report.states,
        text: report_json.to_string(),
        phases,
    })
}

fn tail(samples: &[f64]) -> (f64, f64) {
    stats::highest_tail(samples).unwrap_or((100.0, samples.iter().copied().fold(0.0, f64::max)))
}

/// A rate's server and load, set up and ready to drive.
struct Started {
    handle: ServerHandle,
    addr: String,
    connections: Vec<Halves>,
    plan: Vec<Planned>,
    store_dir: PathBuf,
    /// When set-up ended ([`sys::unix_ns`]).
    ready: u128,
}

/// A rate's set-up: the schedule rendered, the server started with its store
/// opened, and the connections open.
fn start(seed: u64, rate: f64, seconds: f64, work_dir: &Path) -> Result<Started, String> {
    let expected = Expected::load();
    let plan = population::schedule(seed, rate, seconds, REPEAT_SHARE, MIN_AGE_S, &expected);
    let store_dir = work_dir.join(format!("store-{}", std::process::id()));
    let handle = Server::start(
        &Endpoints {
            tcp: Some("127.0.0.1:0".into()),
            unix: None,
        },
        ServerConfig {
            workers: sys::nproc(),
            jobs: sys::nproc(),
            store: Some(StoreTier::at(&store_dir)),
            ..ServerConfig::default()
        },
    )
    .map_err(|e| format!("start effpi-serve: {e}"))?;
    let addr = handle.tcp_addr().ok_or("no TCP address")?.to_string();
    let connections = (0..sys::nproc())
        .map(|_| connect(&addr))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("connect: {e}"))?;
    Ok(Started {
        handle,
        addr,
        connections,
        plan,
        store_dir,
        ready: sys::unix_ns(),
    })
}

/// Child process: a rate's set-up alone, then a shutdown. The ladder's three
/// rates give three set-up samples; these give `setup_s` more.
pub fn setup_child(seed: u64, rate: f64, seconds: f64, work_dir: &Path) -> Result<Json, String> {
    let started = start(seed, rate, seconds, work_dir)?;
    drop(started.connections);
    started.handle.shutdown();
    let _ = std::fs::remove_dir_all(&started.store_dir);
    Ok(Json::obj([(
        "ready_unix_ns",
        Json::Num(started.ready as f64),
    )]))
}

/// Child process: one rate of the ladder — start the server, drive the
/// schedule, check every reply, summarise.
pub fn rung_child(
    seed: u64,
    rate: f64,
    seconds: f64,
    trace: bool,
    work_dir: &Path,
) -> Result<Json, String> {
    let Started {
        handle,
        addr,
        connections,
        plan,
        store_dir,
        ready,
    } = start(seed, rate, seconds, work_dir)?;
    let due: Vec<f64> = plan.iter().map(|p| p.at).collect();
    let texts: Vec<String> = plan.iter().map(|p| p.text.clone()).collect();
    let cpu = sys::cpu_secs();
    let driven = loadgen::drive(connections, &due, &texts, trace);
    let cpu_secs = sys::cpu_secs() - cpu;
    let stats = Client::connect_tcp(&addr)
        .and_then(|mut c| c.stats().map_err(|e| std::io::Error::other(e.to_string())))
        .map_err(|e| format!("stats: {e}"))?;
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&store_dir);

    let mut failed = 0usize;
    let mut latencies = Vec::new();
    let (mut hit_lat, mut miss_lat) = (Vec::new(), Vec::new());
    let (mut hit_residual, mut miss_residual) = (Vec::new(), Vec::new());
    let mut phase_samples: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut miss_states = 0usize;
    // States of the distinct bases verified cold: what the process-wide
    // interner retains, however often a base is explored again.
    let mut bases_seen = BTreeSet::new();
    let mut distinct_states = 0usize;
    // Every cold reply's report text per key; a hit must equal one of them.
    let mut cold_text: BTreeMap<usize, Vec<String>> = BTreeMap::new();
    let mut hits: Vec<(usize, usize, String)> = Vec::new();
    for (i, (planned, reply)) in plan.iter().zip(&driven.replies).enumerate() {
        let checked = reply
            .body
            .as_ref()
            .ok_or_else(|| "no reply".to_string())
            .and_then(|b| check_reply(b, &planned.expected));
        let reply_ok = match checked {
            Ok(c) => c,
            Err(e) => {
                eprintln!("serve_open request {i} (key {}): {e}", planned.key);
                failed += 1;
                latencies.push(f64::INFINITY);
                continue;
            }
        };
        latencies.push(reply.latency_ms);
        let residual = reply.latency_ms - reply_ok.phases.values().sum::<f64>() / 1e3;
        for (k, v) in reply_ok.phases {
            phase_samples.entry(k).or_default().push(v);
        }
        if reply_ok.cached {
            hit_lat.push(reply.latency_ms);
            hit_residual.push(residual);
            hits.push((i, planned.key, reply_ok.text));
        } else {
            miss_lat.push(reply.latency_ms);
            miss_residual.push(residual);
            miss_states += reply_ok.states;
            if bases_seen.insert(planned.base) {
                distinct_states += reply_ok.states;
            }
            cold_text
                .entry(planned.key)
                .or_default()
                .push(reply_ok.text);
        }
    }
    for (i, key, text) in hits {
        if !cold_text.get(&key).is_some_and(|t| t.contains(&text)) {
            eprintln!("serve_open request {i} (key {key}): hit differs from the cold reply");
            failed += 1;
        }
    }
    let n = plan.len();
    let quarter = (n / 4).max(1);
    let finite = |s: &[f64]| {
        s.iter()
            .copied()
            .filter(|l| l.is_finite())
            .collect::<Vec<_>>()
    };
    let early = median(&finite(&latencies[..quarter.min(n)]));
    let late = median(&finite(&latencies[n.saturating_sub(quarter)..]));
    // NaN (no finite latency in a quarter) counts as growing.
    let growing = late.partial_cmp(&(2.0 * early + 50.0)) != Some(std::cmp::Ordering::Less);
    let lookups = field(&stats, "cache", "hits") + field(&stats, "cache", "misses");
    let planned_repeats = plan.iter().filter(|p| p.repeat).count();
    let (tail_pct, tail_ms) = tail(&latencies);
    let (_, late_tail) = tail(&driven.replies.iter().map(|r| r.late_ms).collect::<Vec<_>>());
    let mut fields = vec![
        ("rate", Json::Num(rate)),
        ("seconds", Json::Num(seconds)),
        ("ready_unix_ns", Json::Num(ready as f64)),
        ("attempted", Json::Num(n as f64)),
        ("failed", Json::Num(failed as f64)),
        ("hits", Json::Num(hit_lat.len() as f64)),
        ("misses", Json::Num(miss_lat.len() as f64)),
        ("p50_ms", Json::Num(median(&latencies))),
        ("tail_pct", Json::Num(tail_pct)),
        // A failed request's latency is infinite, which JSON cannot carry.
        (
            "tail_ms",
            if tail_ms.is_finite() {
                Json::Num(tail_ms)
            } else {
                Json::Null
            },
        ),
        ("hit_p50_ms", Json::Num(median(&hit_lat))),
        ("miss_p50_ms", Json::Num(median(&miss_lat))),
        ("hit_residual_ms", Json::Num(median(&hit_residual))),
        ("miss_residual_ms", Json::Num(median(&miss_residual))),
        ("miss_states", Json::Num(miss_states as f64)),
        ("distinct_states", Json::Num(distinct_states as f64)),
        // The whole process — server and load generator — while the
        // schedule ran.
        ("cpu_secs", Json::Num(cpu_secs)),
        ("growing_backlog", Json::Bool(growing)),
        ("backlog_max", Json::Num(driven.backlog_max as f64)),
        ("late_tail_ms", Json::Num(late_tail)),
        (
            "hit_ratio",
            Json::Num(
                (field(&stats, "cache", "hits") + field(&stats, "cache", "disk_hits"))
                    / lookups.max(1.0),
            ),
        ),
        (
            "planned_repeat_share",
            Json::Num(planned_repeats as f64 / n.max(1) as f64),
        ),
        ("shed", Json::Num(field(&stats, "requests", "shed"))),
        (
            "store_insertions",
            Json::Num(field(&stats, "store", "insertions")),
        ),
        (
            "store_file_bytes",
            Json::Num(field(&stats, "store", "file_bytes")),
        ),
        ("vm_hwm_bytes", Json::Num(sys::vm_hwm_bytes() as f64)),
    ];
    for phase in PHASES {
        let samples = phase_samples.get(phase).map(Vec::as_slice).unwrap_or(&[]);
        let p50 = if samples.is_empty() {
            0.0
        } else {
            median(samples)
        };
        fields.push((phase, Json::Num(p50)));
    }
    Ok(Json::obj(
        fields.into_iter().map(|(k, v)| (k.to_string(), v)),
    ))
}

/// One measured rate, as the parent sees it.
#[derive(Clone, Debug)]
pub struct Rung {
    pub setup_s: f64,
    pub record: Json,
}

fn rung_args(kind: &str, seed: u64, rate: f64, seconds: f64, trace: bool) -> Vec<String> {
    let mut args = vec![
        kind.to_string(),
        seed.to_string(),
        rate.to_string(),
        seconds.to_string(),
    ];
    if trace {
        args.push("--trace".into());
    }
    args
}

fn setup_secs(spawned: u128, record: &Json) -> f64 {
    (sys::num(record, "ready_unix_ns") - spawned as f64) / 1e9
}

pub fn run_rung(seed: u64, rate: f64, seconds: f64, trace: bool) -> Result<Rung, String> {
    let (spawned, record) = sys::run_child(&rung_args("serve-rung", seed, rate, seconds, trace))?;
    Ok(Rung {
        setup_s: setup_secs(spawned, &record),
        record,
    })
}

/// Runs a rate's set-up alone in a fresh process; returns its seconds.
pub fn run_setup(seed: u64, rate: f64, seconds: f64) -> Result<f64, String> {
    let (spawned, record) = sys::run_child(&rung_args("serve-setup", seed, rate, seconds, false))?;
    Ok(setup_secs(spawned, &record))
}

/// Whether a rate met the tail limit with no failure and no growing backlog.
pub fn sustained(record: &Json) -> bool {
    sys::num(record, "failed") == 0.0
        && sys::num(record, "tail_ms") <= TAIL_LIMIT_MS
        && record.get("growing_backlog").and_then(Json::as_bool) == Some(false)
}
