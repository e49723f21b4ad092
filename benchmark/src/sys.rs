//! Process plumbing: fresh child processes, peak RSS, and provenance.

use std::process::{Command, Stdio};
use std::time::{SystemTime, UNIX_EPOCH};

use wire::Json;

/// Worker threads and connections every workload may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Wall-clock nanoseconds since the Unix epoch: the one clock a parent and
/// its child share, used to time a child's start-up from its spawn.
pub fn unix_ns() -> u128 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos())
}

/// CPU time of this process so far, all its threads (live and exited), in
/// seconds. Unlike wall time it leaves out the time the host steals from
/// this machine's CPUs, which on a shared host is most of the run-to-run
/// noise.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn cpu_secs() -> f64 {
    /// The C `struct timespec` of 64-bit Linux.
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` for the whole call,
    // and `clock_gettime` writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return f64::NAN;
    }
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU time is only read on 64-bit Linux; elsewhere the metrics built on it
/// read `NaN` and the run fails loudly.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn cpu_secs() -> f64 {
    f64::NAN
}

/// This process's peak resident set (`VmHWM`), bytes; 0 where `/proc` is
/// missing.
pub fn vm_hwm_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .map_or(0, |kb| kb * 1024)
}

/// Runs this executable again with `args` in a fresh process and returns the
/// JSON object it prints as its last stdout line, together with the spawn
/// time ([`unix_ns`]) so the caller can time the child's set-up.
pub fn run_child(args: &[String]) -> Result<(u128, Json), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let spawned = unix_ns();
    let out = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {args:?}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!("child {args:?} exited with {}", out.status));
    }
    let last = stdout.lines().last().unwrap_or_default();
    let json = Json::parse(last).map_err(|e| format!("child {args:?} printed {last:?}: {e}"))?;
    Ok((spawned, json))
}

/// A numeric field of a child's record.
pub fn num(record: &Json, key: &str) -> f64 {
    record.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN)
}

fn first_line_of(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()?;
    out.status.success().then_some(())?;
    Some(
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .next()?
            .trim()
            .to_string(),
    )
}

/// FNV-1a over the repository's sources (every file under `crates/` and the
/// benchmark's own `src/`, in path order): names the code measured when the
/// checkout is not a git repository.
fn source_digest() -> String {
    fn walk(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, out);
            } else if matches!(
                path.extension().and_then(|e| e.to_str()),
                Some("rs" | "toml")
            ) {
                out.push(path);
            }
        }
    }
    let mut files = Vec::new();
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    walk(&root.join("../crates"), &mut files);
    walk(&root.join("src"), &mut files);
    files.sort();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for file in &files {
        let bytes = std::fs::read(file).unwrap_or_default();
        for b in file.to_string_lossy().bytes().chain(bytes) {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{hash:016x} over {} files", files.len())
}

/// Where and on what a record was measured.
pub fn provenance(seed: u64, workload: &str, trace: bool) -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let commit = first_line_of("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into());
    Json::obj([
        ("workload", Json::str(workload)),
        ("seed", Json::Num(seed as f64)),
        ("trace", Json::Bool(trace)),
        ("nproc", Json::Num(nproc() as f64)),
        ("cpu_model", Json::str(cpu)),
        ("commit", Json::str(commit)),
        ("source_digest", Json::str(source_digest())),
        (
            "profile",
            Json::str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        (
            "rustc",
            Json::str(first_line_of("rustc", &["--version"]).unwrap_or_else(|| "unknown".into())),
        ),
        // Every measured verification, server and engine leg runs in a
        // process of its own.
        ("cold_processes", Json::Bool(true)),
    ])
}
