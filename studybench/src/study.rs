//! Study-level operations shared by the end-to-end and the traced runs:
//! set-up as `ppexp` performs it before a first trial, the output checks,
//! and the process-level measurements.

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use baselines::Gs18;
use core_protocol::Gsu19;
use ppexp::{config_grid, trial_plan, Artifact, ExperimentSpec, ProtocolKind, StopCondition};

/// Construct one config's protocol the way the engine does before its
/// first trial (compiled tables when the spec compiles). Returns the
/// compiled table entries, 0 when dynamic.
pub fn build_protocol(
    spec: &ExperimentSpec,
    protocol: ProtocolKind,
    n: u64,
) -> Result<usize, String> {
    Ok(match (protocol, spec.compiled) {
        (ProtocolKind::Gsu19, false) => {
            black_box(Gsu19::for_population(n));
            0
        }
        (ProtocolKind::Gsu19, true) => {
            black_box(Gsu19::for_population(n).compiled()).table_entries()
        }
        (ProtocolKind::Gs18, false) => {
            black_box(Gs18::for_population(n));
            0
        }
        (ProtocolKind::Gs18, true) => black_box(Gs18::for_population(n).compiled()).table_entries(),
        (other, _) => return Err(format!("no workload builds protocol '{}'", other.name())),
    })
}

/// Everything a run pays before its first trial: parse, validate, plan
/// expansion and per-config protocol construction.
pub fn setup(text: &str) -> Result<(), String> {
    let spec = ExperimentSpec::parse(text)?;
    spec.validate()?;
    black_box(trial_plan(&spec));
    for (protocol, n) in config_grid(&spec) {
        build_protocol(&spec, protocol, n)?;
    }
    Ok(())
}

/// Whether one trial met its stop condition's output contract: a
/// stabilized trial elected exactly one leader with every role decided;
/// a horizon trial ran exactly `n × horizon` interactions.
fn trial_ok(outcome: &ppexp::TrialOutcome, n: u64, stop: StopCondition) -> bool {
    outcome.converged
        && match stop {
            StopCondition::Stabilize { .. } => {
                outcome.metric("leaders") == Some(1.0) && outcome.metric("undecided") == Some(0.0)
            }
            StopCondition::Horizon { at_pt } => {
                outcome.metric("interactions") == Some(n as f64 * at_pt)
            }
            _ => true,
        }
}

/// Trials of `artifact` that missed their budget or failed a check.
pub fn failed_trials(artifact: &Artifact) -> usize {
    artifact
        .configs
        .iter()
        .map(|config| {
            config
                .trials
                .iter()
                .filter(|r| !trial_ok(&r.outcome, config.n, artifact.spec.stop))
                .count()
        })
        .sum()
}

/// Trials of `artifact`.
pub fn trial_count(artifact: &Artifact) -> usize {
    artifact.configs.iter().map(|c| c.trials.len()).sum()
}

/// Interactions simulated over every trial of `artifact`.
pub fn interactions(artifact: &Artifact) -> f64 {
    artifact
        .configs
        .iter()
        .flat_map(|c| &c.trials)
        .filter_map(|r| r.outcome.metric("interactions"))
        .sum()
}

/// One batch of `calls` back-to-back calls of `f`: the seconds per call,
/// and every call's result. The results are dropped after the clock
/// stops, so checking them costs the timing nothing.
pub fn batch<T>(
    calls: usize,
    mut f: impl FnMut() -> Result<T, String>,
) -> Result<(f64, Vec<T>), String> {
    let mut out = Vec::with_capacity(calls);
    let start = Instant::now();
    for _ in 0..calls {
        out.push(f()?);
    }
    Ok((start.elapsed().as_secs_f64() / calls as f64, out))
}

/// The smallest power-of-two number of calls of `f` whose batch lasts at
/// least `target`, so that clock reads and one-off stalls are a small
/// share of every batch.
pub fn batch_size<T>(
    target: Duration,
    mut f: impl FnMut() -> Result<T, String>,
) -> Result<usize, String> {
    let mut calls = 1;
    while batch(calls, &mut f)?.0 * (calls as f64) < target.as_secs_f64() {
        calls *= 2;
    }
    Ok(calls)
}

/// Call `f` at least once and until `target` has passed; returns the
/// seconds each call reported.
pub fn repeat(
    target: Duration,
    mut f: impl FnMut() -> Result<f64, String>,
) -> Result<Vec<f64>, String> {
    let started = Instant::now();
    let mut times = vec![f()?];
    while started.elapsed() < target {
        times.push(f()?);
    }
    Ok(times)
}

/// [`repeat`] on `threads` threads at once; returns every call's seconds.
pub fn repeat_on(
    threads: usize,
    target: Duration,
    f: impl Fn() -> Result<f64, String> + Sync,
) -> Result<Vec<f64>, String> {
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| scope.spawn(|| repeat(target, &f)))
            .collect();
        let mut times = Vec::new();
        for worker in workers {
            times.extend(worker.join().map_err(|_| "a timing thread panicked")??);
        }
        Ok(times)
    })
}

/// Seconds `f` took, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// The process's resident-set high-water mark, in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// A per-run directory for trial caches, removed when dropped.
pub struct Scratch(PathBuf);

impl Scratch {
    /// A fresh directory under the working directory (the benchmark
    /// reads and writes nothing outside its checkout).
    pub fn create() -> Result<Self, String> {
        static CREATED: AtomicUsize = AtomicUsize::new(0);
        let dir = PathBuf::from(format!(
            ".studybench-tmp-{}-{}",
            std::process::id(),
            CREATED.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(Self(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Bytes of every file under `dir`, recursively.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|entry| match entry.file_type() {
            Ok(kind) if kind.is_dir() => dir_bytes(&entry.path()),
            _ => entry.metadata().map_or(0, |m| m.len()),
        })
        .sum()
}

/// The checked-out commit when the working directory is a git
/// repository, read from `.git` without leaving it; `unknown` otherwise.
pub fn commit() -> String {
    let read = |path: &str| std::fs::read_to_string(Path::new(".git").join(path)).ok();
    let head = read("HEAD").unwrap_or_default();
    let head = head.trim();
    let id = match head.strip_prefix("ref: ") {
        None => Some(head.to_string()),
        Some(name) => read(name).map(|s| s.trim().to_string()).or_else(|| {
            read("packed-refs")?
                .lines()
                .find_map(|l| l.strip_suffix(name)?.strip_suffix(' ').map(str::to_string))
        }),
    };
    match id {
        Some(id) if id.len() >= 12 => id[..12].to_string(),
        _ => "unknown".into(),
    }
}
