//! The end-to-end run: a closed loop of cold studies, one at a time,
//! with warm re-runs and set-ups between them, each timed from outside
//! the library with tracing off.

use std::time::{Duration, Instant};

use ppexp::{
    replay_trial, run_experiment_cached, trial_plan, Artifact, Cache, ExperimentSpec, TrialRecord,
};
use ppsim::split_seed;

use crate::report::{median, Outcome};
use crate::study::{self, Scratch};
use crate::workloads::{Workload, THREADS};

/// After each cold study, set-up and a warm re-run are each repeated for
/// this long (at least once), so both sample the same stretch of time as
/// the studies: on a shared host the machine's speed drifts by tens of
/// percent within a minute.
const BURST: Duration = Duration::from_millis(50);

/// A burst is skipped while the time already spent on its kind exceeds
/// this share of the time spent on cold studies, so that the studies keep
/// most of the run where one call outlasts [`BURST`] (a `trace-heavy`
/// set-up compiles tables for about half a second).
const BURST_SHARE: f64 = 0.1;

/// Set-ups and warm re-runs are timed in batches of back-to-back calls
/// lasting at least this long, one sample per batch (its mean per call).
/// A set-up takes microseconds on the dynamic workloads, too short to
/// time one at a time.
///
/// Set-ups run on all [`THREADS`] threads at once, the load every study
/// runs under. With the second core idle, a set-up's speed follows
/// whatever shares the host's cores: on the 2-vCPU machine of the
/// baselines it swung between 3.9 and 7.0 µs per call within seconds,
/// where with both cores busy it stayed within about 1.3 times.
const BATCH: Duration = Duration::from_millis(2);

/// Seed stream choosing the replayed trial.
const REPLAY_STREAM: u64 = 0x5e1ec7;

/// One cold study of the loop.
struct Cold {
    secs: f64,
    interactions: f64,
    trials: usize,
    failed: usize,
    /// Schema validation of the JSON tree the bytes were emitted from.
    /// Parsing the bytes back is left to the traced run: `json::parse`
    /// is quadratic in the document size, so parsing every study's bytes
    /// would dominate the run.
    valid: Result<(), String>,
}

pub fn run(workload: &Workload, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let scratch = Scratch::create()?;
    let text = workload.study_text(seed, 0);
    // Study 0 and the cache it fills, which every warm re-run reads.
    let spec0 = ExperimentSpec::parse(&text)?;
    let cache0 = Cache::at(scratch.path().join("cold-0"));
    let warm_run = || {
        run_experiment_cached(&spec0, Some(&cache0))
            .map(|(artifact, stats)| (artifact.to_json_string(), stats.misses))
    };
    let setup_batch = study::batch_size(BATCH, || study::setup(&text))?;
    // Sized once study 0 has filled the cache.
    let mut warm_batch = 0;

    // The closed loop: study i starts when study i-1 has emitted its
    // bytes, and no lap starts that would be expected to end past
    // `seconds`.
    let started = Instant::now();
    let mut laps: Vec<f64> = Vec::new();
    let mut cold: Vec<Cold> = Vec::new();
    let (mut setup, mut setup_by_burst, mut warm) = (Vec::new(), Vec::new(), Vec::new());
    let (mut cold_spent, mut setup_spent, mut warm_spent) = (0.0, 0.0, 0.0);
    let (mut warm_calls, mut warm_mismatches) = (0, 0);
    let mut peak_rss = 0.0;
    let mut replay: Option<(usize, TrialRecord)> = None;
    let mut cold_bytes = String::new();
    loop {
        let lap = Instant::now();
        let index = cold.len();
        let spec = ExperimentSpec::parse(&workload.study_text(seed, index as u64))?;
        let cache = Cache::at(scratch.path().join(format!("cold-{index}")));
        let (result, secs) = study::timed(|| {
            run_experiment_cached(&spec, Some(&cache)).map(|(artifact, _)| {
                let bytes = artifact.to_json_string();
                (artifact, bytes)
            })
        });
        let (artifact, bytes) = result?;
        if index == 0 {
            // The high-water mark of study 0, before any burst: later laps
            // add the resident leftovers of thousands of short-lived pool
            // and timing threads, which grew `batched-mid` by up to about
            // 60%, depending on timing.
            peak_rss = study::peak_rss_mib()?;
            // Replay one trial of the config the cost model calls cheapest.
            let plan = trial_plan(&spec);
            let config = plan
                .iter()
                .min_by_key(|t| (t.cost, t.config))
                .map_or(0, |t| t.config);
            let trial = (split_seed(seed, REPLAY_STREAM) % spec.trials as u64) as usize;
            replay = Some((config, artifact.configs[config].trials[trial].clone()));
            cold_bytes = bytes;
            warm_batch = study::batch_size(BATCH, warm_run)?;
        } else {
            let _ = std::fs::remove_dir_all(cache.dir());
        }
        cold.push(Cold {
            secs,
            interactions: study::interactions(&artifact),
            trials: study::trial_count(&artifact),
            failed: study::failed_trials(&artifact),
            valid: Artifact::validate_json(&artifact.to_json()),
        });
        drop(artifact);

        cold_spent += secs;
        if setup_spent <= BURST_SHARE * cold_spent {
            let (burst, spent) = study::timed(|| {
                study::repeat_on(THREADS, BURST, || {
                    study::batch(setup_batch, || study::setup(&text)).map(|(secs, _)| secs)
                })
            });
            let burst = burst?;
            setup_spent += spent;
            setup_by_burst.push(median(&burst));
            setup.extend(burst);
        }
        if warm_spent <= BURST_SHARE * cold_spent {
            let (burst, spent) = study::timed(|| {
                study::repeat(BURST, || {
                    let (secs, runs) = study::batch(warm_batch, warm_run)?;
                    warm_calls += runs.len();
                    warm_mismatches += runs
                        .iter()
                        .filter(|(bytes, misses)| *bytes != cold_bytes || *misses != 0)
                        .count();
                    Ok(secs)
                })
            });
            warm_spent += spent;
            warm.extend(burst?);
        }

        laps.push(lap.elapsed().as_secs_f64());
        if started.elapsed().as_secs_f64() + median(&laps) > seconds {
            break;
        }
    }

    let mut notes = Vec::new();
    for (index, c) in cold.iter_mut().enumerate() {
        if let Err(e) = &c.valid {
            notes.push(format!(
                "check failed: study {index} artifact does not validate: {e}"
            ));
            c.failed = c.trials;
        }
    }
    if warm_mismatches > 0 {
        notes.push(format!(
            "check failed: {warm_mismatches} warm re-run(s) differ from the cold bytes or missed the cache"
        ));
        cold[0].failed = cold[0].trials;
    }
    let (config, recorded) = replay.expect("study 0 always runs");
    if replay_trial(&spec0, config, recorded.trial)? != recorded {
        notes.push(format!(
            "check failed: replay of config {config} trial {} differs from the record",
            recorded.trial
        ));
        cold[0].failed = cold[0].trials;
    }

    let secs: Vec<f64> = cold.iter().map(|c| c.secs).collect();
    let attempted = cold.iter().map(|c| c.trials).sum();
    let listed = |values: &[f64], scale: f64| -> String {
        let shown: Vec<String> = values.iter().map(|v| format!("{:.3}", v * scale)).collect();
        shown.join(" ")
    };
    // Printed, not bounded: the median per call over the warm batches (on
    // the small workloads a re-run is well under a millisecond, mostly
    // spawning and joining the pool's threads). Across runs it tracks the
    // host's speed with a wider swing than `run_s`.
    notes.splice(
        0..0,
        [
            format!(
                "{} cold studies ({attempted} trials), {warm_calls} warm re-runs in batches of {warm_batch}, {} set-ups in batches of {setup_batch}, replayed config {config} trial {}",
                cold.len(),
                setup.len() * setup_batch,
                recorded.trial
            ),
            format!("cold study seconds: {}", listed(&secs, 1.0)),
            format!(
                "cold study M interactions: {}",
                listed(
                    &cold.iter().map(|c| c.interactions).collect::<Vec<_>>(),
                    1e-6
                )
            ),
            format!(
                "set-up microseconds per call, median of each burst's batches: {}",
                listed(&setup_by_burst, 1e6)
            ),
            format!("warm_run_s = {} s", median(&warm)),
        ],
    );
    Ok(Outcome {
        metrics: vec![
            ("run_s", median(&secs)),
            (
                "interactions_per_s",
                median(
                    &cold
                        .iter()
                        .map(|c| c.interactions / c.secs)
                        .collect::<Vec<_>>(),
                ),
            ),
            ("setup_s", median(&setup)),
            ("peak_rss_mb", peak_rss),
        ],
        attempted,
        failed: cold.iter().map(|c| c.failed).sum(),
        notes,
    })
}
