//! The named workloads. Each is one `ppexp` study in spec-file form; a
//! run derives the study's master seed from `--seed` and pins the thread
//! count, so the same seed always gives the same inputs.
//!
//! The workloads stress different layers (`BENCHMARK.json` records why
//! each was chosen). Trial counts and population grids are sized so that
//! every trial takes well under a second of one core, except on
//! `huge-opening`, whose horizon stop fixes the work exactly: a study's
//! time then varies with the seed by a few percent instead of by the
//! heavy tail of a single stabilization time.

use ppsim::split_seed;

/// Worker threads of every study: the core count of the 2-core machine
/// the baselines were taken on, fixed so a bigger runner measures the
/// same load.
pub const THREADS: usize = 2;

/// One named workload.
pub struct Workload {
    pub name: &'static str,
    /// Spec-file lines of one study, without `seed` and `threads`.
    pub spec: String,
    /// Trials the traced run replays and times, spread evenly over the
    /// configs, beyond the study's own trials where a config has fewer.
    /// At least 23 put the tail percentile (eleventh slowest) above the
    /// median; `huge-opening` times only its two trials.
    pub timed_trials: usize,
}

impl Workload {
    /// Spec text of study `index` of a run seeded with `seed`.
    pub fn study_text(&self, seed: u64, index: u64) -> String {
        format!(
            "{}\nseed = {}\nthreads = {THREADS}\n",
            self.spec,
            split_seed(seed, index)
        )
    }
}

/// Every workload, in the order `BENCHMARK.json` lists them.
pub fn all() -> Vec<Workload> {
    let workload = |name, spec: &str, timed_trials| Workload {
        name,
        spec: spec.to_string(),
        timed_trials,
    };
    vec![
        // The default engine's exact mode on short sub-batches: the
        // shuffled-stream sampler, collision resampling and the rewind to
        // the exact stop do the work.
        workload(
            "batched-mid",
            "protocol = gsu19\n\
             engine = urn-batched\n\
             n = 2048..4096\n\
             trials = 4\n\
             stop = stabilize:200000\n\
             observables = core",
            40,
        ),
        // Two protocols whose per-trial costs span more than 16x, so the
        // pool's longest-first order sets the two-thread tail.
        workload(
            "agent-hetero",
            "protocols = gsu19, gs18\n\
             engine = agent\n\
             n = 512..8192\n\
             trials = 2\n\
             stop = stabilize:200000\n\
             observables = core",
            40,
        ),
        // Cheap compiled trials with heavy observables: observation, cache
        // I/O, emission and aggregation carry the run.
        workload(
            "trace-heavy",
            "protocol = gsu19\n\
             engine = agent\n\
             compiled = true\n\
             n = 256..1024\n\
             trials = 64\n\
             stop = stabilize:200000\n\
             observables = round_census, epoch_candidates, drag_times, observed_states, census\n\
             round_every = 0.5",
            42,
        ),
        // The opening of a 2^30 population: exact sub-batches of ~4 sqrt(n)
        // interactions, where the bucketized path and HRUA* win dispatch.
        workload(
            "huge-opening",
            "protocol = gsu19\n\
             engine = urn-batched\n\
             n = 1073741824\n\
             trials = 2\n\
             stop = horizon:1\n\
             observables = level_sizes\n\
             sample_at = 0.125, 0.25, 0.5, 1",
            2,
        ),
    ]
}

/// The workload called `name`.
pub fn find(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}
