//! Parallel trial executor.
//!
//! Every experiment in this repository is "run T independent trials of a
//! random process and aggregate". Trials are embarrassingly parallel; this
//! module fans them out over OS threads with `std::thread::scope` and a
//! shared atomic work index (simple self-balancing work queue: threads grab
//! the next trial index when they finish one, so long and short trials mix
//! freely).
//!
//! Each worker keeps the (trial index, result) pairs it ran and hands them
//! back through its join handle; after the join the collector orders them
//! by trial index. No mutex and no shared output buffer: the atomic work
//! counter gives each index to one worker, and the join is the only
//! synchronisation the results need.
//!
//! Determinism: trial `i` always receives seed `split_seed(master, i)`
//! regardless of which thread runs it or in what order, so results are
//! reproducible across machines and thread counts.

use std::sync::atomic::{AtomicUsize, Ordering};

use crate::rng::split_seed;

/// Default worker-thread count: the `PPSIM_THREADS` environment variable
/// when set to a positive integer, otherwise the machine's available
/// parallelism.
///
/// The override lets CI and shared machines bound parallelism without
/// touching call sites; thread count never affects results (see the
/// determinism contract of [`run_trials_threads`]), only wall time.
pub fn default_threads() -> usize {
    match threads_from_env(std::env::var("PPSIM_THREADS").ok().as_deref()) {
        Some(t) => t,
        None => std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1),
    }
}

/// Interpretation of the `PPSIM_THREADS` value, factored out of
/// [`default_threads`] so the parsing policy is unit-testable without
/// mutating the process environment (which would race against concurrent
/// tests reading it): a positive integer is an explicit thread count;
/// absent, zero or garbage mean "auto". The end-to-end environment path
/// is exercised by CI's `PPSIM_THREADS=3 ppctl run` invariance check.
fn threads_from_env(value: Option<&str>) -> Option<usize> {
    value
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&t| t >= 1)
}

/// Run `trials` independent trials of `f` across [`default_threads`]
/// workers and return the results ordered by trial index.
///
/// `f` receives `(trial_index, seed)` where the seed is deterministically
/// derived from `master_seed`.
pub fn run_trials<T, F>(trials: usize, master_seed: u64, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, u64) -> T + Sync,
{
    run_trials_threads(trials, master_seed, default_threads(), f)
}

/// As [`run_trials`] but with an explicit thread count (1 = sequential,
/// useful for debugging and for nested parallelism control).
pub fn run_trials_threads<T, F>(trials: usize, master_seed: u64, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, u64) -> T + Sync,
{
    if trials == 0 {
        return Vec::new();
    }
    let threads = threads.clamp(1, trials);
    if threads == 1 {
        return (0..trials)
            .map(|i| f(i, split_seed(master_seed, i as u64)))
            .collect();
    }

    let next = AtomicUsize::new(0);
    let (next, f) = (&next, &f);
    // One worker: claim trial indices until none are left, keeping the
    // (index, result) pairs in `ran`.
    let work = move |mut ran: Vec<(usize, T)>| loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= trials {
            break ran;
        }
        ran.push((i, f(i, split_seed(master_seed, i as u64))));
    };
    let mut ran: Vec<(usize, T)> = std::thread::scope(|scope| {
        // Each list is allocated here, on the collecting thread, with room
        // for an even share: grown from inside the workers instead, the
        // lists raised `agent-hetero`'s peak RSS by 0.1–0.2 MiB. A thread
        // the OS refuses is not a failure: the workers that did start, and
        // else the calling thread, work the whole queue.
        let share = || Vec::with_capacity(trials.div_ceil(threads));
        let workers: Vec<_> = (0..threads)
            .map_while(|_| {
                let ran = share();
                std::thread::Builder::new()
                    .spawn_scoped(scope, move || work(ran))
                    .ok()
            })
            .collect();
        if workers.is_empty() {
            return work(share());
        }
        workers
            .into_iter()
            .flat_map(|w| w.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    });
    // Every index in `0..trials` was claimed exactly once.
    ran.sort_unstable_by_key(|&(i, _)| i);
    ran.into_iter().map(|(_, out)| out).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_ordered_by_trial_index() {
        let out = run_trials(100, 42, |i, _| i * 2);
        assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn zero_trials() {
        let out: Vec<u64> = run_trials(0, 1, |_, s| s);
        assert!(out.is_empty());
    }

    #[test]
    fn seeds_match_sequential_reference() {
        let par = run_trials(64, 7, |_, seed| seed);
        let seq = run_trials_threads(64, 7, 1, |_, seed| seed);
        assert_eq!(par, seq);
    }

    #[test]
    fn deterministic_across_thread_counts() {
        // Same master seed must give identical per-trial outputs no matter
        // how many threads execute them.
        let f = |i: usize, seed: u64| -> u64 {
            // A toy "simulation": mix index and seed.
            seed.rotate_left((i % 63) as u32) ^ i as u64
        };
        let a = run_trials_threads(37, 99, 1, f);
        let b = run_trials_threads(37, 99, 4, f);
        let c = run_trials_threads(37, 99, 16, f);
        assert_eq!(a, b);
        assert_eq!(b, c);
    }

    #[test]
    fn ppsim_threads_env_override() {
        assert_eq!(threads_from_env(Some("3")), Some(3));
        assert_eq!(threads_from_env(Some("1")), Some(1));
        assert_eq!(threads_from_env(Some("0")), None, "0 falls back to auto");
        assert_eq!(threads_from_env(Some("not-a-number")), None);
        assert_eq!(threads_from_env(Some("-2")), None);
        assert_eq!(threads_from_env(None), None);
        assert!(default_threads() >= 1);
    }

    #[test]
    fn more_threads_than_trials_is_fine() {
        let out = run_trials_threads(3, 5, 64, |i, _| i);
        assert_eq!(out, vec![0, 1, 2]);
    }

    #[test]
    fn lock_free_slots_lose_nothing_under_contention() {
        // Many more trials than threads, trial durations deliberately
        // skewed so fast threads lap slow ones: every position must still
        // hold exactly its own trial's result, in order, for odd thread
        // counts and non-Copy payloads alike.
        for threads in [2usize, 3, 7, 32] {
            let out = run_trials_threads(997, 11, threads, |i, seed| {
                let spin = if i % 13 == 0 { 20_000 } else { 10 };
                let mut x = seed;
                for _ in 0..spin {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(i as u64);
                }
                format!("{i}:{x}")
            });
            assert_eq!(out.len(), 997, "threads={threads}");
            for (i, v) in out.iter().enumerate() {
                assert!(
                    v.starts_with(&format!("{i}:")),
                    "threads={threads}: position {i} holds {v}"
                );
            }
        }
    }

    #[test]
    fn trials_actually_run_concurrently_safe() {
        // Heavier payloads: make sure nothing is lost under contention.
        let out = run_trials(500, 3, |i, seed| {
            let mut x = seed;
            for _ in 0..1000 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(i as u64);
            }
            x
        });
        assert_eq!(out.len(), 500);
        let seq = run_trials_threads(500, 3, 1, |i, seed| {
            let mut x = seed;
            for _ in 0..1000 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(i as u64);
            }
            x
        });
        assert_eq!(out, seq);
    }
}
