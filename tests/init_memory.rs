//! Peak memory of a synthetic `final-epoch` start on the batched urn. The
//! initial states are drawn lazily and the urn folds them straight into its
//! per-state counts, so a trial never holds one state per agent: at
//! n = 2^22 that vector alone would be 32 MiB.
//!
//! A test binary of its own, with one test, so no other test's allocations
//! reach the process's high-water mark.
#![cfg(target_os = "linux")]

use population_protocols::ppexp::{run_experiment, ExperimentSpec};

/// The process's peak resident set size (`VmHWM`), in KiB.
fn peak_rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status")
}

#[test]
fn final_epoch_init_on_the_urn_never_holds_one_state_per_agent() {
    let spec = ExperimentSpec::parse(
        "protocols = gsu19\n engine = urn-batched\n n = 4194304\n trials = 1\n threads = 1\n \
         seed = 1\n init = final-epoch:4lg\n stop = horizon:0.01",
    )
    .unwrap();
    let artifact = run_experiment(&spec).unwrap();
    let trial = &artifact.configs[0].trials[0];
    assert!(trial.outcome.converged);
    assert_eq!(trial.outcome.metric("interactions"), Some(41943.0));
    let peak = peak_rss_kib();
    assert!(
        peak < 16 * 1024,
        "peak RSS {peak} KiB: the synthetic init held the whole configuration"
    );
}
