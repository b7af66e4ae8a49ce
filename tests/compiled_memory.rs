//! Peak memory of compiled transition tables. Every gsu19 and gs18 config
//! compiles, and a config's role tables are sized by the buckets its
//! trials meet (compact ids), not by all B² bucket pairs. B²-sized tables
//! reserved 5.4 MiB per gsu19 config at n = 2^10, of which two trials
//! touched 0.3–1.2 MiB of pages: in a debug build this test's studies
//! peaked at 9.8 MiB after the first and 51 MiB after the third, where
//! compact tables peak at 4.7–5.0 and 6.6–6.9 MiB.
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
fn compiled_studies_keep_their_tables_small() {
    let spec = ExperimentSpec::parse(
        "protocols = gsu19, gs18\n engine = agent\n compiled = true\n n = 256..2048\n \
         trials = 2\n threads = 2\n seed = 12345\n stop = stabilize:200000",
    )
    .unwrap();
    // Three studies in one process: tables freed by one study must not
    // come back resident in the next.
    for _ in 0..3 {
        let artifact = run_experiment(&spec).unwrap();
        for config in &artifact.configs {
            assert!(config.trials.iter().all(|t| t.outcome.converged));
        }
    }
    let peak = peak_rss_kib();
    assert!(
        peak < 9 * 1024,
        "peak RSS {peak} KiB: compiled tables hold more than the buckets met"
    );
}
