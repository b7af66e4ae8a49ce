//! Experiment ENG-B — batched vs sequential urn sampling (criterion).
//!
//! An urn built with a block size (`UrnSim::with_block`, see
//! `ppsim::batch`) samples interactions in *exact* sub-batches:
//! collision-free runs drawn in bulk without replacement, alternating with
//! individually resampled collision interactions, so the batched process is
//! bit-for-bit the sequential one under the shared trace decoding. This
//! target measures its per-interaction throughput against the sequential
//! per-step path on the same protocol and population, which is the
//! acceptance number for the batching work (≥10× at n ≥ 2^20 on `Gsu19`,
//! exactness included). A batched urn's `steps` is `steps_until` under a
//! never-true predicate, the path every batched `ppexp` trial runs, so
//! the `urn_batched` group includes the cost of the exact-stop
//! bookkeeping. The vendored criterion shim reports min/median/max per
//! benchmark (no confidence intervals) — quote ratios from the medians and
//! use min/max as the spread.

use baselines::SlowLe;
use core_protocol::Gsu19;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ppsim::{CompiledProtocol, Simulator, UrnSim};

/// Sequential path: enough steps to dominate timer noise.
const SEQ_STEPS: u64 = 10_000;

/// Parallel time a mid-run sequential urn is advanced to, untimed, before
/// it is measured: the occupancy a gsu19 stabilize trial below the
/// batching cutoff steps through, instead of the single initial state.
const MID_RUN_T: u64 = 50;

/// Batched path: whole batches are cheap, so measure many more
/// interactions per iteration to keep per-iteration wall time comparable.
/// `PP_SCALE=quick` (the CI smoke) shrinks the iteration and drops the
/// 2^30 population so the target finishes in seconds.
fn batch_steps() -> u64 {
    if bench::scale() == bench::Scale::Quick {
        1 << 18
    } else {
        1 << 22
    }
}

fn batched_npows() -> &'static [u32] {
    if bench::scale() == bench::Scale::Quick {
        &[14, 20]
    } else {
        &[14, 20, 30]
    }
}

fn urn_sequential(c: &mut Criterion) {
    let mut g = c.benchmark_group("urn_sequential");
    g.throughput(Throughput::Elements(SEQ_STEPS));
    for npow in [14u32, 20] {
        let n = 1u64 << npow;
        g.bench_function(BenchmarkId::new("gsu19", format!("2^{npow}")), |b| {
            let mut sim = UrnSim::new(Gsu19::for_population(n), n, 1);
            b.iter(|| sim.steps(SEQ_STEPS));
        });
        g.bench_function(BenchmarkId::new("slow", format!("2^{npow}")), |b| {
            let mut sim = UrnSim::new(SlowLe, n, 1);
            b.iter(|| sim.steps(SEQ_STEPS));
        });
    }
    // The per-step urn as `urn-batched` runs it below its batching cutoff
    // (`ppsim::batched_block(2^11)` is 1), partway through an election.
    let n = 1u64 << 11;
    g.bench_function(
        BenchmarkId::new(format!("gsu19-t{MID_RUN_T}"), "2^11"),
        |b| {
            let mut sim = UrnSim::new(Gsu19::for_population(n), n, 1);
            sim.steps(MID_RUN_T * n);
            b.iter(|| sim.steps(SEQ_STEPS));
        },
    );
    g.finish();
}

/// The batched n-grid for gsu19, slow and gsu19-compiled, each benchmark
/// timing a batched urn's `steps`.
fn urn_batched(c: &mut Criterion) {
    let steps = batch_steps();
    let mut g = c.benchmark_group("urn_batched");
    g.throughput(Throughput::Elements(steps));
    // Blocks of n/16, as `ppsim::batched_block` sets them at these n.
    // 2^30 is out of reach for the sequential group but fine here: the
    // sub-batch size scales with √n, so the per-interaction sampling cost
    // stays bounded while the configuration stays count-sized.
    for &npow in batched_npows() {
        let n = 1u64 << npow;
        g.bench_function(BenchmarkId::new("gsu19", format!("2^{npow}")), |b| {
            let mut sim = UrnSim::new(Gsu19::for_population(n), n, 1).with_block(n / 16);
            b.iter(|| sim.steps(steps));
        });
        g.bench_function(BenchmarkId::new("slow", format!("2^{npow}")), |b| {
            let mut sim = UrnSim::new(SlowLe, n, 1).with_block(n / 16);
            b.iter(|| sim.steps(steps));
        });
        g.bench_function(
            BenchmarkId::new("gsu19-compiled", format!("2^{npow}")),
            |b| {
                let proto = CompiledProtocol::new(Gsu19::for_population(n));
                let mut sim = UrnSim::new(proto, n, 1).with_block(n / 16);
                b.iter(|| sim.steps(steps));
            },
        );
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = urn_sequential, urn_batched
}
criterion_main!(benches);
