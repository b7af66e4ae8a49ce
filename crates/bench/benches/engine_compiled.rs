//! Experiment ENG-C — compiled vs dynamic transition tables (criterion).
//!
//! The acceptance number for the compiled-protocol work (`ppsim::compiled`):
//! `Gsu19` agent-engine throughput with [`CompiledProtocol`] must improve
//! ≥ 4× over the dynamic transition at n = 2^20. Simulations are advanced
//! to parallel time [`WARM_T`] (150 — past the partition epoch) before
//! measurement so the role distribution (and hence the table working set)
//! reflects a running election rather than the all-`Zero` initial
//! configuration. The vendored criterion shim reports min/median/max over
//! the samples; quote the medians.

use core_protocol::Gsu19;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ppsim::{AgentSim, CompiledProtocol, Simulator, UrnSim};

/// Steps measured per iteration on the per-step engines.
const STEPS: u64 = 1 << 20;
/// Steps per iteration on the batched path (whole batches are cheap).
const BATCH_STEPS: u64 = 1 << 22;
/// Parallel time to advance before measuring.
const WARM_T: u64 = 150;

fn agent_compiled_vs_dynamic(c: &mut Criterion) {
    let mut g = c.benchmark_group("agent_compiled");
    g.throughput(Throughput::Elements(STEPS));
    // The acceptance ratio is taken from this group: more samples so the
    // median shrugs off scheduler noise on shared machines.
    g.sample_size(24);
    let n = 1u64 << 20;
    g.bench_function(BenchmarkId::new("gsu19-dynamic", "2^20"), |b| {
        let mut sim = AgentSim::new(Gsu19::for_population(n), n as usize, 1);
        sim.steps(WARM_T * n);
        b.iter(|| sim.steps(STEPS));
    });
    g.bench_function(BenchmarkId::new("gsu19-compiled", "2^20"), |b| {
        let proto = CompiledProtocol::new(Gsu19::for_population(n));
        let mut sim = AgentSim::new(proto, n as usize, 1);
        sim.steps(WARM_T * n);
        b.iter(|| sim.steps(STEPS));
    });
    g.finish();
}

fn urn_compiled_vs_dynamic(c: &mut Criterion) {
    let mut g = c.benchmark_group("urn_compiled");
    g.throughput(Throughput::Elements(STEPS));
    let n = 1u64 << 20;
    g.bench_function(BenchmarkId::new("gsu19-dynamic", "2^20"), |b| {
        let mut sim = UrnSim::new(Gsu19::for_population(n), n, 1);
        sim.steps(WARM_T * n / 4); // sequential urn is slow; shorter warm-up
        b.iter(|| sim.steps(STEPS));
    });
    g.bench_function(BenchmarkId::new("gsu19-compiled", "2^20"), |b| {
        let proto = CompiledProtocol::new(Gsu19::for_population(n));
        let mut sim = UrnSim::new(proto, n, 1);
        sim.steps(WARM_T * n / 4);
        b.iter(|| sim.steps(STEPS));
    });
    g.finish();
}

fn urn_batched_compiled_vs_dynamic(c: &mut Criterion) {
    let mut g = c.benchmark_group("urn_batched_compiled");
    g.throughput(Throughput::Elements(BATCH_STEPS));
    let n = 1u64 << 20;
    g.bench_function(BenchmarkId::new("gsu19-dynamic", "2^20"), |b| {
        let mut sim = UrnSim::new(Gsu19::for_population(n), n, 1).with_block(n / 16);
        sim.steps(WARM_T * n);
        b.iter(|| sim.steps(BATCH_STEPS));
    });
    g.bench_function(BenchmarkId::new("gsu19-compiled", "2^20"), |b| {
        let proto = CompiledProtocol::new(Gsu19::for_population(n));
        let mut sim = UrnSim::new(proto, n, 1).with_block(n / 16);
        sim.steps(WARM_T * n);
        b.iter(|| sim.steps(BATCH_STEPS));
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = agent_compiled_vs_dynamic, urn_compiled_vs_dynamic,
        urn_batched_compiled_vs_dynamic
}
criterion_main!(benches);
