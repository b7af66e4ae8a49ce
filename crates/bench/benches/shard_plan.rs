//! Experiment SHARD — planning overhead of process-level sharding
//! (criterion).
//!
//! `ppctl work --shard i/k` re-derives its slice of the trial plan from
//! the spec alone (expand the grid, hash every config identity, rank the
//! plan by mixed key, take rank % k), and `ppctl merge` re-derives the
//! whole plan again to verify coverage. That planning cost is paid once
//! per *process*, so it must stay negligible against even a single
//! trial: this target pins it for plan sizes from a golden-spec scale
//! (dozens of trials) up to a protocol-zoo sweep scale (thousands). The
//! vendored criterion shim reports min/median/max — quote the medians.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ppexp::shard::shard_assignments;
use ppexp::{shard_slice, trial_plan, ExperimentSpec, ProtocolKind};

/// A plan of roughly `target` trials: the protocol zoo (minus `clock`,
/// which needs a horizon stop) over a doubling n-grid, trials scaled to
/// hit the target.
fn grid_spec(target: usize) -> ExperimentSpec {
    let mut spec = ExperimentSpec::default();
    spec.protocols = ProtocolKind::ALL[..7].to_vec();
    spec.ns = (0..4).map(|i| 256u64 << i).collect();
    spec.trials = (target / (spec.protocols.len() * spec.ns.len())).max(1);
    spec
}

fn plan_expansion(c: &mut Criterion) {
    let mut g = c.benchmark_group("shard_plan");
    for target in [32usize, 512, 4096] {
        let spec = grid_spec(target);
        let plan_len = trial_plan(&spec).len();
        g.throughput(Throughput::Elements(plan_len as u64));
        g.bench_function(BenchmarkId::new("expand", plan_len), |b| {
            b.iter(|| trial_plan(&spec))
        });
    }
    g.finish();
}

fn plan_partition(c: &mut Criterion) {
    let mut g = c.benchmark_group("shard_partition");
    for target in [32usize, 512, 4096] {
        let spec = grid_spec(target);
        let plan = trial_plan(&spec);
        g.throughput(Throughput::Elements(plan.len() as u64));
        // Ranking the whole plan (what every worker and the merge do).
        g.bench_function(BenchmarkId::new("assign_k8", plan.len()), |b| {
            b.iter(|| shard_assignments(&plan, 8))
        });
        // A worker's end-to-end planning: expand + rank + filter.
        g.bench_function(BenchmarkId::new("slice_3_of_8", plan.len()), |b| {
            b.iter(|| shard_slice(&spec, 3, 8).unwrap())
        });
    }
    g.finish();
}

criterion_group!(benches, plan_expansion, plan_partition);
criterion_main!(benches);
