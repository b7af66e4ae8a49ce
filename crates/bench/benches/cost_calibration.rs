//! Experiment COSTCAL — calibration of the committed throughput table
//! behind `ppexp::cost` (the deterministic trial-cost model that drives
//! the weighted shard partition and the in-process trial pool).
//!
//! The library never measures time (ppcheck's wall-clock rule): the
//! per-engine throughputs in `ppexp::cost::throughput_ipus` are
//! *committed data*, and this target is where they come from. It runs
//! each engine on the same gsu19 config, on its compiled tables as every
//! gsu19 config runs, under a **horizon** stop — so the interaction
//! count is exact by construction, `n · at_pt` per trial — times the
//! whole experiment, and prints measured interactions-per-microsecond
//! next to the committed value. The CI quick-bench smoke runs this
//! target, so a drifting engine shows up as a measured/committed ratio
//! drifting away from 1 — update the table in
//! `crates/experiments/src/cost.rs` (and say so in the commit) when it
//! does.
//!
//! The model only needs *relative* magnitudes to schedule well; a ratio
//! within ~2× is fine, an order of magnitude is not.

use std::time::Instant;

use bench::{scale, Scale};
use ppexp::cost::throughput_ipus;
use ppexp::{run_experiment, EngineKind, ExperimentSpec, ProtocolKind, StopCondition};
use ppsim::table::{fnum, Table};

fn main() {
    let sc = scale();
    let (n, horizon_pt, trials): (u64, f64, usize) = match sc {
        Scale::Quick => (1 << 16, 50.0, 2),
        Scale::Default => (1 << 18, 100.0, 3),
        Scale::Large => (1 << 20, 200.0, 4),
    };
    println!(
        "=== COSTCAL: engine throughput vs the committed cost-model table \
         (n = {n}, horizon {horizon_pt} pt, {trials} trials, {sc:?} scale) ===\n"
    );

    let mut t = Table::new(["engine", "secs", "measured int/us", "committed", "ratio"]);
    for engine in [EngineKind::Agent, EngineKind::UrnBatched] {
        let spec = ExperimentSpec {
            protocols: vec![ProtocolKind::Gsu19],
            ns: vec![n],
            trials,
            seed: 1,
            engine,
            stop: StopCondition::Horizon { at_pt: horizon_pt },
            threads: 1,
            ..ExperimentSpec::default()
        };
        spec.validate().expect("calibration preset is valid");
        let interactions = n as f64 * horizon_pt * trials as f64;
        let start = Instant::now();
        run_experiment(&spec).expect("calibration preset runs");
        let secs = start.elapsed().as_secs_f64();
        let measured = interactions / (secs * 1e6);
        let committed = throughput_ipus(engine) as f64;
        t.row([
            engine.name().to_string(),
            fnum(secs),
            fnum(measured),
            fnum(committed),
            fnum(measured / committed),
        ]);
    }
    t.print();
    println!(
        "\nratio = measured / committed; scheduling only needs relative\n\
         magnitudes, so anything within ~2x is healthy. If an engine's\n\
         ratio drifts past that, update throughput_ipus in\n\
         crates/experiments/src/cost.rs to the measured value."
    );
}
