//! Declared metrics, summary statistics, and the result line.

use ppexp::Json;

/// A metric the benchmark declares in `BENCHMARK.json`.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn metric(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit }
}

/// End-to-end metrics, measured with tracing off.
pub const END_TO_END: [Metric; 4] = [
    metric("run_s", "s"),
    metric("interactions_per_s", "interactions/s"),
    metric("setup_s", "s"),
    metric("peak_rss_mb", "MiB"),
];

/// Per-layer metrics of the traced run.
pub const PER_LAYER: [Metric; 31] = [
    metric("spec.parse_s", "s"),
    metric("shard.plan_s", "s"),
    metric("shard.plan_trials", "count"),
    metric("compiled.build_s", "s"),
    metric("compiled.table_entries", "count"),
    metric("cost.err_p50", "log2-ratio"),
    metric("cost.err_max", "log2-ratio"),
    metric("cost.rank_agree", "fraction"),
    metric("engine.run_s", "s"),
    metric("engine.serial_s", "s"),
    metric("engine.efficiency", "fraction"),
    metric("sim.interactions", "count"),
    metric("sim.trials_timed", "count"),
    metric("sim.trial_s_p50", "s"),
    metric("sim.trial_s_tail", "s"),
    metric("sim.interactions_per_s", "interactions/s"),
    metric("observe.overhead_frac", "fraction"),
    metric("observe.round_points", "count"),
    metric("cache.store_s", "s"),
    metric("cache.load_s", "s"),
    metric("cache.records", "count"),
    metric("cache.bytes", "bytes"),
    metric("cache.warm_hit_frac", "fraction"),
    metric("cache.warm_run_s", "s"),
    metric("json.emit_s", "s"),
    metric("json.parse_s", "s"),
    metric("artifact.validate_s", "s"),
    metric("artifact.bytes", "bytes"),
    metric("aggregate.merge_s", "s"),
    metric("trace.wall_s", "s"),
    metric("trace.coverage", "fraction"),
];

/// Median of `values` (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => f64::NAN,
        len if len % 2 == 1 => sorted[len / 2],
        len => (sorted[len / 2 - 1] + sorted[len / 2]) / 2.0,
    }
}

/// What one run measured.
pub struct Outcome {
    /// `(name, value)` for every metric of the run's mode.
    pub metrics: Vec<(&'static str, f64)>,
    /// Trials attempted.
    pub attempted: usize,
    /// Trials that missed their budget or failed an output check.
    pub failed: usize,
    /// Human-readable context printed above the metrics.
    pub notes: Vec<String>,
}

impl Outcome {
    /// The human-readable metric lines, then the result line: one JSON
    /// object holding exactly the `declared` metrics.
    pub fn render(&self, declared: &[Metric]) -> Result<String, String> {
        let mut out = String::new();
        for note in &self.notes {
            out.push_str(&format!("  {note}\n"));
        }
        let mut metrics = Vec::new();
        for m in declared {
            let value = self
                .metrics
                .iter()
                .find(|(name, _)| *name == m.name)
                .map(|&(_, v)| v)
                .ok_or_else(|| format!("metric {} was not measured", m.name))?;
            if !value.is_finite() {
                return Err(format!("metric {} is not finite ({value})", m.name));
            }
            out.push_str(&format!("  {} = {value} {}\n", m.name, m.unit));
            metrics.push((
                m.name.to_string(),
                Json::Obj(vec![
                    ("value".into(), Json::Num(value)),
                    ("unit".into(), Json::Str(m.unit.into())),
                ]),
            ));
        }
        if let Some((name, _)) = self
            .metrics
            .iter()
            .find(|(name, _)| !declared.iter().any(|m| m.name == *name))
        {
            return Err(format!("metric {name} is not declared"));
        }
        let failed_frac = self.failed as f64 / self.attempted.max(1) as f64;
        out.push_str(&format!("  failed_frac = {failed_frac} fraction\n"));
        let result = Json::Obj(vec![
            ("correct".into(), Json::Bool(self.failed == 0)),
            ("attempted".into(), Json::Uint(self.attempted as u64)),
            ("failed".into(), Json::Uint(self.failed as u64)),
            ("metrics".into(), Json::Obj(metrics)),
        ]);
        out.push_str(&result.emit());
        out.push('\n');
        Ok(out)
    }
}
