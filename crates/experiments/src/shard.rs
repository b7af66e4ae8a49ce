//! Process-level deterministic sharded execution.
//!
//! [`run_experiment`](crate::run_experiment) already shards trials over
//! *threads* with byte-identical artifacts at any thread count. This
//! module extends that invariant to **processes and machines**: the
//! expanded trial plan partitions into `k` slices, each slice is a pure
//! function of the spec alone, and an order-independent merge replays the
//! aggregation pipeline so the merged artifact is byte-identical to what
//! a single machine produces. `ppctl work --shard i/k` and `ppctl merge`
//! are the CLI front ends.
//!
//! # The partition
//!
//! Per-trial cost spans ~1000× across a heterogeneous n-grid, so
//! balancing by trial *count* balances nothing. Every planned trial
//! instead carries a predicted cost from the deterministic model in
//! [`crate::cost`], and the partition is a **weighted LPT** (longest
//! processing time) assignment: entries are ordered by `(cost desc,
//! [`shard_key`], config, trial)` — the key is FNV-1a over the
//! `(config hash, trial seed)` pair that also addresses the trial in
//! the content-addressed cache ([`crate::cache`]) — and greedily placed
//! on the least-loaded shard, lowest index on ties. Consequences:
//!
//! * **pure**: the slice for `(i, k)` depends only on the spec — any
//!   worker on any machine computes the same slice from the spec file
//!   (the cost model uses no `libm`, so costs and therefore assignments
//!   are bit-identical across platforms);
//! * **disjoint and covering**: every plan entry lands on exactly one
//!   shard;
//! * **cost-balanced**: greedy LPT guarantees max shard cost ≤
//!   total/k + max single-trial cost — the makespan of `k` equal
//!   machines tracks predicted cost, not trial count, which is what
//!   makes the wall-clock scale with machines on heterogeneous grids;
//! * **permutation-stable**: the assignment of a trial depends on its
//!   intrinsic key and the *set* of planned trials, never on enumeration
//!   order — `tests/shard_equivalence.rs` proptests pin all four.
//!
//! # Shard files and the merge
//!
//! A worker emits its slice's [`TrialRecord`]s plus a [`ShardManifest`]
//! (shard schema version, spec identity hash, shard index, `k`). The
//! merge verifies every manifest (foreign spec, duplicate shard index,
//! out-of-slice or duplicate records are hard errors), checks coverage
//! (missing `(config, trial)` pairs come back as a precise fill-in list
//! naming the shard that owns each), sorts records into canonical plan
//! order and hands them to the same aggregation the single-process
//! engine uses — byte identity is shared code, not a parallel
//! implementation.
//!
//! Workers run their slice through the engine's one execution kernel,
//! so they are cache-aware and resumable by construction: pointed at a
//! shared cache directory (see `PPEXP_CACHE_DIR`), warm trials are
//! skipped and fresh ones land in the shared content-addressed layout,
//! so `ppctl merge --from-cache` can assemble the artifact with no shard
//! files at all.

use std::cmp::Reverse;

use crate::artifact::{Artifact, TrialRecord};
use crate::cache::{Cache, CacheStats};
use crate::engine::{assemble, load_cached, plan_index, run_pool, trial_plan, PlannedTrial};
use crate::json::{self, Json};
use crate::spec::ExperimentSpec;

/// Schema tag of shard output files.
pub const SHARD_SCHEMA: &str = "ppexp-shard/v1";

/// Identity hash of a whole spec: FNV-1a 64 of the canonical spec JSON.
/// `threads` is excluded from the canonical form, so workers may run at
/// different thread counts and still merge; any result-shaping edit
/// changes the hash and makes old shard files *foreign*.
pub fn spec_hash(spec: &ExperimentSpec) -> u64 {
    Cache::config_hash(&spec.to_json().emit())
}

/// Mix a trial's `(config hash, trial seed)` address into its 64-bit
/// partition key: FNV-1a over the 16 little-endian bytes of both words
/// (stable across builds and platforms, like the cache layout).
pub fn shard_key(config_hash: u64, trial_seed: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in config_hash
        .to_le_bytes()
        .into_iter()
        .chain(trial_seed.to_le_bytes())
    {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Weighted-LPT shard assignment for every plan entry, aligned with
/// `plan`: entries are ordered by `(cost desc, shard_key, config,
/// trial)` and greedily placed on the least-loaded shard, lowest shard
/// index on load ties. Greedy LPT guarantees max shard cost ≤
/// total cost / k + max single-trial cost, so shards are balanced by
/// *predicted cost*, not trial count. Every sort key component is
/// intrinsic to a trial ([`shard_key`] mixes its cache address; ties on
/// it, possible only under seed collisions, break on the `(config,
/// trial)` address) and the greedy placement is deterministic, so the
/// assignment is a pure function of the planned-trial *set*,
/// independent of enumeration order and bit-identical across machines.
pub fn shard_assignments(plan: &[PlannedTrial], k: usize) -> Vec<usize> {
    assert!(k >= 1, "shard count must be at least 1");
    let mut order: Vec<usize> = (0..plan.len()).collect();
    order.sort_by_key(|&i| {
        let t = &plan[i];
        (
            Reverse(t.cost),
            shard_key(t.config_hash, t.seed),
            t.config,
            t.trial,
        )
    });
    // u128 loads: a plan maxes out at 4096-shard × 2^60-unit trials,
    // far from overflow. O(plan · k) is fine at the 4096-shard cap —
    // the shard_plan bench pins planning overhead.
    let mut loads = vec![0u128; k];
    let mut assignment = vec![0usize; plan.len()];
    for &i in &order {
        let shard = (0..k)
            .min_by_key(|&s| loads[s])
            .expect("k >= 1 shards to place on");
        loads[shard] += u128::from(plan[i].cost);
        assignment[i] = shard;
    }
    assignment
}

/// Validate a `(shard, of)` address.
fn check_shard_address(shard: usize, of: usize) -> Result<(), String> {
    if of == 0 {
        return Err("shard count k must be at least 1".into());
    }
    if of > 4096 {
        return Err(format!("shard count {of} out of range (max 4096)"));
    }
    if shard >= of {
        return Err(format!("shard index {shard} out of range for k = {of}"));
    }
    Ok(())
}

/// The `(i, k)` slice of a spec's trial plan, in canonical plan order —
/// a pure function of the spec. Slices over `i` are disjoint and cover
/// the plan; an empty slice (more shards than trials) is valid.
pub fn shard_slice(
    spec: &ExperimentSpec,
    shard: usize,
    of: usize,
) -> Result<Vec<PlannedTrial>, String> {
    check_shard_address(shard, of)?;
    spec.validate()?;
    let plan = trial_plan(spec);
    let assignment = shard_assignments(&plan, of);
    Ok(plan
        .into_iter()
        .zip(assignment)
        .filter(|&(_, s)| s == shard)
        .map(|(t, _)| t)
        .collect())
}

/// The manifest a shard output file carries: enough to verify that a
/// merge is assembling the experiment it thinks it is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardManifest {
    /// Identity hash of the spec the shard was computed from.
    pub spec_hash: u64,
    /// Shard index (`0..of`).
    pub shard: usize,
    /// Total shard count `k`.
    pub of: usize,
}

/// One worker's output: its manifest plus the slice's trial records,
/// each tagged with its config index, in canonical plan order.
#[derive(Clone, Debug, PartialEq)]
pub struct ShardOutput {
    /// The shard's manifest.
    pub manifest: ShardManifest,
    /// `(config index, record)` pairs in canonical plan order.
    pub records: Vec<(usize, TrialRecord)>,
}

impl ShardOutput {
    /// The shard file as a JSON document.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("schema".into(), Json::Str(SHARD_SCHEMA.into())),
            ("spec_hash".into(), Json::Uint(self.manifest.spec_hash)),
            ("shard".into(), Json::Uint(self.manifest.shard as u64)),
            ("of".into(), Json::Uint(self.manifest.of as u64)),
            (
                "records".into(),
                Json::Arr(
                    self.records
                        .iter()
                        .map(|(config, record)| {
                            Json::Obj(vec![
                                ("config".into(), Json::Uint(*config as u64)),
                                ("record".into(), record.to_json()),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Canonical serialised form (pretty, trailing newline), like
    /// artifacts — deterministic bytes for a given slice result.
    pub fn to_json_string(&self) -> String {
        self.to_json().emit_pretty()
    }

    /// Parse a shard file, rejecting wrong schemas and malformed records.
    pub fn parse(text: &str) -> Result<Self, String> {
        let doc = json::parse(text).map_err(|e| format!("invalid JSON: {e}"))?;
        let schema = doc
            .get("schema")
            .and_then(Json::as_str)
            .ok_or("missing schema tag")?;
        if schema != SHARD_SCHEMA {
            return Err(format!("schema '{schema}' is not '{SHARD_SCHEMA}'"));
        }
        let field = |key: &str| {
            doc.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("missing integer '{key}'"))
        };
        let manifest = ShardManifest {
            spec_hash: field("spec_hash")?,
            shard: field("shard")? as usize,
            of: field("of")? as usize,
        };
        check_shard_address(manifest.shard, manifest.of)?;
        let records = doc
            .get("records")
            .and_then(Json::as_arr)
            .ok_or("missing records array")?
            .iter()
            .enumerate()
            .map(|(i, entry)| {
                let config = entry
                    .get("config")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| format!("records[{i}]: missing config index"))?
                    as usize;
                let record = entry
                    .get("record")
                    .and_then(TrialRecord::from_json)
                    .ok_or_else(|| format!("records[{i}]: malformed trial record"))?;
                Ok((config, record))
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(ShardOutput { manifest, records })
    }
}

/// Counters of one shard run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Trials in the shard's slice.
    pub planned: usize,
    /// Trials reused from a prior shard file (`--resume`).
    pub resumed: usize,
    /// Cache hits / fresh runs among the rest.
    pub cache: CacheStats,
}

/// Execute the `(shard, of)` slice of a spec.
///
/// Cache-aware when given a cache (warm trials are loaded, fresh ones
/// stored into the shared content-addressed layout) and resumable: a
/// `prior` shard output — e.g. the partial file of an interrupted worker
/// — contributes its records, so only the remainder runs. The prior must
/// belong to the same spec and shard address, and every prior record
/// must match the plan (address within this slice, seed agreeing with
/// the derived chain, no address repeated); anything else is a hard
/// error, because silently dropping or accepting it would change the
/// merged artifact.
pub fn run_shard(
    spec: &ExperimentSpec,
    shard: usize,
    of: usize,
    cache: Option<&Cache>,
    prior: Option<&ShardOutput>,
) -> Result<(ShardOutput, ShardStats), String> {
    let slice = shard_slice(spec, shard, of)?;
    let manifest = ShardManifest {
        spec_hash: spec_hash(spec),
        shard,
        of,
    };
    let mut stats = ShardStats {
        planned: slice.len(),
        ..ShardStats::default()
    };

    // Records carried over from a prior (interrupted) run of this shard
    // take their slots first; the pool fills the rest.
    let mut slots: Vec<Option<TrialRecord>> = vec![None; slice.len()];
    if let Some(prior) = prior {
        if prior.manifest != manifest {
            return Err(format!(
                "prior shard file does not match: it is shard {}/{} of spec {:016x}, \
                 resuming shard {}/{} of spec {:016x}",
                prior.manifest.shard,
                prior.manifest.of,
                prior.manifest.spec_hash,
                shard,
                of,
                manifest.spec_hash
            ));
        }
        for (config, record) in &prior.records {
            // The slice is in canonical plan order, so sorted by address.
            let slot = slice
                .binary_search_by_key(&(*config, record.trial), |t| (t.config, t.trial))
                .map_err(|_| {
                    format!(
                        "prior shard file carries config {config} trial {} which is \
                         not in slice {shard}/{of}",
                        record.trial
                    )
                })?;
            if slice[slot].seed != record.seed {
                return Err(format!(
                    "prior record for config {config} trial {} has seed {:016x}, \
                     plan derives {:016x} — corrupt or foreign file",
                    record.trial, record.seed, slice[slot].seed
                ));
            }
            if slots[slot].replace(record.clone()).is_some() {
                return Err(format!(
                    "prior shard file repeats config {config} trial {} — corrupt file",
                    record.trial
                ));
            }
        }
        stats.resumed = prior.records.len();
    }
    run_pool(spec, &slice, &mut slots, cache, &mut stats.cache);
    let records = slice
        .iter()
        .zip(slots)
        .map(|(t, record)| (t.config, record.expect("run_pool fills every slot")))
        .collect();
    Ok((ShardOutput { manifest, records }, stats))
}

/// A planned trial the merge found no record for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MissingTrial {
    /// Config index in the grid.
    pub config: usize,
    /// Trial index within the config.
    pub trial: usize,
    /// The trial's derived seed.
    pub seed: u64,
    /// The shard (under the merge's `k`) whose slice owns the trial —
    /// re-running `ppctl work --shard <shard>/<of> --resume` fills it in.
    pub shard: usize,
}

/// Why a merge refused to assemble an artifact. Every variant is a
/// *verification* failure — `ppctl merge` maps them all to exit 2.
#[derive(Clone, Debug, PartialEq)]
pub enum MergeError {
    /// The spec itself failed validation (or no shards were given).
    Spec(String),
    /// A shard file's `spec_hash` names a different experiment.
    ForeignSpec {
        /// The offending file's label.
        source: String,
        /// This merge's spec hash.
        expected: u64,
        /// The shard file's spec hash.
        found: u64,
    },
    /// A shard file disagrees about the total shard count `k`.
    ShardCount {
        source: String,
        expected: usize,
        found: usize,
    },
    /// Two shard files claim the same shard index.
    DuplicateShard { shard: usize },
    /// A record addresses a `(config, trial)` outside the plan, carries a
    /// seed the plan does not derive, or sits in a shard file whose slice
    /// does not own it.
    UnplannedRecord {
        source: String,
        config: usize,
        trial: usize,
        detail: String,
    },
    /// The same `(config, trial)` appears twice.
    DuplicateRecord { config: usize, trial: usize },
    /// Planned trials with no record anywhere — the fill-in list.
    Missing {
        /// The merge's shard count (fill-in addresses are under it).
        of: usize,
        /// Every uncovered trial, in canonical plan order.
        missing: Vec<MissingTrial>,
    },
}

impl std::fmt::Display for MergeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MergeError::Spec(e) => write!(f, "{e}"),
            MergeError::ForeignSpec {
                source,
                expected,
                found,
            } => write!(
                f,
                "{source}: foreign spec (shard file has spec hash {found:016x}, \
                 this spec is {expected:016x}) — it belongs to a different experiment"
            ),
            MergeError::ShardCount {
                source,
                expected,
                found,
            } => write!(
                f,
                "{source}: shard count mismatch (file says k = {found}, merge expects k = {expected})"
            ),
            MergeError::DuplicateShard { shard } => {
                write!(f, "shard {shard} supplied more than once")
            }
            MergeError::UnplannedRecord {
                source,
                config,
                trial,
                detail,
            } => write!(
                f,
                "{source}: record for config {config} trial {trial} is not in the \
                 file's slice of the plan ({detail})"
            ),
            MergeError::DuplicateRecord { config, trial } => {
                write!(f, "config {config} trial {trial} recorded more than once")
            }
            MergeError::Missing { of, missing } => {
                writeln!(
                    f,
                    "incomplete coverage: {} planned trial{} missing:",
                    missing.len(),
                    if missing.len() == 1 { "" } else { "s" }
                )?;
                for m in missing {
                    writeln!(
                        f,
                        "  config {} trial {} (seed {:016x}) -> shard {}/{of}",
                        m.config, m.trial, m.seed, m.shard
                    )?;
                }
                let mut shards: Vec<usize> = missing.iter().map(|m| m.shard).collect();
                shards.dedup();
                shards.sort_unstable();
                shards.dedup();
                write!(
                    f,
                    "fill in by re-running: {}",
                    shards
                        .iter()
                        .map(|s| format!("ppctl work --shard {s}/{of} ... --resume"))
                        .collect::<Vec<_>>()
                        .join("; ")
                )
            }
        }
    }
}

/// Merge shard outputs into the artifact a single machine would produce.
///
/// `shards` pairs each output with a label (its file name) for error
/// messages. Verifies every manifest against this spec and `k`, checks
/// records against the plan (seed provenance, slice ownership, no
/// duplicates), demands full coverage, then sorts records into canonical
/// plan order and replays the shared aggregation pipeline — the result is
/// **byte-identical** to [`crate::run_experiment`] on the same spec.
pub fn merge_shards(
    spec: &ExperimentSpec,
    shards: &[(String, ShardOutput)],
) -> Result<Artifact, MergeError> {
    spec.validate().map_err(MergeError::Spec)?;
    let Some(first) = shards.first() else {
        return Err(MergeError::Spec("no shard files to merge".into()));
    };
    let expected = spec_hash(spec);
    let of = first.1.manifest.of;
    let mut seen = vec![false; of];
    for (source, shard) in shards {
        if shard.manifest.spec_hash != expected {
            return Err(MergeError::ForeignSpec {
                source: source.clone(),
                expected,
                found: shard.manifest.spec_hash,
            });
        }
        if shard.manifest.of != of {
            return Err(MergeError::ShardCount {
                source: source.clone(),
                expected: of,
                found: shard.manifest.of,
            });
        }
        if seen[shard.manifest.shard] {
            return Err(MergeError::DuplicateShard {
                shard: shard.manifest.shard,
            });
        }
        seen[shard.manifest.shard] = true;
    }

    let plan = trial_plan(spec);
    let assignment = shard_assignments(&plan, of);
    let mut slots: Vec<Option<TrialRecord>> = vec![None; plan.len()];
    for (source, shard) in shards {
        for (config, record) in &shard.records {
            let unplanned = |detail: String| MergeError::UnplannedRecord {
                source: source.clone(),
                config: *config,
                trial: record.trial,
                detail,
            };
            let index = plan_index(spec, *config, record.trial)
                .ok_or_else(|| unplanned("address outside the plan".into()))?;
            if plan[index].seed != record.seed {
                return Err(unplanned(format!(
                    "record seed {:016x} but the plan derives {:016x}",
                    record.seed, plan[index].seed
                )));
            }
            if assignment[index] != shard.manifest.shard {
                return Err(unplanned(format!(
                    "owned by shard {}/{of}, found in shard {}",
                    assignment[index], shard.manifest.shard
                )));
            }
            if slots[index].is_some() {
                return Err(MergeError::DuplicateRecord {
                    config: *config,
                    trial: record.trial,
                });
            }
            slots[index] = Some(record.clone());
        }
    }
    let records = covered(&plan, &assignment, of, slots)?;
    Ok(assemble(spec, records))
}

/// Merge straight from a shared content-addressed cache: every planned
/// trial must be warm. Missing trials come back as the same precise
/// fill-in list, addressed under `k = 1` (a single cache-aware
/// `ppctl work --shard 0/1 --cache` recomputes exactly the misses).
pub fn merge_from_cache(spec: &ExperimentSpec, cache: &Cache) -> Result<Artifact, MergeError> {
    spec.validate().map_err(MergeError::Spec)?;
    let plan = trial_plan(spec);
    let mut slots: Vec<Option<TrialRecord>> = vec![None; plan.len()];
    load_cached(spec, &plan, &mut slots, cache);
    // Under k = 1 every trial belongs to shard 0.
    let records = covered(&plan, &vec![0; plan.len()], 1, slots)?;
    Ok(assemble(spec, records))
}

/// The coverage check both merges end with: every slot's record, in
/// canonical plan order, or the fill-in list of the empty ones under the
/// merge's `of`.
fn covered(
    plan: &[PlannedTrial],
    assignment: &[usize],
    of: usize,
    slots: Vec<Option<TrialRecord>>,
) -> Result<Vec<TrialRecord>, MergeError> {
    let missing: Vec<MissingTrial> = plan
        .iter()
        .zip(assignment)
        .zip(&slots)
        .filter(|(_, slot)| slot.is_none())
        .map(|((t, &shard), _)| MissingTrial {
            config: t.config,
            trial: t.trial,
            seed: t.seed,
            shard,
        })
        .collect();
    if !missing.is_empty() {
        return Err(MergeError::Missing { of, missing });
    }
    Ok(slots.into_iter().flatten().collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::ProtocolKind;
    use crate::spec::StopCondition;
    use ppsim::rng::split_seed;

    fn tiny_spec() -> ExperimentSpec {
        ExperimentSpec {
            protocols: vec![ProtocolKind::Slow, ProtocolKind::Gsu19],
            ns: vec![64, 128],
            trials: 3,
            seed: 7,
            stop: StopCondition::Stabilize {
                budget_pt: 20_000.0,
            },
            ..ExperimentSpec::default()
        }
    }

    #[test]
    fn plan_is_config_major_with_provenance_seeds() {
        let spec = tiny_spec();
        let plan = trial_plan(&spec);
        assert_eq!(plan.len(), 4 * spec.trials);
        for (i, t) in plan.iter().enumerate() {
            assert_eq!(i, t.config * spec.trials + t.trial);
            let config_seed = split_seed(spec.seed, t.config as u64);
            assert_eq!(t.seed, split_seed(config_seed, t.trial as u64));
        }
    }

    #[test]
    fn slices_are_disjoint_covering_and_cost_balanced() {
        let spec = tiny_spec();
        let plan = trial_plan(&spec);
        let total: u128 = plan.iter().map(|t| u128::from(t.cost)).sum();
        let max_cost = plan.iter().map(|t| u128::from(t.cost)).max().unwrap();
        for k in [1, 2, 3, 5, 12, 17] {
            let mut covered = vec![0usize; plan.len()];
            let mut loads = Vec::new();
            for shard in 0..k {
                let slice = shard_slice(&spec, shard, k).unwrap();
                loads.push(slice.iter().map(|t| u128::from(t.cost)).sum::<u128>());
                for t in slice {
                    covered[t.config * spec.trials + t.trial] += 1;
                }
            }
            assert!(covered.iter().all(|&c| c == 1), "k = {k}: not a partition");
            // The greedy-LPT guarantee: no shard exceeds the ideal
            // (total/k) by more than one trial's cost.
            let max_load = *loads.iter().max().unwrap();
            assert!(
                max_load <= total / k as u128 + max_cost,
                "k = {k}: loads {loads:?} break the LPT bound"
            );
        }
    }

    #[test]
    fn shard_addresses_are_validated() {
        let spec = tiny_spec();
        assert!(shard_slice(&spec, 0, 0).is_err());
        assert!(shard_slice(&spec, 3, 3).is_err());
        assert!(shard_slice(&spec, 0, 5000).is_err());
        // More shards than trials: valid, some slices just come up empty.
        let sizes: Vec<usize> = (0..20)
            .map(|i| shard_slice(&spec, i, 20).unwrap().len())
            .collect();
        assert_eq!(sizes.iter().sum::<usize>(), 12);
    }

    #[test]
    fn spec_hash_tracks_result_shaping_edits_but_not_threads() {
        let spec = tiny_spec();
        let mut threaded = spec.clone();
        threaded.threads = 7;
        assert_eq!(spec_hash(&spec), spec_hash(&threaded));
        let mut edited = spec.clone();
        edited.seed = 8;
        assert_ne!(spec_hash(&spec), spec_hash(&edited));
        let mut widened = spec.clone();
        widened.trials += 1;
        assert_ne!(spec_hash(&spec), spec_hash(&widened));
    }

    #[test]
    fn shard_file_round_trips_byte_exactly() {
        let spec = tiny_spec();
        let (out, stats) = run_shard(&spec, 1, 3, None, None).unwrap();
        assert_eq!(stats.planned, out.records.len());
        assert_eq!(stats.cache.misses, out.records.len());
        let text = out.to_json_string();
        let parsed = ShardOutput::parse(&text).unwrap();
        assert_eq!(parsed, out);
        assert_eq!(parsed.to_json_string(), text);
    }

    #[test]
    fn merged_shards_equal_the_single_process_artifact() {
        let spec = tiny_spec();
        let reference = crate::engine::run_experiment(&spec)
            .unwrap()
            .to_json_string();
        for k in [1, 2, 3, 7] {
            let shards: Vec<(String, ShardOutput)> = (0..k)
                .map(|i| {
                    let (out, _) = run_shard(&spec, i, k, None, None).unwrap();
                    (format!("shard{i}"), out)
                })
                .collect();
            // Merge order must not matter: reverse the shard files.
            let reversed: Vec<_> = shards.iter().rev().cloned().collect();
            for set in [&shards, &reversed] {
                let merged = merge_shards(&spec, set).unwrap();
                assert_eq!(merged.to_json_string(), reference, "k = {k}");
            }
        }
    }

    #[test]
    fn merge_rejects_foreign_duplicate_and_missing_shards() {
        let spec = tiny_spec();
        let (s0, _) = run_shard(&spec, 0, 2, None, None).unwrap();
        let (s1, _) = run_shard(&spec, 1, 2, None, None).unwrap();

        // Foreign spec: same grid, different seed.
        let mut foreign_spec = spec.clone();
        foreign_spec.seed = 8;
        let (f0, _) = run_shard(&foreign_spec, 0, 2, None, None).unwrap();
        let err = merge_shards(&spec, &[("f0".into(), f0), ("s1".into(), s1.clone())]).unwrap_err();
        assert!(matches!(err, MergeError::ForeignSpec { .. }), "{err}");

        // Duplicate shard index.
        let err =
            merge_shards(&spec, &[("a".into(), s0.clone()), ("b".into(), s0.clone())]).unwrap_err();
        assert!(
            matches!(err, MergeError::DuplicateShard { shard: 0 }),
            "{err}"
        );

        // Missing shard: the error carries the precise fill-in list.
        let err = merge_shards(&spec, &[("s0".into(), s0.clone())]).unwrap_err();
        let MergeError::Missing { of, missing } = &err else {
            panic!("expected Missing, got {err}");
        };
        assert_eq!(*of, 2);
        assert_eq!(missing.len(), s1.records.len());
        assert!(missing.iter().all(|m| m.shard == 1));
        let plan = trial_plan(&spec);
        for m in missing {
            assert_eq!(plan[m.config * spec.trials + m.trial].seed, m.seed);
        }
        let text = err.to_string();
        assert!(text.contains("--shard 1/2"), "{text}");

        // Mismatched k across files.
        let (t0, _) = run_shard(&spec, 0, 3, None, None).unwrap();
        let err = merge_shards(&spec, &[("s0".into(), s0.clone()), ("t0".into(), t0)]).unwrap_err();
        assert!(matches!(err, MergeError::ShardCount { .. }), "{err}");

        // A record smuggled into the wrong shard file.
        let mut wrong = s0.clone();
        wrong.records.push(s1.records[0].clone());
        let err =
            merge_shards(&spec, &[("w".into(), wrong), ("s1".into(), s1.clone())]).unwrap_err();
        assert!(matches!(err, MergeError::UnplannedRecord { .. }), "{err}");

        // A duplicated record within the owning file.
        let mut dup = s1.clone();
        dup.records.push(s1.records[0].clone());
        let err = merge_shards(&spec, &[("s0".into(), s0), ("d".into(), dup)]).unwrap_err();
        assert!(matches!(err, MergeError::DuplicateRecord { .. }), "{err}");
    }

    #[test]
    fn resume_reuses_prior_records_and_rejects_foreign_priors() {
        let spec = tiny_spec();
        let (full, _) = run_shard(&spec, 0, 2, None, None).unwrap();
        // A truncated prior: only the first record survived the crash.
        let partial = ShardOutput {
            manifest: full.manifest,
            records: full.records[..1].to_vec(),
        };
        let (resumed, stats) = run_shard(&spec, 0, 2, None, Some(&partial)).unwrap();
        assert_eq!(stats.resumed, 1);
        assert_eq!(stats.cache.misses, full.records.len() - 1);
        assert_eq!(resumed.to_json_string(), full.to_json_string());

        // Prior from another shard address or spec: refused.
        let (other, _) = run_shard(&spec, 1, 2, None, None).unwrap();
        assert!(run_shard(&spec, 0, 2, None, Some(&other)).is_err());
        let mut foreign = spec.clone();
        foreign.seed = 9;
        assert!(run_shard(&foreign, 0, 2, None, Some(&partial)).is_err());

        // A prior that repeats a record: refused, naming the record.
        let mut repeated = partial.clone();
        repeated.records.push(full.records[0].clone());
        let (config, record) = &full.records[0];
        let err = run_shard(&spec, 0, 2, None, Some(&repeated)).unwrap_err();
        assert!(
            err.contains(&format!("config {config} trial {}", record.trial)),
            "{err}"
        );
    }

    #[test]
    fn merge_rejects_addresses_outside_the_plan_without_overflow() {
        let spec = tiny_spec();
        let (s0, _) = run_shard(&spec, 0, 2, None, None).unwrap();
        let (s1, _) = run_shard(&spec, 1, 2, None, None).unwrap();
        // Addresses whose plan index `config * trials + trial` overflows.
        for (config, trial) in [(i64::MAX as usize, 0), (1, usize::MAX)] {
            let mut crafted = s1.clone();
            crafted.records[0].0 = config;
            crafted.records[0].1.trial = trial;
            let parsed = ShardOutput::parse(&crafted.to_json_string()).unwrap();
            for shard in [crafted, parsed] {
                let err = merge_shards(&spec, &[("s0".into(), s0.clone()), ("c".into(), shard)])
                    .unwrap_err();
                assert!(
                    matches!(err, MergeError::UnplannedRecord { .. }),
                    "config {config} trial {trial}: {err}"
                );
            }
        }
    }
}
