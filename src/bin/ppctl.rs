//! `ppctl` — command-line driver for the leader-election reproduction.
//!
//! ```text
//! ppctl params --n 4096                    derived protocol parameters
//! ppctl elect --protocol gsu19 --n 4096    one election, narrated result
//! ppctl sweep --protocol gsu19,gs18 --n 512..8192 --trials 8
//!                                          convergence-time tables across n
//! ppctl run --spec study.ppexp --out artifact.json
//!                                          declarative experiment (ppexp)
//! ppctl validate artifact.json             schema-check an artifact
//! ppctl census --n 4096 --at 200           census snapshot at a parallel time
//! ```
//!
//! `elect`, `sweep` and `run` execute through the `ppexp` experiment
//! engine — `sweep` is a preset that expands to a spec, and `run` takes
//! the spec directly (a `key = value` file via `--spec`, with every key
//! also available as a flag override). Engines: `agent` (exact agent
//! array) and `urn-batched` (count-based, exact batched sampling, the
//! only engine interactive at n ≥ 2^30). The gsu19 family and gs18
//! always run on compiled transition tables, on both engines: overrides
//! past them (e.g. `--phi 32 --psi 32`) are a usage error, and
//! `--compiled` only makes a protocol without tables one too.
//!
//! Argument parsing is hand-rolled (the repository keeps its dependency
//! set to the simulation essentials) but strict: unknown commands and
//! flags exit nonzero with a hint, so a typo like `--trails` can never
//! silently run the wrong experiment.

use std::io::{ErrorKind, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};

use population_protocols::core::{Census, Gsu19};
use population_protocols::ppexp::cache::write_atomic;
use population_protocols::ppexp::{
    merge_from_cache, merge_shards, replay_trial, run_experiment, run_experiment_cached, run_shard,
    shard::shard_assignments, trial_plan, Artifact, Cache, ConfigResult, EngineKind,
    ExperimentSpec, ShardOutput,
};
use population_protocols::ppsim::table::{fnum, Table};
use population_protocols::ppsim::{batched_block, AgentSim, CompiledProtocol, Simulator, UrnSim};

/// Write to stdout: the one path every command's output takes. A reader
/// that closes the pipe early (`ppctl params | head -1`) ends the output:
/// later writes are dropped, and the command still finishes its other
/// work (files it writes, its exit code). Any other write error is the
/// command's error.
fn write_out(args: std::fmt::Arguments) -> Result<(), String> {
    static CLOSED: AtomicBool = AtomicBool::new(false);
    if CLOSED.load(Ordering::Relaxed) {
        return Ok(());
    }
    let mut stdout = std::io::stdout().lock();
    match stdout.write_fmt(args).and_then(|()| stdout.flush()) {
        Err(e) if e.kind() == ErrorKind::BrokenPipe => {
            CLOSED.store(true, Ordering::Relaxed);
            Ok(())
        }
        result => result.map_err(|e| format!("writing to stdout: {e}")),
    }
}

/// `print!` through [`write_out`].
macro_rules! out {
    ($($arg:tt)*) => {
        write_out(format_args!($($arg)*))
    };
}

/// `println!` through [`write_out`].
macro_rules! outln {
    () => {
        write_out(format_args!("\n"))
    };
    ($($arg:tt)*) => {
        write_out(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// Write a line to stderr: the one path every note and error takes. A
/// closed stderr drops the line, as a closed stdout ends [`write_out`]'s
/// output: the command still finishes and keeps its exit code. A failed
/// write to stderr has nowhere left to be reported, so it is dropped too.
fn write_err(args: std::fmt::Arguments) {
    let _ = writeln!(std::io::stderr(), "{args}");
}

/// `eprintln!` through [`write_err`].
macro_rules! errln {
    ($($arg:tt)*) => {
        write_err(format_args!($($arg)*))
    };
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("params") => report(cmd_params(&args[1..])),
        Some("elect") => report(cmd_elect(&args[1..])),
        Some("sweep") => report(cmd_sweep(&args[1..])),
        Some("run") => report(cmd_run(&args[1..])),
        Some("work") => report(cmd_work(&args[1..])),
        Some("merge") => report(cmd_merge(&args[1..])),
        Some("plan") => report(cmd_plan(&args[1..])),
        Some("validate") => report(cmd_validate(&args[1..])),
        Some("census") => report(cmd_census(&args[1..])),
        Some("help") | None => report(print_help().map(|()| 0)),
        Some(other) => {
            let commands = [
                "params", "elect", "sweep", "run", "work", "merge", "plan", "validate", "census",
                "help",
            ];
            match suggest(other, &commands) {
                Some(hint) => errln!("unknown command: {other} (did you mean '{hint}'?)"),
                None => errln!("unknown command: {other}"),
            }
            errln!("run 'ppctl help' for usage");
            2
        }
    };
    std::process::exit(code);
}

/// Map a command result onto an exit code, printing the error.
fn report(result: Result<i32, String>) -> i32 {
    match result {
        Ok(code) => code,
        Err(message) => {
            errln!("error: {message}");
            2
        }
    }
}

fn print_help() -> Result<(), String> {
    outln!(
        "ppctl — leader election in population protocols (GSU19 reproduction)\n\n\
         commands:\n\
         \x20 params --n N                         show derived parameters\n\
         \x20 elect  --protocol P --n N [--seed S] [--engine E] [--compiled]\n\
         \x20        [--threads K] [--budget PT]   run one election\n\
         \x20 sweep  --protocol P[,P...] --n A..B [--trials T] [--seed S]\n\
         \x20        [--engine E] [--compiled] [--threads K] [--budget PT]\n\
         \x20        [--out F] [--csv F]           convergence table per protocol\n\
         \x20                                      across n (doubling)\n\
         \x20 run    [--spec FILE] [overrides...] [--out F|-] [--csv F]\n\
         \x20        [--replay CONFIG:TRIAL] [--cache] [--no-cache] [--cache-dir D]\n\
         \x20                                      declarative experiment (ppexp)\n\
         \x20 work   --spec FILE --shard I/K --out F [--resume] [overrides...]\n\
         \x20        [--cache] [--no-cache] [--cache-dir D]\n\
         \x20                                      run one shard of the trial plan\n\
         \x20 merge  --spec FILE SHARD.json... [--out F|-] [--csv F] [overrides...]\n\
         \x20 merge  --spec FILE --from-cache [--cache-dir D] [--out F|-] [--csv F]\n\
         \x20                                      verify + merge shards into the\n\
         \x20                                      byte-identical ppexp/v1 artifact\n\
         \x20 plan   [--spec FILE] [overrides...] [--shards K]\n\
         \x20                                      predicted per-trial, per-config and\n\
         \x20                                      per-shard costs + k-worker makespan\n\
         \x20 validate FILE                        schema-check an artifact\n\
         \x20 census --n N [--at T] [--seed S] [--engine E]\n\
         \x20                                      census snapshot at parallel time T\n\n\
         run overrides (same keys as the spec file): --protocol P[,P...]\n\
         \x20 --engine E --compiled --n GRID --trials T --seed S --threads K\n\
         \x20 --budget PT | --at PT | --stop stabilize:B|horizon:T|drag:L:B|\n\
         \x20 active:K:B|settled:B --sample-at T1,T2,... --observables LIST\n\
         \x20 --round-every R --init fresh|final-epoch:K[lg]\n\
         \x20 --gamma G --phi P --psi P\n\n\
         observables: core (none) or a comma list of census | level_sizes |\n\
         \x20 junta_size | drag_histogram | round_census | drag_times |\n\
         \x20 epoch_candidates | epoch_times | observed_states\n\
         --cache reuses per-trial results from a content-addressed cache\n\
         \x20 (--cache-dir, else $PPEXP_CACHE_DIR, else target/ppexp-cache);\n\
         \x20 warm runs are byte-identical. Shard workers pointed at one\n\
         \x20 shared cache let 'merge --from-cache' assemble the artifact\n\
         \x20 with no shard files at all\n\n\
         protocols: gsu19 (default) | gsu19-no-drag | gsu19-no-backup |\n\
         \x20          gsu19-direct | gs18 | bkko18 | slow | clock\n\
         engines:   agent (default) | urn-batched (exact blocks of n/16\n\
         \x20          interactions from n = 4096 up, per step below)\n\
         threads:   --threads K or the PPSIM_THREADS environment variable\n\
         --compiled requires every protocol to have compiled transition\n\
         \x20          tables (ppsim::compiled; the gsu19 family and gs18,\n\
         \x20          which always run on them)"
    )
}

// ---------------------------------------------------------------------------
// Strict flag parsing
// ---------------------------------------------------------------------------

/// Parsed `--flag value` / `--switch` arguments, validated against the
/// command's accepted sets.
#[derive(Debug)]
struct Flags {
    values: Vec<(&'static str, String)>,
    switches: Vec<&'static str>,
}

impl Flags {
    /// Parse `args` strictly: every token must be a registered flag. An
    /// unknown flag is an error carrying a nearest-match hint: a silently
    /// dropped argument can cost hours of probing the wrong configuration.
    fn parse(
        args: &[String],
        value_flags: &[&'static str],
        switch_flags: &[&'static str],
    ) -> Result<Self, String> {
        let (flags, positionals) = Self::parse_inner(args, value_flags, switch_flags, false)?;
        debug_assert!(positionals.is_empty());
        Ok(flags)
    }

    /// Like [`Flags::parse`], but non-flag tokens collect as positional
    /// operands (in order) instead of being rejected — `ppctl merge`
    /// takes its shard files this way. Tokens starting with `--` are
    /// still validated strictly.
    fn parse_with_positionals(
        args: &[String],
        value_flags: &[&'static str],
        switch_flags: &[&'static str],
    ) -> Result<(Self, Vec<String>), String> {
        Self::parse_inner(args, value_flags, switch_flags, true)
    }

    fn parse_inner(
        args: &[String],
        value_flags: &[&'static str],
        switch_flags: &[&'static str],
        allow_positionals: bool,
    ) -> Result<(Self, Vec<String>), String> {
        let mut flags = Flags {
            values: Vec::new(),
            switches: Vec::new(),
        };
        let mut positionals = Vec::new();
        let mut i = 0;
        while i < args.len() {
            let arg = args[i].as_str();
            if let Some(&switch) = switch_flags.iter().find(|&&s| s == arg) {
                flags.switches.push(switch);
                i += 1;
            } else if let Some(&key) = value_flags.iter().find(|&&k| k == arg) {
                if flags.get(key).is_some() {
                    // A repeated flag has no single sensible precedence
                    // (spec overrides apply in order, file writes use the
                    // first hit), so refuse rather than guess.
                    return Err(format!("flag {key} given more than once"));
                }
                let value = args
                    .get(i + 1)
                    .filter(|v| !v.starts_with("--"))
                    .ok_or_else(|| format!("flag {key} needs a value"))?;
                flags.values.push((key, value.clone()));
                i += 2;
            } else if allow_positionals && !arg.starts_with("--") {
                positionals.push(arg.to_string());
                i += 1;
            } else {
                let known: Vec<&str> = value_flags.iter().chain(switch_flags).copied().collect();
                return Err(match suggest(arg, &known) {
                    Some(hint) => {
                        format!("unknown flag: {arg} (did you mean '{hint}'?)")
                    }
                    None => format!("unknown flag: {arg} (accepted: {})", known.join(" ")),
                });
            }
        }
        Ok((flags, positionals))
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.values
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v.as_str())
    }

    fn has(&self, key: &str) -> bool {
        self.switches.contains(&key)
    }

    fn parse_value<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("invalid {key} '{v}'")),
        }
    }
}

/// Nearest candidate within edit distance 2 (case-sensitive Levenshtein),
/// for "did you mean" hints.
fn suggest<'a>(input: &str, candidates: &[&'a str]) -> Option<&'a str> {
    candidates
        .iter()
        .map(|&c| (levenshtein(input, c), c))
        .filter(|&(d, _)| d <= 2)
        .min_by_key(|&(d, _)| d)
        .map(|(_, c)| c)
}

fn levenshtein(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    for (i, &ca) in a.iter().enumerate() {
        let mut row = vec![i + 1];
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            row.push(sub.min(prev[j + 1] + 1).min(row[j] + 1));
        }
        prev = row;
    }
    prev[b.len()]
}

// ---------------------------------------------------------------------------
// Spec assembly shared by elect / sweep / run
// ---------------------------------------------------------------------------

/// Spec keys every engine-backed command accepts as flags; `--flag value`
/// maps onto `ExperimentSpec::apply(key, value)` one-to-one.
const SPEC_FLAGS: &[(&str, &str)] = &[
    ("--protocol", "protocol"),
    ("--engine", "engine"),
    ("--n", "n"),
    ("--trials", "trials"),
    ("--seed", "seed"),
    ("--threads", "threads"),
    ("--budget", "budget"),
    ("--at", "at"),
    ("--stop", "stop"),
    ("--sample-at", "sample_at"),
    ("--observables", "observables"),
    ("--round-every", "round_every"),
    ("--init", "init"),
    ("--gamma", "gamma"),
    ("--phi", "phi"),
    ("--psi", "psi"),
];

/// Value flags of a command that builds its spec with
/// [`spec_from_flags`]: `--spec`, every [`SPEC_FLAGS`] override, then the
/// command's own `extras`. `run`, `work`, `merge` and `plan` all declare
/// their flags through this, so they accept the same spec inputs and
/// expand the same trial plan from them.
fn spec_command_flags(extras: &[&'static str]) -> Vec<&'static str> {
    std::iter::once("--spec")
        .chain(SPEC_FLAGS.iter().map(|&(flag, _)| flag))
        .chain(extras.iter().copied())
        .collect()
}

/// Apply every present spec flag to `spec`, in flag order.
fn apply_spec_flags(spec: &mut ExperimentSpec, flags: &Flags) -> Result<(), String> {
    for (key, value) in &flags.values {
        if let Some((_, spec_key)) = SPEC_FLAGS.iter().find(|(flag, _)| flag == key) {
            spec.apply(spec_key, value)?;
        }
    }
    if flags.has("--compiled") {
        spec.apply("compiled", "true")?;
    }
    Ok(())
}

/// Build the spec from `--spec FILE` (if given) plus flag overrides —
/// shared by `run`, `work` and `merge`, which must all expand the *same*
/// trial plan from the same inputs.
fn spec_from_flags(flags: &Flags) -> Result<ExperimentSpec, String> {
    let mut spec = match flags.get("--spec") {
        Some(path) => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
            ExperimentSpec::parse(&text).map_err(|e| format!("{path}: {e}"))?
        }
        None => ExperimentSpec::default(),
    };
    apply_spec_flags(&mut spec, flags)?;
    Ok(spec)
}

/// Open the cache at the resolved directory: an explicit `--cache-dir`
/// outranks `Cache::default_dir` ($PPEXP_CACHE_DIR, else
/// target/ppexp-cache).
fn cache_at(flags: &Flags) -> Cache {
    Cache::at(
        flags
            .get("--cache-dir")
            .map(std::path::PathBuf::from)
            .unwrap_or_else(Cache::default_dir),
    )
}

/// The cache `run` and `work` use: `--cache` opts into it, and
/// `--no-cache` wins when both are given (so a cached alias can be
/// overridden).
fn cache_flag(flags: &Flags) -> Option<Cache> {
    (flags.has("--cache") && !flags.has("--no-cache")).then(|| cache_at(flags))
}

/// The per-config summary table `run` prints, shared with `merge` (whose
/// output is the same artifact, just assembled from shards).
fn print_run_table(artifact: &Artifact, trials: usize) -> Result<(), String> {
    let mut t = Table::new([
        "protocol", "n", "trials", "failures", "mean t", "ci95", "median",
    ]);
    for config in &artifact.configs {
        let agg = config.aggregate("time");
        t.row([
            config.protocol.name().to_string(),
            config.n.to_string(),
            trials.to_string(),
            config.failures.to_string(),
            fnum(agg.map_or(f64::NAN, |a| a.mean)),
            fnum(agg.map_or(f64::NAN, |a| a.ci95)),
            fnum(agg.map_or(f64::NAN, |a| a.median)),
        ]);
    }
    out!("{}", t.render())
}

/// Write the artifact as requested by `--out` / `--csv` (`--out -` prints
/// the JSON to stdout). Files are replaced atomically, so an interrupted
/// run never leaves a truncated artifact behind.
fn emit_artifact(artifact: &Artifact, flags: &Flags) -> Result<(), String> {
    if let Some(path) = flags.get("--out") {
        let text = artifact.to_json_string();
        if path == "-" {
            out!("{text}")?;
        } else {
            write_atomic(Path::new(path), &text)?;
            errln!("wrote artifact to {path}");
        }
    }
    if let Some(path) = flags.get("--csv") {
        write_atomic(Path::new(path), &artifact.to_csv())?;
        errln!("wrote CSV to {path}");
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Commands
// ---------------------------------------------------------------------------

/// The one population of a single-`n` command's spec, after validation:
/// a population too small for GSU19's `Params` is a usage error, not a
/// panic.
fn single_population(spec: &ExperimentSpec) -> Result<u64, String> {
    spec.validate()?;
    match spec.ns[..] {
        [n] => Ok(n),
        _ => Err("this command takes a single --n; use 'ppctl sweep' for a grid".into()),
    }
}

fn cmd_params(args: &[String]) -> Result<i32, String> {
    let flags = Flags::parse(args, &["--n"], &[])?;
    // The parameters do not depend on the engine; the urn's spec admits
    // any n, where the agent array is capped.
    let mut spec = ExperimentSpec {
        engine: EngineKind::UrnBatched,
        ..ExperimentSpec::default()
    };
    apply_spec_flags(&mut spec, &flags)?;
    let n = single_population(&spec)?;
    let proto = Gsu19::for_population(n);
    let p = proto.params();
    outln!("population n       = {n}")?;
    outln!("coin level cap Φ   = {}", p.phi)?;
    outln!("drag cap Ψ         = {}", p.psi)?;
    outln!("clock modulus Γ    = {}", p.gamma)?;
    outln!("fast-elim counter  = {} (2Φ+3)", p.cnt_init())?;
    outln!("state-space size   = {}", p.num_states())?;
    outln!(
        "expected junta     = {:.1} agents",
        p.coin_bias(p.phi) * n as f64
    )?;
    let mut coins = String::new();
    for l in 0..=p.phi {
        coins.push_str(&format!("  level {l}: bias {:.3e}", p.coin_bias(l)));
    }
    outln!("coin biases        ={coins}")?;
    Ok(0)
}

fn cmd_elect(args: &[String]) -> Result<i32, String> {
    let flags = Flags::parse(
        args,
        &[
            "--protocol",
            "--engine",
            "--n",
            "--seed",
            "--budget",
            "--threads",
        ],
        &["--compiled"],
    )?;
    let mut spec = ExperimentSpec::default();
    apply_spec_flags(&mut spec, &flags)?;
    spec.trials = 1;
    if spec.protocols.len() != 1 || spec.ns.len() != 1 {
        return Err(
            "elect runs a single election; for a protocol list or an n-grid use \
             'ppctl sweep' or 'ppctl run'"
                .into(),
        );
    }
    let artifact = run_experiment(&spec)?;
    let config = &artifact.configs[0];
    let record = &config.trials[0];
    if !record.outcome.converged {
        errln!("did not stabilise within the budget");
        return Ok(1);
    }
    let leaders = record.outcome.metric("leaders").unwrap_or(0.0) as u64;
    outln!(
        "{}: unique leader among {} agents after {:.1} parallel time \
         ({leaders} leader state{}) [trial seed {}]",
        config.protocol.name(),
        config.n,
        record.outcome.metric("time").unwrap_or(f64::NAN),
        if leaders == 1 { "" } else { "s" },
        record.seed,
    )?;
    Ok(0)
}

/// Normalised convergence-time columns of a `sweep` table row.
fn sweep_row(config: &ConfigResult, trials: usize) -> [String; 7] {
    let agg = config.aggregate("time");
    let (mean, ci95, median) = match agg {
        Some(a) => (a.mean, a.ci95, a.median),
        None => (f64::NAN, f64::NAN, f64::NAN),
    };
    let l = (config.n as f64).log2();
    [
        config.n.to_string(),
        trials.to_string(),
        fnum(mean),
        fnum(ci95),
        fnum(median),
        format!("{:.2}", mean / (l * l.log2().max(1.0))),
        format!("{:.2}", mean / (l * l)),
    ]
}

fn cmd_sweep(args: &[String]) -> Result<i32, String> {
    let flags = Flags::parse(
        args,
        &[
            "--protocol",
            "--engine",
            "--n",
            "--trials",
            "--seed",
            "--threads",
            "--budget",
            "--out",
            "--csv",
        ],
        &["--compiled"],
    )?;
    // The sweep preset: a stabilisation study over a doubling n-grid,
    // printed as one table per protocol.
    let mut spec = ExperimentSpec::default();
    spec.apply("n", "512..8192")?;
    apply_spec_flags(&mut spec, &flags)?;
    let artifact = run_experiment(&spec)?;

    // `--out -` means "the artifact owns stdout": skip the human tables,
    // exactly as in cmd_run.
    if flags.get("--out") != Some("-") {
        // Configs are protocol-major: one chunk of the n-grid per protocol.
        for (k, configs) in artifact.configs.chunks(spec.ns.len()).enumerate() {
            if k > 0 {
                outln!()?;
            }
            outln!("protocol: {}", configs[0].protocol.name())?;
            let mut t = Table::new([
                "n",
                "trials",
                "mean t",
                "ci95",
                "median",
                "t/(lg*lglg)",
                "t/lg^2",
            ]);
            for config in configs {
                if config.failures > 0 {
                    errln!(
                        "note: n={}: {} of {} trials missed the budget",
                        config.n,
                        config.failures,
                        spec.trials
                    );
                }
                t.row(sweep_row(config, spec.trials));
            }
            out!("{}", t.render())?;
        }
    }
    emit_artifact(&artifact, &flags)?;
    Ok(0)
}

/// `ppctl run`'s own value flags (see [`spec_command_flags`]).
const RUN_FLAGS: &[&str] = &["--out", "--csv", "--replay", "--cache-dir"];

fn cmd_run(args: &[String]) -> Result<i32, String> {
    let flags = Flags::parse(
        args,
        &spec_command_flags(RUN_FLAGS),
        &["--compiled", "--cache", "--no-cache"],
    )?;
    let spec = spec_from_flags(&flags)?;

    if let Some(address) = flags.get("--replay") {
        let (config, trial) = address
            .split_once(':')
            .and_then(|(c, t)| Some((c.parse().ok()?, t.parse().ok()?)))
            .ok_or_else(|| format!("--replay takes CONFIG:TRIAL (got '{address}')"))?;
        let record = replay_trial(&spec, config, trial)?;
        // The record in the exact shape it has inside an artifact's
        // `trials` array, so it can be diffed against the recorded one.
        outln!("{}", record.to_json().emit())?;
        return Ok(0);
    }

    let cache = cache_flag(&flags);
    let (artifact, stats) = run_experiment_cached(&spec, cache.as_ref())?;
    if let Some(cache) = &cache {
        errln!(
            "cache: {} hit{}, {} miss{} ({})",
            stats.hits,
            if stats.hits == 1 { "" } else { "s" },
            stats.misses,
            if stats.misses == 1 { "" } else { "es" },
            cache.dir().display()
        );
    }
    if flags.get("--out") != Some("-") {
        print_run_table(&artifact, spec.trials)?;
    }
    emit_artifact(&artifact, &flags)?;
    Ok(0)
}

/// `ppctl work`'s own value flags (see [`spec_command_flags`]).
const WORK_FLAGS: &[&str] = &["--shard", "--out", "--cache-dir"];

/// Parse a `--shard I/K` address.
fn parse_shard_address(s: &str) -> Result<(usize, usize), String> {
    s.split_once('/')
        .and_then(|(i, k)| Some((i.parse().ok()?, k.parse().ok()?)))
        .ok_or_else(|| format!("--shard takes I/K, e.g. 0/4 (got '{s}')"))
}

fn cmd_work(args: &[String]) -> Result<i32, String> {
    let flags = Flags::parse(
        args,
        &spec_command_flags(WORK_FLAGS),
        &["--compiled", "--cache", "--no-cache", "--resume"],
    )?;
    let spec = spec_from_flags(&flags)?;
    let (shard, of) = parse_shard_address(
        flags
            .get("--shard")
            .ok_or("work needs --shard I/K (which slice of the trial plan to run)")?,
    )?;
    let out = flags
        .get("--out")
        .ok_or("work needs --out FILE (where to write the shard output)")?;

    // `--resume` reuses every valid record of an earlier (interrupted)
    // run of this same shard; a missing file just means a fresh start.
    let prior = if flags.has("--resume") && out != "-" {
        match std::fs::read_to_string(out) {
            Ok(text) => Some(ShardOutput::parse(&text).map_err(|e| format!("{out}: {e}"))?),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
            Err(e) => return Err(format!("reading {out}: {e}")),
        }
    } else {
        None
    };

    let cache = cache_flag(&flags);
    let (output, stats) = run_shard(&spec, shard, of, cache.as_ref(), prior.as_ref())?;
    errln!(
        "shard {shard}/{of}: {} trial{} ({} resumed, {} cached, {} fresh)",
        stats.planned,
        if stats.planned == 1 { "" } else { "s" },
        stats.resumed,
        stats.cache.hits,
        stats.cache.misses,
    );
    let text = output.to_json_string();
    if out == "-" {
        out!("{text}")?;
    } else {
        // Atomic, so a worker killed mid-write leaves the previous file
        // (or none) for `--resume`, never a truncated one.
        write_atomic(Path::new(out), &text)?;
        errln!("wrote shard output to {out}");
    }
    Ok(0)
}

/// `ppctl merge`'s own value flags (see [`spec_command_flags`]).
const MERGE_FLAGS: &[&str] = &["--out", "--csv", "--cache-dir"];

fn cmd_merge(args: &[String]) -> Result<i32, String> {
    let (flags, files) = Flags::parse_with_positionals(
        args,
        &spec_command_flags(MERGE_FLAGS),
        &["--compiled", "--from-cache"],
    )?;
    let spec = spec_from_flags(&flags)?;

    // Any verification failure surfaces as Err → exit 2 via report():
    // foreign spec, duplicate shard, bad record, incomplete coverage
    // (which prints the precise fill-in list for --resume).
    let artifact = if flags.has("--from-cache") {
        if !files.is_empty() {
            return Err("merge --from-cache reads the cache only; drop the shard files".into());
        }
        let cache = cache_at(&flags);
        merge_from_cache(&spec, &cache).map_err(|e| e.to_string())?
    } else {
        if files.is_empty() {
            return Err("merge needs shard files (or --from-cache)".into());
        }
        let shards = files
            .iter()
            .map(|path| {
                let text =
                    std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
                let output = ShardOutput::parse(&text).map_err(|e| format!("{path}: {e}"))?;
                Ok((path.clone(), output))
            })
            .collect::<Result<Vec<_>, String>>()?;
        merge_shards(&spec, &shards).map_err(|e| e.to_string())?
    };

    if flags.get("--out") != Some("-") {
        print_run_table(&artifact, spec.trials)?;
    }
    emit_artifact(&artifact, &flags)?;
    Ok(0)
}

/// `ppctl plan`'s own value flags (see [`spec_command_flags`]): the
/// worker count to predict a makespan for.
const PLAN_FLAGS: &[&str] = &["--shards"];

/// Render integer cost units (model microseconds) as approximate
/// seconds for the human-facing column.
fn cost_secs(units: u128) -> String {
    fnum(units as f64 / 1e6)
}

fn cmd_plan(args: &[String]) -> Result<i32, String> {
    let flags = Flags::parse(args, &spec_command_flags(PLAN_FLAGS), &["--compiled"])?;
    let spec = spec_from_flags(&flags)?;
    spec.validate()?;
    let k: usize = flags.parse_value("--shards", 1usize)?;
    if k == 0 || k > 4096 {
        return Err(format!("--shards {k} out of range (1..=4096)"));
    }
    let plan = trial_plan(&spec);
    let assignment = shard_assignments(&plan, k);
    let total: u128 = plan.iter().map(|t| u128::from(t.cost)).sum();

    // Per-config predicted costs (the plan is config-major, so each
    // config is one contiguous run with a shared per-trial cost).
    let mut t = Table::new([
        "config",
        "protocol",
        "n",
        "trials",
        "cost/trial",
        "cost",
        "~sec",
    ]);
    let mut start = 0;
    while start < plan.len() {
        let config = plan[start].config;
        let end = start
            + plan[start..]
                .iter()
                .take_while(|t| t.config == config)
                .count();
        let trials = end - start;
        let cost = u128::from(plan[start].cost) * trials as u128;
        t.row([
            config.to_string(),
            plan[start].protocol.name().to_string(),
            plan[start].n.to_string(),
            trials.to_string(),
            plan[start].cost.to_string(),
            cost.to_string(),
            cost_secs(cost),
        ]);
        start = end;
    }
    out!("{}", t.render())?;
    outln!(
        "total: {} trials, {total} cost units (~{} s single worker)",
        plan.len(),
        cost_secs(total)
    )?;

    // Per-trial detail with the weighted-LPT shard each trial lands on.
    outln!()?;
    let mut t = Table::new(["config", "trial", "seed", "cost", "shard"]);
    for (trial, shard) in plan.iter().zip(&assignment) {
        t.row([
            trial.config.to_string(),
            trial.trial.to_string(),
            format!("{:016x}", trial.seed),
            trial.cost.to_string(),
            shard.to_string(),
        ]);
    }
    out!("{}", t.render())?;

    // Per-shard predicted loads and the k-worker makespan.
    outln!()?;
    let mut loads = vec![0u128; k];
    let mut counts = vec![0usize; k];
    for (trial, &shard) in plan.iter().zip(&assignment) {
        loads[shard] += u128::from(trial.cost);
        counts[shard] += 1;
    }
    let mut t = Table::new(["shard", "trials", "cost", "~sec"]);
    for (shard, (&load, &count)) in loads.iter().zip(&counts).enumerate() {
        t.row([
            format!("{shard}/{k}"),
            count.to_string(),
            load.to_string(),
            cost_secs(load),
        ]);
    }
    out!("{}", t.render())?;
    let makespan = loads.iter().max().copied().unwrap_or(0);
    outln!(
        "predicted makespan over {k} worker{}: {makespan} cost units (~{} s); \
         ideal total/k = {} (~{} s)",
        if k == 1 { "" } else { "s" },
        cost_secs(makespan),
        total / k as u128,
        cost_secs(total / k as u128)
    )?;
    Ok(0)
}

fn cmd_validate(args: &[String]) -> Result<i32, String> {
    let [path] = args else {
        return Err("usage: ppctl validate ARTIFACT.json".into());
    };
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let doc = population_protocols::ppexp::json::parse(&text)
        .map_err(|e| format!("{path}: invalid JSON: {e}"))?;
    match Artifact::validate_json(&doc) {
        Ok(()) => {
            outln!(
                "{path}: valid {} artifact",
                population_protocols::ppexp::SCHEMA
            )?;
            Ok(0)
        }
        Err(e) => {
            errln!("{path}: schema violation: {e}");
            Ok(1)
        }
    }
}

fn cmd_census(args: &[String]) -> Result<i32, String> {
    let flags = Flags::parse(args, &["--n", "--at", "--seed", "--engine"], &[])?;
    // A horizon spec, so a bad --n or --at is the validator's usage
    // error rather than a `Params` panic or a silent zero-length run.
    let mut spec = ExperimentSpec::default();
    spec.apply("at", "100")?;
    apply_spec_flags(&mut spec, &flags)?;
    let n = single_population(&spec)?;
    let at = spec.stop.budget_pt();
    let c = census_at(&Gsu19::for_population(n).compiled(), &spec, n);
    outln!("census at parallel time {at} (n = {n}):")?;
    outln!("  zero / X / deactivated : {} / {} / {}", c.zero, c.x, c.d)?;
    outln!("  coins by level         : {:?}", c.coin_levels)?;
    outln!("  inhibitors by drag     : {:?}", c.inhibitor_drags)?;
    outln!("  high inhibitors        : {:?}", c.inhibitor_high)?;
    outln!(
        "  leaders A/P/W          : {} / {} / {}",
        c.active,
        c.passive,
        c.withdrawn
    )?;
    outln!(
        "  max alive drag         : {:?}, leaders counter: {:?}",
        c.max_alive_drag,
        c.max_cnt
    )?;
    Ok(0)
}

/// The census of `proto` (`Gsu19::for_population(n)` compiled), its states
/// decoded through it, after a fresh run on `spec`'s engine to its horizon.
fn census_at(proto: &CompiledProtocol<Gsu19>, spec: &ExperimentSpec, n: u64) -> Census {
    let params = proto.inner().params();
    let decode = |s| proto.decode_state(s);
    let interactions = (spec.stop.budget_pt() * n as f64) as u64;
    match spec.engine {
        EngineKind::Agent => {
            let mut sim = AgentSim::new(proto.clone(), n as usize, spec.seed);
            sim.steps(interactions);
            Census::of_with(&sim, params, decode)
        }
        EngineKind::UrnBatched => {
            let mut sim = UrnSim::new(proto.clone(), n, spec.seed).with_block(batched_block(n));
            sim.steps(interactions);
            Census::of_with(&sim, params, decode)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use population_protocols::ppexp::ProtocolKind;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    // run, work, merge and plan must accept every spec override: a worker,
    // merge or plan built from a narrower flag set would expand a
    // *different* trial plan than the run it is supposed to reproduce.
    fn assert_accepts_every_spec_flag(command: &str, extras: &[&'static str]) {
        let accepted = spec_command_flags(extras);
        let expected = SPEC_FLAGS.iter().map(|&(flag, _)| flag);
        for flag in expected.chain(["--spec"]).chain(extras.iter().copied()) {
            assert!(
                Flags::parse(&args(&[flag, "1"]), &accepted, &[]).is_ok(),
                "`ppctl {command}` rejects {flag}"
            );
        }
        let mut distinct = accepted.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(
            distinct.len(),
            accepted.len(),
            "`ppctl {command}` repeats a flag"
        );
    }

    #[test]
    fn run_accepts_every_spec_flag() {
        assert_accepts_every_spec_flag("run", RUN_FLAGS);
    }

    #[test]
    fn work_accepts_every_spec_flag() {
        assert_accepts_every_spec_flag("work", WORK_FLAGS);
    }

    #[test]
    fn merge_accepts_every_spec_flag() {
        assert_accepts_every_spec_flag("merge", MERGE_FLAGS);
    }

    #[test]
    fn plan_accepts_every_spec_flag() {
        assert_accepts_every_spec_flag("plan", PLAN_FLAGS);
    }

    // Every override names a key the spec parser knows, so none of them is
    // documented, accepted, and then refused at apply time.
    #[test]
    fn spec_flags_name_known_spec_keys() {
        for (flag, key) in SPEC_FLAGS {
            let err = ExperimentSpec::default().apply(key, "").err();
            assert!(
                !err.is_some_and(|e| e.contains("unknown spec key")),
                "{flag} maps onto the unknown spec key '{key}'"
            );
        }
    }

    #[test]
    fn positionals_collect_in_order_only_when_allowed() {
        let (f, pos) = Flags::parse_with_positionals(
            &args(&["a.json", "--seed", "7", "b.json", "--compiled", "c.json"]),
            &["--seed"],
            &["--compiled"],
        )
        .unwrap();
        assert_eq!(pos, vec!["a.json", "b.json", "c.json"]);
        assert_eq!(f.get("--seed"), Some("7"));
        assert!(f.has("--compiled"));
        // Unknown --flags are still rejected, with the usual hint.
        let err =
            Flags::parse_with_positionals(&args(&["--sed", "7"]), &["--seed"], &[]).unwrap_err();
        assert!(err.contains("--seed"), "{err}");
    }

    #[test]
    fn shard_addresses_parse_strictly() {
        assert_eq!(parse_shard_address("0/4").unwrap(), (0, 4));
        assert_eq!(parse_shard_address("11/12").unwrap(), (11, 12));
        assert!(parse_shard_address("3").is_err());
        assert!(parse_shard_address("a/b").is_err());
        assert!(parse_shard_address("1/").is_err());
    }

    #[test]
    fn strict_parser_accepts_registered_flags() {
        let f = Flags::parse(
            &args(&["--n", "128", "--seed", "7", "--compiled"]),
            &["--n", "--seed"],
            &["--compiled"],
        )
        .unwrap();
        assert_eq!(f.get("--n"), Some("128"));
        assert_eq!(f.get("--seed"), Some("7"));
        assert!(f.has("--compiled"));
        assert_eq!(f.get("--missing"), None);
    }

    #[test]
    fn unknown_flag_is_rejected_with_a_hint() {
        let err = Flags::parse(&args(&["--trails", "8"]), &["--trials", "--n"], &[]).unwrap_err();
        assert!(err.contains("--trails"), "{err}");
        assert!(err.contains("--trials"), "{err}");
    }

    #[test]
    fn missing_value_is_rejected() {
        let err = Flags::parse(&args(&["--n"]), &["--n"], &[]).unwrap_err();
        assert!(err.contains("needs a value"), "{err}");
        let err =
            Flags::parse(&args(&["--n", "--compiled"]), &["--n"], &["--compiled"]).unwrap_err();
        assert!(err.contains("needs a value"), "{err}");
    }

    #[test]
    fn positional_garbage_is_rejected() {
        assert!(Flags::parse(&args(&["elect"]), &["--n"], &[]).is_err());
    }

    #[test]
    fn repeated_value_flags_are_rejected() {
        let err = Flags::parse(&args(&["--n", "64", "--n", "128"]), &["--n"], &[]).unwrap_err();
        assert!(err.contains("more than once"), "{err}");
    }

    #[test]
    fn suggestions_use_edit_distance() {
        assert_eq!(suggest("--trails", &["--trials", "--n"]), Some("--trials"));
        assert_eq!(suggest("swep", &["sweep", "elect"]), Some("sweep"));
        assert_eq!(suggest("--zzz", &["--trials"]), None);
    }

    #[test]
    fn levenshtein_basics() {
        assert_eq!(levenshtein("", "abc"), 3);
        assert_eq!(levenshtein("abc", "abc"), 0);
        assert_eq!(levenshtein("trails", "trials"), 2);
        assert_eq!(levenshtein("kitten", "sitting"), 3);
    }

    #[test]
    fn spec_flags_apply_in_order() {
        let flags = Flags::parse(
            &args(&[
                "--protocol",
                "gs18",
                "--n",
                "256..512",
                "--trials",
                "4",
                "--engine",
                "urn-batched",
                "--compiled",
            ]),
            &["--protocol", "--n", "--trials", "--engine"],
            &["--compiled"],
        )
        .unwrap();
        let mut spec = ExperimentSpec::default();
        apply_spec_flags(&mut spec, &flags).unwrap();
        assert_eq!(spec.protocols, vec![ProtocolKind::Gs18]);
        assert_eq!(spec.ns, vec![256, 512]);
        assert_eq!(spec.trials, 4);
        assert!(spec.compiled);
        spec.validate().unwrap();
    }

    #[test]
    fn observable_registry_flags_apply() {
        let flags = Flags::parse(
            &args(&[
                "--stop",
                "drag:2:5000",
                "--observables",
                "drag_times,epoch_candidates",
                "--round-every",
                "0.5",
                "--init",
                "final-epoch:4lg",
                "--gamma",
                "32",
            ]),
            &[
                "--stop",
                "--observables",
                "--round-every",
                "--init",
                "--gamma",
            ],
            &[],
        )
        .unwrap();
        let mut spec = ExperimentSpec::default();
        apply_spec_flags(&mut spec, &flags).unwrap();
        assert!(spec.observables.needs_epochs());
        assert_eq!(spec.round_every, 0.5);
        assert_eq!(spec.gamma, 32);
        assert_eq!(spec.init.actives_for(1 << 10), Some(40));
        spec.validate().unwrap();
    }

    #[test]
    fn bad_spec_values_surface_as_errors() {
        let flags = Flags::parse(&args(&["--engine", "warp"]), &["--engine"], &[]).unwrap();
        let mut spec = ExperimentSpec::default();
        assert!(apply_spec_flags(&mut spec, &flags).is_err());
    }
}
