//! `studybench` — the end-to-end study benchmark.
//!
//! ```text
//! cargo run --release --manifest-path studybench/Cargo.toml -- \
//!     --workload <name> --seed <n> [--seconds <s>] [--trace 0|1]
//! ```
//!
//! `--seconds` defaults to [`DEFAULT_SECONDS`], the run length
//! `BENCHMARK.json` declares and the baselines were taken at.
//!
//! Runs one named workload's `ppexp` study through the public API, in
//! one process, as a closed loop of one study at a time on
//! [`workloads::THREADS`] threads. It checks the outputs and prints each
//! metric by name with its unit; the last line of standard output is one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`.
//!
//! With `--trace 0` (the default) the metrics are the end-to-end ones,
//! measured with tracing off over `--seconds` of cold studies. With
//! `--trace 1` a traced run times each layer from outside by wrapping
//! the calls into its public functions, prints the per-layer metrics,
//! and writes its spans as JSON lines next to the executable.

mod e2e;
mod report;
mod study;
mod traced;
mod workloads;

use std::process::ExitCode;

use report::{END_TO_END, PER_LAYER};

/// Seconds of cold studies one end-to-end run measures: `BENCHMARK.json`'s
/// `run_seconds`.
const DEFAULT_SECONDS: f64 = 30.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Self, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, DEFAULT_SECONDS, false);
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => {
                    seed = Some(
                        value
                            .parse()
                            .map_err(|_| format!("invalid seed '{value}'"))?,
                    )
                }
                "--seconds" => {
                    seconds = value
                        .parse()
                        .ok()
                        .filter(|s: &f64| s.is_finite() && *s > 0.0)
                        .ok_or_else(|| format!("invalid seconds '{value}'"))?
                }
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("invalid trace '{value}' (expected 0 or 1)")),
                    }
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Self {
            workload: workload.ok_or("missing --workload")?,
            seed: seed.ok_or("missing --seed")?,
            seconds,
            trace,
        })
    }
}

fn run() -> Result<String, String> {
    let args = Args::parse(std::env::args().skip(1))?;
    let workload = workloads::find(&args.workload).ok_or_else(|| {
        let names: Vec<_> = workloads::all().iter().map(|w| w.name).collect();
        format!(
            "unknown workload '{}' (expected {})",
            args.workload,
            names.join(" | ")
        )
    })?;
    let nproc = std::thread::available_parallelism().map_or(0, |p| p.get());
    let header = format!(
        "studybench workload {} seed {} trace {} nproc {nproc} threads {} commit {}",
        workload.name,
        args.seed,
        u8::from(args.trace),
        workloads::THREADS,
        study::commit()
    );
    let body = if args.trace {
        let (outcome, tracer) = traced::run(&workload, args.seed)?;
        let file = format!("studybench-spans-{}-{}.jsonl", workload.name, args.seed);
        match std::env::current_exe().map(|exe| exe.with_file_name(file)) {
            Ok(path) => match std::fs::write(&path, tracer.to_jsonl()) {
                Ok(()) => eprintln!("studybench: spans written to {}", path.display()),
                Err(e) => eprintln!("studybench: writing {}: {e}", path.display()),
            },
            Err(e) => eprintln!("studybench: no executable path for the spans: {e}"),
        }
        outcome.render(&PER_LAYER)?
    } else {
        e2e::run(&workload, args.seed, args.seconds)?.render(&END_TO_END)?
    };
    Ok(format!("{header}\n{body}"))
}

fn main() -> ExitCode {
    match run() {
        Ok(text) => {
            print!("{text}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("studybench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use ppexp::{json, Json};

    use super::*;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        json::parse(&std::fs::read_to_string(path).unwrap()).unwrap()
    }

    fn entries<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
        doc.get(key).and_then(Json::as_arr).unwrap()
    }

    fn field<'a>(entry: &'a Json, key: &str) -> &'a str {
        entry.get(key).and_then(Json::as_str).unwrap()
    }

    #[test]
    fn benchmark_json_declares_what_the_code_measures() {
        let doc = benchmark_json();
        let valid = |name: &str| {
            !name.is_empty()
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
        };
        let workload_names: Vec<&str> = entries(&doc, "workloads")
            .iter()
            .map(|w| field(w, "name"))
            .collect();
        let code_names: Vec<&str> = workloads::all().iter().map(|w| w.name).collect();
        assert_eq!(workload_names, code_names);
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(DEFAULT_SECONDS)
        );
        for (key, declared) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed: Vec<(&str, &str)> = entries(&doc, key)
                .iter()
                .map(|m| (field(m, "name"), field(m, "unit")))
                .collect();
            let code: Vec<(&str, &str)> = declared.iter().map(|m| (m.name, m.unit)).collect();
            assert_eq!(listed, code, "{key}");
        }
        for name in workload_names
            .iter()
            .chain(END_TO_END.iter().map(|m| &m.name))
            .chain(PER_LAYER.iter().map(|m| &m.name))
        {
            assert!(valid(name), "invalid name '{name}'");
        }
    }

    #[test]
    fn every_workload_prints_every_declared_metric_with_its_unit() {
        for mut workload in workloads::all() {
            // The same study shapes, shrunk to seconds in a debug build.
            workload.spec = format!("{}\nn = 256..512\ntrials = 2", workload.spec);
            for (trace, declared) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
                let outcome = if trace {
                    traced::run(&workload, 3).unwrap().0
                } else {
                    e2e::run(&workload, 3, 0.01).unwrap()
                };
                let text = outcome.render(declared).unwrap();
                let result = json::parse(text.lines().last().unwrap()).unwrap();
                assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{text}");
                let metrics = result.get("metrics").and_then(Json::as_obj).unwrap();
                assert_eq!(metrics.len(), declared.len());
                for (m, (name, value)) in declared.iter().zip(metrics) {
                    assert_eq!(name, m.name);
                    assert_eq!(value.get("unit").and_then(Json::as_str), Some(m.unit));
                    assert!(value.get("value").and_then(Json::as_f64).is_some());
                    assert!(text.contains(&format!("  {} = ", m.name)), "{text}");
                }
            }
        }
    }
}
