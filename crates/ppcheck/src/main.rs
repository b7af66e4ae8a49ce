//! `ppcheck` binary: scan the workspace (or a single file) and report.
//!
//! ```text
//! cargo run -p ppcheck                      # scan the workspace at .
//! cargo run -p ppcheck -- --root <dir>      # scan another checkout
//! cargo run -p ppcheck -- --json report.jsonl
//! PPCHECK_JSON=report.jsonl cargo run -p ppcheck
//! cargo run -p ppcheck -- --file f.rs --as crates/experiments/src/f.rs
//! ```
//!
//! `--file`/`--as` scans one file as if it lived at the given
//! workspace-relative path (rules are path-scoped); this is what the
//! fixture CLI tests drive. Exit status: 0 when clean, 1 on any
//! unsuppressed finding, 2 on usage or I/O errors.

use std::io::{ErrorKind, Write};
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut json_path = std::env::var("PPCHECK_JSON").ok().map(PathBuf::from);
    let mut file: Option<PathBuf> = None;
    let mut file_as: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| args.next().ok_or_else(|| format!("{flag} needs a value"));
        match arg.as_str() {
            "--root" => match value("--root") {
                Ok(v) => root = PathBuf::from(v),
                Err(e) => return usage(&e),
            },
            "--json" => match value("--json") {
                Ok(v) => json_path = Some(PathBuf::from(v)),
                Err(e) => return usage(&e),
            },
            "--file" => match value("--file") {
                Ok(v) => file = Some(PathBuf::from(v)),
                Err(e) => return usage(&e),
            },
            "--as" => match value("--as") {
                Ok(v) => file_as = Some(v),
                Err(e) => return usage(&e),
            },
            "--help" | "-h" => {
                let help = write_out(
                    "ppcheck: workspace determinism-and-soundness lint pass\n\n\
                     usage: ppcheck [--root DIR] [--json PATH] [--file FILE --as REL_PATH]\n\n\
                     Scans every workspace .rs file (skipping target/, .git/ and rule\n\
                     fixtures) and reports violations of the project invariants; see\n\
                     README 'Static guarantees' for the rule table and pragma syntax.\n\
                     PPCHECK_JSON=<path> (or --json) additionally writes a JSONL report.\n\
                     Exits 1 on any unsuppressed finding.\n",
                );
                return match help {
                    Ok(()) => ExitCode::SUCCESS,
                    Err(e) => fail(&e),
                };
            }
            other => return usage(&format!("unknown argument '{other}'")),
        }
    }

    let (findings, files_scanned) = match (&file, &file_as) {
        (Some(f), as_path) => {
            let rel = as_path.clone().unwrap_or_else(|| f.display().to_string());
            match std::fs::read_to_string(f) {
                Ok(src) => (ppcheck::scan_source(&rel, &src), 1),
                Err(e) => return fail(&format!("reading {}: {e}", f.display())),
            }
        }
        (None, Some(_)) => return usage("--as needs --file"),
        (None, None) => {
            if !root.join("Cargo.toml").is_file() {
                return fail(&format!(
                    "{} does not look like a workspace root (no Cargo.toml); use --root",
                    root.display()
                ));
            }
            match ppcheck::scan_workspace(&root) {
                Ok(r) => r,
                Err(e) => return fail(&format!("scanning {}: {e}", root.display())),
            }
        }
    };

    if let Err(e) = write_out(&ppcheck::report::human(&findings, files_scanned)) {
        return fail(&e);
    }
    if let Some(path) = json_path {
        if let Err(e) = std::fs::write(&path, ppcheck::report::jsonl(&findings)) {
            return fail(&format!("writing {}: {e}", path.display()));
        }
    }

    if findings.iter().any(|f| f.suppressed.is_none()) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Write `text` to stdout. A reader that closed the pipe early drops the
/// text: the JSONL report and the exit status still follow. Any other
/// write error is an I/O error.
fn write_out(text: &str) -> Result<(), String> {
    let mut stdout = std::io::stdout().lock();
    match stdout
        .write_all(text.as_bytes())
        .and_then(|()| stdout.flush())
    {
        Err(e) if e.kind() == ErrorKind::BrokenPipe => Ok(()),
        result => result.map_err(|e| format!("writing to stdout: {e}")),
    }
}

fn usage(msg: &str) -> ExitCode {
    fail(&format!("{msg} (try --help)"))
}

/// Report an error on stderr and exit 2. A closed stderr drops the
/// message; the exit status still carries the failure.
fn fail(msg: &str) -> ExitCode {
    let _ = writeln!(std::io::stderr(), "ppcheck: {msg}");
    ExitCode::from(2)
}
