//! End-to-end CLI contract: exit codes and the JSONL report, driven
//! through the real binary (`CARGO_BIN_EXE_ppcheck`). This is the same
//! interface the CI job gates on.

use std::path::{Path, PathBuf};
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ppcheck"))
}

fn fixture(rel: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(rel)
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap()
}

#[test]
fn violating_fixtures_exit_nonzero() {
    for (fix, as_path) in [
        ("hash_collections/violate.rs", "crates/experiments/src/f.rs"),
        ("wall_clock_entropy/violate.rs", "crates/ppsim/src/f.rs"),
        ("float_format/violate.rs", "crates/experiments/src/f.rs"),
        ("undocumented_unsafe/violate.rs", "crates/ppsim/src/f.rs"),
        ("cache_unwrap/violate.rs", "crates/experiments/src/cache.rs"),
        ("pragma/violate.rs", "crates/experiments/src/f.rs"),
    ] {
        let out = bin()
            .args(["--file"])
            .arg(fixture(fix))
            .args(["--as", as_path])
            .env_remove("PPCHECK_JSON")
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(1), "{fix} must fail the run");
        let stdout = String::from_utf8(out.stdout).unwrap();
        assert!(stdout.contains(as_path), "{fix}: report names the path");
    }
}

#[test]
fn clean_and_suppressed_fixtures_exit_zero() {
    for (fix, as_path) in [
        ("hash_collections/clean.rs", "crates/experiments/src/f.rs"),
        (
            "hash_collections/suppressed.rs",
            "crates/experiments/src/f.rs",
        ),
        ("undocumented_unsafe/clean.rs", "crates/ppsim/src/f.rs"),
        (
            "cache_unwrap/suppressed.rs",
            "crates/experiments/src/cache.rs",
        ),
    ] {
        let out = bin()
            .args(["--file"])
            .arg(fixture(fix))
            .args(["--as", as_path])
            .env_remove("PPCHECK_JSON")
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(0), "{fix} must pass");
    }
}

#[test]
fn workspace_scan_exits_zero_and_writes_jsonl() {
    let json = std::env::temp_dir().join(format!("ppcheck-cli-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&json);
    let out = bin()
        .arg("--root")
        .arg(workspace_root())
        .arg("--json")
        .arg(&json)
        .output()
        .unwrap();
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(
        out.status.code(),
        Some(0),
        "committed tree must be ppcheck-clean:\n{stdout}"
    );
    assert!(stdout.contains("ppcheck: 0 findings"), "{stdout}");
    // The JSONL report exists and holds only suppressed findings (if any).
    let report = std::fs::read_to_string(&json).unwrap();
    for line in report.lines() {
        assert!(
            line.contains("\"suppressed\":true"),
            "unsuppressed in JSONL: {line}"
        );
    }
    let _ = std::fs::remove_file(&json);
}

#[test]
fn usage_errors_exit_two() {
    let out = bin().arg("--no-such-flag").output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let out = bin()
        .args(["--root", "/nonexistent-ppcheck-root"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
}

/// A reader that closes stdout or stderr early drops the report or the
/// usage note, never the process: the scan still writes its JSONL report
/// and every exit status stands.
#[test]
fn closed_pipes_drop_output_and_keep_the_exit_status() {
    let json = std::env::temp_dir().join(format!("ppcheck-closed-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&json);
    let (reader, writer) = std::io::pipe().unwrap();
    drop(reader);
    let out = bin()
        .arg("--root")
        .arg(workspace_root())
        .arg("--json")
        .arg(&json)
        .stdout(writer)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "closed stdout: {stderr}");
    assert!(json.is_file(), "closed stdout: no JSONL report");
    let _ = std::fs::remove_file(&json);

    let (reader, writer) = std::io::pipe().unwrap();
    drop(reader);
    let out = bin().arg("--bogus").stderr(writer).output().unwrap();
    assert_eq!(out.status.code(), Some(2), "closed stderr");
}
