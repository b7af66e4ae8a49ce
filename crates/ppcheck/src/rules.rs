//! The named project invariants and the engine that enforces them.
//!
//! Each rule guards one determinism or soundness contract of the
//! reproduction (see the README's "Static guarantees" table):
//!
//! | id                    | scope                          | invariant |
//! |-----------------------|--------------------------------|-----------|
//! | `hash-collections`    | `experiments`, `bench`         | d1: no `HashMap`/`HashSet` in artifact-producing crates |
//! | `wall-clock-entropy`  | `ppsim`, `experiments` src     | d2: no `SystemTime`/`Instant`/`thread_rng`/`from_entropy` in anything that feeds an artifact |
//! | `float-format`        | `experiments` src (not json)   | d3: artifact floats only via the canonical `ppexp::json` emitter |
//! | `undocumented-unsafe` | whole workspace                | s1: every `unsafe` block / `unsafe impl` carries `// SAFETY:` |
//! | `cache-unwrap`        | `ppexp::cache`                 | s2: cache I/O never panics — corruption degrades to a clean miss |
//! | `pragma`              | whole workspace                | suppression pragmas must be well-formed and auditable |
//!
//! Suppression: `// ppcheck: allow(<rule>, "<reason>")` on the finding's
//! line or the line directly above. The reason is mandatory — a pragma is
//! an audit record, not an off switch — and suppressed findings still
//! appear in the JSONL report with their reasons.
//!
//! Test code (everything from the first `#[cfg(test)]` to end of file,
//! the workspace's universal layout) is exempt from the determinism rules
//! — tests may time things and unwrap freely — but **not** from
//! `undocumented-unsafe`: unsafe test code still documents itself.

use crate::lexer::{lex, Tok, TokKind};

/// Identity of a rule, stable across releases (pragmas reference these).
pub const RULE_IDS: [&str; 6] = [
    "hash-collections",
    "wall-clock-entropy",
    "float-format",
    "undocumented-unsafe",
    "cache-unwrap",
    "pragma",
];

/// The canonical float emitter: the one place artifact floats may be
/// formatted (d3).
const CANONICAL_EMITTER: &str = "crates/experiments/src/json.rs";

/// One finding of the pass.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Finding {
    /// Rule id (one of [`RULE_IDS`]).
    pub rule: &'static str,
    /// Workspace-relative path, `/`-separated.
    pub path: String,
    /// 1-based line of the offending token.
    pub line: usize,
    /// Human-readable description of the violation.
    pub message: String,
    /// `Some(reason)` if an inline pragma suppressed this finding.
    pub suppressed: Option<String>,
}

/// A parsed `// ppcheck: allow(rule, "reason")` pragma.
struct Pragma {
    line: usize,
    rule: String,
    reason: String,
}

/// Scan one file's source as if it lived at workspace-relative `path`.
///
/// Returns **all** findings, suppressed ones included (marked): the
/// report layer decides what is fatal. Findings are ordered by line.
pub fn scan_source(path: &str, src: &str) -> Vec<Finding> {
    let path = path.replace('\\', "/");
    let toks = lex(src);
    let code: Vec<&Tok> = toks.iter().filter(|t| !t.is_comment()).collect();
    let test_from = test_boundary(&code);
    let (pragmas, mut findings) = collect_pragmas(&path, &toks);

    check_hash_collections(&path, &code, test_from, &mut findings);
    check_wall_clock(&path, &code, test_from, &mut findings);
    check_float_format(&path, &code, test_from, &mut findings);
    check_undocumented_unsafe(&path, &toks, &code, &mut findings);
    check_cache_unwrap(&path, &code, test_from, &mut findings);

    for f in &mut findings {
        if f.rule == "pragma" {
            continue; // a malformed pragma cannot excuse itself
        }
        if let Some(p) = pragmas
            .iter()
            .find(|p| p.rule == f.rule && (p.line == f.line || p.line + 1 == f.line))
        {
            f.suppressed = Some(p.reason.clone());
        }
    }
    findings.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    findings
}

/// Line of the first `#[cfg(test)]` attribute, if any. Everything at or
/// after it is treated as test code: the workspace convention keeps test
/// modules at the end of each file, and the meta-test over the committed
/// tree keeps that convention honest.
fn test_boundary(code: &[&Tok]) -> usize {
    for w in code.windows(7) {
        let texts: Vec<&str> = w.iter().map(|t| t.text.as_str()).collect();
        if texts == ["#", "[", "cfg", "(", "test", ")", "]"] {
            return w[0].line;
        }
    }
    usize::MAX
}

/// Extract well-formed pragmas; malformed ones become `pragma` findings.
fn collect_pragmas(path: &str, toks: &[Tok]) -> (Vec<Pragma>, Vec<Finding>) {
    let mut pragmas = Vec::new();
    let mut findings = Vec::new();
    for t in toks.iter().filter(|t| t.is_comment()) {
        let body = t.comment_body();
        let Some(rest) = body.strip_prefix("ppcheck:") else {
            continue;
        };
        match parse_allow(rest.trim()) {
            Ok((rule, reason)) => pragmas.push(Pragma {
                line: t.line,
                rule,
                reason,
            }),
            Err(why) => findings.push(Finding {
                rule: "pragma",
                path: path.to_string(),
                line: t.line,
                message: format!("malformed ppcheck pragma: {why}"),
                suppressed: None,
            }),
        }
    }
    (pragmas, findings)
}

/// Parse `allow(<rule>, "<reason>")`.
fn parse_allow(s: &str) -> Result<(String, String), String> {
    let inner = s
        .strip_prefix("allow")
        .map(str::trim_start)
        .and_then(|r| r.strip_prefix('('))
        .and_then(|r| r.strip_suffix(')'))
        .ok_or("expected `allow(<rule>, \"<reason>\")`")?;
    let (rule, rest) = inner
        .split_once(',')
        .ok_or("expected a rule id and a quoted reason, separated by a comma")?;
    let rule = rule.trim();
    if !RULE_IDS.contains(&rule) {
        return Err(format!(
            "unknown rule '{rule}' (expected one of: {})",
            RULE_IDS.join(", ")
        ));
    }
    if rule == "pragma" {
        return Err("the pragma rule itself cannot be suppressed".into());
    }
    let reason = rest.trim();
    let reason = reason
        .strip_prefix('"')
        .and_then(|r| r.strip_suffix('"'))
        .ok_or("the reason must be a double-quoted string")?;
    if reason.trim().is_empty() {
        return Err("the reason must not be empty — pragmas are audit records".into());
    }
    Ok((rule.to_string(), reason.trim().to_string()))
}

fn in_crate(path: &str, prefix: &str) -> bool {
    path.starts_with(prefix)
}

/// d1 — `hash-collections`.
fn check_hash_collections(path: &str, code: &[&Tok], test_from: usize, out: &mut Vec<Finding>) {
    let artifact_crate = in_crate(path, "crates/experiments/") || in_crate(path, "crates/bench/");
    if !artifact_crate {
        return;
    }
    for t in code {
        if t.line >= test_from {
            break;
        }
        if t.kind == TokKind::Ident && (t.text == "HashMap" || t.text == "HashSet") {
            out.push(Finding {
                rule: "hash-collections",
                path: path.to_string(),
                line: t.line,
                message: format!(
                    "`{}` in an artifact-producing crate: iteration order depends on \
                     hasher state; use BTreeMap/BTreeSet",
                    t.text
                ),
                suppressed: None,
            });
        }
    }
}

/// d2 — `wall-clock-entropy`.
fn check_wall_clock(path: &str, code: &[&Tok], test_from: usize, out: &mut Vec<Finding>) {
    if !(in_crate(path, "crates/ppsim/src/") || in_crate(path, "crates/experiments/src/")) {
        return;
    }
    const BANNED: [&str; 4] = ["SystemTime", "Instant", "thread_rng", "from_entropy"];
    for t in code {
        if t.line >= test_from {
            break;
        }
        if t.kind == TokKind::Ident && BANNED.contains(&t.text.as_str()) {
            out.push(Finding {
                rule: "wall-clock-entropy",
                path: path.to_string(),
                line: t.line,
                message: format!(
                    "`{}` in simulation/artifact library code: wall clocks and OS \
                     entropy break bit-exact replay; thread timing through the caller \
                     and randomness through seeded rngs (`ppsim::rng`)",
                    t.text
                ),
                suppressed: None,
            });
        }
    }
}

/// d3 — `float-format`.
fn check_float_format(path: &str, code: &[&Tok], test_from: usize, out: &mut Vec<Finding>) {
    if !in_crate(path, "crates/experiments/src/") || path == CANONICAL_EMITTER {
        return;
    }
    for t in code {
        if t.line >= test_from {
            break;
        }
        if t.kind == TokKind::Str
            && (t.text.contains("{:.") || t.text.contains("{:e") || t.text.contains("{:E"))
        {
            out.push(Finding {
                rule: "float-format",
                path: path.to_string(),
                line: t.line,
                message: "ad-hoc float formatting in the artifact layer: artifact floats \
                          must go through the canonical shortest-round-trip emitter \
                          (ppexp::json) or byte-identity breaks on re-parse"
                    .to_string(),
                suppressed: None,
            });
        }
    }
}

/// s1 — `undocumented-unsafe`.
///
/// An `unsafe` block (`unsafe {`) or `unsafe impl`/`unsafe trait` must
/// have a comment containing `SAFETY:` on its own line or within the
/// three lines above it. `unsafe fn` *declarations* are the callee side
/// of the contract and are covered by their doc comments instead.
fn check_undocumented_unsafe(path: &str, toks: &[Tok], code: &[&Tok], out: &mut Vec<Finding>) {
    // Lines at which a SAFETY comment *ends*. A multi-line safety
    // argument — one block comment, or a run of consecutive `//` lines
    // where any line carries the marker — is credited at its last line,
    // so the "within three lines above the site" window measures from
    // where the comment stops, not where it starts.
    let mut safety_lines: Vec<usize> = Vec::new();
    let mut run_end: Option<usize> = None; // last line of the current `//` run
    let mut run_has_safety = false;
    for t in toks {
        if t.kind == TokKind::LineComment {
            match run_end {
                Some(end) if t.line == end + 1 => run_end = Some(t.line),
                _ => {
                    if run_has_safety {
                        safety_lines.extend(run_end);
                    }
                    run_end = Some(t.line);
                    run_has_safety = false;
                }
            }
            run_has_safety |= t.text.contains("SAFETY:");
        } else {
            if run_has_safety {
                safety_lines.extend(run_end);
            }
            run_end = None;
            run_has_safety = false;
            if t.kind == TokKind::BlockComment && t.text.contains("SAFETY:") {
                safety_lines.push(t.line + t.text.matches('\n').count());
            }
        }
    }
    if run_has_safety {
        safety_lines.extend(run_end);
    }
    for (i, t) in code.iter().enumerate() {
        if !(t.kind == TokKind::Ident && t.text == "unsafe") {
            continue;
        }
        let next = code.get(i + 1).map(|n| n.text.as_str());
        let form = match next {
            Some("{") => "unsafe block",
            Some("impl") => "unsafe impl",
            Some("trait") => "unsafe trait",
            _ => continue,
        };
        let documented = safety_lines.iter().any(|&l| l <= t.line && l + 3 >= t.line);
        if !documented {
            out.push(Finding {
                rule: "undocumented-unsafe",
                path: path.to_string(),
                line: t.line,
                message: format!(
                    "{form} without a `// SAFETY:` comment: every unsafe site must \
                     state the invariant that makes it sound"
                ),
                suppressed: None,
            });
        }
    }
}

/// s2 — `cache-unwrap`.
fn check_cache_unwrap(path: &str, code: &[&Tok], test_from: usize, out: &mut Vec<Finding>) {
    if path != "crates/experiments/src/cache.rs" {
        return;
    }
    for (i, t) in code.iter().enumerate() {
        if t.line >= test_from {
            break;
        }
        if t.kind == TokKind::Ident
            && (t.text == "unwrap" || t.text == "expect")
            && i > 0
            && code[i - 1].text == "."
        {
            out.push(Finding {
                rule: "cache-unwrap",
                path: path.to_string(),
                line: t.line,
                message: format!(
                    "`.{}()` in a cache I/O path: cache corruption must degrade to a \
                     clean miss (return None / Err), never a panic",
                    t.text
                ),
                suppressed: None,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EXP: &str = "crates/experiments/src/foo.rs";

    fn unsuppressed(f: &[Finding]) -> usize {
        f.iter().filter(|f| f.suppressed.is_none()).count()
    }

    #[test]
    fn rules_are_path_scoped() {
        let src = "use std::collections::HashMap;\n";
        assert_eq!(scan_source(EXP, src).len(), 1);
        assert_eq!(scan_source("crates/bench/src/lib.rs", src).len(), 1);
        // ppsim may use hash collections (no artifact bytes flow from it
        // without passing through ppexp's deterministic emitters)…
        assert!(scan_source("crates/ppsim/src/agent_sim.rs", src).is_empty());
        // …but no file of the artifact crates is exempt.
        assert_eq!(
            scan_source("crates/experiments/src/sorted.rs", src).len(),
            1
        );
    }

    #[test]
    fn wall_clock_scoping_allows_bench_timing() {
        let src = "use std::time::Instant;\nfn t() { let _ = Instant::now(); }\n";
        assert_eq!(scan_source("crates/ppsim/src/urn.rs", src).len(), 2);
        assert_eq!(scan_source(EXP, src).len(), 2);
        // Benches time things for a living; vendor/criterion is its home.
        assert!(scan_source("crates/bench/benches/engine.rs", src).is_empty());
        assert!(scan_source("vendor/criterion/src/lib.rs", src).is_empty());
    }

    #[test]
    fn instantiate_is_not_instant() {
        // Token-level matching: substrings of longer identifiers and
        // words in comments/strings never fire.
        let src = "/// Instantiate the thing.\nfn instantiate() { let s = \"Instant\"; }\n";
        assert!(scan_source("crates/ppsim/src/x.rs", src).is_empty());
    }

    #[test]
    fn float_format_exempts_the_canonical_emitter() {
        let src = "fn f(x: f64) -> String { format!(\"{:.3}\", x) }\n";
        assert_eq!(scan_source(EXP, src).len(), 1);
        assert!(scan_source(super::CANONICAL_EMITTER, src).is_empty());
        // Hex-pad specifiers are not float formatting.
        let hex = "fn f(x: u64) -> String { format!(\"{x:016x}\") }\n";
        assert!(scan_source(EXP, hex).is_empty());
    }

    #[test]
    fn unsafe_requires_safety_comment() {
        let bad = "fn f() { unsafe { core::hint::unreachable_unchecked() } }\n";
        let f = scan_source("crates/ppsim/src/x.rs", bad);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "undocumented-unsafe");

        let good = "fn f() {\n    // SAFETY: provably unreachable.\n    unsafe { core::hint::unreachable_unchecked() }\n}\n";
        assert!(scan_source("crates/ppsim/src/x.rs", good).is_empty());

        // `unsafe impl` needs it too; `unsafe fn` declarations do not.
        let imp = "unsafe impl Sync for X {}\n";
        assert_eq!(scan_source("src/lib.rs", imp).len(), 1);
        let decl = "unsafe fn f() {}\n";
        assert!(scan_source("src/lib.rs", decl).is_empty());
    }

    #[test]
    fn safety_comment_window_is_three_lines() {
        let far = "// SAFETY: too far away.\n\n\n\n\nfn f() { unsafe { x() } }\n";
        assert_eq!(scan_source("src/lib.rs", far).len(), 1);
        let multiline =
            "/* SAFETY: spans\nlines\nright up to the site */\nfn f() { unsafe { x() } }\n";
        assert!(scan_source("src/lib.rs", multiline).is_empty());
    }

    #[test]
    fn multi_line_slash_safety_runs_are_credited_at_their_last_line() {
        // A long `// SAFETY: …` argument spanning many `//` lines must
        // count from where it *ends* (this is the parallel.rs shape).
        let long = "\
// SAFETY: the work-queue counter partitions all access —\n\
// each index goes to exactly one thread, and the scope\n\
// join publishes the writes. Five lines of argument is\n\
// normal for a nontrivial soundness claim, and the window\n\
// must measure from the last of them.\n\
unsafe impl Sync for X {}\n";
        assert!(scan_source("src/lib.rs", long).is_empty());
        // But an unrelated comment run does not smuggle credit forward:
        // the SAFETY line followed by a >3-line gap of *code* still fails.
        let gap = "\
// SAFETY: stale.\n\
fn a() {}\n\
fn b() {}\n\
fn c() {}\n\
fn d() { unsafe { x() } }\n";
        assert_eq!(scan_source("src/lib.rs", gap).len(), 1);
    }

    #[test]
    fn cache_unwrap_is_file_scoped() {
        let src = "fn f() { std::fs::read_to_string(\"x\").unwrap(); }\n";
        let f = scan_source("crates/experiments/src/cache.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "cache-unwrap");
        assert!(scan_source(EXP, src).is_empty());
        // Free function named `expect` (ppexp::json has one) is fine.
        let free = "fn g() { expect(bytes, pos, b':'); }\n";
        assert!(scan_source("crates/experiments/src/cache.rs", free).is_empty());
    }

    #[test]
    fn test_modules_are_exempt_from_determinism_rules_only() {
        let src = "\
fn lib() {}\n\
#[cfg(test)]\n\
mod tests {\n\
    use std::collections::HashMap;\n\
    use std::time::Instant;\n\
    fn t() { unsafe { x() } }\n\
}\n";
        let f = scan_source(EXP, src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "undocumented-unsafe");
    }

    #[test]
    fn pragma_suppresses_with_reason_on_line_or_line_above() {
        let above = "// ppcheck: allow(hash-collections, \"scratch map, never iterated\")\nuse std::collections::HashMap;\n";
        let f = scan_source(EXP, above);
        assert_eq!(f.len(), 1);
        assert_eq!(
            f[0].suppressed.as_deref(),
            Some("scratch map, never iterated")
        );
        assert_eq!(unsuppressed(&f), 0);

        let inline = "use std::collections::HashMap; // ppcheck: allow(hash-collections, \"re-exported only\")\n";
        assert_eq!(unsuppressed(&scan_source(EXP, inline)), 0);

        // A pragma for a *different* rule does not suppress.
        let wrong =
            "// ppcheck: allow(float-format, \"misdirected\")\nuse std::collections::HashMap;\n";
        assert_eq!(unsuppressed(&scan_source(EXP, wrong)), 1);
    }

    #[test]
    fn malformed_pragmas_are_findings() {
        for (src, why) in [
            ("// ppcheck: allow(hash-collections)\n", "missing reason"),
            ("// ppcheck: allow(no-such-rule, \"x\")\n", "unknown rule"),
            (
                "// ppcheck: allow(hash-collections, \"\")\n",
                "empty reason",
            ),
            ("// ppcheck: disallow(hash-collections)\n", "not allow"),
            ("// ppcheck: allow(pragma, \"nope\")\n", "self-suppression"),
        ] {
            let f = scan_source(EXP, src);
            assert_eq!(f.len(), 1, "{why}: {f:?}");
            assert_eq!(f[0].rule, "pragma", "{why}");
            assert!(f[0].suppressed.is_none(), "{why}");
        }
    }

    #[test]
    fn findings_are_line_ordered() {
        let src = "use std::collections::HashSet;\nfn f() { unsafe { x() } }\nuse std::collections::HashMap;\n";
        let f = scan_source(EXP, src);
        let lines: Vec<_> = f.iter().map(|f| f.line).collect();
        assert_eq!(lines, vec![1, 2, 3]);
    }
}
