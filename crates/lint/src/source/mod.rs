//! `coyote-detlint`: the source-level determinism analyzer (SRC001–SRC007
//! per line, IPA001 and IPA003–IPA005 across calls).
//!
//! This module family audits the *code*: it lexes the workspace's own Rust
//! sources and flags the constructs that make results depend on anything
//! other than `(inputs, seed)` — hash-order iteration, wall-clock reads,
//! ambient entropy, cross-slot float reductions, relaxed atomics, ad-hoc
//! threads and environment reads. One rule per submodule, and these submodules are
//! the only code that recognizes the seven shapes:
//!
//! | rule   | module        | hazard                                     |
//! |--------|---------------|--------------------------------------------|
//! | SRC001 | `collections` | HashMap/HashSet iteration order            |
//! | SRC002 | `clock`       | `Instant::now` / `SystemTime::now`         |
//! | SRC003 | `entropy`     | `thread_rng` / `OsRng` / `RandomState`     |
//! | SRC004 | `parfloat`    | float math inside `par_map`                |
//! | SRC005 | `atomics`     | `Ordering::Relaxed`                        |
//! | SRC006 | `threads`     | spawns outside the sanctioned fan-out      |
//! | SRC007 | `envdep`      | `std::env::var` reads                      |
//!
//! One scan gives one verdict: [`lint_source_tree`] walks and lexes each
//! file once into an [`ipa::index::Workspace`],
//! reports the raw SRC findings its `detlint: allow` lines do not cover,
//! and hands the same findings to the interprocedural pass
//! ([`crate::ipa`]) as its taint origins.
//!
//! The analyzer is deliberately token-level, not type-level: it trades
//! false-negative paths (a HashMap smuggled through a type alias) for
//! zero build-graph coupling — fast enough to gate CI on the whole
//! workspace. Sanctioned sites opt out in place with
//! `// detlint: allow(SRC00x): <why>`, which keeps the justification in
//! the code under review. `#[cfg(test)]` items are skipped entirely: the
//! determinism contract covers shipped code.

pub mod lex;

pub(crate) mod atomics;
pub(crate) mod clock;
pub(crate) mod collections;
pub(crate) mod entropy;
pub(crate) mod envdep;
pub(crate) mod parfloat;
pub(crate) mod threads;

use crate::diag::{Diagnostic, Location, Report};
use crate::ipa::{self, index::Workspace};
use crate::rules;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One raw finding from a rule module, before allow-directive filtering
/// and severity lookup.
pub(crate) struct Finding {
    pub(crate) rule: &'static str,
    pub(crate) line: u32,
    /// Index of the flagged token in the (cfg(test)-stripped) stream: the
    /// taint pass seeds every span that contains it.
    pub(crate) tok: usize,
    pub(crate) message: String,
    pub(crate) suggestion: Option<String>,
}

/// Run all seven SRC checks over a (cfg(test)-stripped) token stream and
/// return the raw findings, pre-suppression, sorted by (line, rule).
pub(crate) fn raw_findings(tokens: &[lex::Token]) -> Vec<Finding> {
    let mut findings = Vec::new();
    collections::check(tokens, &mut findings);
    clock::check(tokens, &mut findings);
    entropy::check(tokens, &mut findings);
    parfloat::check(tokens, &mut findings);
    atomics::check(tokens, &mut findings);
    threads::check(tokens, &mut findings);
    envdep::check(tokens, &mut findings);
    findings.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    findings
}

/// Analyze `(unit, text)` sources as one workspace: every file's SRC
/// findings not covered by a `detlint: allow` line (location
/// `src:<unit>` / `L<line>`), then the interprocedural findings
/// (`ipa:<unit>`).
fn lint_workspace(sources: &[(String, String)]) -> Report {
    let ws = Workspace::index(sources);
    let mut report = Report::new();
    for file in &ws.files {
        for f in &file.src_findings {
            if file.is_allowed(f.rule, f.line) {
                continue;
            }
            let mut d = Diagnostic::new(
                f.rule,
                rules::severity(f.rule),
                Location::new(format!("src:{}", file.unit), format!("L{}", f.line)),
                f.message.clone(),
            );
            if let Some(s) = &f.suggestion {
                d = d.with_suggestion(s.clone());
            }
            report.push(d);
        }
    }
    report.extend(ipa::check(&ws));
    report
}

/// Analyze one source file's text as a one-file workspace. `unit` names
/// the file in diagnostics (conventionally its workspace-relative path).
pub fn lint_source(unit: &str, text: &str) -> Report {
    lint_workspace(&[(unit.to_string(), text.to_string())])
}

/// Directories never scanned: build output, vendored deps, lint fixtures
/// (which *contain* seeded violations), and test/bench code (the
/// determinism contract covers shipped code only).
const SKIP_DIRS: [&str; 7] = [
    "target", "vendor", "fixtures", "tests", "benches", "examples", ".git",
];

/// Recursively collect `.rs` files under `root`, sorted, honoring
/// [`SKIP_DIRS`].
fn collect_rs_files(root: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(root)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if SKIP_DIRS.contains(&name) {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if path.extension().and_then(|e| e.to_str()) == Some("rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Analyze every `.rs` file under `root` (recursively, deterministic
/// order) as one workspace, naming each file by its path relative to
/// `root`.
pub fn lint_source_tree(root: &Path) -> io::Result<Report> {
    let mut files = Vec::new();
    collect_rs_files(root, &mut files)?;
    let mut sources = Vec::with_capacity(files.len());
    for path in &files {
        let unit = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        sources.push((unit, fs::read_to_string(path)?));
    }
    Ok(lint_workspace(&sources))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_fired(text: &str) -> Vec<String> {
        lint_source("t.rs", text)
            .diagnostics
            .into_iter()
            .map(|d| d.rule_id)
            .collect()
    }

    #[test]
    fn src001_hash_iteration_flagged_with_location() {
        let src = "
fn f() {
    let mut m: std::collections::HashMap<u32, u32> = std::collections::HashMap::new();
    for (k, v) in &m { println!(\"{k} {v}\"); }
}
";
        let r = lint_source("unit.rs", src);
        let d = r.of_rule("SRC001").next().expect("SRC001 fires");
        assert_eq!(d.location.unit, "src:unit.rs");
        assert_eq!(d.location.path, "L4");
    }

    #[test]
    fn src001_method_iteration_and_let_binding() {
        let src = "
fn f() {
    let seen = HashSet::new();
    let order: Vec<u32> = seen.iter().copied().collect();
}
";
        assert_eq!(rules_fired(src), vec!["SRC001"]);
    }

    #[test]
    fn src001_lookup_only_hashmap_is_clean() {
        let src = "
struct S { map: HashMap<u32, u32> }
impl S {
    fn get(&self, k: u32) -> Option<&u32> { self.map.get(&k) }
}
";
        assert!(rules_fired(src).is_empty());
    }

    #[test]
    fn src002_wall_clock_flagged() {
        assert_eq!(
            rules_fired("fn f() { let t = Instant::now(); }"),
            vec!["SRC002"]
        );
        assert_eq!(
            rules_fired("fn f() { let t = std::time::SystemTime::now(); }"),
            vec!["SRC002"]
        );
    }

    #[test]
    fn src003_entropy_flagged() {
        assert_eq!(
            rules_fired("fn f() { let mut r = rand::thread_rng(); }"),
            vec!["SRC003"]
        );
    }

    #[test]
    fn src004_float_in_par_map_flagged_once() {
        let src = "
fn f(xs: &[u64]) {
    let ys = par_map(xs, |x| { let v = *x as f64; v * 1.5 });
}
";
        assert_eq!(rules_fired(src), vec!["SRC004"]);
    }

    #[test]
    fn src004_integer_par_map_is_clean() {
        assert!(rules_fired("fn f(xs: &[u64]) { let ys = par_map(xs, |x| x + 1); }").is_empty());
    }

    #[test]
    fn src005_relaxed_flagged() {
        assert_eq!(
            rules_fired("fn f(c: &AtomicU64) { c.fetch_add(1, Ordering::Relaxed); }"),
            vec!["SRC005"]
        );
    }

    #[test]
    fn src006_thread_spawn_flagged() {
        assert_eq!(
            rules_fired("fn f() { std::thread::spawn(|| {}); }"),
            vec!["SRC006"]
        );
        assert_eq!(
            rules_fired("fn f(s: &Scope) { s.spawn(|| {}); }"),
            vec!["SRC006"]
        );
        // The import names `thread::spawn` (L1); the bare call is the spawn
        // itself (L2).
        let r = lint_source("t.rs", "use std::thread::spawn;\nfn f() { spawn(|| {}); }");
        let lines: Vec<&str> = r
            .of_rule("SRC006")
            .map(|d| d.location.path.as_str())
            .collect();
        assert_eq!(lines, vec!["L1", "L2"], "{}", r.render_human());
    }

    #[test]
    fn src007_env_read_flagged() {
        assert_eq!(
            rules_fired("fn f() { let v = std::env::var(\"X\"); }"),
            vec!["SRC007"]
        );
    }

    #[test]
    fn allow_directive_suppresses_only_that_rule_nearby() {
        let src = "
fn f() {
    // detlint: allow(SRC002): harness self-timing
    let t = Instant::now();
    let u = Instant::now();
}
";
        let fired = rules_fired(src);
        assert_eq!(fired, vec!["SRC002"], "only the unannotated site fires");
        let r = lint_source("t.rs", src);
        assert_eq!(r.diagnostics[0].location.path, "L5");
    }

    #[test]
    fn cfg_test_code_is_exempt() {
        let src = "
fn shipped() {}
#[cfg(test)]
mod tests {
    fn t() { let x = Instant::now(); let mut r = rand::thread_rng(); }
}
";
        assert!(rules_fired(src).is_empty());
    }

    #[test]
    fn hazards_in_strings_and_comments_are_ignored() {
        let src = "
fn f() {
    // Instant::now() would be bad here.
    let s = \"Ordering::Relaxed\";
}
";
        assert!(rules_fired(src).is_empty());
    }

    #[test]
    fn severity_comes_from_the_catalog() {
        use crate::diag::Severity;
        let r = lint_source("t.rs", "fn f() { let t = Instant::now(); }");
        assert_eq!(r.diagnostics[0].severity, Severity::Error);
        let r = lint_source(
            "t.rs",
            "fn f(c: &AtomicU64) { c.fetch_add(1, Ordering::Relaxed); }",
        );
        assert_eq!(r.diagnostics[0].severity, Severity::Warning);
    }

    #[test]
    fn tree_scan_skips_fixture_and_test_dirs() {
        // Exercise the walker against this crate's own source dir: it must
        // not report findings from `fixtures/` (seeded violations live
        // there) and must produce a deterministic report.
        let root = Path::new(env!("CARGO_MANIFEST_DIR"));
        let a = lint_source_tree(root).expect("scan");
        let b = lint_source_tree(root).expect("scan");
        assert_eq!(a, b, "tree scan must be deterministic");
        assert!(
            a.diagnostics
                .iter()
                .all(|d| !d.location.unit.contains("fixtures/")),
            "fixtures must be excluded: {}",
            a.render_human()
        );
    }
}
