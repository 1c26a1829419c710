//! Determinism analyzer contract tests: the workspace's own scan is clean,
//! fast and deterministic, and randomly generated taint chains of any depth,
//! from any SRC source shape, are found with the full chain rendered.

use coyote_lint::{lint_source, lint_source_tree};
use proptest::prelude::*;
use std::path::Path;
use std::time::Instant;

/// The workspace `crates/` root, from this crate's manifest dir.
fn workspace_crates() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("crates/ parent")
        .to_path_buf()
}

#[test]
fn whole_workspace_scan_is_clean_of_unsuppressed_errors() {
    let r = lint_source_tree(&workspace_crates()).expect("scan");
    assert!(
        !r.has_errors(),
        "the workspace must carry no unsuppressed determinism errors \
         (fix the hazard, or annotate the site or the sink):\n{}",
        r.render_human()
    );
}

#[test]
fn whole_workspace_scan_is_deterministic() {
    let root = workspace_crates();
    let a = lint_source_tree(&root).expect("scan");
    let b = lint_source_tree(&root).expect("scan");
    assert_eq!(a, b, "two scans of one tree must render identically");
}

#[test]
fn whole_workspace_scan_stays_interactive() {
    // The analyzer gates CI on every push: lexing all crates, the SRC
    // checks, the summary fixpoint and the sink scan must stay well under a
    // second even unoptimized. Warm the page cache with one untimed scan,
    // then gate the median of five timed scans, so one scheduler hiccup on
    // a shared host cannot fail the budget and one lucky sample cannot
    // pass it.
    let root = workspace_crates();
    let _ = lint_source_tree(&root).expect("scan");
    let mut samples: Vec<u128> = (0..5)
        .map(|_| {
            let start = Instant::now();
            let _ = lint_source_tree(&root).expect("scan");
            start.elapsed().as_millis()
        })
        .collect();
    samples.sort_unstable();
    let median = samples[samples.len() / 2];
    assert!(
        median < 500,
        "workspace scan median {median} ms over {samples:?}, budget is 500 ms"
    );
}

/// Every shape the SRC rules recognize, as the body of a chain's leaf fn,
/// with the class name its IPA diagnostic opens with. The analysis is
/// token-level, so the generated files need no imports.
const ORIGINS: [(&str, &str); 18] = [
    ("m.keys().copied().collect()", "hash-order iteration"),
    (
        "let mut v = Vec::new();\n    for k in m { v.push(k); }\n    v",
        "hash-order iteration",
    ),
    (
        "Instant::now().elapsed().as_nanos() as u64",
        "wall-clock read",
    ),
    ("SystemTime::now()", "wall-clock read"),
    (
        "SystemTime::UNIX_EPOCH.elapsed().unwrap().as_secs()",
        "wall-clock read",
    ),
    ("rand::thread_rng().next_u64()", "ambient entropy"),
    ("rand::rngs::OsRng.next_u64()", "ambient entropy"),
    ("StdRng::from_entropy().next_u64()", "ambient entropy"),
    ("RandomState::new().hash_one(m.len())", "ambient entropy"),
    ("getrandom::u64().unwrap()", "ambient entropy"),
    (
        "par_map(&m.len(), |x| *x as f64 * 0.5)",
        "par_map float accumulation",
    ),
    (
        "par_map(&m.len(), |x| if *x > 1 { 0.5 } else { 1.0 })",
        "par_map float accumulation",
    ),
    ("COUNTER.load(Ordering::Relaxed)", "relaxed-atomic read"),
    (
        "std::thread::spawn(|| 1).join().unwrap()",
        "ad-hoc thread result",
    ),
    ("spawn(|| 1).join().unwrap()", "ad-hoc thread result"),
    (
        "std::thread::scope(|s| s.spawn(|| 1).join().unwrap())",
        "ad-hoc thread result",
    ),
    (
        "std::env::var(\"COYOTE_X\").map_or(0, |v| v.len())",
        "environment read",
    ),
    ("std::env::vars().count()", "environment read"),
];

/// Build a synthetic workspace with a taint chain of exactly `depth` call
/// boundaries: `h0` evaluates the `origin` shape, `h1..h{depth-1}` forward
/// its result, and `publish` feeds it to a fingerprint sink — with
/// `decoys` clean helper functions interleaved as resolution noise.
fn chain_source(origin: &str, depth: usize, decoys: usize, salt: u64) -> String {
    let mut src = String::from("use std::collections::HashMap;\n");
    src.push_str(&format!(
        "fn h0_{salt}(m: &HashMap<u32, u32>) -> Vec<u32> {{\n    {origin}\n}}\n"
    ));
    for i in 1..depth {
        src.push_str(&format!(
            "fn h{i}_{salt}(m: &HashMap<u32, u32>) -> Vec<u32> {{ h{}_{salt}(m) }}\n",
            i - 1
        ));
    }
    for d in 0..decoys {
        src.push_str(&format!(
            "fn clean{d}_{salt}(x: u64) -> u64 {{ x.wrapping_mul({}) }}\n",
            salt | 1
        ));
    }
    src.push_str(&format!(
        "fn publish_{salt}(m: &HashMap<u32, u32>) -> u64 {{\n    \
         let order = h{}_{salt}(m);\n    fingerprint_of(1, &order, 2, 3)\n}}\n",
        depth - 1
    ));
    src
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn a_taint_chain_of_any_depth_is_found_with_its_full_chain(
        depth in 1usize..5,
        decoys in 0usize..4,
        salt in any::<u64>(),
    ) {
        // Every origin shape in every case, so no shape can drift out of
        // the taint pass unnoticed.
        for (origin, class) in ORIGINS {
            let src = chain_source(origin, depth, decoys, salt);
            let r = lint_source("gen.rs", &src);
            let hits: Vec<_> = r.of_rule("IPA001").collect();
            prop_assert_eq!(hits.len(), 1, "exactly one IPA001:\n{}\n{}", src, r.render_human());
            let msg = &hits[0].message;
            prop_assert!(
                msg.starts_with(&format!("{class} at gen.rs:")),
                "the origin class must be named: {msg}"
            );
            let plural = if depth == 1 { "boundary" } else { "boundaries" };
            prop_assert!(
                msg.contains(&format!("across {depth} call {plural}")),
                "boundary count must equal the generated depth: {msg}"
            );
            // Every hop of the chain appears, in order, ending at the sink.
            let mut cursor = 0usize;
            for i in 0..depth {
                let hop = format!("h{i}_{salt} (");
                let at = msg[cursor..].find(&hop);
                prop_assert!(at.is_some(), "missing hop {hop} in: {msg}");
                cursor += at.unwrap();
            }
            prop_assert!(
                msg[cursor..].contains(&format!("publish_{salt} (")),
                "the enclosing fn closes the chain: {msg}"
            );
            prop_assert!(r.of_rule("IPA004").next().is_none(), "nothing is pub");
        }
    }

    #[test]
    fn a_sorted_chain_of_any_depth_stays_clean(
        depth in 1usize..5,
        salt in any::<u64>(),
    ) {
        // Same chain, but the leaf sorts before returning: the sanitizer
        // must stop the taint no matter how many hops follow. The leaf's
        // own line still iterates the HashMap, which SRC001 reports.
        let mut src = chain_source(ORIGINS[0].0, depth, 0, salt);
        src = src.replace(
            "{\n    m.keys().copied().collect()\n}",
            "{\n    let mut v: Vec<u32> = m.keys().copied().collect();\n    \
             v.sort_unstable();\n    v\n}",
        );
        let r = lint_source("gen.rs", &src);
        let rules: Vec<&str> = r.diagnostics.iter().map(|d| d.rule_id.as_str()).collect();
        prop_assert_eq!(rules, vec!["SRC001"], "{}", r.render_human());
    }
}
