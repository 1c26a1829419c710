//! The taint sinks: the calls where the workspace commits a value to the
//! determinism contract — FNV trace fingerprints, the canonical `merged`
//! joins, byte-pinned artifacts written to disk (synth checkpoints) and
//! bench fingerprints. The taint *sources* are the raw SRC findings
//! ([`crate::source`]); the taint pass connects the two through the call
//! graph; this module only says what a sink looks like.

use super::callgraph::CallSite;

/// Which determinism boundary a sink call commits to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SinkClass {
    /// FNV trace hash / fingerprint computation.
    TraceHash,
    /// Canonical trace merge (`FaultTrace::merged`).
    TraceMerge,
    /// A byte-pinned artifact written to disk (`Checkpoint::write_to`).
    WrittenArtifact,
}

impl SinkClass {
    /// Human description used in diagnostics.
    pub fn describe(self) -> &'static str {
        match self {
            SinkClass::TraceHash => "trace fingerprint",
            SinkClass::TraceMerge => "canonical trace merge",
            SinkClass::WrittenArtifact => "written artifact",
        }
    }
}

/// Free/qualified callee names that hash a trace into a fingerprint.
const HASH_SINKS: [&str; 6] = [
    "fingerprint",
    "fingerprint_of",
    "trace_hash",
    "fault_hash",
    "fnv1a64",
    "fnv64",
];

/// Classify a call site as a sink, if it is one.
pub fn sink_class(cs: &CallSite) -> Option<SinkClass> {
    let name = cs.callee.as_str();
    if HASH_SINKS.contains(&name) {
        return Some(SinkClass::TraceHash);
    }
    // `.hash()` with no arguments is a trace fingerprint (`FaultTrace::hash`);
    // `x.hash(&mut hasher)` is std::hash and not one.
    if name == "hash" && cs.is_method && cs.args.0 >= cs.args.1 {
        return Some(SinkClass::TraceHash);
    }
    if name == "merged" {
        return Some(SinkClass::TraceMerge);
    }
    if name == "write_to" {
        return Some(SinkClass::WrittenArtifact);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::lex::lex;

    #[test]
    fn sink_classification_by_call_shape() {
        use super::super::callgraph::call_sites;
        let toks = lex(
            "fn f() { let a = fingerprint_of(e, w, t, h); FaultTrace::merged(ts); \
             t.hash(); x.hash(&mut hasher); qp.post(1, verb); c.write_to(p); }",
        )
        .tokens;
        let n = toks.len();
        let sites = call_sites(&toks, (0, n));
        let classes: Vec<Option<SinkClass>> = sites.iter().map(sink_class).collect();
        assert_eq!(
            classes,
            vec![
                None, // f itself
                Some(SinkClass::TraceHash),
                Some(SinkClass::TraceMerge),
                Some(SinkClass::TraceHash),
                None, // std::hash with a hasher argument
                None, // a queue-pair post is not a determinism boundary
                Some(SinkClass::WrittenArtifact),
            ]
        );
    }
}
