//! The taint sinks: the calls where the workspace commits a value to the
//! determinism contract — FNV trace fingerprints, the canonical `merged`
//! joins, cross-shard posts, recorded `.cyt` streams and bench
//! fingerprints. The taint *sources* are the raw SRC findings
//! ([`crate::source`]); the taint pass connects the two through the call
//! graph; this module only says what a sink looks like.

use super::callgraph::CallSite;

/// Which determinism boundary a sink call commits to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SinkClass {
    /// FNV trace hash / fingerprint computation.
    TraceHash,
    /// Canonical trace merge (`FaultTrace::merged` / `ShardTrace::merged`).
    TraceMerge,
    /// Cross-shard event post (`post_after` / `.post(..)`).
    ShardPost,
    /// Recorded `.cyt` stream (`Recording::record` / `.write_to(..)`).
    Recording,
}

impl SinkClass {
    /// Human description used in diagnostics.
    pub fn describe(self) -> &'static str {
        match self {
            SinkClass::TraceHash => "trace fingerprint",
            SinkClass::TraceMerge => "canonical trace merge",
            SinkClass::ShardPost => "cross-shard post",
            SinkClass::Recording => "recorded stream",
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
    // `.hash()` with no arguments is a trace fingerprint (`FaultTrace::hash`,
    // `ShardTrace::hash`); `x.hash(&mut hasher)` is std::hash and not one.
    if name == "hash" && cs.is_method && cs.args.0 >= cs.args.1 {
        return Some(SinkClass::TraceHash);
    }
    if name == "merged" {
        return Some(SinkClass::TraceMerge);
    }
    if name == "post_after" || (name == "post" && cs.is_method) {
        return Some(SinkClass::ShardPost);
    }
    if name == "write_to"
        || (name == "record" && cs.qualifier.as_deref() == Some("Recording"))
        || (name == "from_run" && cs.qualifier.as_deref() == Some("Recording"))
    {
        return Some(SinkClass::Recording);
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
             t.hash(); x.hash(&mut hasher); ctx.post_after(d, tag, ev); r.write_to(p); }",
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
                Some(SinkClass::ShardPost),
                Some(SinkClass::Recording),
            ]
        );
    }
}
