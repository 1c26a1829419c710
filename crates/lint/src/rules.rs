//! The rule catalog: every design rule `coyote-lint` knows, with its id,
//! layer, default severity and rationale.
//!
//! Rule ids are stable; tooling (CI gates, allow/deny lists, golden tests)
//! keys on them. The catalog is data, not behavior — the checks themselves
//! live in the per-layer modules.

use crate::diag::Severity;

/// Which layer of the stack a rule inspects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Layer {
    /// Partition geometry and resource budgets (`coyote-fabric`).
    Floorplan,
    /// Assembled bitstream blobs, verified offline.
    Bitstream,
    /// Shell / QP / MMU configuration (`coyote`, `coyote-net`, `coyote-mmu`).
    Config,
    /// The workspace's own Rust source (the `coyote-detlint` analyzer).
    Source,
    /// The joined cross-layer platform resource graph of a shell spec.
    Platform,
    /// Interprocedural determinism taint analysis over the whole
    /// workspace call graph (the second half of `--source`).
    Interproc,
}

impl Layer {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Floorplan => "floorplan",
            Layer::Bitstream => "bitstream",
            Layer::Config => "config",
            Layer::Source => "source",
            Layer::Platform => "platform",
            Layer::Interproc => "interproc",
        }
    }
}

/// Catalog entry for one rule.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// Stable identifier.
    pub id: &'static str,
    /// Layer the rule inspects.
    pub layer: Layer,
    /// Default severity.
    pub severity: Severity,
    /// One-line rationale.
    pub description: &'static str,
}

/// Every rule, ordered by layer then id.
pub const CATALOG: &[RuleInfo] = &[
    // --- Floorplan ---------------------------------------------------
    RuleInfo {
        id: "FP001",
        layer: Layer::Floorplan,
        severity: Severity::Error,
        description: "partition extends beyond the device tile grid",
    },
    RuleInfo {
        id: "FP002",
        layer: Layer::Floorplan,
        severity: Severity::Error,
        description: "partitions overlap (static/shell, or two vFPGA regions)",
    },
    RuleInfo {
        id: "FP003",
        layer: Layer::Floorplan,
        severity: Severity::Error,
        description: "vFPGA region not contained in the shell partition",
    },
    RuleInfo {
        id: "FP004",
        layer: Layer::Floorplan,
        severity: Severity::Error,
        description: "floorplan has no shell partition (nothing to reconfigure)",
    },
    RuleInfo {
        id: "FP005",
        layer: Layer::Floorplan,
        severity: Severity::Error,
        description: "duplicate partition id",
    },
    RuleInfo {
        id: "FP006",
        layer: Layer::Floorplan,
        severity: Severity::Error,
        description: "resource demand exceeds partition capacity (LUT/FF/BRAM/URAM/DSP)",
    },
    RuleInfo {
        id: "FP007",
        layer: Layer::Floorplan,
        severity: Severity::Warning,
        description:
            "vFPGA region straddles a clock-region boundary without spanning whole regions",
    },
    // --- Bitstream ---------------------------------------------------
    RuleInfo {
        id: "BS001",
        layer: Layer::Bitstream,
        severity: Severity::Error,
        description: "malformed header: bad magic, version, device id or kind code",
    },
    RuleInfo {
        id: "BS002",
        layer: Layer::Bitstream,
        severity: Severity::Error,
        description: "truncated blob: declared frame count disagrees with byte length",
    },
    RuleInfo {
        id: "BS003",
        layer: Layer::Bitstream,
        severity: Severity::Error,
        description: "CRC mismatch over the configuration body",
    },
    RuleInfo {
        id: "BS004",
        layer: Layer::Bitstream,
        severity: Severity::Error,
        description: "frame-address sequence broken: records do not address frames 0..n in order",
    },
    // --- Config ------------------------------------------------------
    RuleInfo {
        id: "CF002",
        layer: Layer::Config,
        severity: Severity::Error,
        description: "MTU out of range (1..=4096) or not a power of two",
    },
    RuleInfo {
        id: "CF003",
        layer: Layer::Config,
        severity: Severity::Error,
        description: "retransmission window of zero packets (flow can never start)",
    },
    RuleInfo {
        id: "CF005",
        layer: Layer::Config,
        severity: Severity::Error,
        description: "shell can never schedule: invalid vFPGA/stream/channel/service combination \
             or TLB geometry (ShellConfig::validate refuses it)",
    },
    RuleInfo {
        id: "CF006",
        layer: Layer::Config,
        severity: Severity::Error,
        description: "service set does not fit the shell service band of the implied floorplan",
    },
    RuleInfo {
        id: "CF007",
        layer: Layer::Config,
        severity: Severity::Warning,
        description: "oversized TLB SRAM budget (exceeds the on-chip SRAM the MMU model assumes)",
    },
    // --- Source (coyote-detlint) -------------------------------------
    RuleInfo {
        id: "SRC001",
        layer: Layer::Source,
        severity: Severity::Error,
        description: "iteration over an unordered HashMap/HashSet: visit order varies per process \
             (SipHash keys are random), so any artifact it feeds is nondeterministic",
    },
    RuleInfo {
        id: "SRC002",
        layer: Layer::Source,
        severity: Severity::Error,
        description:
            "wall-clock escape: Instant::now/SystemTime::now inside model code ties results \
             to real time instead of simulated time",
    },
    RuleInfo {
        id: "SRC003",
        layer: Layer::Source,
        severity: Severity::Error,
        description:
            "ambient entropy: thread_rng/OsRng/RandomState/from_entropy draws differ per run; \
             all randomness must come from a seeded Xorshift64Star",
    },
    RuleInfo {
        id: "SRC004",
        layer: Layer::Source,
        severity: Severity::Warning,
        description: "floating-point math (a float literal or an f32/f64 cast) inside a par_map \
             worker: float reduction is not associative, so any cross-slot merge becomes \
             schedule-dependent",
    },
    RuleInfo {
        id: "SRC005",
        layer: Layer::Source,
        severity: Severity::Warning,
        description:
            "Ordering::Relaxed atomic: safe only for the work-claiming counter; a relaxed \
             value that feeds a trace or artifact is schedule-dependent",
    },
    RuleInfo {
        id: "SRC006",
        layer: Layer::Source,
        severity: Severity::Error,
        description:
            "thread spawn outside the sanctioned par_map fan-out: ad-hoc threads bypass the \
             input-order merge that makes parallelism deterministic",
    },
    RuleInfo {
        id: "SRC007",
        layer: Layer::Source,
        severity: Severity::Warning,
        description:
            "environment read (std::env::var) in model code: results silently depend on the \
             process environment",
    },
    // --- Platform (cross-layer resource graph) -----------------------
    RuleInfo {
        id: "PG001",
        layer: Layer::Platform,
        severity: Severity::Error,
        description:
            "graph construction conflict: duplicate tenant name or one vFPGA region claimed \
             by two tenants",
    },
    RuleInfo {
        id: "PG002",
        layer: Layer::Platform,
        severity: Severity::Error,
        description:
            "dangling reference: a tenant names a region, stream target or service the shell \
             does not have",
    },
    RuleInfo {
        id: "WF001",
        layer: Layer::Platform,
        severity: Severity::Error,
        description: "hold-and-wait cycle in the global wait-for graph: a chain of resources and \
             actors waits back on itself (e.g. ACK starvation, an undersized reconfiguration \
             completion ring)",
    },
    RuleInfo {
        id: "WF002",
        layer: Layer::Platform,
        severity: Severity::Error,
        description: "unsatisfiable wait: a party waits on a resource with zero capacity",
    },
    RuleInfo {
        id: "WF003",
        layer: Layer::Platform,
        severity: Severity::Error,
        description: "orphaned wait: a party waits on a producer this shell never instantiates",
    },
    RuleInfo {
        id: "WF004",
        layer: Layer::Platform,
        severity: Severity::Error,
        description:
            "cross-tenant hold-and-wait: a tenant holds its own resources while waiting on \
             another tenant's",
    },
    RuleInfo {
        id: "CAP001",
        layer: Layer::Platform,
        severity: Severity::Warning,
        description: "declared tenant rate exceeds the min-cut of its path (host link, memory \
             channels, RoCE link at the tenant's share)",
    },
    RuleInfo {
        id: "CAP002",
        layer: Layer::Platform,
        severity: Severity::Warning,
        description: "aggregate reconfiguration demand exceeds the ICAP beat rate: batches queue \
             without bound",
    },
    RuleInfo {
        id: "CAP003",
        layer: Layer::Platform,
        severity: Severity::Warning,
        description: "RDMA window below the declared rate's bandwidth-delay product: the flow \
             stalls-and-bursts under its promise",
    },
    RuleInfo {
        id: "ISO001",
        layer: Layer::Platform,
        severity: Severity::Error,
        description: "tenant data flow reaches another tenant's resource (reachability over the \
             feeds subgraph, path printed)",
    },
    RuleInfo {
        id: "ISO002",
        layer: Layer::Platform,
        severity: Severity::Error,
        description: "two tenants use a shell service the platform never declared shared \
             (undeclared contention / covert channel)",
    },
    // --- Interprocedural taint (--source) -----------------------------
    RuleInfo {
        id: "IPA001",
        layer: Layer::Interproc,
        severity: Severity::Error,
        description:
            "a nondeterministic value (hash order, wall clock, entropy, ...) returned by one \
             function reaches a determinism sink (trace fingerprint, merge, written artifact) \
             in another — the full call chain is printed",
    },
    RuleInfo {
        id: "IPA003",
        layer: Layer::Interproc,
        severity: Severity::Warning,
        description:
            "taint laundered through an intermediate collection (push/insert/extend) before \
             reaching a sink: the hazard survives the copy unless the collection is sorted",
    },
    RuleInfo {
        id: "IPA004",
        layer: Layer::Interproc,
        severity: Severity::Warning,
        description:
            "public function returns hash-ordered iteration: callers outside the analysis \
             horizon inherit the nondeterminism with no sink to anchor a diagnostic on",
    },
    RuleInfo {
        id: "IPA005",
        layer: Layer::Interproc,
        severity: Severity::Warning,
        description:
            "stale `detlint: allow` suppression: the directive matches no raw finding on its \
             governed line, so it silently pre-approves the next hazard that lands there",
    },
];

/// Look up a rule by id.
pub fn rule(id: &str) -> Option<&'static RuleInfo> {
    CATALOG.iter().find(|r| r.id == id)
}

/// A rule's catalog severity (`Warning` for an id the catalog lacks).
pub(crate) fn severity(id: &str) -> Severity {
    rule(id).map_or(Severity::Warning, |r| r.severity)
}

/// Render the catalog as a table (the CLI's `--catalog`).
pub fn render_catalog() -> String {
    let mut out = String::from("ID      LAYER      SEVERITY  DESCRIPTION\n");
    for r in CATALOG {
        out.push_str(&format!(
            "{:<7} {:<10} {:<9} {}\n",
            r.id,
            r.layer.name(),
            r.severity.to_string(),
            r.description
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_ids_unique_and_ordered() {
        let ids: Vec<&str> = CATALOG.iter().map(|r| r.id).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), CATALOG.len(), "duplicate rule id");
    }

    #[test]
    fn catalog_spans_all_layers_with_enough_rules() {
        use std::collections::BTreeSet;
        let layers: BTreeSet<&str> = CATALOG.iter().map(|r| r.layer.name()).collect();
        assert!(layers.len() >= 4, "rules must span >= 4 layers");
        assert!(CATALOG.len() >= 12, "catalog must ship >= 12 rules");
    }

    #[test]
    fn lookup_works() {
        assert_eq!(rule("FP001").unwrap().layer, Layer::Floorplan);
        assert!(rule("ZZ999").is_none());
        assert!(render_catalog().contains("CF002"));
    }
}
