#![forbid(unsafe_code)]
//! `coyote-lint`: the design-rule checker and shell verifier.
//!
//! Every other crate in the workspace *executes* the model — synthesizes
//! netlists, loads bitstreams, drains the platform. This crate *judges* the
//! inputs that reach those flows from outside the program, before anything
//! runs:
//!
//! * [`lint_floorplan`] — partition geometry, resource budgets and
//!   clock-region discipline (FP001–FP007).
//! * [`lint_bitstream`] — offline blob verification without the ICAP load
//!   path (BS001–BS004).
//! * [`lint_shell`] / [`lint_qp`] / [`lint_mmu`] — configurations that
//!   would starve or fail to schedule (CF002–CF007).
//! * [`lint_source`] / [`lint_source_tree`] — the `coyote-detlint`
//!   determinism analyzer, one scan and one verdict over the workspace's
//!   own Rust code: per-line hazards — hash-order iteration, wall-clock and
//!   entropy escapes, float math in `par_map`, relaxed atomics, ad-hoc
//!   threads, environment reads (SRC001–SRC007) — and the interprocedural
//!   taint those findings seed: workspace call graph, source→sink
//!   propagation with full call chains, suppression-drift audit
//!   (IPA001, IPA003–IPA005).
//! * [`platform`] — the whole-platform analyzer: joins a shell spec's
//!   layers into one typed resource graph ([`PlatformGraph`]) and runs the
//!   cross-layer families on it — graph construction (PG001–PG002),
//!   global wait-for cycles (WF001–WF004), capacity feasibility
//!   (CAP001–CAP003) and tenant isolation (ISO001–ISO002).
//!
//! [`lint_shell_spec`] gives a shell spec one pass and one verdict: the
//! config and floorplan rules plus the platform families.
//!
//! All rules emit [`Diagnostic`]s into a [`Report`]; [`LintConfig`] applies
//! per-rule allow/deny; the `coyote-lint` binary renders reports as text or
//! JSON and exits non-zero on errors, which is how CI gates on it. The full
//! rule catalog lives in [`rules::CATALOG`].

pub mod bitstream;
pub mod config;
pub mod diag;
pub mod floorplan;
pub mod ipa;
pub mod platform;
pub mod rules;
pub mod shellspec;
pub mod source;

pub use bitstream::lint_bitstream;
pub use config::{lint_mmu, lint_qp, lint_shell, QpSpec};
pub use diag::{Diagnostic, LintConfig, Location, Report, Severity};
pub use floorplan::{lint_floorplan, PartitionDemand};
pub use platform::{build_platform_graph, PlatformGraph};
pub use rules::{render_catalog, rule, Layer, RuleInfo, CATALOG};
pub use shellspec::ShellSpec;
pub use source::{lint_source, lint_source_tree};

use coyote_fabric::{Device, Floorplan};

/// Lint everything a shell specification implies, in one pass: the
/// configuration itself, the QP packet geometry (if declared), the preset
/// floorplan the shell would be built on, and the platform resource graph
/// (PG/WF/CAP/ISO).
pub fn lint_shell_spec(spec: &ShellSpec) -> Report {
    let mut report = Report::new();
    let unit = spec.name.as_str();

    match spec.to_shell_config() {
        Ok(cfg) => {
            report.extend(lint_shell(unit, &cfg));
            if let Some(qp) = spec.qp_spec() {
                report.extend(lint_qp(unit, &qp));
            }
            // The floorplan only exists for a schedulable vFPGA count.
            if (1..=10).contains(&cfg.n_vfpgas) {
                let device = Device::new(cfg.device);
                let fp = Floorplan::preset(cfg.device, cfg.profile(), cfg.n_vfpgas);
                report.extend(lint_floorplan(&fp, &device, &[]));
            }
        }
        Err(e) => report.push(Diagnostic::new(
            "CF005",
            Severity::Error,
            Location::new(format!("config:{unit}"), "shell"),
            format!("unusable shell spec: {e}"),
        )),
    }

    // The platform graph is built from the spec itself, so it runs even
    // when the spec does not convert to a shell configuration.
    report.extend(platform::check(spec));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(text: &str) -> ShellSpec {
        ShellSpec::from_json(text).unwrap()
    }

    #[test]
    fn realistic_spec_lints_without_errors() {
        let s = spec(
            r#"{
                "name": "full", "device": "u55c", "n_vfpgas": 4,
                "memory_channels": 32, "networking": true, "sniffer": false,
                "n_host_streams": 4, "n_card_streams": 16, "node_id": 1,
                "qp": { "mtu": 4096, "window": 64, "max_msg_bytes": 262144,
                        "ack_on_window_fill": true }
            }"#,
        );
        let r = lint_shell_spec(&s);
        assert!(r.is_clean(), "{}", r.render_human());
    }

    #[test]
    fn deadlock_prone_spec_is_refused() {
        // ACK starvation: end-of-message-only ACKs and messages longer than
        // window*MTU close the sender -> window -> ack wait-for cycle.
        let s = spec(
            r#"{
                "name": "pre-fix", "device": "u55c", "n_vfpgas": 1,
                "memory_channels": 0, "networking": true, "sniffer": false,
                "n_host_streams": 4, "n_card_streams": 0, "node_id": 1,
                "qp": { "mtu": 4096, "window": 64, "max_msg_bytes": 1048576,
                        "ack_on_window_fill": false }
            }"#,
        );
        let r = lint_shell_spec(&s);
        assert_eq!(r.of_rule("WF001").count(), 1, "{}", r.render_human());
        assert_eq!(
            r.of_rule("WF001").next().unwrap().location.path,
            "cycle(rdma.sender)"
        );
        assert!(r.has_errors());
    }

    #[test]
    fn unknown_device_reported_not_panicked() {
        let s = spec(
            r#"{
                "name": "bad", "device": "stratix10", "n_vfpgas": 1,
                "memory_channels": 0, "networking": false, "sniffer": false,
                "n_host_streams": 4, "n_card_streams": 0, "node_id": 1
            }"#,
        );
        let r = lint_shell_spec(&s);
        assert_eq!(r.of_rule("CF005").count(), 1);
        assert!(r.has_errors());
    }
}
