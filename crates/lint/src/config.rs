//! Configuration lints (CF002–CF007): shell, QP and MMU parameter checks.
//!
//! These rules catch configurations that *parse* fine and even *boot* fine
//! but then starve or fail to schedule at run time. Deadlocks that span
//! more than one parameter (ACK starvation, an undersized reconfiguration
//! ring) are wait-for cycles and are reported by the platform rule WF001.

use crate::diag::{Diagnostic, Location, Report, Severity};
use coyote::config::ShellConfig;
use coyote_fabric::{Device, Floorplan};
use coyote_mmu::MmuConfig;
use coyote_sim::params::ROCE_MTU;

/// Queue-pair packet geometry as a deployment declares it. The message-size
/// contract and the window-fill ACK switch of the spec feed the platform
/// graph instead (the WF001 ACK-starvation cycle).
#[derive(Debug, Clone)]
pub struct QpSpec {
    /// Path MTU (payload bytes per packet).
    pub mtu: usize,
    /// Maximum outstanding (unacknowledged) packets.
    pub window: usize,
}

impl Default for QpSpec {
    fn default() -> QpSpec {
        QpSpec {
            mtu: ROCE_MTU,
            window: 64,
        }
    }
}

/// Lint one QP's transport parameters (CF002, CF003).
pub fn lint_qp(unit: &str, qp: &QpSpec) -> Report {
    let mut report = Report::new();
    let loc = |path: &str| Location::new(format!("config:{unit}"), path);

    // CF002: MTU sanity.
    if qp.mtu == 0 || qp.mtu > ROCE_MTU || !qp.mtu.is_power_of_two() {
        report.push(
            Diagnostic::new(
                "CF002",
                Severity::Error,
                loc("qp.mtu"),
                format!(
                    "MTU {} invalid: must be a power of two in 1..={ROCE_MTU}",
                    qp.mtu
                ),
            )
            .with_suggestion(format!("use the RoCE default of {ROCE_MTU}")),
        );
    }

    // CF003: window sanity.
    if qp.window == 0 {
        report.push(Diagnostic::new(
            "CF003",
            Severity::Error,
            loc("qp.window"),
            "retransmission window of 0 packets: no packet can ever be in flight",
        ));
    }

    report
}

/// Lint the MMU's TLB SRAM budget (CF007). Broken TLB geometry is
/// `ShellConfig::validate`'s to refuse (CF005).
pub fn lint_mmu(unit: &str, mmu: &MmuConfig) -> Report {
    let mut report = Report::new();
    let loc = |path: &str| Location::new(format!("config:{unit}"), path);

    // CF007: SRAM budget. The synthesis resource model charges BRAM for the
    // TLB SRAM; past ~16 Mbit the MMU alone starves the service band.
    const SRAM_BUDGET_BITS: u64 = 16 << 20;
    let bits = mmu.sram_bits();
    if bits > SRAM_BUDGET_BITS {
        report.push(
            Diagnostic::new(
                "CF007",
                Severity::Warning,
                loc("mmu"),
                format!(
                    "TLB SRAM of {bits} bits exceeds the {SRAM_BUDGET_BITS}-bit on-chip budget \
                     the MMU model assumes"
                ),
            )
            .with_suggestion("shrink sets/ways; hit rate saturates well below this size"),
        );
    }

    report
}

/// Lint a full shell configuration (CF005, CF006, plus the MMU rules).
pub fn lint_shell(unit: &str, cfg: &ShellConfig) -> Report {
    let mut report = Report::new();
    let loc = |path: &str| Location::new(format!("config:{unit}"), path);

    // CF005: everything ShellConfig::validate refuses — vFPGA count,
    // stream counts, channel counts, sniffer-without-network, TLB
    // geometry. The shell could never be scheduled onto a device in this
    // state.
    if let Err(e) = cfg.validate() {
        report.push(
            Diagnostic::new(
                "CF005",
                Severity::Error,
                loc("shell"),
                format!("shell can never be scheduled: {e}"),
            )
            .with_suggestion("fix the field named in the message"),
        );
    }
    report.extend(lint_mmu(unit, &cfg.mmu));

    // CF006: do the service blocks fit the service band of the implied
    // floorplan? `capacity_of(Shell)` already subtracts the vFPGA regions.
    if (1..=10).contains(&cfg.n_vfpgas) {
        let device = Device::new(cfg.device);
        let fp = Floorplan::preset(cfg.device, cfg.profile(), cfg.n_vfpgas);
        let band = fp
            .capacity_of(&device, coyote_fabric::PartitionId::Shell)
            .expect("preset floorplan has a shell");
        let demand: coyote_fabric::ResourceVec =
            cfg.service_blocks().iter().map(|b| b.footprint()).sum();
        if !demand.fits_in(&band) {
            report.push(
                Diagnostic::new(
                    "CF006",
                    Severity::Error,
                    loc("shell.services"),
                    format!(
                        "service blocks need {demand} but the {:?} service band offers {band}",
                        cfg.profile()
                    ),
                )
                .with_suggestion("reduce memory channels or MMU SRAM, or drop a service"),
            );
        }
    }

    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_qp_spec_is_clean() {
        assert!(lint_qp("t", &QpSpec::default()).is_clean());
    }

    #[test]
    fn bad_mtu_and_window_flagged() {
        let qp = QpSpec {
            mtu: 3000,
            window: 0,
        };
        let r = lint_qp("t", &qp);
        assert_eq!(r.of_rule("CF002").count(), 1);
        assert_eq!(r.of_rule("CF003").count(), 1);
    }

    #[test]
    fn tlb_geometry_rules() {
        assert!(lint_mmu("t", &MmuConfig::default_2m()).is_clean());
        assert!(lint_mmu("t", &MmuConfig::huge_1g()).is_clean());

        let mut huge = MmuConfig::default_2m();
        huge.stlb.sets = 1 << 16;
        huge.stlb.ways = 8;
        let r = lint_mmu("t", &huge);
        assert_eq!(r.of_rule("CF007").count(), 1);
        assert_ne!(r.max_severity(), Some(Severity::Error));
    }

    #[test]
    fn shell_presets_are_clean() {
        for cfg in [
            ShellConfig::host_only(1),
            ShellConfig::host_memory(4, 16),
            ShellConfig::host_memory_network(8, 32),
        ] {
            let r = lint_shell("t", &cfg);
            assert!(r.is_clean(), "{}", r.render_human());
        }
    }

    #[test]
    fn unschedulable_shell_flagged() {
        let r = lint_shell("t", &ShellConfig::host_only(0));
        assert!(r.of_rule("CF005").count() >= 1);

        let mut cfg = ShellConfig::host_only(2);
        cfg.n_card_streams = 30;
        assert!(lint_shell("t", &cfg).of_rule("CF005").count() >= 1);
    }
}
