//! Floorplan / partition design rules (FP001–FP007).
//!
//! Geometry is checked once, by `Floorplan::violations`; FP001–FP005 map
//! each violation it reports to a diagnostic. On top of that come the
//! resource-budget check (demand vs. the device's column grid, FP006) and
//! the clock-region discipline check (FP007).

use crate::diag::{Diagnostic, Location, Report, Severity};
use coyote_fabric::{Device, Floorplan, FloorplanError, PartitionId, ResourceVec};

/// Rows per clock region on the modeled UltraScale+-style grid (100-row
/// devices split into 4 horizontal clock regions, like the real parts'
/// 60-CLB-row regions).
pub const CLOCK_REGION_ROWS: u32 = 25;

fn pid(id: PartitionId) -> String {
    match id {
        PartitionId::Static => "static".to_string(),
        PartitionId::Shell => "shell".to_string(),
        PartitionId::Vfpga(v) => format!("vfpga({v})"),
    }
}

fn loc(device: &Device, path: String) -> Location {
    Location::new(format!("floorplan:{}", device.kind().name()), path)
}

/// Resource demand placed on one partition (what the build flow wants to
/// put there).
#[derive(Debug, Clone)]
pub struct PartitionDemand {
    /// Target partition.
    pub id: PartitionId,
    /// Resources required.
    pub demand: ResourceVec,
    /// Name of the design exerting the demand (for messages).
    pub design: String,
}

/// The FP001–FP005 diagnostic for one geometry violation.
fn geometry_diagnostic(device: &Device, e: FloorplanError) -> Diagnostic {
    let at = |id: PartitionId| loc(device, pid(id));
    match e {
        FloorplanError::OutOfBounds(id, r) => Diagnostic::new(
            "FP001",
            Severity::Error,
            at(id),
            format!(
                "partition {} spans cols {}..{} rows {}..{} but the {} grid is {}x{} tiles",
                pid(id),
                r.col0,
                r.col1,
                r.row0,
                r.row1,
                device.kind().name(),
                device.cols(),
                device.rows()
            ),
        ),
        FloorplanError::Overlap(PartitionId::Static, _) => Diagnostic::new(
            "FP002",
            Severity::Error,
            at(PartitionId::Static),
            "static and shell partitions overlap",
        ),
        FloorplanError::Overlap(a, b) => Diagnostic::new(
            "FP002",
            Severity::Error,
            loc(device, format!("{}+{}", pid(a), pid(b))),
            format!("{} and {} overlap", pid(a), pid(b)),
        ),
        FloorplanError::VfpgaOutsideShell(v) => Diagnostic::new(
            "FP003",
            Severity::Error,
            at(PartitionId::Vfpga(v)),
            format!("vFPGA {v} region is not contained in the shell rectangle"),
        ),
        FloorplanError::MissingShell => Diagnostic::new(
            "FP004",
            Severity::Error,
            at(PartitionId::Shell),
            "floorplan defines no shell partition — nothing can be reconfigured",
        )
        .with_suggestion("add a Partition { id: Shell, .. } covering the dynamic region"),
        FloorplanError::Duplicate(id) => Diagnostic::new(
            "FP005",
            Severity::Error,
            at(id),
            format!("partition id {} appears more than once", pid(id)),
        ),
    }
}

/// Run every floorplan rule. `demands` may be empty (geometry-only lint).
pub fn lint_floorplan(fp: &Floorplan, device: &Device, demands: &[PartitionDemand]) -> Report {
    let mut report = Report::new();
    for e in fp.violations(device) {
        report.push(geometry_diagnostic(device, e));
    }

    // FP007: clock-region discipline. A region is fine if it lies inside
    // one clock region or if both edges sit on region boundaries; anything
    // else straddles.
    for p in fp.partitions() {
        let PartitionId::Vfpga(v) = p.id else {
            continue;
        };
        let r0 = p.rect.row0;
        let r1 = p.rect.row1;
        let same_region = (r0 / CLOCK_REGION_ROWS) == ((r1 - 1) / CLOCK_REGION_ROWS);
        let aligned = r0 % CLOCK_REGION_ROWS == 0 && r1 % CLOCK_REGION_ROWS == 0;
        if !same_region && !aligned {
            report.push(
                Diagnostic::new(
                    "FP007",
                    Severity::Warning,
                    loc(device, pid(p.id)),
                    format!(
                        "vFPGA {v} rows {r0}..{r1} straddle a clock-region boundary \
                         (regions are {CLOCK_REGION_ROWS} rows); partial clock regions \
                         complicate routing and clock gating"
                    ),
                )
                .with_suggestion(format!(
                    "align region rows to multiples of {CLOCK_REGION_ROWS}"
                )),
            );
        }
    }

    // FP006: demand vs. capacity, component-wise.
    for d in demands {
        let Some(cap) = fp.capacity_of(device, d.id) else {
            report.push(Diagnostic::new(
                "FP006",
                Severity::Error,
                loc(device, pid(d.id)),
                format!(
                    "design '{}' targets partition {} which the floorplan does not define",
                    d.design,
                    pid(d.id)
                ),
            ));
            continue;
        };
        if !d.demand.fits_in(&cap) {
            report.push(
                Diagnostic::new(
                    "FP006",
                    Severity::Error,
                    loc(device, pid(d.id)),
                    format!(
                        "design '{}' needs {} but partition {} offers {}",
                        d.design,
                        d.demand,
                        pid(d.id),
                        cap
                    ),
                )
                .with_suggestion("widen the partition, shrink the design, or move it"),
            );
        }
    }

    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use coyote_fabric::{DeviceKind, Partition, Rect, ShellProfile};

    #[test]
    fn preset_floorplans_are_clean() {
        let dev = Device::new(DeviceKind::U55C);
        for profile in [
            ShellProfile::HostOnly,
            ShellProfile::HostMemory,
            ShellProfile::HostMemoryNetwork,
        ] {
            for n in [1u8, 2, 4] {
                let fp = Floorplan::preset(DeviceKind::U55C, profile, n);
                let r = lint_floorplan(&fp, &dev, &[]);
                assert!(r.is_clean(), "{profile:?}/{n}: {}", r.render_human());
            }
        }
    }

    #[test]
    fn straddling_preset_warns_but_does_not_error() {
        // 3 vFPGAs on 100 rows: bands of 33 rows straddle the 25-row clock
        // regions without alignment.
        let dev = Device::new(DeviceKind::U55C);
        let fp = Floorplan::preset(DeviceKind::U55C, ShellProfile::HostMemory, 3);
        let r = lint_floorplan(&fp, &dev, &[]);
        assert!(r.of_rule("FP007").count() >= 1);
        assert_ne!(r.max_severity(), Some(Severity::Error));
    }

    #[test]
    fn all_geometry_violations_reported_together() {
        let dev = Device::new(DeviceKind::U55C);
        let fp = Floorplan::custom(
            DeviceKind::U55C,
            vec![
                Partition {
                    id: PartitionId::Static,
                    rect: Rect::new(0, 0, 10, 100),
                },
                Partition {
                    id: PartitionId::Shell,
                    rect: Rect::new(8, 0, 60, 100),
                },
                Partition {
                    id: PartitionId::Vfpga(0),
                    rect: Rect::new(20, 0, 40, 60),
                },
                Partition {
                    id: PartitionId::Vfpga(1),
                    rect: Rect::new(30, 40, 90, 110),
                },
            ],
        );
        let r = lint_floorplan(&fp, &dev, &[]);
        // static/shell overlap + vfpga overlap + vfpga(1) OOB + outside shell.
        assert!(r.of_rule("FP002").count() >= 2, "{}", r.render_human());
        assert_eq!(r.of_rule("FP001").count(), 1);
        assert_eq!(r.of_rule("FP003").count(), 1);
    }

    #[test]
    fn over_demand_flagged() {
        let dev = Device::new(DeviceKind::U55C);
        let fp = Floorplan::preset(DeviceKind::U55C, ShellProfile::HostOnly, 1);
        let demand = PartitionDemand {
            id: PartitionId::Vfpga(0),
            demand: ResourceVec::new(10_000_000, 0, 0, 0, 0),
            design: "monster".into(),
        };
        let r = lint_floorplan(&fp, &dev, &[demand]);
        assert_eq!(r.of_rule("FP006").count(), 1);
        assert!(r.has_errors());
    }
}
