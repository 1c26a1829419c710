//! Golden tests: every rule in the catalog fires on a seeded violation with
//! the exact rule id and location, and stays silent on a clean counterpart.
//!
//! Config rules are exercised through the JSON fixtures in `fixtures/`
//! (the same files a deployment would feed the CLI); floorplan and
//! bitstream rules use programmatic fixtures because their inputs are
//! in-memory artifacts.

use coyote_fabric::{
    Bitstream, BitstreamKind, Device, DeviceKind, Floorplan, Partition, PartitionId, Rect,
    ResourceVec, ShellProfile, FRAME_RECORD_BYTES, HEADER_BYTES,
};
use coyote_lint::{
    lint_bitstream, lint_floorplan, lint_shell_spec, lint_source, PartitionDemand, Report,
    Severity, ShellSpec,
};
use std::collections::BTreeSet;

fn fixture(name: &str) -> ShellSpec {
    let path = format!("{}/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    ShellSpec::from_json(&text).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// Assert the report contains exactly one finding of `rule` and that it sits
/// at `unit`/`path`.
#[track_caller]
fn assert_fires(report: &Report, rule: &str, unit: &str, path: &str) {
    let hits: Vec<_> = report.of_rule(rule).collect();
    assert_eq!(
        hits.len(),
        1,
        "expected exactly one {rule}, got:\n{}",
        report.render_human()
    );
    assert_eq!(hits[0].location.unit, unit, "{rule} unit");
    assert_eq!(hits[0].location.path, path, "{rule} path");
}

// ----------------------------------------------------------------- config

#[test]
fn clean_config_fixtures_produce_zero_diagnostics() {
    for name in ["clean_full.json", "clean_host_only.json"] {
        let r = lint_shell_spec(&fixture(name));
        assert!(r.is_clean(), "{name}:\n{}", r.render_human());
    }
}

#[test]
fn config_fixtures_fire_their_rule_at_the_exact_location() {
    let cases = [
        (
            "cf002_bad_mtu.json",
            "CF002",
            "config:cf002-bad-mtu",
            "qp.mtu",
        ),
        (
            "cf003_zero_window.json",
            "CF003",
            "config:cf003-zero-window",
            "qp.window",
        ),
        // `ShellConfig::validate` refuses broken TLB geometry, so an
        // inverted sTLB/lTLB page pair is an unschedulable shell.
        (
            "cf004_inverted_tlb.json",
            "CF005",
            "config:cf004-inverted-tlb",
            "shell",
        ),
        (
            "cf005_unschedulable.json",
            "CF005",
            "config:cf005-unschedulable",
            "shell",
        ),
        (
            "cf006_service_overflow.json",
            "CF006",
            "config:cf006-service-overflow",
            "shell.services",
        ),
        (
            "cf007_oversized_tlb.json",
            "CF007",
            "config:cf007-oversized-tlb",
            "mmu",
        ),
    ];
    for (file, rule, unit, path) in cases {
        let r = lint_shell_spec(&fixture(file));
        assert_fires(&r, rule, unit, path);
    }
}

#[test]
fn the_pre_fix_deadlock_config_is_an_error() {
    // The acceptance case: a config reproducing the ack_req starvation
    // deadlock the RC queue pair had before the window-fill ACK fix must be
    // rejected at error severity, as the sender -> window -> ack cycle.
    let r = platform_fixture("wf001_ack_starvation.json");
    assert!(r.has_errors());
    assert_eq!(r.of_rule("WF001").next().unwrap().severity, Severity::Error);
}

// -------------------------------------------------------------- floorplan

fn dev() -> Device {
    Device::new(DeviceKind::U55C)
}

fn shell() -> Partition {
    Partition {
        id: PartitionId::Shell,
        rect: Rect::new(8, 0, 60, 100),
    }
}

#[test]
fn clean_floorplan_produces_zero_diagnostics() {
    let fp = Floorplan::preset(DeviceKind::U55C, ShellProfile::HostMemoryNetwork, 4);
    let r = lint_floorplan(&fp, &dev(), &[]);
    assert!(r.is_clean(), "{}", r.render_human());
}

#[test]
fn fp001_out_of_bounds() {
    let fp = Floorplan::custom(
        DeviceKind::U55C,
        vec![
            shell(),
            Partition {
                id: PartitionId::Static,
                rect: Rect::new(0, 0, 8, 110),
            },
        ],
    );
    let r = lint_floorplan(&fp, &dev(), &[]);
    assert_fires(&r, "FP001", "floorplan:Alveo U55C", "static");
}

#[test]
fn fp002_overlap() {
    let fp = Floorplan::custom(
        DeviceKind::U55C,
        vec![
            shell(),
            Partition {
                id: PartitionId::Static,
                rect: Rect::new(0, 0, 10, 100),
            },
        ],
    );
    let r = lint_floorplan(&fp, &dev(), &[]);
    assert_fires(&r, "FP002", "floorplan:Alveo U55C", "static");
}

#[test]
fn fp003_vfpga_outside_shell() {
    let fp = Floorplan::custom(
        DeviceKind::U55C,
        vec![
            shell(),
            Partition {
                id: PartitionId::Vfpga(0),
                rect: Rect::new(55, 0, 70, 100),
            },
        ],
    );
    let r = lint_floorplan(&fp, &dev(), &[]);
    assert_fires(&r, "FP003", "floorplan:Alveo U55C", "vfpga(0)");
}

#[test]
fn fp004_missing_shell() {
    let fp = Floorplan::custom(
        DeviceKind::U55C,
        vec![Partition {
            id: PartitionId::Static,
            rect: Rect::new(0, 0, 8, 100),
        }],
    );
    let r = lint_floorplan(&fp, &dev(), &[]);
    assert_fires(&r, "FP004", "floorplan:Alveo U55C", "shell");
}

#[test]
fn fp005_duplicate_partition() {
    let fp = Floorplan::custom(
        DeviceKind::U55C,
        vec![
            shell(),
            Partition {
                id: PartitionId::Vfpga(0),
                rect: Rect::new(20, 0, 40, 50),
            },
            Partition {
                id: PartitionId::Vfpga(0),
                rect: Rect::new(20, 50, 40, 100),
            },
        ],
    );
    let r = lint_floorplan(&fp, &dev(), &[]);
    assert_fires(&r, "FP005", "floorplan:Alveo U55C", "vfpga(0)");
}

#[test]
fn fp006_over_capacity() {
    let fp = Floorplan::preset(DeviceKind::U55C, ShellProfile::HostOnly, 1);
    let demand = PartitionDemand {
        id: PartitionId::Vfpga(0),
        demand: ResourceVec::new(10_000_000, 0, 0, 0, 0),
        design: "monster".into(),
    };
    let r = lint_floorplan(&fp, &dev(), &[demand]);
    assert_fires(&r, "FP006", "floorplan:Alveo U55C", "vfpga(0)");
}

#[test]
fn fp007_clock_region_straddle() {
    let fp = Floorplan::custom(
        DeviceKind::U55C,
        vec![
            shell(),
            Partition {
                id: PartitionId::Vfpga(0),
                rect: Rect::new(20, 10, 40, 60),
            },
        ],
    );
    let r = lint_floorplan(&fp, &dev(), &[]);
    assert_fires(&r, "FP007", "floorplan:Alveo U55C", "vfpga(0)");
    assert_ne!(r.max_severity(), Some(Severity::Error));
}

// -------------------------------------------------------------- bitstream

fn good_blob() -> Vec<u8> {
    Bitstream::assemble(DeviceKind::U55C, BitstreamKind::Shell, 8, 7)
        .bytes()
        .to_vec()
}

fn restamp_crc(bytes: &mut [u8]) {
    let end = bytes.len() - 4;
    let crc = coyote_fabric::crc32(&bytes[..end]).to_le_bytes();
    bytes[end..].copy_from_slice(&crc);
}

#[test]
fn clean_bitstream_produces_zero_diagnostics() {
    let fp = Floorplan::preset(DeviceKind::U55C, ShellProfile::HostOnly, 1);
    let frames = Device::frames_for_tiles(fp.tiles_of(PartitionId::Shell).unwrap());
    let bs = Bitstream::assemble(DeviceKind::U55C, BitstreamKind::Shell, frames, 7);
    let r = lint_bitstream("shell.bin", bs.bytes());
    assert!(r.is_clean(), "{}", r.render_human());
}

#[test]
fn bs001_malformed_header() {
    let mut b = good_blob();
    b[0] = b'X';
    assert_fires(
        &lint_bitstream("bad.bin", &b),
        "BS001",
        "bitstream:bad.bin",
        "header",
    );
}

#[test]
fn bs002_truncated() {
    let mut b = good_blob();
    b.truncate(b.len() - FRAME_RECORD_BYTES);
    restamp_crc(&mut b);
    assert_fires(
        &lint_bitstream("bad.bin", &b),
        "BS002",
        "bitstream:bad.bin",
        "body",
    );
}

#[test]
fn bs003_crc_mismatch() {
    let mut b = good_blob();
    let mid = b.len() / 2;
    b[mid] ^= 0xFF;
    assert_fires(
        &lint_bitstream("bad.bin", &b),
        "BS003",
        "bitstream:bad.bin",
        "trailer",
    );
}

#[test]
fn bs004_frame_address_sequence() {
    let mut b = good_blob();
    let off = HEADER_BYTES + 3 * FRAME_RECORD_BYTES;
    b[off..off + 4].copy_from_slice(&77u32.to_le_bytes());
    restamp_crc(&mut b);
    assert_fires(
        &lint_bitstream("bad.bin", &b),
        "BS004",
        "bitstream:bad.bin",
        "frame[3]",
    );
}

// ----------------------------------------------------- source (detlint)

fn source_fixture(name: &str) -> Report {
    let path = format!("{}/fixtures/src/{name}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    lint_source(name, &text)
}

#[test]
fn src_rules_fire_on_seeded_fixtures_at_exact_locations() {
    // The fourth field is the interprocedural finding the same scan adds:
    // `frame_order` is `pub` and returns the bucket-ordered vector.
    let cases = [
        ("src001_bad.rs", "SRC001", "L7", Some(("IPA004", "L5"))),
        ("src002_bad.rs", "SRC002", "L4", None),
        ("src003_bad.rs", "SRC003", "L5", None),
        ("src004_bad.rs", "SRC004", "L4", None),
        ("src005_bad.rs", "SRC005", "L6", None),
        ("src006_bad.rs", "SRC006", "L5", None),
        ("src007_bad.rs", "SRC007", "L5", None),
    ];
    for (file, rule, line, ipa) in cases {
        let r = source_fixture(file);
        assert_fires(&r, rule, &format!("src:{file}"), line);
        if let Some((ipa_rule, ipa_line)) = ipa {
            assert_fires(&r, ipa_rule, &format!("ipa:{file}"), ipa_line);
        }
        // The seeded fixture trips exactly its own rule, nothing else.
        assert_eq!(
            r.diagnostics.len(),
            1 + usize::from(ipa.is_some()),
            "{file} must fire only {rule}:\n{}",
            r.render_human()
        );
    }
}

#[test]
fn clean_source_fixtures_produce_zero_diagnostics() {
    for file in [
        "src001_clean.rs",
        "src002_clean.rs",
        "src003_clean.rs",
        "src004_clean.rs",
        "src005_clean.rs",
        "src006_clean.rs",
        "src007_clean.rs",
    ] {
        let r = source_fixture(file);
        assert!(r.is_clean(), "{file}:\n{}", r.render_human());
    }
}

#[test]
fn src_severities_match_the_catalog() {
    for (file, rule) in [
        ("src001_bad.rs", "SRC001"),
        ("src004_bad.rs", "SRC004"),
        ("src005_bad.rs", "SRC005"),
    ] {
        let r = source_fixture(file);
        let expected = coyote_lint::rule(rule).unwrap().severity;
        assert_eq!(r.of_rule(rule).next().unwrap().severity, expected);
    }
}

// ------------------------------------------------- interprocedural (ipa)

fn ipa_fixture(name: &str) -> Report {
    let path = format!("{}/fixtures/ipa/{name}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    lint_source(name, &text)
}

#[test]
fn ipa_rules_fire_on_seeded_fixtures_at_exact_locations() {
    // The fourth field is the SRC finding at the taint origin, which the
    // same scan reports per line.
    let cases = [
        ("ipa001_chain.rs", "IPA001", "L15", Some(("SRC001", "L6"))),
        ("ipa003_launder.rs", "IPA003", "L12", Some(("SRC001", "L6"))),
        ("ipa004_pub_iter.rs", "IPA004", "L5", Some(("SRC001", "L6"))),
        ("ipa005_stale.rs", "IPA005", "L5", None),
    ];
    for (file, rule, line, origin) in cases {
        let r = ipa_fixture(file);
        assert_fires(&r, rule, &format!("ipa:{file}"), line);
        if let Some((src_rule, src_line)) = origin {
            assert_fires(&r, src_rule, &format!("src:{file}"), src_line);
        }
        // The seeded fixture trips exactly its own rule and origin, nothing
        // else.
        assert_eq!(
            r.diagnostics.len(),
            1 + usize::from(origin.is_some()),
            "{file} must fire only {rule}:\n{}",
            r.render_human()
        );
        let expected = coyote_lint::rule(rule).unwrap().severity;
        assert_eq!(
            r.of_rule(rule).next().unwrap().severity,
            expected,
            "{rule} severity must match the catalog"
        );
    }
}

#[test]
fn clean_ipa_fixtures_produce_zero_diagnostics() {
    // Zero interprocedural diagnostics. `ipa001_clean.rs` keeps its
    // per-line SRC001: line 6 still iterates a HashMap, and the sort on
    // line 7 is what stops the taint from travelling.
    let r = ipa_fixture("ipa001_clean.rs");
    assert_fires(&r, "SRC001", "src:ipa001_clean.rs", "L6");
    assert_eq!(r.diagnostics.len(), 1, "{}", r.render_human());
    let r = ipa_fixture("ipa005_live.rs");
    assert!(r.is_clean(), "{}", r.render_human());
}

#[test]
fn ipa001_diagnostic_prints_the_full_call_chain() {
    // The 3-deep helper chain (HashMap iter -> helper -> helper -> trace
    // hash) must appear hop by hop — that is the point of going
    // interprocedural instead of per-file.
    let r = ipa_fixture("ipa001_chain.rs");
    let d = r.of_rule("IPA001").next().expect("IPA001 fires");
    assert!(
        d.message.contains(
            "leaf (ipa001_chain.rs:L5) -> mid (ipa001_chain.rs:L9) -> \
             top (ipa001_chain.rs:L13) -> fingerprint_of (ipa001_chain.rs:L15)"
        ),
        "full chain missing in:\n{}",
        d.message
    );
    assert!(
        d.message.contains("across 2 call boundaries"),
        "boundary count missing in:\n{}",
        d.message
    );
}

// --------------------------------------------------------------- platform

fn platform_fixture(name: &str) -> Report {
    let path = format!("{}/fixtures/platform/{name}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let spec = ShellSpec::from_json(&text).unwrap_or_else(|e| panic!("{path}: {e}"));
    lint_shell_spec(&spec)
}

#[test]
fn platform_fixtures_fire_their_rule_at_the_exact_location() {
    let cases = [
        (
            "pg001_duplicate_tenant.json",
            "PG001",
            "platform:pg001-duplicate-tenant",
            "platform.tenants",
        ),
        (
            "pg002_dangling_vfpga.json",
            "PG002",
            "platform:pg002-dangling-vfpga",
            "platform.tenant(alice)",
        ),
        (
            "wf001_ring_cycle.json",
            "WF001",
            "platform:wf001-ring-cycle",
            "cycle(software)",
        ),
        (
            "wf001_ack_starvation.json",
            "WF001",
            "platform:wf001-ack-starvation",
            "cycle(rdma.sender)",
        ),
        (
            "wf002_zero_credits.json",
            "WF002",
            "platform:wf002-zero-credits",
            "credits.host(0)",
        ),
        (
            "wf003_orphaned_qp.json",
            "WF003",
            "platform:wf003-orphaned-qp",
            "svc.net",
        ),
        (
            "wf004_cross_tenant_credits.json",
            "WF004",
            "platform:wf004-cross-tenant-credits",
            "credits.host(1)",
        ),
        (
            "cap001_rate_overrun.json",
            "CAP001",
            "platform:cap001-rate-overrun",
            "platform.tenant(alice).rate_gbps",
        ),
        (
            "cap002_icap_overrun.json",
            "CAP002",
            "platform:cap002-icap-overrun",
            "platform.reconfigs_per_s",
        ),
        (
            "cap003_window_underrun.json",
            "CAP003",
            "platform:cap003-window-underrun",
            "qp.window",
        ),
        (
            "iso001_cross_tenant_reach.json",
            "ISO001",
            "platform:iso001-cross-tenant-reach",
            "platform.tenant(alice)",
        ),
        (
            "iso002_undeclared_shared_service.json",
            "ISO002",
            "platform:iso002-undeclared-shared-service",
            "platform.shared_services",
        ),
    ];
    for (file, rule, unit, path) in cases {
        let r = platform_fixture(file);
        assert_fires(&r, rule, unit, path);
        let expected = coyote_lint::rule(rule).unwrap().severity;
        assert_eq!(
            r.of_rule(rule).next().unwrap().severity,
            expected,
            "{rule} severity must match the catalog"
        );
    }
}

#[test]
fn clean_platform_fixture_produces_zero_diagnostics() {
    let r = platform_fixture("clean_platform.json");
    assert!(r.is_clean(), "{}", r.render_human());
}

#[test]
fn wf001_diagnostic_prints_the_full_cycle() {
    // The whole hold/wait chain must be in the message, edge by edge —
    // that is the point of checking ring sizing as a graph rule.
    let r = platform_fixture("wf001_ring_cycle.json");
    let d = r.of_rule("WF001").next().expect("WF001 fires");
    let msg = &d.message;
    for leg in [
        "software -> reconfig.doorbell -> reconfig.engine -> reconfig.ring -> software",
        "reconfig.engine -> reconfig.ring:",
        "reconfig.ring -> software:",
    ] {
        assert!(msg.contains(leg), "missing '{leg}' in:\n{msg}");
    }
}

// ------------------------------------------------------------ the catalog

#[test]
fn every_catalog_rule_has_golden_coverage() {
    // Keep this list in sync: a rule added to the catalog without a golden
    // test above fails here.
    let covered = [
        "FP001", "FP002", "FP003", "FP004", "FP005", "FP006", "FP007", "BS001", "BS002", "BS003",
        "BS004", "CF002", "CF003", "CF005", "CF006", "CF007", "SRC001", "SRC002", "SRC003",
        "SRC004", "SRC005", "SRC006", "SRC007", "PG001", "PG002", "WF001", "WF002", "WF003",
        "WF004", "CAP001", "CAP002", "CAP003", "ISO001", "ISO002", "IPA001", "IPA003", "IPA004",
        "IPA005",
    ];
    // Both ways: a catalog rule without a golden test fails, and so does a
    // covered id whose rule left the catalog.
    let covered: BTreeSet<&str> = covered.into_iter().collect();
    let catalog: BTreeSet<&str> = coyote_lint::CATALOG.iter().map(|r| r.id).collect();
    assert_eq!(covered, catalog, "golden coverage must match the catalog");
    // And the bad/clean fixture pair exists on disk for every source rule.
    for n in 1..=7 {
        for kind in ["bad", "clean"] {
            let path = format!(
                "{}/fixtures/src/src00{n}_{kind}.rs",
                env!("CARGO_MANIFEST_DIR")
            );
            assert!(
                std::path::Path::new(&path).exists(),
                "missing fixture {path}"
            );
        }
    }
    // Same for the interprocedural fixtures (bad per rule + the two cleans).
    for name in [
        "ipa001_chain.rs",
        "ipa001_clean.rs",
        "ipa003_launder.rs",
        "ipa004_pub_iter.rs",
        "ipa005_stale.rs",
        "ipa005_live.rs",
    ] {
        let path = format!("{}/fixtures/ipa/{name}", env!("CARGO_MANIFEST_DIR"));
        assert!(
            std::path::Path::new(&path).exists(),
            "missing fixture {path}"
        );
    }
}
