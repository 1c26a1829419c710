//! CLI contract tests: exit codes (0 clean/warnings, 1 errors, 2 usage/IO
//! or `--strict` gate failures), shell-spec, bitstream and directory scans,
//! and the `--json` schema round-trip.
//!
//! These run the real `coyote-lint` binary via `CARGO_BIN_EXE_`, so they
//! pin exactly what CI and deployments observe.

use coyote_lint::Report;
use std::process::{Command, Output};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_coyote-lint"))
}

fn fixture(rel: &str) -> String {
    format!("{}/fixtures/{rel}", env!("CARGO_MANIFEST_DIR"))
}

fn run(args: &[&str]) -> Output {
    bin().args(args).output().expect("spawn coyote-lint")
}

fn code(out: &Output) -> i32 {
    out.status.code().expect("exit code")
}

// ------------------------------------------------------------- exit codes

#[test]
fn exit_0_on_clean_source() {
    let out = run(&["--source", &fixture("src/src001_clean.rs")]);
    assert_eq!(code(&out), 0, "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("clean"));
}

#[test]
fn exit_0_on_warning_only_findings() {
    // SRC005 is warning severity: reported, but not a failure.
    let out = run(&["--source", &fixture("src/src005_bad.rs")]);
    assert_eq!(code(&out), 0);
    assert!(String::from_utf8_lossy(&out.stdout).contains("SRC005"));
}

#[test]
fn exit_1_on_error_findings() {
    let out = run(&["--source", &fixture("src/src002_bad.rs")]);
    assert_eq!(code(&out), 1);
    assert!(String::from_utf8_lossy(&out.stdout).contains("SRC002"));
}

#[test]
fn exit_2_on_error_findings_under_strict() {
    let out = run(&["--source", "--strict", &fixture("src/src002_bad.rs")]);
    assert_eq!(code(&out), 2, "--strict turns findings into a gate failure");
}

#[test]
fn strict_leaves_clean_and_warning_runs_at_0() {
    let out = run(&["--source", "--strict", &fixture("src/src001_clean.rs")]);
    assert_eq!(code(&out), 0);
    let out = run(&["--source", "--strict", &fixture("src/src005_bad.rs")]);
    assert_eq!(code(&out), 0, "warnings alone never fail the gate");
}

#[test]
fn exit_2_on_usage_and_io_errors() {
    // No paths.
    assert_eq!(code(&run(&[])), 2);
    // Unknown option.
    assert_eq!(code(&run(&["--frobnicate"])), 2);
    // The interprocedural pass is part of every --source scan, not a mode.
    let out = run(&["--ipa", &fixture("ipa/ipa001_chain.rs")]);
    assert_eq!(code(&out), 2);
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown option '--ipa'"));
    // Unknown rule id.
    assert_eq!(code(&run(&["--allow", "ZZ999", "x.json"])), 2);
    // Nonexistent file.
    assert_eq!(code(&run(&["--source", "/nonexistent/detlint.rs"])), 2);
    // Unsupported extension in source mode.
    assert_eq!(
        code(&run(&["--source", &fixture("clean_full.json")])),
        2,
        "source mode takes .rs files or directories"
    );
}

#[test]
fn allow_and_deny_shift_the_exit_code() {
    // Allowing the fired rule turns an error run clean.
    let out = run(&[
        "--source",
        "--allow",
        "SRC002",
        &fixture("src/src002_bad.rs"),
    ]);
    assert_eq!(code(&out), 0);
    // Denying a warning rule promotes it to a failure.
    let out = run(&[
        "--source",
        "--deny",
        "SRC005",
        &fixture("src/src005_bad.rs"),
    ]);
    assert_eq!(code(&out), 1);
    // And under --strict the promoted finding gates at 2.
    let out = run(&[
        "--source",
        "--strict",
        "--deny",
        "SRC005",
        &fixture("src/src005_bad.rs"),
    ]);
    assert_eq!(code(&out), 2);
}

#[test]
fn directory_scan_aggregates_findings() {
    // Pointing --source at the fixture directory picks up every seeded
    // violation in one deterministic report.
    let out = run(&["--source", &fixture("src")]);
    assert_eq!(code(&out), 1);
    let text = String::from_utf8_lossy(&out.stdout);
    for rule in ["SRC001", "SRC002", "SRC003", "SRC006"] {
        assert!(text.contains(rule), "directory scan must report {rule}");
    }
    // Deterministic: two runs render identically.
    let again = run(&["--source", &fixture("src")]);
    assert_eq!(out.stdout, again.stdout);
}

// ------------------------------------------------------------ shell specs

#[test]
fn platform_mode_reports_the_wait_for_cycle() {
    // A shell spec gets the platform families in its one pass.
    let out = run(&[&fixture("platform/wf001_ring_cycle.json")]);
    assert_eq!(code(&out), 1);
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("WF001"), "{text}");
    assert!(
        text.contains("software -> reconfig.doorbell -> reconfig.engine -> reconfig.ring"),
        "the rendered diagnostic must print the full cycle:\n{text}"
    );
}

#[test]
fn platform_mode_is_clean_on_the_clean_fixture_and_gates_under_strict() {
    let out = run(&[&fixture("platform/clean_platform.json")]);
    assert_eq!(code(&out), 0, "{}", String::from_utf8_lossy(&out.stdout));

    let out = run(&[
        "--strict",
        &fixture("platform/iso001_cross_tenant_reach.json"),
    ]);
    assert_eq!(code(&out), 2, "--strict gates error findings at 2");

    // CAP rules are warnings: reported but never a failure without --deny.
    let out = run(&["--strict", &fixture("platform/cap001_rate_overrun.json")]);
    assert_eq!(code(&out), 0);
    assert!(String::from_utf8_lossy(&out.stdout).contains("CAP001"));
    let out = run(&[
        "--strict",
        "--deny",
        "CAP001",
        &fixture("platform/cap001_rate_overrun.json"),
    ]);
    assert_eq!(
        code(&out),
        2,
        "--deny promotes the advisory to a gate failure"
    );
}

#[test]
fn platform_directory_scan_aggregates_and_is_deterministic() {
    let out = run(&[&fixture("platform")]);
    assert_eq!(code(&out), 1);
    let text = String::from_utf8_lossy(&out.stdout);
    for rule in ["PG001", "WF001", "CAP002", "ISO002"] {
        assert!(text.contains(rule), "directory scan must report {rule}");
    }
    let again = run(&[&fixture("platform")]);
    assert_eq!(out.stdout, again.stdout);
}

#[test]
fn platform_mode_rejects_non_spec_paths() {
    assert_eq!(code(&run(&[&fixture("src/src001_bad.rs")])), 2);
    assert_eq!(code(&run(&["/nonexistent/shell.json"])), 2);
}

#[test]
fn strict_gate_refuses_unschedulable_specs_in_a_directory() {
    // Specs the runtime refuses must fail the one strict gate, not only a
    // default-mode run: an unknown device and more than 16 card streams.
    let dir = std::env::temp_dir().join(format!("coyote_lint_gate_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let shell = |name: &str, device: &str, card_streams: u32| {
        format!(
            r#"{{ "name": "{name}", "device": "{device}", "n_vfpgas": 1,
                 "memory_channels": 16, "networking": false, "sniffer": false,
                 "n_host_streams": 4, "n_card_streams": {card_streams}, "node_id": 1 }}"#
        )
    };
    std::fs::write(
        dir.join("a_device.json"),
        shell("bad-device", "stratix10", 0),
    )
    .unwrap();
    std::fs::write(dir.join("b_streams.json"), shell("wide", "u55c", 17)).unwrap();

    let out = run(&["--strict", "--json", &dir.to_string_lossy()]);
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!(code(&out), 2, "{}", String::from_utf8_lossy(&out.stdout));
    let parsed: Report = serde_json::from_slice(&out.stdout).expect("valid JSON");
    for unit in ["config:bad-device", "config:wide"] {
        assert!(
            parsed
                .diagnostics
                .iter()
                .any(|d| d.rule_id == "CF005" && d.location.unit == unit),
            "CF005 missing for {unit}: {parsed:?}"
        );
    }
}

// -------------------------------------------------------------- bitstreams

#[test]
fn bin_path_verifies_an_image_and_flags_a_flipped_body_byte() {
    use coyote_fabric::{Bitstream, BitstreamKind, DeviceKind, HEADER_BYTES};
    let dir = std::env::temp_dir().join(format!("coyote_lint_bin_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let image = Bitstream::assemble(DeviceKind::U55C, BitstreamKind::Shell, 8, 7);
    let good = dir.join("shell.bin");
    std::fs::write(&good, image.bytes()).unwrap();
    let mut flipped = image.bytes().to_vec();
    flipped[HEADER_BYTES + 4] ^= 0x01; // First payload byte of frame 0.
    let bad = dir.join("flipped.bin");
    std::fs::write(&bad, &flipped).unwrap();

    let clean = run(&[&good.to_string_lossy()]);
    let broken = run(&["--json", &bad.to_string_lossy()]);
    std::fs::remove_dir_all(&dir).unwrap();

    assert_eq!(
        code(&clean),
        0,
        "{}",
        String::from_utf8_lossy(&clean.stderr)
    );
    assert!(String::from_utf8_lossy(&clean.stdout).starts_with("clean"));
    assert_eq!(code(&broken), 1);
    let parsed: Report = serde_json::from_slice(&broken.stdout).expect("valid JSON");
    assert_eq!(parsed.diagnostics.len(), 1, "{parsed:?}");
    let d = &parsed.diagnostics[0];
    assert_eq!(d.rule_id, "BS003");
    assert_eq!(d.location.unit, "bitstream:flipped.bin");
    assert_eq!(d.location.path, "trailer");
}

// ------------------------------------------------------------------- ipa

#[test]
fn ipa_mode_reports_the_full_call_chain() {
    let out = run(&["--source", &fixture("ipa/ipa001_chain.rs")]);
    assert_eq!(code(&out), 1, "IPA001 is error severity");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("IPA001"), "{text}");
    assert!(
        text.contains("leaf (") && text.contains("-> mid (") && text.contains("-> top ("),
        "the rendered diagnostic must print the helper chain hop by hop:\n{text}"
    );
    assert!(
        text.contains("-> fingerprint_of ("),
        "the chain must end at the sink:\n{text}"
    );
}

#[test]
fn ipa_strict_gates_on_taint_errors_and_passes_clean() {
    let out = run(&["--source", "--strict", &fixture("ipa/ipa001_chain.rs")]);
    assert_eq!(
        code(&out),
        2,
        "--strict turns the taint path into a gate failure"
    );
    // The clean fixture carries no taint path, only the per-line SRC001 at
    // its origin; with that rule allowed, the gate passes.
    let clean = fixture("ipa/ipa001_clean.rs");
    let out = run(&["--source", "--strict", &clean]);
    assert_eq!(code(&out), 2);
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("SRC001") && !text.contains("IPA"), "{text}");
    let out = run(&["--source", "--strict", "--allow", "SRC001", &clean]);
    assert_eq!(code(&out), 0);
    // Warning-severity IPA rules report without failing the gate.
    let out = run(&["--source", "--strict", &fixture("ipa/ipa005_stale.rs")]);
    assert_eq!(code(&out), 0);
    assert!(String::from_utf8_lossy(&out.stdout).contains("IPA005"));
}

#[test]
fn ipa_directory_scan_joins_files_into_one_workspace() {
    // Pointing --source at the fixture directory indexes every file into
    // one call graph and reports each seeded violation, deterministically.
    let out = run(&["--source", &fixture("ipa")]);
    assert_eq!(code(&out), 1);
    let text = String::from_utf8_lossy(&out.stdout);
    for rule in ["IPA001", "IPA003", "IPA004", "IPA005"] {
        assert!(text.contains(rule), "directory scan must report {rule}");
    }
    let again = run(&["--source", &fixture("ipa")]);
    assert_eq!(out.stdout, again.stdout, "ipa scan must be deterministic");
}

#[test]
fn ipa_json_carries_the_chain_and_round_trips() {
    let path = fixture("ipa/ipa001_chain.rs");
    let out = run(&["--source", "--json", &path]);
    assert_eq!(code(&out), 1);
    let parsed: Report =
        serde_json::from_slice(&out.stdout).expect("stdout must be a valid Report");
    // The taint origin's SRC001 comes first, then the one IPA001.
    assert_eq!(parsed.diagnostics.len(), 2);
    assert_eq!(parsed.diagnostics[0].rule_id, "SRC001");
    let d = &parsed.diagnostics[1];
    assert_eq!(d.rule_id, "IPA001");
    assert_eq!(d.location.path, "L15");
    assert!(d.location.unit.starts_with("ipa:"));
    assert!(
        d.message.contains("-> top (") && d.message.contains("-> fingerprint_of ("),
        "the JSON message must carry the same chain as the human rendering: {}",
        d.message
    );
}

// ------------------------------------------------------------------ JSON

#[test]
fn json_output_round_trips_through_the_report_schema() {
    let path = fixture("src/src001_bad.rs");
    let out = run(&["--source", "--json", &path]);
    assert_eq!(code(&out), 1);
    let parsed: Report =
        serde_json::from_slice(&out.stdout).expect("stdout must be a valid Report");
    // SRC001, then the IPA004 the same scan adds: `frame_order` is `pub`
    // and returns the bucket-ordered vector.
    assert_eq!(parsed.diagnostics.len(), 2);
    assert_eq!(parsed.diagnostics[1].rule_id, "IPA004");
    let d = &parsed.diagnostics[0];
    assert_eq!(d.rule_id, "SRC001");
    assert_eq!(d.location.path, "L7");
    assert!(d.location.unit.starts_with("src:"));
    // Round-trip: re-serializing the parsed report reproduces the library's
    // own rendering of the same file.
    let text = std::fs::read_to_string(&path).unwrap();
    let direct = coyote_lint::lint_source(&path, &text);
    assert_eq!(parsed, direct);
}

#[test]
fn json_clean_report_is_an_empty_diagnostics_array() {
    let out = run(&["--source", "--json", &fixture("src/src003_clean.rs")]);
    assert_eq!(code(&out), 0);
    let parsed: Report = serde_json::from_slice(&out.stdout).expect("valid JSON");
    assert!(parsed.diagnostics.is_empty());
}

// --------------------------------------------------------------- catalog

#[test]
fn catalog_lists_the_new_rule_families() {
    let out = run(&["--catalog"]);
    assert_eq!(code(&out), 0);
    let text = String::from_utf8_lossy(&out.stdout);
    for rule in [
        "SRC001", "SRC002", "SRC003", "SRC004", "SRC005", "SRC006", "SRC007", "PG001", "PG002",
        "WF001", "WF002", "WF003", "WF004", "CAP001", "CAP002", "CAP003", "ISO001", "ISO002",
        "IPA001", "IPA003", "IPA004", "IPA005",
    ] {
        assert!(text.contains(rule), "--catalog must list {rule}");
    }
}
