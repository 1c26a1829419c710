//! The `coyote-bench` command line refuses what it does not understand.
//!
//! An unknown `--option` exits 2 before any experiment runs, the same way
//! an unknown experiment id does: a typo such as `--qiuck` must not run the
//! full-size suite, and an option the harness no longer has must not
//! vanish without notice.

use std::process::{Command, Output};

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_coyote-bench"))
        .args(args)
        .output()
        .expect("coyote-bench runs")
}

#[track_caller]
fn assert_usage_error(args: &[&str], option: &str) {
    let out = run(args);
    assert_eq!(out.status.code(), Some(2), "{args:?} must exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(&format!("unknown option '{option}'")),
        "{args:?}: stderr names the option: {stderr}"
    );
    assert!(out.stdout.is_empty(), "{args:?}: no experiment ran");
}

#[test]
fn retired_record_option_is_a_usage_error() {
    assert_usage_error(&["--record", "x", "table1"], "--record");
}

#[test]
fn unknown_option_is_a_usage_error() {
    assert_usage_error(&["--bogus", "table1"], "--bogus");
}

#[test]
fn option_values_are_not_options() {
    // A value that looks like an option belongs to the option before it.
    let out = run(&["--label", "--not-an-option", "--list"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("table1"));
}
