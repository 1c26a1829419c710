//! The benchmark's own checks: determinism of the modelled-time results,
//! a clean run on a held-out seed, and a check that can fail.
//!
//! Run with `cargo test --release` in `perfbench/` (synthesis is slow in a
//! debug build).

use coyote_perfbench::runner::run_fixed;
use coyote_perfbench::workloads::SPECS;

/// Steps per workload: enough to cross every op kind and, on
/// `shell_deploy`, all three configurations.
fn steps(workload: &str) -> u64 {
    match workload {
        "shell_deploy" => 3,
        "bulk_stream" => 4,
        _ => 20,
    }
}

#[test]
fn same_seed_gives_bit_identical_sim_results_and_op_counts() {
    for spec in &SPECS {
        let a = run_fixed(spec.name, 11, steps(spec.name), false).expect("first run");
        let b = run_fixed(spec.name, 11, steps(spec.name), false).expect("second run");
        assert_eq!(a, b, "{}: two runs of seed 11 differ", spec.name);
        assert_eq!(a.failed, 0, "{}", spec.name);
        assert_eq!(a.latencies_ps.len() as u64, a.attempted, "{}", spec.name);
    }
}

#[test]
fn held_out_seed_runs_clean() {
    for spec in &SPECS {
        let r = run_fixed(spec.name, 0xC0FFEE, steps(spec.name), false).expect("run");
        assert!(r.attempted > 0, "{}", spec.name);
        assert_eq!(r.failed, 0, "{}: held-out seed failed ops", spec.name);
        assert!(r.sim_span_ps > 0 && r.payload_bytes > 0, "{}", spec.name);
    }
}

#[test]
fn corrupted_output_byte_is_reported_as_a_failure() {
    for spec in &SPECS {
        let r = run_fixed(spec.name, 5, 1, true).expect("run");
        assert_eq!(
            r.failed, 1,
            "{}: a flipped output byte went unnoticed",
            spec.name
        );
    }
}
