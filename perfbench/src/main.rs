//! `coyote-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! [--trace-dir <dir>]`
//!
//! Prints the host block, notes and every metric with its unit, then as
//! the last line one JSON object: `correct`, `attempted`, `failed` and
//! `metrics`.

use coyote_perfbench::host::host_block;
use coyote_perfbench::runner::{run, Options};
use std::path::PathBuf;
use std::process::ExitCode;

fn parse_args() -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut trace_dir = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--trace-dir" => trace_dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        trace_dir,
    })
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("coyote-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!("host {}", host_block(opts.seed, &opts.workload));
    let report = match run(&opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("coyote-perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    for note in &report.notes {
        println!("note: {note}");
    }
    let mut fields = Vec::with_capacity(report.metrics.len());
    for m in &report.metrics {
        println!("metric {} = {} {}", m.name, m.value, m.unit);
        if !m.value.is_finite() {
            eprintln!("coyote-perfbench: metric {} is not finite", m.name);
            return ExitCode::from(1);
        }
        fields.push(format!(
            "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0,
        report.attempted,
        report.failed,
        fields.join(", ")
    );
    ExitCode::SUCCESS
}
