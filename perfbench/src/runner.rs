//! One run: set up several times, measure a closed loop of steps for a
//! fixed wall-clock window, and turn what was measured into metrics.

use crate::host::proc_status_bytes;
use crate::stats::{median, percentile, tail_percentile};
use crate::trace::Tracer;
use crate::workloads::{spec, Spec, Workload};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 7;
/// Percentile of `sim_latency_us_tail`. Modelled time is deterministic,
/// so no sample-count guard is needed.
pub const SIM_TAIL_PERCENTILE: f64 = 99.0;

pub struct Options {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where the traced run writes its spans (Chrome trace-event JSON).
    pub trace_dir: Option<PathBuf>,
}

/// One metric as printed: name, value, unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

struct StepRecord {
    secs: f64,
    class: usize,
    ops: u64,
}

#[derive(Default)]
struct Phase {
    steps: Vec<StepRecord>,
    attempted: u64,
    failed: u64,
    payload_bytes: u64,
}

impl Phase {
    /// Ops per second with each step's time replaced by the median time of
    /// its class: one VM stall cannot move it, unlike ops over the window.
    fn ops_per_s(&self) -> f64 {
        let mut by_class: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
        for s in &self.steps {
            by_class.entry(s.class).or_default().push(s.secs);
        }
        let est_secs: f64 = by_class.values().map(|v| v.len() as f64 * median(v)).sum();
        let ops: u64 = self.steps.iter().map(|s| s.ops).sum();
        ops as f64 / est_secs
    }

    fn step_ms(&self) -> Vec<f64> {
        self.steps.iter().map(|s| s.secs * 1e3).collect()
    }
}

/// Modelled-time results and peak RSS over the first `steps` steps.
struct Prefix {
    steps: u64,
    start_ps: u64,
    end_ps: u64,
    latencies_ps: Vec<u64>,
    payload_bytes: u64,
    ops: u64,
    peak_rss_bytes: u64,
}

impl Prefix {
    fn new(steps: u64, start_ps: u64) -> Prefix {
        Prefix {
            steps,
            start_ps,
            end_ps: start_ps,
            latencies_ps: Vec::new(),
            payload_bytes: 0,
            ops: 0,
            peak_rss_bytes: 0,
        }
    }
}

/// Run steps until `seconds` have passed and at least `min_steps` ran.
/// With `alternate`, every second step is traced; the steps are returned
/// split as `(untraced, traced)`, so the two halves share the same drift.
fn timed(
    w: &mut dyn Workload,
    tr: &mut Tracer,
    next_step: &mut u64,
    seconds: f64,
    min_steps: u64,
    alternate: bool,
    mut prefix: Option<&mut Prefix>,
) -> (Phase, Phase) {
    let mut phases = (Phase::default(), Phase::default());
    let t0 = Instant::now();
    for k in 0.. {
        let step = *next_step;
        let traced = alternate && k % 2 == 1;
        w.prepare(step);
        tr.set_enabled(traced);
        let t = Instant::now();
        w.run(tr);
        let secs = t.elapsed().as_secs_f64();
        tr.set_enabled(false);
        let out = w.check();
        let phase = if traced { &mut phases.1 } else { &mut phases.0 };
        phase.steps.push(StepRecord {
            secs,
            class: out.class,
            ops: out.ops,
        });
        phase.attempted += out.ops;
        phase.failed += out.failed;
        phase.payload_bytes += out.payload_bytes;
        if let Some(p) = prefix.as_deref_mut() {
            if step < p.steps {
                p.latencies_ps.extend_from_slice(&out.sim_latencies_ps);
                p.payload_bytes += out.payload_bytes;
                p.ops += out.ops;
                if step + 1 == p.steps {
                    p.end_ps = w.sim_now();
                    p.peak_rss_bytes = proc_status_bytes("VmHWM").unwrap_or(0);
                }
            }
        }
        *next_step += 1;
        if k + 1 >= min_steps && t0.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    phases
}

/// The modelled-time results of a fixed number of steps after one set-up.
#[derive(Debug, Clone, PartialEq)]
pub struct FixedRun {
    pub attempted: u64,
    pub failed: u64,
    pub latencies_ps: Vec<u64>,
    pub payload_bytes: u64,
    pub sim_span_ps: u64,
}

/// Set up once and run exactly `steps` steps, untraced. With `corrupt`, one
/// byte of the first checked output is flipped after the program wrote it.
pub fn run_fixed(workload: &str, seed: u64, steps: u64, corrupt: bool) -> Result<FixedRun, String> {
    let spec = spec(workload).ok_or_else(|| format!("unknown workload '{workload}'"))?;
    let mut tr = Tracer::new(false);
    let mut w = (spec.setup)(seed, &mut tr).map_err(|e| format!("set-up failed: {e}"))?;
    if corrupt {
        w.corrupt_next_output();
    }
    let mut prefix = Prefix::new(steps, w.sim_now());
    let (phase, _) = timed(
        &mut *w,
        &mut tr,
        &mut 0,
        0.0,
        steps,
        false,
        Some(&mut prefix),
    );
    Ok(FixedRun {
        attempted: phase.attempted,
        failed: phase.failed,
        latencies_ps: prefix.latencies_ps,
        payload_bytes: prefix.payload_bytes,
        sim_span_ps: prefix.end_ps - prefix.start_ps,
    })
}

pub fn run(opts: &Options) -> Result<Report, String> {
    let spec =
        spec(&opts.workload).ok_or_else(|| format!("unknown workload '{}'", opts.workload))?;
    let mut tr = Tracer::new(false);
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut w: Option<Box<dyn Workload>> = None;
    for i in 0..SETUP_REPEATS {
        drop(w.take());
        // Only the last set-up is traced: its spans are the fabric layer's
        // numbers on the datapath workloads.
        tr.set_enabled(opts.trace && i + 1 == SETUP_REPEATS);
        let t0 = Instant::now();
        let built = (spec.setup)(opts.seed, &mut tr).map_err(|e| format!("set-up failed: {e}"))?;
        setup_s.push(t0.elapsed().as_secs_f64());
        w = Some(built);
    }
    tr.set_enabled(false);
    let mut w = w.expect("at least one set-up ran");
    let mut next_step = 0;
    // Peak RSS covers the measured work, not the set-ups: repeated set-ups
    // leave freed staging memory and transient image copies whose peak
    // swings between identical runs.
    reset_peak_rss()?;
    let notes = vec![format!(
        "setup_s samples: {}",
        setup_s
            .iter()
            .map(|s| format!("{s:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    )];
    if opts.trace {
        traced(spec, opts, &mut *w, &mut tr, &mut next_step, notes)
    } else {
        untraced(
            spec,
            opts,
            &mut *w,
            &mut tr,
            &mut next_step,
            median(&setup_s),
            notes,
        )
    }
}

/// Reset the process's peak resident set (`VmHWM`), see proc(5).
fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("resetting the peak RSS through /proc/self/clear_refs: {e}"))
}

fn untraced(
    spec: &Spec,
    opts: &Options,
    w: &mut dyn Workload,
    tr: &mut Tracer,
    next_step: &mut u64,
    setup_s: f64,
    mut notes: Vec<String>,
) -> Result<Report, String> {
    let mut prefix = Prefix::new(spec.prefix_steps, w.sim_now());
    let min_steps = spec.min_steps.max(spec.prefix_steps);
    let (phase, _) = timed(
        w,
        tr,
        next_step,
        opts.seconds,
        min_steps,
        false,
        Some(&mut prefix),
    );
    let step_ms = phase.step_ms();
    let mut m = vec![
        Metric {
            name: "setup_s",
            value: setup_s,
            unit: "s",
        },
        Metric {
            name: "ops_per_s",
            value: phase.ops_per_s(),
            unit: "1/s",
        },
        Metric {
            name: "step_host_ms_p50",
            value: median(&step_ms),
            unit: "ms",
        },
    ];
    // The tail's percentile follows from the fewest steps a run makes, not
    // from how many fit in the window: a faster program must not read
    // a higher percentile than its parent.
    match tail_percentile(min_steps) {
        Some(p) => {
            notes.push(format!(
                "step_host_ms_tail is p{p} of {} steps ({} ops per step on average)",
                step_ms.len(),
                phase.attempted as f64 / step_ms.len() as f64
            ));
            m.push(Metric {
                name: "step_host_ms_tail",
                value: percentile(&step_ms, p),
                unit: "ms",
            });
        }
        None => notes.push(format!(
            "step_host_ms_tail omitted: {min_steps} steps leave no percentile with ten beyond it"
        )),
    }
    m.push(Metric {
        name: "peak_rss_mb",
        value: prefix.peak_rss_bytes as f64 / 1e6,
        unit: "MB",
    });
    if prefix.latencies_ps.is_empty() {
        return Err("no op of the modelled-time prefix completed correctly".into());
    }
    let lat_us: Vec<f64> = prefix
        .latencies_ps
        .iter()
        .map(|&ps| ps as f64 / 1e6)
        .collect();
    let span_ps = prefix.end_ps.saturating_sub(prefix.start_ps).max(1);
    m.push(Metric {
        name: "sim_latency_us_p50",
        value: median(&lat_us),
        unit: "us",
    });
    m.push(Metric {
        name: "sim_latency_us_tail",
        value: percentile(&lat_us, SIM_TAIL_PERCENTILE),
        unit: "us",
    });
    m.push(Metric {
        name: "sim_goodput_gbps",
        value: prefix.payload_bytes as f64 * 8e3 / span_ps as f64,
        unit: "Gbit/s",
    });
    notes.push(format!(
        "sim_* and peak_rss_mb (VmHWM, reset after set-up) cover the first {} steps \
         ({} ops, {} correct; sim_latency_us_tail is p{SIM_TAIL_PERCENTILE}); the timed \
         window ran {} steps",
        prefix.steps,
        prefix.ops,
        lat_us.len(),
        phase.steps.len()
    ));
    notes.push(format!(
        "ops_failed_frac: {}",
        phase.failed as f64 / phase.attempted.max(1) as f64
    ));
    Ok(Report {
        attempted: phase.attempted,
        failed: phase.failed,
        metrics: m,
        notes,
    })
}

fn traced(
    spec: &Spec,
    opts: &Options,
    w: &mut dyn Workload,
    tr: &mut Tracer,
    next_step: &mut u64,
    mut notes: Vec<String>,
) -> Result<Report, String> {
    let (plain, traced) = timed(w, tr, next_step, opts.seconds, spec.min_steps, true, None);
    let attempted = plain.attempted + traced.attempted;
    let failed = plain.failed + traced.failed;
    let metrics = per_layer(tr, &plain, &traced, attempted, failed);
    notes.push(format!(
        "per-layer metrics cover the traced set-up and the traced steps, every second step \
         of the window ({} steps, {} ops); counts are per op of those steps",
        traced.steps.len(),
        traced.attempted
    ));
    notes.push(
        "sim (DES engine): on no workload's path; drain runs its own analytic scheduler".into(),
    );
    notes.push(
        "kernel host time is inside core.drain self time (no spans inside the program)".into(),
    );
    if let Some(dir) = &opts.trace_dir {
        let path = dir.join(format!("{}-seed{}.json", spec.name, opts.seed));
        match tr.write_chrome(&path) {
            Ok(()) => notes.push(format!("spans written to {}", path.display())),
            Err(e) => return Err(format!("writing spans to {}: {e}", path.display())),
        }
    }
    Ok(Report {
        attempted,
        failed,
        metrics,
        notes,
    })
}

/// The per-layer metrics, in `BENCHMARK.json` order. A layer a workload
/// leaves idle reads 0.
fn per_layer(
    tr: &Tracer,
    plain: &Phase,
    traced: &Phase,
    attempted: u64,
    failed: u64,
) -> Vec<Metric> {
    let self_ns = tr.self_times();
    let span = |name: &str| self_ns.get(name).copied().unwrap_or((0, 0));
    let c = |name: &str| tr.counter(name);
    let div = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let ops = traced.attempted as f64;
    let mean_ms = |name: &str| {
        let (n, ns) = span(name);
        div(ns as f64 / 1e6, n as f64)
    };
    let (parse_n, parse_ns) = span("fabric.parse");
    let (shell_n, shell_ns) = span("driver.reconfigure_shell");
    let (app_n, app_ns) = span("driver.reconfigure_app");
    let reconfigs = (shell_n + app_n) as f64;
    let core_ops = c("core.ops");
    let (invoke_ns, drain_ns) = (span("core.invoke").1 as f64, span("core.drain").1 as f64);
    let (hits, misses) = (c("mmu.stlb_hits"), c("mmu.stlb_misses"));
    let (h2c, c2h) = (c("dma.host_bytes_read"), c("dma.host_bytes_written"));
    let verbs = c("net.verbs");
    let frames = c("net.frames");
    let metric = |name: &'static str, value: f64, unit: &'static str| Metric { name, value, unit };
    vec![
        metric("synth.build_shell_ms", mean_ms("synth.build_shell"), "ms"),
        metric("synth.build_app_ms", mean_ms("synth.build_app"), "ms"),
        metric(
            "synth.anneal_moves",
            div(c("synth.anneal_moves"), ops),
            "1/op",
        ),
        metric(
            "synth.route_expansions",
            div(c("synth.route_expansions"), ops),
            "1/op",
        ),
        metric(
            "fabric.parse_ms",
            div(parse_ns as f64 / 1e6, parse_n as f64),
            "ms",
        ),
        metric(
            "fabric.parse_mb_per_s",
            div(c("fabric.parse_bytes") / 1e6, parse_ns as f64 / 1e9),
            "MB/s",
        ),
        metric(
            "driver.reconfig_ms",
            div((shell_ns + app_ns) as f64 / 1e6, reconfigs),
            "ms",
        ),
        metric(
            "driver.icap_sim_ms",
            div(c("driver.icap_sim_ps") / 1e9, reconfigs),
            "ms",
        ),
        metric(
            "core.invoke_us_per_op",
            div(invoke_ns / 1e3, core_ops),
            "us",
        ),
        metric("core.drain_us_per_op", div(drain_ns / 1e3, core_ops), "us"),
        metric("core.drain_ms", mean_ms("core.drain"), "ms"),
        metric("mmu.stlb_hits", div(hits, ops), "1/op"),
        metric("mmu.stlb_misses", div(misses, ops), "1/op"),
        metric("mmu.stlb_miss_ratio", div(misses, hits + misses), "ratio"),
        metric("mmu.page_faults", div(c("mmu.page_faults"), ops), "1/op"),
        metric("mmu.shootdowns", div(c("mmu.shootdowns"), ops), "1/op"),
        metric(
            "sched.credit_stalls",
            div(c("sched.credit_stalls"), ops),
            "1/op",
        ),
        metric("dma.host_bytes_read", div(h2c, ops), "B/op"),
        metric("dma.host_bytes_written", div(c2h, ops), "B/op"),
        metric(
            "dma.payload_ratio",
            div(traced.payload_bytes as f64, h2c + c2h),
            "ratio",
        ),
        metric("apps.beats_in", div(c("apps.beats_in"), ops), "1/op"),
        metric("apps.beats_out", div(c("apps.beats_out"), ops), "1/op"),
        metric(
            "net.pump_ms_per_verb",
            div(span("net.pump").1 as f64 / 1e6, verbs),
            "ms",
        ),
        metric("net.frames", div(c("net.frames"), ops), "1/op"),
        metric("net.retransmits", div(c("net.retransmits"), ops), "1/op"),
        metric("net.duplicates", div(c("net.duplicates"), ops), "1/op"),
        metric("net.naks", div(c("net.naks"), ops), "1/op"),
        metric("net.switch_drops", div(c("net.switch_drops"), ops), "1/op"),
        metric(
            "net.useful_frame_ratio",
            div(c("net.data_frames_needed"), frames),
            "ratio",
        ),
        metric(
            "trace.overhead_frac",
            1.0 - traced.ops_per_s() / plain.ops_per_s(),
            "ratio",
        ),
        metric(
            "ops_failed_frac",
            div(failed as f64, attempted as f64),
            "ratio",
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::shell_deploy::{Requests, SHELL_REPEAT_EVERY};

    /// `shell_deploy` steps timed at 1 s, or at `repeat_secs` when the
    /// request's shell build repeats an earlier one.
    fn shell_deploy_phase(repeat_secs: f64) -> Phase {
        let mut requests = Requests::new(3);
        let steps = (0..42)
            .map(|op| {
                let r = requests.get(op);
                StepRecord {
                    secs: if r.repeat { repeat_secs } else { 1.0 },
                    class: r.class(),
                    ops: 1,
                }
            })
            .collect();
        Phase {
            steps,
            ..Phase::default()
        }
    }

    #[test]
    fn cheaper_repeated_builds_raise_ops_per_s_by_their_share() {
        let base = shell_deploy_phase(1.0).ops_per_s();
        let cached = shell_deploy_phase(0.0).ops_per_s();
        assert_eq!(base, 1.0);
        // 42 requests hold 14 of each configuration, 2 of them repeats.
        let share = 2.0 / 14.0;
        assert_eq!(SHELL_REPEAT_EVERY, 7);
        assert!((cached - 1.0 / (1.0 - share)).abs() < 1e-9, "{cached}");
    }
}
