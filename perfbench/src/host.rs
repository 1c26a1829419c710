//! The host block printed with every result: what the host-time metrics
//! were measured on.

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// A `kB` field of `/proc/self/status` (e.g. `VmHWM`), in bytes.
pub fn proc_status_bytes(field: &str) -> Option<u64> {
    let s = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = s.lines().find(|l| l.starts_with(field))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The host block as one JSON object.
pub fn host_block(seed: u64, workload: &str) -> String {
    format!(
        "{{\"nproc\":{},\"cpu_model\":{},\"rustc\":{},\"profile\":{},\"{}\":{},\
         \"seed\":{},\"workload\":{}}}",
        nproc(),
        json_str(&cpu_model()),
        json_str(env!("PERFBENCH_RUSTC_VERSION")),
        json_str(env!("PERFBENCH_PROFILE")),
        coyote_sim::par::THREADS_ENV,
        coyote_sim::par::thread_budget(),
        seed,
        json_str(workload)
    )
}
