//! The four workloads. Each one stresses different layers and leaves
//! others idle (see `perfbench/README.md` for why each exists).
//!
//! A workload is driven in steps by one closed-loop client: `prepare`
//! (untimed) draws the step's seeded inputs and poisons its destinations,
//! `run` (timed) issues the step and waits for it to finish, `check`
//! (untimed) verifies every output against a software reference.

pub mod bulk_stream;
pub mod rdma_rw;
pub mod shell_deploy;
pub mod tenant_small;

use crate::trace::Tracer;
use coyote::{CRcnfg, Platform, PlatformError, ShellConfig};
use coyote_driver::reconfig::ReconfigTiming;
use coyote_fabric::{Bitstream, BitstreamKind, Device, Floorplan, PartitionId};
use coyote_sim::Xorshift64Star;

/// The generator of one seeded input stream. Every input of a run derives
/// from `--seed` through these, so a seed names one exact set of inputs;
/// separate streams keep one step's inputs independent of how many draws
/// other steps made.
pub fn stream_rng(seed: u64, stream: u64) -> Xorshift64Star {
    Xorshift64Star::new(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
}

/// `len` seeded bytes.
pub fn seeded_bytes(rng: &mut Xorshift64Star, len: usize) -> Vec<u8> {
    let mut v = vec![0u8; len];
    rng.fill_bytes(&mut v);
    v
}

/// What one step did, as its check saw it.
#[derive(Debug, Default, Clone)]
pub struct StepOutcome {
    /// Steps of one class cost alike (the robust throughput estimator
    /// takes a median per class).
    pub class: usize,
    /// Ops attempted.
    pub ops: u64,
    /// Ops that returned an error or failed verification.
    pub failed: u64,
    /// Payload bytes of the ops that completed correctly.
    pub payload_bytes: u64,
    /// Modelled latency of each op that completed correctly, in ps.
    pub sim_latencies_ps: Vec<u64>,
}

pub trait Workload {
    /// Draw step `step`'s inputs and poison its destinations (untimed).
    fn prepare(&mut self, step: u64);
    /// Issue the prepared step and wait until it finishes (timed).
    fn run(&mut self, tr: &mut Tracer);
    /// Verify the step's outputs (untimed).
    fn check(&mut self) -> StepOutcome;
    /// Modelled platform time now, in ps.
    fn sim_now(&self) -> u64;
    /// Test hook: flip one byte of the next checked output after the
    /// program wrote it, so the check must report a failure.
    fn corrupt_next_output(&mut self);
}

pub type SetupError = Box<dyn std::error::Error>;
/// Set up a workload for a seed (deploy, load kernels, stage buffers, warm
/// up), recording spans into the tracer.
pub type SetupFn = fn(u64, &mut Tracer) -> Result<Box<dyn Workload>, SetupError>;

/// A workload's fixed parameters.
pub struct Spec {
    pub name: &'static str,
    pub setup: SetupFn,
    /// Steps whose modelled-time results form the `sim_*` metrics and after
    /// which peak RSS is read: a fixed amount of work, so both repeat for a
    /// seed whatever the host's speed.
    pub prefix_steps: u64,
    /// The timed phase runs at least this many steps, so that the tail
    /// percentile is defined on every host.
    pub min_steps: u64,
}

pub const SPECS: [Spec; 4] = [
    Spec {
        name: "shell_deploy",
        setup: shell_deploy::setup,
        prefix_steps: shell_deploy::PREFIX_STEPS,
        min_steps: shell_deploy::MIN_STEPS,
    },
    Spec {
        name: "tenant_small",
        setup: tenant_small::setup,
        prefix_steps: tenant_small::PREFIX_STEPS,
        min_steps: tenant_small::MIN_STEPS,
    },
    Spec {
        name: "bulk_stream",
        setup: bulk_stream::setup,
        prefix_steps: bulk_stream::PREFIX_STEPS,
        min_steps: bulk_stream::MIN_STEPS,
    },
    Spec {
        name: "rdma_rw",
        setup: rdma_rw::setup,
        prefix_steps: rdma_rw::PREFIX_STEPS,
        min_steps: rdma_rw::MIN_STEPS,
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// Deploy a shell image from bytes, as `CRcnfg::reconfigure_shell_bytes`
/// does. Traced, the parse (`fabric.parse`) and the driver's programming
/// (`driver.reconfigure_shell`) are split by taking the same public path
/// in two calls: `Bitstream::from_bytes`, then `reconfigure_shell_parsed`.
pub fn deploy_shell_bytes(
    p: &mut Platform,
    rcnfg: &CRcnfg,
    blob: &[u8],
    tr: &mut Tracer,
    op: u64,
) -> Result<ReconfigTiming, PlatformError> {
    let timing = if tr.enabled() {
        let parsed = tr.span("fabric.parse", op, || {
            Bitstream::from_bytes(blob.to_vec())
                .map_err(|e| PlatformError::Reconfig(coyote_driver::ReconfigError::Bitstream(e)))
        })?;
        tr.span("driver.reconfigure_shell", op, || {
            rcnfg.reconfigure_shell_parsed(p, &parsed, true)
        })?
    } else {
        rcnfg.reconfigure_shell_bytes(p, blob, true)?
    };
    tr.count("fabric.parse_bytes", blob.len() as f64);
    tr.count("driver.deploys", 1.0);
    tr.count("driver.icap_sim_ps", timing.kernel_latency.as_ps() as f64);
    Ok(timing)
}

/// Bring up a platform for `cfg` the way a datapath workload's set-up
/// does without synthesis: assemble an image sized for the configuration's
/// shell partition, register it, and deploy it from bytes.
pub fn load_deployed(
    cfg: &ShellConfig,
    digest_seed: u64,
    hpid: u32,
    tr: &mut Tracer,
) -> Result<Platform, PlatformError> {
    let mut p = Platform::load(cfg.clone())?;
    let rcnfg = CRcnfg::new(&mut p, hpid);
    let image = shell_image(cfg, digest_seed);
    p.register_shell(image.digest(), cfg.clone());
    deploy_shell_bytes(&mut p, &rcnfg, image.bytes(), tr, 0)?;
    Ok(p)
}

/// A shell image sized for `cfg`'s shell partition.
pub fn shell_image(cfg: &ShellConfig, digest_seed: u64) -> Bitstream {
    let tiles = Floorplan::preset(cfg.device, cfg.profile(), cfg.n_vfpgas)
        .tiles_of(PartitionId::Shell)
        .expect("preset floorplans have a shell partition");
    Bitstream::assemble(
        cfg.device,
        BitstreamKind::Shell,
        Device::frames_for_tiles(tiles),
        cfg.digest() ^ digest_seed,
    )
}

/// Cumulative datapath counters of a platform, read before and after a
/// traced drain so the tracer records what the drain did.
pub struct PlatformCounters([u64; 9]);

const PLATFORM_COUNTER_NAMES: [&str; 9] = [
    "mmu.stlb_hits",
    "mmu.stlb_misses",
    "mmu.page_faults",
    "mmu.shootdowns",
    "sched.credit_stalls",
    "dma.host_bytes_read",
    "dma.host_bytes_written",
    "apps.beats_in",
    "apps.beats_out",
];

impl PlatformCounters {
    pub fn read(p: &Platform) -> PlatformCounters {
        let mut c = [0u64; 9];
        for v in 0..p.config().n_vfpgas {
            let slot = p.vfpga(v).expect("vFPGA index below n_vfpgas");
            let stlb = slot.mmu.stlb().stats();
            c[0] += stlb.hits;
            c[1] += stlb.misses;
            c[2] += slot.mmu.faults();
            c[3] += slot.mmu.shootdowns();
            c[7] += slot.beats_in;
            c[8] += slot.beats_out;
        }
        c[4] = p.credit_stalls();
        let (h2c, c2h) = p.host_bytes_moved();
        c[5] = h2c;
        c[6] = c2h;
        PlatformCounters(c)
    }

    /// Record `after - self` into the tracer's counters.
    pub fn record_delta(&self, after: &PlatformCounters, tr: &mut Tracer) {
        for (i, name) in PLATFORM_COUNTER_NAMES.iter().enumerate() {
            tr.count(name, after.0[i].saturating_sub(self.0[i]) as f64);
        }
    }
}

/// Invoke a batch and drain it, with `core.invoke` and `core.drain` spans
/// and the datapath counters recorded when tracing. Returns the invocation
/// ids (`None` where `invoke` refused) and the drain's result.
pub fn invoke_and_drain(
    p: &mut Platform,
    ops: &[(coyote::CThread, coyote::Oper, coyote::SgEntry)],
    tr: &mut Tracer,
    step: u64,
) -> (
    Vec<Option<u64>>,
    Result<Vec<coyote::Completion>, PlatformError>,
) {
    let before = tr.enabled().then(|| PlatformCounters::read(p));
    let ids = tr.span("core.invoke", step, || {
        ops.iter()
            .map(|(t, oper, sg)| t.invoke(p, *oper, sg).ok())
            .collect::<Vec<_>>()
    });
    let drained = tr.span("core.drain", step, || p.drain());
    if let Some(before) = before {
        before.record_delta(&PlatformCounters::read(p), tr);
        tr.count("core.ops", ops.len() as f64);
    }
    (ids, drained)
}

/// Match completions to invocation ids: `Some(completion)` for an id
/// completed exactly once, `None` for a refused, lost or duplicated one.
/// The second value counts completions of ids the batch never issued. A
/// failed drain completes nothing, so the whole batch counts as failed.
pub fn match_completions(
    ids: &[Option<u64>],
    drained: &Result<Vec<coyote::Completion>, PlatformError>,
) -> (Vec<Option<coyote::Completion>>, u64) {
    let Ok(completions) = drained else {
        return (vec![None; ids.len()], 0);
    };
    let mut by_id: std::collections::BTreeMap<u64, (usize, coyote::Completion)> =
        std::collections::BTreeMap::new();
    for c in completions {
        by_id.entry(c.invocation).or_insert((0, *c)).0 += 1;
    }
    let matched: Vec<Option<coyote::Completion>> = ids
        .iter()
        .map(|id| {
            let (n, c) = by_id.get(&(*id)?)?;
            (*n == 1).then_some(*c)
        })
        .collect();
    let issued: std::collections::BTreeSet<u64> = ids.iter().flatten().copied().collect();
    let unexpected = by_id.keys().filter(|id| !issued.contains(id)).count() as u64;
    (matched, unexpected)
}
