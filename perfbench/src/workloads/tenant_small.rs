//! `tenant_small`: many small transfers from 16 tenants; per-op cost of the
//! core drain, the MMU and the scheduler dominates.
//!
//! 4 vFPGAs x 4 cThreads. Even vFPGAs run `Passthrough`, odd ones `VecAdd`
//! with a preloaded constant operand, so every output has an exact
//! reference. Each step is one seeded batch of 64 B - 4 KiB
//! `LocalTransfer`s (one per tenant in turn) and one `Platform::drain`.
//! Buffers use 4 KiB pages and each vFPGA's buffers span twice the pages
//! its sTLB holds. Within a step every op writes its own destination page,
//! so no op's output can mask another's.

use super::{
    invoke_and_drain, load_deployed, match_completions, seeded_bytes, stream_rng, StepOutcome,
    Workload,
};
use crate::trace::Tracer;
use coyote::kernel::Passthrough;
use coyote::{CThread, Completion, Oper, Platform, PlatformError, SgEntry, ShellConfig};
use coyote_apps::vecadd::VecAddKernel;
use coyote_mem::PageSize;

pub const PREFIX_STEPS: u64 = 25;
pub const MIN_STEPS: u64 = 100;

const VFPGAS: u8 = 4;
const THREADS_PER_VFPGA: u8 = 4;
const TENANTS: usize = (VFPGAS * THREADS_PER_VFPGA) as usize;
const PAGE: u64 = 4096;
/// Per buffer: 640 pages. A vFPGA's 4 tenants x (src + dst) = 5120 pages,
/// 2.5 times its 2048-entry sTLB.
const BUF_PAGES: u64 = 640;
const BUF_BYTES: u64 = BUF_PAGES * PAGE;
pub const OPS_PER_STEP: usize = 10240;
const OPS_PER_TENANT: usize = OPS_PER_STEP / TENANTS;
/// VecAdd lanes needed by one step on one vFPGA (every op at 4 KiB).
const VECADD_LANES: u64 = (THREADS_PER_VFPGA as u64) * (OPS_PER_TENANT as u64) * PAGE / 8;
const POISON: [u8; PAGE as usize] = [0xA5; PAGE as usize];
const HPID_BASE: u32 = 1000;

struct Tenant {
    thread: CThread,
    src: u64,
    dst: u64,
    src_data: Vec<u8>,
    /// `Some(k)`: the VecAdd operand every lane of this vFPGA adds.
    addend: Option<i64>,
}

struct Op {
    tenant: usize,
    src_off: u64,
    dst_off: u64,
    len: u64,
}

pub struct TenantSmall {
    p: Platform,
    tenants: Vec<Tenant>,
    seed: u64,
    step: u64,
    ops: Vec<Op>,
    ids: Vec<Option<u64>>,
    drained: Result<Vec<Completion>, PlatformError>,
    corrupt: bool,
}

fn is_vecadd(v: u8) -> bool {
    v % 2 == 1
}

pub fn setup(seed: u64, tr: &mut Tracer) -> Result<Box<dyn Workload>, super::SetupError> {
    let cfg = ShellConfig::host_only(VFPGAS);
    let mut p = load_deployed(&cfg, seed, HPID_BASE, tr)?;
    let mut rng = stream_rng(seed, 0x7E4A);
    let mut tenants = Vec::with_capacity(TENANTS);
    for v in 0..VFPGAS {
        let addend = is_vecadd(v).then(|| (rng.next_u64() >> 8) as i64);
        if is_vecadd(v) {
            p.load_kernel(v, Box::new(VecAddKernel::new()))?;
        } else {
            p.load_kernel(v, Box::new(Passthrough::default()))?;
        }
        for i in 0..THREADS_PER_VFPGA {
            let thread =
                CThread::create(&mut p, v, HPID_BASE + (v * THREADS_PER_VFPGA + i) as u32)?;
            let src = thread.get_mem_paged(&mut p, BUF_BYTES, PageSize::Small)?;
            let dst = thread.get_mem_paged(&mut p, BUF_BYTES, PageSize::Small)?;
            let src_data = seeded_bytes(&mut rng, BUF_BYTES as usize);
            thread.write(&mut p, src, &src_data)?;
            for page in 0..BUF_PAGES {
                thread.write(&mut p, dst + page * PAGE, &POISON)?;
            }
            tenants.push(Tenant {
                thread,
                src,
                dst,
                src_data,
                addend,
            });
        }
        if let Some(k) = addend {
            // Preload operand A (phase 0 consumes a LocalRead), then switch
            // the kernel to streaming A + B.
            let t = tenants.last().expect("tenant just pushed").thread;
            let lanes: Vec<u8> = (0..VECADD_LANES).flat_map(|_| k.to_le_bytes()).collect();
            let a = t.get_mem(&mut p, lanes.len() as u64)?;
            t.write(&mut p, a, &lanes)?;
            t.set_csr(&mut p, 0, 0)?;
            t.invoke_sync(
                &mut p,
                Oper::LocalRead,
                &SgEntry::source(a, lanes.len() as u64),
            )?;
            t.set_csr(&mut p, 1, 0)?;
        }
    }
    let mut w = TenantSmall {
        p,
        tenants,
        seed,
        step: 0,
        ops: Vec::new(),
        ids: Vec::new(),
        drained: Ok(Vec::new()),
        corrupt: false,
    };
    w.warm_up()?;
    Ok(Box::new(w))
}

impl TenantSmall {
    /// Touch every page of every buffer once through the datapath, so the
    /// timed phase pays no first-touch page faults.
    fn warm_up(&mut self) -> Result<(), PlatformError> {
        for page in 0..BUF_PAGES {
            for t in &self.tenants {
                let sg = SgEntry::local(t.src + page * PAGE, t.dst + page * PAGE, PAGE);
                t.thread.invoke(&mut self.p, Oper::LocalTransfer, &sg)?;
            }
            if (page + 1) % 64 == 0 {
                self.p.drain()?;
                self.reset_vecadd_cursors()?;
            }
        }
        self.p.drain()?;
        self.reset_vecadd_cursors()
    }

    /// Rewind the VecAdd operand cursor (phase 1 write) before a batch.
    fn reset_vecadd_cursors(&mut self) -> Result<(), PlatformError> {
        for v in (0..VFPGAS).filter(|&v| is_vecadd(v)) {
            let t = self.tenants[(v * THREADS_PER_VFPGA) as usize].thread;
            t.set_csr(&mut self.p, 1, 0)?;
        }
        Ok(())
    }

    fn expected(&self, op: &Op) -> Vec<u8> {
        let t = &self.tenants[op.tenant];
        let src = &t.src_data[op.src_off as usize..(op.src_off + op.len) as usize];
        match t.addend {
            None => src.to_vec(),
            Some(k) => src
                .chunks_exact(8)
                .flat_map(|lane| {
                    let b = i64::from_le_bytes(lane.try_into().expect("8-byte lane"));
                    b.wrapping_add(k).to_le_bytes()
                })
                .collect(),
        }
    }
}

impl Workload for TenantSmall {
    fn prepare(&mut self, step: u64) {
        let mut rng = stream_rng(self.seed, step);
        self.step = step;
        self.ops.clear();
        // Each tenant writes OPS_PER_TENANT distinct destination pages.
        let mut dst_pages: Vec<Vec<u64>> = (0..TENANTS)
            .map(|_| {
                let mut pages: Vec<u64> = (0..BUF_PAGES).collect();
                rng.shuffle(&mut pages);
                pages.truncate(OPS_PER_TENANT);
                pages
            })
            .collect();
        for i in 0..OPS_PER_STEP {
            let tenant = i % TENANTS;
            let len = rng.gen_range_in(1, PAGE / 64 + 1) * 64;
            let in_page = rng.gen_range((PAGE - len) / 64 + 1) * 64;
            let src_page = rng.gen_range(BUF_PAGES);
            let dst_page = dst_pages[tenant].pop().expect("one page per op");
            self.ops.push(Op {
                tenant,
                src_off: src_page * PAGE + in_page,
                dst_off: dst_page * PAGE + in_page,
                len,
            });
        }
        for op in &self.ops {
            let t = &self.tenants[op.tenant];
            t.thread
                .write(&mut self.p, t.dst + op.dst_off, &POISON[..op.len as usize])
                .expect("destination buffer is mapped");
        }
        self.reset_vecadd_cursors().expect("VecAdd vFPGAs exist");
    }

    fn run(&mut self, tr: &mut Tracer) {
        let batch: Vec<(CThread, Oper, SgEntry)> = self
            .ops
            .iter()
            .map(|op| {
                let t = &self.tenants[op.tenant];
                (
                    t.thread,
                    Oper::LocalTransfer,
                    SgEntry::local(t.src + op.src_off, t.dst + op.dst_off, op.len),
                )
            })
            .collect();
        (self.ids, self.drained) = invoke_and_drain(&mut self.p, &batch, tr, self.step);
    }

    fn check(&mut self) -> StepOutcome {
        let (matched, unexpected) = match_completions(&self.ids, &self.drained);
        let mut out = StepOutcome {
            ops: self.ops.len() as u64,
            failed: unexpected,
            ..StepOutcome::default()
        };
        for (op, c) in self.ops.iter().zip(matched) {
            let t = &self.tenants[op.tenant];
            let addr = t.dst + op.dst_off;
            if std::mem::take(&mut self.corrupt) {
                let b = t.thread.read(&self.p, addr, 1).expect("mapped")[0];
                t.thread.write(&mut self.p, addr, &[!b]).expect("mapped");
            }
            let ok = c.is_some_and(|c| c.bytes_out == op.len)
                && t.thread.read(&self.p, addr, op.len as usize).ok() == Some(self.expected(op));
            match (ok, c) {
                (true, Some(c)) => {
                    out.payload_bytes += 2 * op.len;
                    out.sim_latencies_ps.push(c.latency().as_ps());
                }
                _ => out.failed += 1,
            }
        }
        out
    }

    fn sim_now(&self) -> u64 {
        self.p.now().as_ps()
    }

    fn corrupt_next_output(&mut self) {
        self.corrupt = true;
    }
}
