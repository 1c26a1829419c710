//! `bulk_stream`: MiB-scale invocations, so per-byte kernel and copy work
//! dominates and per-op drain and MMU costs are diluted.
//!
//! Three tenants on three vFPGAs: AES-ECB and AES-CBC transfer data, and a
//! HyperLogLog tenant makes read-only `LocalRead`s beside them. Each step
//! is one seeded invocation per tenant (2-4 MiB) and one drain. References:
//! ECB and CBC outputs are slices of the whole source buffer encrypted in
//! software at set-up (CBC always starts at offset 0 with the chain reset,
//! so its output is a prefix); the HLL estimate and item count are
//! recomputed in software over the same bytes.

use super::{
    invoke_and_drain, load_deployed, match_completions, seeded_bytes, stream_rng, StepOutcome,
    Workload,
};
use crate::trace::Tracer;
use coyote::{CThread, Completion, Oper, Platform, PlatformError, SgEntry, ShellConfig};
use coyote_apps::hll::xxhash64;
use coyote_apps::{Aes128, AesCbcKernel, AesEcbKernel, HllKernel, HyperLogLog};

pub const PREFIX_STEPS: u64 = 80;
pub const MIN_STEPS: u64 = 100;

const MIB: u64 = 1 << 20;
const BUF_BYTES: u64 = 8 * MIB;
const STEP_ALIGN: u64 = 128 * 1024;
/// Invocation sizes: 2 MiB + k x 128 KiB for k < SIZES, plus a seeded
/// 0-124 KiB within the stratum.
const SIZES: u64 = 16;
const POISON: u8 = 0x5A;
const HPID_BASE: u32 = 2000;
const ECB: usize = 0;
const CBC: usize = 1;
const HLL: usize = 2;

struct Tenant {
    thread: CThread,
    src: u64,
    dst: u64,
    src_data: Vec<u8>,
    /// The whole source buffer through this tenant's kernel in software
    /// (empty for HLL, which writes nothing).
    reference: Vec<u8>,
}

pub struct BulkStream {
    p: Platform,
    tenants: Vec<Tenant>,
    seed: u64,
    step: u64,
    /// Per tenant: (offset, len) of this step's window.
    windows: Vec<(u64, u64)>,
    ids: Vec<Option<u64>>,
    drained: Result<Vec<Completion>, PlatformError>,
    corrupt: bool,
}

pub fn setup(seed: u64, tr: &mut Tracer) -> Result<Box<dyn Workload>, super::SetupError> {
    let cfg = ShellConfig::host_only(3);
    let mut p = load_deployed(&cfg, seed, HPID_BASE, tr)?;
    p.load_kernel(ECB as u8, Box::new(AesEcbKernel::new()))?;
    p.load_kernel(CBC as u8, Box::new(AesCbcKernel::new()))?;
    p.load_kernel(HLL as u8, Box::new(HllKernel::new()))?;
    let mut rng = stream_rng(seed, 0xB01C);
    let mut tenants = Vec::with_capacity(3);
    for v in 0..3usize {
        let thread = CThread::create(&mut p, v as u8, HPID_BASE + v as u32)?;
        let src = thread.get_mem(&mut p, BUF_BYTES)?;
        let src_data = seeded_bytes(&mut rng, BUF_BYTES as usize);
        thread.write(&mut p, src, &src_data)?;
        let (dst, reference) = if v == HLL {
            (0, Vec::new())
        } else {
            let (lo, hi) = (rng.next_u64(), rng.next_u64());
            thread.set_csr(&mut p, lo, 0)?;
            thread.set_csr(&mut p, hi, 1)?;
            let dst = thread.get_mem(&mut p, BUF_BYTES)?;
            thread.write(&mut p, dst, &vec![POISON; BUF_BYTES as usize])?;
            let mut reference = src_data.clone();
            let aes = Aes128::from_u64(lo, hi);
            if v == ECB {
                aes.encrypt_ecb(&mut reference);
            } else {
                aes.encrypt_cbc(&mut reference, [0u8; 16]);
            }
            (dst, reference)
        };
        tenants.push(Tenant {
            thread,
            src,
            dst,
            src_data,
            reference,
        });
    }
    let mut w = BulkStream {
        p,
        tenants,
        seed,
        step: 0,
        windows: Vec::new(),
        ids: Vec::new(),
        drained: Ok(Vec::new()),
        corrupt: false,
    };
    // Warm-up: one pass over every whole buffer.
    w.windows = vec![(0, BUF_BYTES); 3];
    w.reset_kernels()?;
    let batch = w.batch();
    let (_, drained) = invoke_and_drain(&mut w.p, &batch, &mut Tracer::new(false), 0);
    drained?;
    Ok(Box::new(w))
}

impl BulkStream {
    fn batch(&self) -> Vec<(CThread, Oper, SgEntry)> {
        self.tenants
            .iter()
            .zip(&self.windows)
            .enumerate()
            .map(|(v, (t, &(off, len)))| {
                if v == HLL {
                    (t.thread, Oper::LocalRead, SgEntry::source(t.src + off, len))
                } else {
                    let sg = SgEntry::local(t.src + off, t.dst + off, len);
                    (t.thread, Oper::LocalTransfer, sg)
                }
            })
            .collect()
    }

    /// Restart the CBC chain and clear the HLL sketch (CSR offset 16 on
    /// both kernels).
    fn reset_kernels(&mut self) -> Result<(), PlatformError> {
        for v in [CBC, HLL] {
            let t = self.tenants[v].thread;
            t.set_csr(&mut self.p, 0, 2)?;
        }
        Ok(())
    }

    fn check_tenant(&mut self, v: usize, c: Option<Completion>) -> bool {
        let (off, len) = self.windows[v];
        let t = &self.tenants[v];
        if v == HLL {
            let mut sketch = HyperLogLog::new(14);
            let data = &t.src_data[off as usize..(off + len) as usize];
            for item in data.chunks_exact(8) {
                sketch.add_hash(xxhash64(item, 0));
            }
            let mut estimate = t.thread.get_csr(&mut self.p, 0).ok();
            if std::mem::take(&mut self.corrupt) {
                estimate = estimate.map(|e| e ^ 1);
            }
            let items = t.thread.get_csr(&mut self.p, 1).ok();
            return c.is_some()
                && items == Some(sketch.items())
                && estimate == Some(sketch.estimate().round() as u64);
        }
        let addr = t.dst + off;
        if std::mem::take(&mut self.corrupt) {
            let b = t.thread.read(&self.p, addr, 1).expect("mapped")[0];
            t.thread.write(&mut self.p, addr, &[!b]).expect("mapped");
        }
        let want = &t.reference[off as usize..(off + len) as usize];
        c.is_some_and(|c| c.bytes_out == len)
            && t.thread.read(&self.p, addr, len as usize).ok().as_deref() == Some(want)
    }
}

impl Workload for BulkStream {
    fn prepare(&mut self, step: u64) {
        let mut rng = stream_rng(self.seed, step);
        self.step = step;
        // Sizes are stratified: over each block of SIZES steps a tenant runs
        // one size from each stratum, in seeded order, so every seed runs
        // nearly the same mix.
        let (block, pos) = (step / SIZES, (step % SIZES) as usize);
        self.windows = (0..3usize)
            .map(|v| {
                let mut sizes: Vec<u64> = (0..SIZES).collect();
                stream_rng(self.seed, 0xB10C ^ (block << 2) ^ v as u64).shuffle(&mut sizes);
                let len = 2 * MIB + sizes[pos] * STEP_ALIGN + rng.gen_range(32) * 4096;
                let off = if v == CBC {
                    0
                } else {
                    rng.gen_range((BUF_BYTES - len) / STEP_ALIGN + 1) * STEP_ALIGN
                };
                (off, len)
            })
            .collect();
        for v in [ECB, CBC] {
            let (off, len) = self.windows[v];
            let t = &self.tenants[v];
            t.thread
                .write(&mut self.p, t.dst + off, &vec![POISON; len as usize])
                .expect("destination buffer is mapped");
        }
        self.reset_kernels().expect("CBC and HLL vFPGAs exist");
    }

    fn run(&mut self, tr: &mut Tracer) {
        let batch = self.batch();
        (self.ids, self.drained) = invoke_and_drain(&mut self.p, &batch, tr, self.step);
    }

    fn check(&mut self) -> StepOutcome {
        let (matched, unexpected) = match_completions(&self.ids, &self.drained);
        let mut out = StepOutcome {
            ops: 3,
            failed: unexpected,
            ..StepOutcome::default()
        };
        for (v, c) in matched.into_iter().enumerate() {
            if self.check_tenant(v, c) {
                let c = c.expect("checked completions exist");
                out.payload_bytes += c.bytes_in + c.bytes_out;
                out.sim_latencies_ps.push(c.latency().as_ps());
            } else {
                out.failed += 1;
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
