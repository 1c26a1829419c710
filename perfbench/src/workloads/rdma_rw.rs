//! `rdma_rw`: RoCE v2 between a software NIC and the FPGA's RDMA service;
//! framing, ICRC, windows and go-back-N recovery dominate, and the kernels
//! do nothing.
//!
//! One `CommodityNic` QP talks to the FPGA QP through a 2-port `Switch`
//! that drops frames at a fixed rate from a seeded stream. Each step is
//! 48 verbs alternating WRITE and READ, of seeded 4 KiB - 1 MiB (three from
//! each sixteenth of that range), each
//! driven to completion with timeout-driven resends (the timer fires after
//! the modelled retransmission timeout). The verbs of a kind in a step use
//! disjoint 1 MiB slots of their destination, and every destination window
//! is poisoned first, so each verb's bytes are checked on their own.

use super::{load_deployed, seeded_bytes, stream_rng, StepOutcome, Workload};
use crate::trace::Tracer;
use coyote::kernel::Passthrough;
use coyote::rdma::run_with_nic;
use coyote::{CThread, Platform, ShellConfig};
use coyote_net::{CommodityNic, QpConfig, Switch, Verb};
use coyote_sim::params;

pub const PREFIX_STEPS: u64 = 84;
pub const MIN_STEPS: u64 = 100;

const KIB: u64 = 1024;
const MIB: u64 = 1 << 20;
const VERBS_PER_STEP: u64 = 48;
/// Size strata: each step draws VERBS_PER_STEP / STRATA sizes from each.
const STRATA: u64 = 16;
/// Each destination slot holds one verb of up to 1 MiB.
const SLOT: u64 = MIB;
/// Destination slots per kind of verb.
const SLOTS: u64 = VERBS_PER_STEP / 2;
/// Source buffers on both sides. Staged data must dominate peak RSS: with
/// 2 MiB sources the allocator's loss-dependent frame buffering moved it by
/// up to 11% between seeds.
const SRC_BYTES: u64 = 32 * MIB;
/// The middle of the loss rates the `net_retransmit` experiment runs (0%,
/// 2% and 5%), and the one its quick mode runs.
const DROP_RATE: f64 = 0.02;
/// Timer rounds before a verb counts as failed.
const MAX_ROUNDS: usize = 1000;
const HPID: u32 = 3000;
const NIC_QPN: u32 = 0x100;
const FPGA_QPN: u32 = 0x200;
const NIC_PORT: usize = 1;
const FPGA_PORT: usize = 0;
/// NIC memory: WRITE sources, then the READ destination slots.
const NIC_READ_DST: u64 = SRC_BYTES;
const POISON: u8 = 0xC3;

#[derive(Clone, Copy)]
struct VerbPlan {
    write: bool,
    /// Offset of the source window (NIC for WRITE, FPGA for READ).
    src_off: u64,
    /// Offset of the destination window (FPGA for WRITE, NIC for READ).
    dst_off: u64,
    len: u64,
}

struct VerbResult {
    done: bool,
    sim_ps: u64,
}

pub struct RdmaRw {
    p: Platform,
    thread: CThread,
    nic: CommodityNic,
    switch: Switch,
    /// FPGA-side buffers: WRITE destinations and the READ source.
    fpga_dst: u64,
    fpga_src: u64,
    fpga_src_data: Vec<u8>,
    nic_src_data: Vec<u8>,
    /// Payload bytes per frame (path MTU).
    mtu: u64,
    seed: u64,
    step: u64,
    next_wr: u64,
    plan: Vec<VerbPlan>,
    results: Vec<VerbResult>,
    corrupt: bool,
}

pub fn setup(seed: u64, tr: &mut Tracer) -> Result<Box<dyn Workload>, super::SetupError> {
    let cfg = ShellConfig::host_memory_network(1, 8);
    let mut p = load_deployed(&cfg, seed, HPID, tr)?;
    p.load_kernel(0, Box::new(Passthrough::default()))?;
    let thread = CThread::create(&mut p, 0, HPID)?;
    let mut rng = stream_rng(seed, 0x4D3A);
    let fpga_dst = thread.get_mem(&mut p, SLOTS * SLOT)?;
    let fpga_src = thread.get_mem(&mut p, SRC_BYTES)?;
    let fpga_src_data = seeded_bytes(&mut rng, SRC_BYTES as usize);
    thread.write(&mut p, fpga_src, &fpga_src_data)?;
    thread.write(&mut p, fpga_dst, &vec![POISON; (SLOTS * SLOT) as usize])?;
    let mut nic = CommodityNic::new("mlx5_0", (SRC_BYTES + SLOTS * SLOT) as usize);
    let nic_src_data = seeded_bytes(&mut rng, SRC_BYTES as usize);
    nic.write_memory(0, &nic_src_data);
    nic.write_memory(
        NIC_READ_DST as usize,
        &vec![POISON; (SLOTS * SLOT) as usize],
    );
    let (qp_nic, qp_fpga) = QpConfig::pair(NIC_QPN, FPGA_QPN);
    let mtu = qp_nic.mtu as u64;
    nic.create_qp(qp_nic);
    p.rdma_create_qp(HPID, qp_fpga)?;
    let mut switch = Switch::new(2);
    switch.set_drop_rate(DROP_RATE, seed ^ 0x5EED_D809);
    let mut w = RdmaRw {
        p,
        thread,
        nic,
        switch,
        fpga_dst,
        fpga_src,
        fpga_src_data,
        nic_src_data,
        mtu,
        seed,
        step: 0,
        next_wr: 1,
        plan: Vec::new(),
        results: Vec::new(),
        corrupt: false,
    };
    // Warm-up: a full-size WRITE and READ into every destination slot
    // (staging already touched the sources).
    w.plan = (0..VERBS_PER_STEP)
        .map(|i| VerbPlan {
            write: i % 2 == 0,
            src_off: (i / 2 * SLOT) % SRC_BYTES,
            dst_off: i / 2 * SLOT,
            len: SLOT,
        })
        .collect();
    w.run(&mut Tracer::new(false));
    if w.results.iter().any(|r| !r.done) {
        return Err("RDMA warm-up verbs did not complete".into());
    }
    Ok(Box::new(w))
}

impl RdmaRw {
    /// Deliver frames the NIC's timer re-sent, and their responses.
    fn deliver_from_nic(&mut self, frames: Vec<coyote_net::Frame>) {
        for f in frames {
            for d in self.switch.inject(self.p.now(), NIC_PORT, f) {
                for resp in self.p.net_rx(d.at, &d.bytes) {
                    for d2 in self.switch.inject(d.at, FPGA_PORT, resp) {
                        self.nic.on_frame(&d2.bytes);
                    }
                }
            }
        }
    }

    /// Deliver frames the FPGA's timer re-sent.
    fn deliver_from_fpga(&mut self, frames: Vec<coyote_net::Frame>) {
        for f in frames {
            for d in self.switch.inject(self.p.now(), FPGA_PORT, f) {
                for resp in self.nic.on_frame(&d.bytes) {
                    for d2 in self.switch.inject(d.at, NIC_PORT, resp.to_frame()) {
                        self.p.net_rx(d2.at, &d2.bytes);
                    }
                }
            }
        }
    }

    /// Post one verb and pump until it completes or the round budget runs
    /// out.
    fn drive(&mut self, v: VerbPlan, tr: &mut Tracer) -> VerbResult {
        let verb = if v.write {
            Verb::Write {
                remote_vaddr: self.fpga_dst + v.dst_off,
                local_vaddr: v.src_off,
                len: v.len,
            }
        } else {
            Verb::Read {
                remote_vaddr: self.fpga_src + v.src_off,
                local_vaddr: NIC_READ_DST + v.dst_off,
                len: v.len,
            }
        };
        let wr_id = self.next_wr;
        self.next_wr += 1;
        let stats_before = tr.enabled().then(|| self.net_counters());
        let start = self.p.now();
        let span = tr.enter("net.pump", self.step);
        self.nic.post(NIC_QPN, wr_id, verb);
        let mut done = false;
        for _ in 0..MAX_ROUNDS {
            let now = self.p.now();
            run_with_nic(
                &mut self.p,
                FPGA_PORT,
                &mut self.nic,
                NIC_PORT,
                &mut self.switch,
                now,
            );
            let completions = self.nic.poll_completions();
            if let Some((_, c)) = completions.iter().find(|(_, c)| c.wr_id == wr_id) {
                done = c.status.is_ok();
                break;
            }
            // Nothing moves until the retransmission timer fires.
            let fire_at = self.p.now() + params::RETRANSMIT_TIMEOUT;
            self.p.advance_to(fire_at);
            let nic_frames = self.nic.on_timeout_frames();
            self.deliver_from_nic(nic_frames);
            let fpga_frames = self.p.rdma_timeout(fire_at);
            self.deliver_from_fpga(fpga_frames);
        }
        tr.exit(span);
        if let Some(before) = stats_before {
            let after = self.net_counters();
            for (i, name) in NET_COUNTER_NAMES.iter().enumerate() {
                tr.count(name, after[i].saturating_sub(before[i]) as f64);
            }
            tr.count("net.verbs", 1.0);
            tr.count("net.data_frames_needed", v.len.div_ceil(self.mtu) as f64);
        }
        VerbResult {
            done,
            sim_ps: self.p.now().since(start).as_ps(),
        }
    }

    fn net_counters(&self) -> [u64; 5] {
        let qp = self.nic.qp_stats(NIC_QPN).unwrap_or_default();
        let (a, b) = (self.switch.stats(0), self.switch.stats(1));
        [
            qp.retransmits,
            qp.duplicates,
            qp.naks_sent,
            a.dropped + b.dropped,
            a.rx_frames + b.rx_frames,
        ]
    }

    fn check_verb(&mut self, v: VerbPlan) -> bool {
        let (lo, hi) = (v.src_off as usize, (v.src_off + v.len) as usize);
        let got = if v.write {
            let addr = self.fpga_dst + v.dst_off;
            if std::mem::take(&mut self.corrupt) {
                let b = self.thread.read(&self.p, addr, 1).expect("mapped")[0];
                self.thread.write(&mut self.p, addr, &[!b]).expect("mapped");
            }
            self.thread.read(&self.p, addr, v.len as usize).ok()
        } else {
            let at = (NIC_READ_DST + v.dst_off) as usize;
            if std::mem::take(&mut self.corrupt) {
                let b = self.nic.memory()[at];
                self.nic.write_memory(at, &[!b]);
            }
            Some(self.nic.memory()[at..at + v.len as usize].to_vec())
        };
        let want = if v.write {
            &self.nic_src_data[lo..hi]
        } else {
            &self.fpga_src_data[lo..hi]
        };
        got.as_deref() == Some(want)
    }
}

const NET_COUNTER_NAMES: [&str; 5] = [
    "net.retransmits",
    "net.duplicates",
    "net.naks",
    "net.switch_drops",
    "net.frames",
];

impl Workload for RdmaRw {
    fn prepare(&mut self, step: u64) {
        let mut rng = stream_rng(self.seed, step);
        self.step = step;
        // Sizes are stratified: a step's verbs take three sizes from each
        // sixteenth of 4 KiB - 1 MiB, in seeded order, so every seed runs
        // the same size mix.
        let mut strata: Vec<u64> = (0..VERBS_PER_STEP).map(|i| i % STRATA).collect();
        rng.shuffle(&mut strata);
        let units = SLOT / (4 * KIB) / STRATA;
        self.plan = (0..VERBS_PER_STEP)
            .map(|i| {
                let len = (strata[i as usize] * units + rng.gen_range_in(1, units + 1)) * 4 * KIB;
                VerbPlan {
                    write: i % 2 == 0,
                    src_off: rng.gen_range((SRC_BYTES - len) / (4 * KIB) + 1) * 4 * KIB,
                    dst_off: i / 2 * SLOT + rng.gen_range((SLOT - len) / (4 * KIB) + 1) * 4 * KIB,
                    len,
                }
            })
            .collect();
        for v in self.plan.clone() {
            let poison = vec![POISON; v.len as usize];
            if v.write {
                self.thread
                    .write(&mut self.p, self.fpga_dst + v.dst_off, &poison)
                    .expect("destination buffer is mapped");
            } else {
                self.nic
                    .write_memory((NIC_READ_DST + v.dst_off) as usize, &poison);
            }
        }
    }

    fn run(&mut self, tr: &mut Tracer) {
        self.results = self
            .plan
            .clone()
            .into_iter()
            .map(|v| self.drive(v, tr))
            .collect();
    }

    fn check(&mut self) -> StepOutcome {
        let mut out = StepOutcome {
            ops: self.plan.len() as u64,
            ..StepOutcome::default()
        };
        for i in 0..self.plan.len() {
            let v = self.plan[i];
            if self.results[i].done && self.check_verb(v) {
                out.payload_bytes += v.len;
                out.sim_latencies_ps.push(self.results[i].sim_ps);
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
