//! `shell_deploy`: build and deploy requests, the only workload that runs
//! synthesis (about 60% of the experiment suite's host time).
//!
//! Each op draws a request for one of the three §9.3 Table 3 shell
//! configurations with seeded app blocks, runs `build_shell` and
//! `build_app`, then deploys the shell and the app from their bitstream
//! bytes onto one live `Platform` through `CRcnfg`. In modelled time a
//! request takes its build flows' modelled time (`BuildReport::total`), then
//! the shell and app reconfiguration latencies. Requests come in rounds
//! that hold each configuration once, in seeded order, so every seed has
//! the same mix. One shell build in seven repeats an earlier one and no app
//! build does, the reuse of one run of the experiment suite: a build cache
//! can gain only in proportion to it (see `SHELL_REPEAT_EVERY`). The check
//! confirms the shell and app digests on the platform and sends 4 KiB
//! through the deployed kernel.

use super::{deploy_shell_bytes, seeded_bytes, shell_image, stream_rng, StepOutcome, Workload};
use crate::trace::Tracer;
use coyote::build::{build_app, build_shell};
use coyote::kernel::{Kernel, Passthrough};
use coyote::{CRcnfg, CThread, Oper, Platform, SgEntry, ShellConfig};
use coyote_apps::vecadd::VecAddKernel;
use coyote_synth::{Ip, IpBlock};

pub const PREFIX_STEPS: u64 = 21;
pub const MIN_STEPS: u64 = 40;

/// Every SHELL_REPEAT_EVERY-th request of a configuration asks for the shell
/// build of an earlier request of that configuration again, with a fresh
/// app. One run of the experiment suite (`coyote-bench all`) makes seven
/// shell builds (three in table3, three in fig7b, one in fig11), of which
/// fig7b's "passthrough + host IF" repeats table3's scenario #1 exactly, and
/// four app builds, all distinct.
pub const SHELL_REPEAT_EVERY: u64 = 7;
const HPID: u32 = 4000;
const PROBE: u64 = 4096;

/// The Table 3 scenarios: configuration and the app IP of each vFPGA.
fn configs() -> [(ShellConfig, Vec<Ip>); 3] {
    [
        (
            ShellConfig::host_only(1).with_mmu(coyote_mmu::MmuConfig::huge_1g()),
            vec![Ip::Passthrough],
        ),
        (
            ShellConfig::host_memory(2, 16),
            vec![Ip::VecAdd, Ip::VecProduct],
        ),
        (
            ShellConfig::host_memory_network(1, 16)
                .with_sniffer(coyote_net::SnifferConfig::default()),
            vec![Ip::Passthrough],
        ),
    ]
}

/// The kernel behind a vFPGA 0 app (Passthrough or VecAdd in Table 3).
fn kernel_for(vecadd: bool) -> Box<dyn Kernel> {
    if vecadd {
        Box::new(VecAddKernel::new())
    } else {
        Box::new(Passthrough::default())
    }
}

/// One build-and-deploy request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    pub config: usize,
    /// Seeds of the shell build's app blocks, one per vFPGA.
    pub shell_app_seeds: Vec<u64>,
    /// Seed of the app built against the checkpoint for vFPGA 0.
    pub app_seed: u64,
    /// The shell build repeats an earlier request's.
    pub repeat: bool,
}

impl Request {
    /// The request's class for the throughput estimator. A repeated build
    /// is a kind of request of its own: were it cached, its cost would
    /// differ from a fresh build's.
    pub fn class(&self) -> usize {
        2 * self.config + self.repeat as usize
    }
}

/// The seeded request stream: round `r` holds each configuration once.
pub struct Requests {
    seed: u64,
    /// Per configuration, its requests so far.
    history: [Vec<Request>; 3],
}

impl Requests {
    pub fn new(seed: u64) -> Requests {
        Requests {
            seed,
            history: Default::default(),
        }
    }

    /// Request number `op` (ops are drawn in order).
    pub fn get(&mut self, op: u64) -> Request {
        let round = op / 3;
        let mut order = [0usize, 1, 2];
        stream_rng(self.seed, 0x5E11 ^ (round << 8)).shuffle(&mut order);
        let config = order[(op % 3) as usize];
        let k = self.history[config].len() as u64;
        debug_assert_eq!(k, round, "requests are drawn in order");
        let mut rng = stream_rng(self.seed, 0xA11 ^ (round << 8) ^ config as u64);
        let req = if k % SHELL_REPEAT_EVERY == SHELL_REPEAT_EVERY - 1 {
            let earlier = &self.history[config][rng.gen_range(k) as usize];
            Request {
                config,
                shell_app_seeds: earlier.shell_app_seeds.clone(),
                app_seed: rng.next_u64(),
                repeat: true,
            }
        } else {
            Request {
                config,
                shell_app_seeds: configs()[config].1.iter().map(|_| rng.next_u64()).collect(),
                app_seed: rng.next_u64(),
                repeat: false,
            }
        };
        self.history[config].push(req.clone());
        req
    }
}

/// What the timed op produced, for the check.
struct Deployed {
    shell_digest: u64,
    app_digest: u64,
    vecadd: bool,
    sim_ps: u64,
    bytes: u64,
}

pub struct ShellDeploy {
    p: Platform,
    rcnfg: CRcnfg,
    thread: CThread,
    src: u64,
    dst: u64,
    probe: Vec<u8>,
    requests: Requests,
    step: u64,
    request: Option<Request>,
    /// The timed op's outcome; an error counts the op as failed.
    deployed: Option<Result<Deployed, String>>,
    corrupt: bool,
}

pub fn setup(seed: u64, tr: &mut Tracer) -> Result<Box<dyn Workload>, super::SetupError> {
    let mut p = Platform::load(ShellConfig::host_only(1))?;
    let rcnfg = CRcnfg::new(&mut p, HPID);
    let thread = CThread::create(&mut p, 0, HPID)?;
    let src = thread.get_mem(&mut p, PROBE)?;
    let dst = thread.get_mem(&mut p, PROBE)?;
    let probe = seeded_bytes(&mut stream_rng(seed, 0x9B0E), PROBE as usize);
    thread.write(&mut p, src, &probe)?;
    // Warm-up: deploy an image sized for each configuration from bytes,
    // touching the parse and programming paths the timed ops use.
    for (i, (cfg, _)) in configs().iter().enumerate() {
        let image = shell_image(cfg, seed ^ i as u64);
        p.register_shell(image.digest(), cfg.clone());
        deploy_shell_bytes(&mut p, &rcnfg, image.bytes(), tr, 0)?;
    }
    Ok(Box::new(ShellDeploy {
        p,
        rcnfg,
        thread,
        src,
        dst,
        probe,
        requests: Requests::new(seed),
        step: 0,
        request: None,
        deployed: None,
        corrupt: false,
    }))
}

impl ShellDeploy {
    fn build_and_deploy(&mut self, req: &Request, tr: &mut Tracer) -> Result<Deployed, String> {
        let (cfg, ips) = configs()[req.config].clone();
        let op = self.step;
        let apps: Vec<Vec<IpBlock>> = ips
            .iter()
            .zip(&req.shell_app_seeds)
            .map(|(ip, &s)| vec![IpBlock::with_seed(ip.clone(), s)])
            .collect();
        let shell = tr
            .span("synth.build_shell", op, || build_shell(&cfg, apps))
            .map_err(|e| e.to_string())?;
        let app_blocks = [IpBlock::with_seed(ips[0].clone(), req.app_seed)];
        let app = tr
            .span("synth.build_app", op, || {
                build_app(&app_blocks, 0, &shell.checkpoint)
            })
            .map_err(|e| e.to_string())?;
        tr.count(
            "synth.anneal_moves",
            (shell.report.moves + app.report.moves) as f64,
        );
        tr.count(
            "synth.route_expansions",
            (shell.report.expansions + app.report.expansions) as f64,
        );
        // In modelled time the request first waits for its builds; the
        // platform is idle meanwhile.
        let build = shell.report.total + app.report.total;
        let built_at = self.p.now() + build;
        self.p.advance_to(built_at);
        self.p.register_built_shell(cfg, &shell);
        let shell_timing = deploy_shell_bytes(
            &mut self.p,
            &self.rcnfg,
            shell.shell_bitstream.bytes(),
            tr,
            op,
        )
        .map_err(|e| e.to_string())?;
        let vecadd = ips[0] == Ip::VecAdd;
        self.p
            .register_app(app.bitstream.digest(), move || kernel_for(vecadd));
        let (p, rcnfg) = (&mut self.p, &self.rcnfg);
        let app_timing = tr
            .span("driver.reconfigure_app", op, || {
                rcnfg.reconfigure_app_bytes(p, app.bitstream.bytes(), 0, true)
            })
            .map_err(|e| e.to_string())?;
        tr.count(
            "driver.icap_sim_ps",
            app_timing.kernel_latency.as_ps() as f64,
        );
        Ok(Deployed {
            shell_digest: shell.shell_bitstream.digest(),
            app_digest: app.bitstream.digest(),
            vecadd,
            sim_ps: (build + shell_timing.total_latency + app_timing.total_latency).as_ps(),
            bytes: shell.shell_bitstream.len() + app.bitstream.len(),
        })
    }

    /// The deployed shell and app are the requested ones, and 4 KiB pass
    /// through the app's kernel intact (VecAdd with no preloaded operand
    /// adds zero).
    fn verify(&mut self, d: &Deployed) -> bool {
        if self.p.shell_digest() != d.shell_digest
            || self.p.vfpga(0).map(|s| s.loaded_digest).ok() != Some(d.app_digest)
        {
            return false;
        }
        let t = self.thread;
        if d.vecadd && t.set_csr(&mut self.p, 1, 0).is_err() {
            return false;
        }
        let sg = SgEntry::local(self.src, self.dst, PROBE);
        let Ok(c) = t.invoke_sync(&mut self.p, Oper::LocalTransfer, &sg) else {
            return false;
        };
        if std::mem::take(&mut self.corrupt) {
            let b = t.read(&self.p, self.dst, 1).expect("mapped")[0];
            t.write(&mut self.p, self.dst, &[!b]).expect("mapped");
        }
        c.bytes_out == PROBE
            && t.read(&self.p, self.dst, PROBE as usize).ok() == Some(self.probe.clone())
    }
}

impl Workload for ShellDeploy {
    fn prepare(&mut self, step: u64) {
        self.step = step;
        self.request = Some(self.requests.get(step));
        let poison = vec![0u8; PROBE as usize];
        self.thread
            .write(&mut self.p, self.dst, &poison)
            .expect("probe buffer is mapped");
    }

    fn run(&mut self, tr: &mut Tracer) {
        let req = self.request.take().expect("prepared");
        self.deployed = Some(self.build_and_deploy(&req, tr));
        self.request = Some(req);
    }

    fn check(&mut self) -> StepOutcome {
        let class = self.request.as_ref().map_or(0, Request::class);
        let mut out = StepOutcome {
            class,
            ops: 1,
            ..StepOutcome::default()
        };
        match self.deployed.take().expect("ran") {
            Ok(d) if self.verify(&d) => {
                out.payload_bytes = d.bytes;
                out.sim_latencies_ps.push(d.sim_ps);
            }
            _ => out.failed = 1,
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
