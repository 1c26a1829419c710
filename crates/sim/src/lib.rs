//! Simulated time and the queueing primitives of the Coyote v2 platform
//! model.
//!
//! The Coyote v2 paper evaluates an FPGA shell on real Alveo hardware. This
//! reproduction replaces the hardware with a deterministic timing model.
//! There is one timing engine: `Platform::drain` in the `coyote` crate books
//! every request on analytic queueing servers built from the primitives
//! here, in simulated-time order. Every higher-level crate (`coyote-mem`,
//! `coyote-dma`, `coyote-net`, ...) expresses its timing behaviour in terms
//! of them:
//!
//! * [`SimTime`] / [`SimDuration`] — picosecond-resolution simulated clock.
//! * [`fnv`] — the FNV-64 fold behind every trace hash and fingerprint.
//! * [`LinkModel`] — a bandwidth-serialized, fixed-latency link (PCIe, HBM
//!   channel, 100G Ethernet, ICAP, disk, ...).
//! * [`RrQueue`] — round-robin fair queueing across keys, the mechanism
//!   behind Coyote v2's multi-tenant interleaving (§6.3 of the paper).
//! * [`CreditPool`] — the credit-based backpressure scheme of §7.2.
//! * [`PipelineModel`] — an initiation-interval/latency model for pipelined
//!   hardware kernels such as the 10-stage AES core of §9.5.
//! * [`stats`] — counters, histograms and sample series used by the
//!   experiment harness.
//! * [`par_map`] — deterministic fork-join parallelism for the build flows
//!   and the experiment harness: results merge in input order, so output is
//!   bit-identical for any worker-thread count.
//! * [`params`] — every calibration constant of the reproduction, with the
//!   derivation from the paper's reported numbers.
//!
//! # Examples
//!
//! ```
//! use coyote_sim::{Bandwidth, LinkModel, SimDuration, SimTime};
//!
//! // An analytic FIFO server: two 4 KB transfers booked at t = 0 on a
//! // 4 GB/s link. The second queues behind the first; both pay 1 us of
//! // propagation latency after leaving the wire.
//! let mut link = LinkModel::new(Bandwidth::gbps(4), SimDuration::from_us(1));
//! let a = link.transmit(SimTime::ZERO, 4096);
//! let b = link.transmit(SimTime::ZERO, 4096);
//! assert_eq!(b.start, a.done);
//! assert_eq!(b.arrival.since(a.arrival), a.done.since(a.start));
//! ```

#![forbid(unsafe_code)]

pub mod arbiter;
pub mod credit;
pub mod fnv;
pub mod link;
pub mod par;
pub mod params;
pub mod pipeline;
pub mod rng;
pub mod stats;
pub mod time;

pub use arbiter::RrQueue;
pub use credit::CreditPool;
pub use link::{LinkModel, Transfer};
pub use par::{par_map, thread_budget};
pub use pipeline::PipelineModel;
pub use rng::Xorshift64Star;
pub use time::{Bandwidth, Freq, SimDuration, SimTime};
