//! Discrete-event simulation (DES) engine and queueing primitives for the
//! Coyote v2 platform model.
//!
//! The Coyote v2 paper evaluates an FPGA shell on real Alveo hardware. This
//! reproduction replaces the hardware with a deterministic
//! discrete-event simulation. Every higher-level crate (`coyote-mem`,
//! `coyote-dma`, `coyote-net`, ...) expresses its timing behaviour in terms
//! of the primitives provided here:
//!
//! * [`SimTime`] / [`SimDuration`] — picosecond-resolution simulated clock.
//! * [`ShardedSimulation`] — the event engine. Events are boxed closures
//!   over a user-supplied *world* type, popped in canonical [`EventKey`]
//!   order so execution is fully deterministic; a one-shard [`Topology`] is
//!   the serial engine, more shards run conservative parallel windows.
//! * [`fnv`] — the FNV-64 fold behind every trace hash and fingerprint.
//! * [`LinkModel`] — a bandwidth-serialized, fixed-latency link (PCIe, HBM
//!   channel, 100G Ethernet, ICAP, disk, ...).
//! * [`RrQueue`] — round-robin fair queueing across keys, the mechanism
//!   behind Coyote v2's multi-tenant interleaving (§6.3 of the paper).
//! * [`CreditPool`] — the credit-based backpressure scheme of §7.2.
//! * [`PipelineModel`] — an initiation-interval/latency model for pipelined
//!   hardware kernels such as the 10-stage AES core of §9.5.
//! * [`stats`] — counters, histograms and throughput meters used by the
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
//! use coyote_sim::{EventTag, ShardSpec, ShardedSimulation, SimDuration, SimTime, Topology};
//!
//! // One shard is the serial engine: one queue, one world (a counter).
//! let mut topo = Topology::new();
//! topo.add_shard(ShardSpec { domain: 1, name: "world" }).unwrap();
//! let mut sim = ShardedSimulation::new(topo, vec![0u64]).unwrap();
//! for i in 0..10 {
//!     let at = SimTime::ZERO + SimDuration::from_ns(100 * i);
//!     sim.seed(1, at, EventTag::default(), |ticks: &mut u64, _ctx| *ticks += 1)
//!         .unwrap();
//! }
//! let end = sim.run();
//! assert_eq!(*sim.world_of(1).unwrap(), 10);
//! assert_eq!(end, SimTime::ZERO + SimDuration::from_ns(900));
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
pub mod shard;
pub mod stats;
pub mod time;
pub mod window;

pub use arbiter::RrQueue;
pub use credit::CreditPool;
pub use link::{LinkModel, Transfer};
pub use par::{par_map, thread_budget};
pub use pipeline::PipelineModel;
pub use rng::Xorshift64Star;
pub use shard::{
    EventKey, EventTag, PostError, ShardCtx, ShardTrace, ShardTraceEntry, ShardedSimulation,
};
pub use time::{Bandwidth, Freq, SimDuration, SimTime};
pub use window::{
    horizons, ShardId, ShardSpec, Topology, TopologyError, DOMAIN_DMA, DOMAIN_FABRIC, DOMAIN_NET,
    DOMAIN_SCHED,
};

/// The serial engine: a one-shard [`ShardedSimulation`] is one event queue
/// over one world, popped in [`EventKey`] order.
#[cfg(test)]
mod engine {
    use crate::{ShardSpec, Topology};

    /// One shard (domain 1), one queue.
    fn one_shard() -> Topology {
        let mut t = Topology::new();
        t.add_shard(ShardSpec {
            domain: 1,
            name: "solo",
        })
        .unwrap();
        t
    }

    mod tests {
        use super::one_shard;
        use crate::{EventTag, ShardCtx, ShardedSimulation, SimDuration, SimTime};

        #[test]
        fn events_run_in_time_order() {
            let mut sim = ShardedSimulation::new(one_shard(), vec![Vec::new()]).unwrap();
            for (ns, v) in [(30, 3u32), (10, 1), (20, 2)] {
                let at = SimTime::ZERO + SimDuration::from_ns(ns);
                sim.seed(1, at, EventTag::default(), move |w: &mut Vec<u32>, _| {
                    w.push(v)
                })
                .unwrap();
            }
            let end = sim.run();
            assert_eq!(sim.world_of(1).unwrap(), &[1, 2, 3]);
            assert_eq!(end.as_ps(), 30_000);
        }

        #[test]
        fn same_instant_runs_in_scheduling_order() {
            // Equal tags leave only the origin sequence to break the tie.
            let mut sim = ShardedSimulation::new(one_shard(), vec![Vec::new()]).unwrap();
            for i in 0..100u32 {
                sim.seed(
                    1,
                    SimTime::ZERO,
                    EventTag::default(),
                    move |w: &mut Vec<u32>, _| w.push(i),
                )
                .unwrap();
            }
            sim.run();
            assert_eq!(sim.world_of(1).unwrap(), &(0..100).collect::<Vec<_>>());
        }

        #[test]
        fn events_can_schedule_followups() {
            // A self-perpetuating ticker that stops after five ticks.
            fn tick(ticks: &mut u32, ctx: &mut ShardCtx<'_, u32>) {
                *ticks += 1;
                if *ticks < 5 {
                    ctx.schedule_after(SimDuration::from_ns(7), EventTag::default(), tick);
                }
            }
            let mut sim = ShardedSimulation::new(one_shard(), vec![0u32]).unwrap();
            sim.seed(1, SimTime::ZERO, EventTag::default(), tick)
                .unwrap();
            let end = sim.run();
            assert_eq!(*sim.world_of(1).unwrap(), 5);
            assert_eq!(sim.events_executed(), 5);
            assert_eq!(end, SimTime::ZERO + SimDuration::from_ns(28));
        }

        #[test]
        fn trace_records_tagged_and_untagged_events() {
            let mut sim = ShardedSimulation::new(one_shard(), vec![0u32]).unwrap();
            sim.record_trace();
            let t = SimTime::ZERO + SimDuration::from_ns(5);
            sim.seed(1, t, EventTag::default(), |w: &mut u32, _| *w += 1)
                .unwrap();
            sim.seed(1, t, EventTag::target(42).priority(1), |w: &mut u32, _| {
                *w += 1
            })
            .unwrap();
            sim.run();
            let trace = sim.take_trace();
            assert_eq!(trace.len(), 2);
            let [tagged, untagged] = trace.entries() else {
                panic!("two executed events");
            };
            // A declared priority runs before an undeclared one.
            assert_eq!(tagged.target, Some(42));
            assert_eq!(tagged.priority, Some(1));
            assert_eq!(untagged.target, None);
            assert_eq!(untagged.priority, None);
            assert_eq!(tagged.at_ps, untagged.at_ps);
            assert!(untagged.origin_seq < tagged.origin_seq);
            // Taking drains, recording continues.
            assert!(sim.take_trace().is_empty());
            sim.seed(1, t, EventTag::default(), |w: &mut u32, _| *w += 1)
                .unwrap();
            sim.run();
            assert_eq!(sim.take_trace().len(), 1);
            assert_eq!(*sim.world_of(1).unwrap(), 3);
        }

        #[test]
        fn trace_records_domain_and_executed_pops() {
            let mut sim = ShardedSimulation::new(one_shard(), vec![Vec::new()]).unwrap();
            sim.record_trace();
            let t = SimTime::ZERO + SimDuration::from_ns(5);
            sim.seed(
                1,
                t,
                EventTag::target(3).priority(1).domain(77),
                |w: &mut Vec<u8>, _| w.push(3),
            )
            .unwrap();
            sim.seed(
                1,
                t,
                EventTag::target(4).priority(0).domain(77),
                |w: &mut Vec<u8>, _| w.push(4),
            )
            .unwrap();
            sim.run();
            let trace = sim.take_trace();
            assert_eq!(trace.len(), 2, "one entry per executed event");
            let executed = trace.entries();
            assert!(executed.iter().all(|e| e.domain == Some(77)));
            // The engine pops by EventKey: declared priority, not insertion
            // order, and the trace records that execution order.
            assert_eq!(executed[0].target, Some(4));
            assert_eq!(executed[0].priority, Some(0));
            assert_eq!(executed[0].origin_seq, 1);
            assert_eq!(executed[1].target, Some(3));
            assert_eq!(executed[1].priority, Some(1));
            assert_eq!(executed[1].origin_seq, 0);
            assert_eq!(sim.world_of(1).unwrap(), &[4, 3]);
        }

        #[test]
        fn trace_off_by_default() {
            let mut sim = ShardedSimulation::new(one_shard(), vec![()]).unwrap();
            let at = SimTime::ZERO + SimDuration::from_ns(1);
            sim.seed(1, at, EventTag::default(), |_, _| {}).unwrap();
            sim.run();
            assert_eq!(sim.events_executed(), 1);
            assert!(sim.take_trace().is_empty());
        }

        #[test]
        #[should_panic(expected = "scheduling into the past")]
        fn scheduling_into_past_panics() {
            let mut sim = ShardedSimulation::new(one_shard(), vec![()]).unwrap();
            let at = SimTime::ZERO + SimDuration::from_ns(10);
            sim.seed(1, at, EventTag::default(), |_, ctx| {
                ctx.schedule_at(SimTime::ZERO, EventTag::default(), |_, _| {});
            })
            .unwrap();
            sim.run();
        }
    }
}
