//! The platform's shard topology for the sharded parallel DES engine.
//!
//! The shell of the paper is four concurrent hardware domains — the RoCE
//! network stack, the XDMA/DMA path, the reconfiguration fabric and the
//! scheduler/control plane — and the sharded engine
//! ([`coyote_sim::ShardedSimulation`]) mirrors exactly that decomposition:
//! one shard per domain, fully connected, with each link's lookahead taken
//! from the *source* domain's egress latency (the slowest thing it can do
//! is still slower than the fastest thing it can make observable
//! elsewhere). Every lookahead is strictly positive by construction, so the
//! topology always validates and the conservative windows always open.

use coyote_sim::params::{ICAP_BW, INVOKE_SW_OVERHEAD, PCIE_LATENCY, SWITCH_LATENCY, WIRE_LATENCY};
use coyote_sim::{
    ShardSpec, SimDuration, Topology, DOMAIN_DMA, DOMAIN_FABRIC, DOMAIN_NET, DOMAIN_SCHED,
};

/// The platform shard table, in canonical order: each domain shard with its
/// egress lookahead.
///
/// * `net` — RoCE stack, switch fabric and QPs: nothing leaves the domain
///   faster than one wire plus one switch traversal.
/// * `dma` — XDMA engine, writeback table, MSI-X path and the MMU (which
///   shares the PCIe/host-memory substrate): one PCIe round through the
///   hardened block.
/// * `fabric` — ICAP controller, bitstream parsing and configuration
///   state: the ICAP is the slowest actor, and nothing it does is
///   observable elsewhere faster than one 4 KiB configuration-frame burst.
/// * `sched` — packetization, interleaving and crediting: control-plane
///   decisions reach other subsystems no faster than one software
///   invocation overhead.
pub fn platform_shards() -> [(ShardSpec, SimDuration); 4] {
    let shard = |domain, name| ShardSpec { domain, name };
    [
        (shard(DOMAIN_NET, "net"), WIRE_LATENCY + SWITCH_LATENCY),
        (shard(DOMAIN_DMA, "dma"), PCIE_LATENCY),
        (shard(DOMAIN_FABRIC, "fabric"), ICAP_BW.time_for(4096)),
        (shard(DOMAIN_SCHED, "sched"), INVOKE_SW_OVERHEAD),
    ]
}

/// Egress lookahead out of a platform domain (`None` for any other domain):
/// the legal minimum delay of a post from that domain to another shard.
pub fn egress_lookahead(domain: u64) -> Option<SimDuration> {
    platform_shards()
        .into_iter()
        .find(|(spec, _)| spec.domain == domain)
        .map(|(_, lookahead)| lookahead)
}

/// The full platform topology: all four domain shards, fully connected,
/// with link `src -> dst` promising the source domain's egress lookahead.
pub fn platform_topology() -> Topology {
    let mut topo = Topology::new();
    let shards = platform_shards();
    for (spec, _) in shards {
        topo.add_shard(spec).expect("platform domains are unique");
    }
    for (src, (_, la)) in shards.iter().enumerate() {
        for dst in 0..shards.len() {
            if src != dst {
                topo.link(src, dst, *la)
                    .expect("platform lookaheads are positive");
            }
        }
    }
    topo
}

#[cfg(test)]
mod tests {
    use super::*;
    use coyote_sim::{DOMAIN_DMA, DOMAIN_FABRIC, DOMAIN_NET, DOMAIN_SCHED};

    #[test]
    fn topology_covers_all_four_domains() {
        let topo = platform_topology();
        assert_eq!(topo.len(), 4);
        for d in [DOMAIN_NET, DOMAIN_DMA, DOMAIN_FABRIC, DOMAIN_SCHED] {
            assert!(topo.shard_of_domain(d).is_some(), "domain {d:#x} missing");
        }
    }

    #[test]
    fn topology_is_fully_connected_with_positive_lookahead() {
        let topo = platform_topology();
        for src in 0..topo.len() {
            for dst in 0..topo.len() {
                if src == dst {
                    continue;
                }
                let la = topo.lookahead(src, dst).expect("link declared");
                assert!(!la.is_zero(), "zero lookahead on {src}->{dst}");
            }
        }
        assert!(topo.min_lookahead().is_some());
    }

    #[test]
    fn lookaheads_follow_source_egress() {
        let topo = platform_topology();
        // Every link out of shard s promises s's egress lookahead.
        for (src, (spec, la)) in platform_shards().iter().enumerate() {
            assert_eq!(egress_lookahead(spec.domain), Some(*la));
            for dst in 0..topo.len() {
                if src != dst {
                    assert_eq!(topo.lookahead(src, dst), Some(*la));
                }
            }
        }
        assert_eq!(egress_lookahead(0), None);
    }
}
