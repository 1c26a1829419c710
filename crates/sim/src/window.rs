//! Conservative time windows for the sharded parallel DES engine.
//!
//! The sharded engine ([`crate::shard`]) partitions a simulation into
//! per-domain shards that advance concurrently. What keeps that safe is the
//! *lookahead* declared on every inter-shard link: a promise that no event
//! executing on the source shard at time `t` can make anything observable on
//! the destination shard before `t + lookahead`. From those promises and the
//! shards' next-event times, [`horizons`] computes, per shard, the largest
//! simulated time the shard may advance to without risk of a straggler
//! message arriving in its past — the classic null-message bound of
//! conservative parallel DES (Chandy/Misra/Bryant), evaluated once per
//! synchronization round instead of per message.
//!
//! Zero lookahead is rejected at topology-construction time: a link that
//! promises nothing gives the destination no safe window at all, and the
//! conservative engine would deadlock at the first shared timestamp.

use crate::time::{SimDuration, SimTime};

/// Canonical shard-domain id of the network stack (RoCE/RDMA, switch, QPs).
pub const DOMAIN_NET: u64 = 0x006E_6574;
/// Canonical shard-domain id of the DMA/XDMA + memory path (incl. the MMU).
pub const DOMAIN_DMA: u64 = 0x0064_6D61;
/// Canonical shard-domain id of the reconfiguration fabric (ICAP, bitstreams).
pub const DOMAIN_FABRIC: u64 = 0x0066_6162;
/// Canonical shard-domain id of the scheduler / control plane.
pub const DOMAIN_SCHED: u64 = 0x0073_6368;

/// Index of a shard within a [`Topology`].
pub type ShardId = usize;

/// Declares one shard: the subsystem domain it owns (the id that
/// [`crate::EventTag::domain`] carries) and a display name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    /// Domain id; must be unique within a topology.
    pub domain: u64,
    /// Display name for traces and diagnostics.
    pub name: &'static str,
}

/// Why a topology could not be built.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologyError {
    /// A link declared a zero lookahead: the conservative window can never
    /// open, so the engine would deadlock at the first shared timestamp.
    ZeroLookahead {
        /// Source shard of the offending link.
        src: ShardId,
        /// Destination shard of the offending link.
        dst: ShardId,
    },
    /// A link referenced a shard id outside the topology.
    UnknownShard(ShardId),
    /// A link from a shard to itself (intra-shard events need no link).
    SelfLink(ShardId),
    /// Two shards declared the same domain id.
    DuplicateDomain(u64),
    /// The same directed link was declared twice.
    DuplicateLink {
        /// Source shard of the duplicated link.
        src: ShardId,
        /// Destination shard of the duplicated link.
        dst: ShardId,
    },
}

impl std::fmt::Display for TopologyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TopologyError::ZeroLookahead { src, dst } => write!(
                f,
                "link {src}->{dst} declares zero lookahead: the conservative \
                 window can never open"
            ),
            TopologyError::UnknownShard(s) => write!(f, "unknown shard id {s}"),
            TopologyError::SelfLink(s) => write!(f, "self-link on shard {s}"),
            TopologyError::DuplicateDomain(d) => {
                write!(f, "duplicate shard domain {d:#x}")
            }
            TopologyError::DuplicateLink { src, dst } => {
                write!(f, "duplicate link {src}->{dst}")
            }
        }
    }
}

impl std::error::Error for TopologyError {}

/// The shard graph: shards plus directed links with per-link lookahead.
#[derive(Debug, Clone, Default)]
pub struct Topology {
    shards: Vec<ShardSpec>,
    // (src, dst) -> lookahead, kept sorted by insertion through `link`.
    links: Vec<(ShardId, ShardId, SimDuration)>,
}

impl Topology {
    /// An empty topology.
    pub fn new() -> Topology {
        Topology::default()
    }

    /// Add a shard; returns its id. Domains must be unique.
    pub fn add_shard(&mut self, spec: ShardSpec) -> Result<ShardId, TopologyError> {
        if self.shards.iter().any(|s| s.domain == spec.domain) {
            return Err(TopologyError::DuplicateDomain(spec.domain));
        }
        self.shards.push(spec);
        Ok(self.shards.len() - 1)
    }

    /// Declare a directed link `src -> dst` with the given lookahead: a
    /// promise that no event executing on `src` at time `t` makes anything
    /// observable on `dst` before `t + lookahead`.
    pub fn link(
        &mut self,
        src: ShardId,
        dst: ShardId,
        lookahead: SimDuration,
    ) -> Result<(), TopologyError> {
        for &s in &[src, dst] {
            if s >= self.shards.len() {
                return Err(TopologyError::UnknownShard(s));
            }
        }
        if src == dst {
            return Err(TopologyError::SelfLink(src));
        }
        if lookahead.is_zero() {
            return Err(TopologyError::ZeroLookahead { src, dst });
        }
        if self.links.iter().any(|&(s, d, _)| s == src && d == dst) {
            return Err(TopologyError::DuplicateLink { src, dst });
        }
        self.links.push((src, dst, lookahead));
        Ok(())
    }

    /// The shards, in id order.
    pub fn shards(&self) -> &[ShardSpec] {
        &self.shards
    }

    /// Number of shards.
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// Whether the topology has no shards.
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// The lookahead of link `src -> dst`, if declared.
    pub fn lookahead(&self, src: ShardId, dst: ShardId) -> Option<SimDuration> {
        self.links
            .iter()
            .find(|&&(s, d, _)| s == src && d == dst)
            .map(|&(_, _, l)| l)
    }

    /// The shard owning `domain`, if any.
    pub fn shard_of_domain(&self, domain: u64) -> Option<ShardId> {
        self.shards.iter().position(|s| s.domain == domain)
    }

    /// Every declared link as `(src domain, dst domain, lookahead)` — the
    /// table the platform resource graph draws its DES links from.
    pub fn lookahead_decls(&self) -> Vec<(u64, u64, SimDuration)> {
        self.links
            .iter()
            .map(|&(s, d, l)| (self.shards[s].domain, self.shards[d].domain, l))
            .collect()
    }

    /// The smallest lookahead of any declared link (the width of the worst
    /// conservative window), if any links exist.
    pub fn min_lookahead(&self) -> Option<SimDuration> {
        self.links.iter().map(|&(_, _, l)| l).min()
    }
}

/// Per-shard conservative horizons for one synchronization round.
///
/// `next_event[s]` is shard `s`'s earliest pending event time — *after*
/// folding in any messages already routed but not yet delivered — or `None`
/// for an idle shard. The horizon of shard `d` is the minimum over its
/// incoming links `s -> d` of `next_event[s] + lookahead(s, d)`: before that
/// time, no message from any neighbor can still arrive. `None` means the
/// shard is unbounded this round (no incoming link constrains it) and may
/// drain its whole queue.
///
/// A shard may execute events *strictly below* its horizon. An event at
/// exactly the horizon must wait: a neighbor could still emit a message for
/// that very instant, and the canonical same-instant order has to include it.
///
/// Progress is guaranteed for any validated topology: the globally earliest
/// event at time `m` sits on some shard whose horizon is at least
/// `m + min_lookahead > m`, so every round executes at least one event.
pub fn horizons(topo: &Topology, next_event: &[Option<SimTime>]) -> Vec<Option<SimTime>> {
    assert_eq!(
        next_event.len(),
        topo.len(),
        "one next-event time per shard"
    );
    let mut out: Vec<Option<SimTime>> = vec![None; topo.len()];
    for &(src, dst, lookahead) in &topo.links {
        let Some(next) = next_event[src] else {
            continue; // Idle neighbor: promises nothing before +infinity.
        };
        let bound = next + lookahead;
        out[dst] = Some(match out[dst] {
            Some(cur) => cur.min(bound),
            None => bound,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(domain: u64, name: &'static str) -> ShardSpec {
        ShardSpec { domain, name }
    }

    fn two_shards() -> Topology {
        let mut t = Topology::new();
        t.add_shard(spec(1, "a")).unwrap();
        t.add_shard(spec(2, "b")).unwrap();
        t
    }

    #[test]
    fn zero_lookahead_is_rejected() {
        let mut t = two_shards();
        assert_eq!(
            t.link(0, 1, SimDuration::from_ps(0)),
            Err(TopologyError::ZeroLookahead { src: 0, dst: 1 })
        );
        assert!(t.link(0, 1, SimDuration::from_ps(1)).is_ok());
    }

    #[test]
    fn invalid_links_are_rejected() {
        let mut t = two_shards();
        assert_eq!(
            t.link(0, 2, SimDuration::from_ns(1)),
            Err(TopologyError::UnknownShard(2))
        );
        assert_eq!(
            t.link(1, 1, SimDuration::from_ns(1)),
            Err(TopologyError::SelfLink(1))
        );
        t.link(0, 1, SimDuration::from_ns(1)).unwrap();
        assert_eq!(
            t.link(0, 1, SimDuration::from_ns(2)),
            Err(TopologyError::DuplicateLink { src: 0, dst: 1 })
        );
    }

    #[test]
    fn duplicate_domains_are_rejected() {
        let mut t = two_shards();
        assert_eq!(
            t.add_shard(spec(1, "dup")),
            Err(TopologyError::DuplicateDomain(1))
        );
        assert_eq!(t.shard_of_domain(2), Some(1));
        assert_eq!(t.shard_of_domain(9), None);
    }

    #[test]
    fn horizon_is_min_over_incoming_links() {
        let mut t = Topology::new();
        for (d, n) in [(1u64, "a"), (2, "b"), (3, "c")] {
            t.add_shard(spec(d, n)).unwrap();
        }
        t.link(0, 2, SimDuration::from_ns(10)).unwrap();
        t.link(1, 2, SimDuration::from_ns(5)).unwrap();
        let next = [
            Some(SimTime(1_000)),
            Some(SimTime(2_000)),
            Some(SimTime(500)),
        ];
        let hz = horizons(&t, &next);
        // Shards with no incoming links are unbounded.
        assert_eq!(hz[0], None);
        assert_eq!(hz[1], None);
        // c is bounded by min(1000ps + 10ns, 2000ps + 5ns) = 7000ps.
        assert_eq!(hz[2], Some(SimTime(7_000)));
    }

    #[test]
    fn idle_neighbors_do_not_bound() {
        let mut t = two_shards();
        t.link(0, 1, SimDuration::from_ns(1)).unwrap();
        let hz = horizons(&t, &[None, Some(SimTime(100))]);
        assert_eq!(hz[1], None, "idle neighbor promises +infinity");
    }

    #[test]
    fn progress_is_guaranteed() {
        // The globally earliest event always clears its own horizon.
        let mut t = two_shards();
        t.link(0, 1, SimDuration::from_ns(1)).unwrap();
        t.link(1, 0, SimDuration::from_ns(1)).unwrap();
        let m = SimTime(5_000);
        let hz = horizons(&t, &[Some(m), Some(m)]);
        assert!(hz[0].unwrap() > m && hz[1].unwrap() > m);
    }

    #[test]
    fn lookahead_decls_report_domains() {
        let mut t = two_shards();
        t.link(0, 1, SimDuration::from_ns(3)).unwrap();
        assert_eq!(t.lookahead_decls(), vec![(1, 2, SimDuration::from_ns(3))]);
        assert_eq!(t.min_lookahead(), Some(SimDuration::from_ns(3)));
    }
}
