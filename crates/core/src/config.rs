//! Shell parametrization (§4).
//!
//! "A shell is fully parametrized by its services and the user
//! applications. Coyote v2 will then synthesize all the necessary partial
//! bitstreams which can dynamically be loaded onto the FPGA."

use coyote_fabric::{DeviceKind, ShellProfile};
use coyote_mmu::MmuConfig;
use coyote_net::SnifferConfig;
use coyote_synth::{Ip, IpBlock};

/// Default completion-ring size for the batched reconfiguration path
/// (re-exported so config consumers don't need the driver crate).
pub const DEFAULT_RECONFIG_RING_SLOTS: usize = coyote_driver::DEFAULT_RING_SLOTS;

/// Default cap on frame runs per batched reconfiguration submission: half
/// the default completion ring, so one full batch plus its retries fit.
pub const DEFAULT_MAX_RECONFIG_BATCH: usize = 8;

/// Default number of reconfiguration batches that may be in flight against
/// one completion ring at once. The single-driver deployments of §6 submit
/// one batch at a time; fleet-style deployments sharing a ring across
/// tenants raise this, and the completion ring must scale with it (WF001).
pub const DEFAULT_MAX_CONCURRENT_RECONFIGS: usize = 1;

/// Which service groups the shell carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShellServices {
    /// Card memory (HBM/DDR controllers + striping). Zero disables the
    /// memory service (the migration channel is then tied off, §5.1).
    pub memory_channels: usize,
    /// The RoCE v2 networking stack.
    pub networking: bool,
    /// The traffic sniffer of §8 (requires networking).
    pub sniffer: bool,
}

/// Full compile-time shell configuration.
#[derive(Debug, Clone)]
pub struct ShellConfig {
    /// Target card.
    pub device: DeviceKind,
    /// Number of vFPGA regions ("congestion and routing constraints
    /// practically limit the number of active vFPGAs to between eight and
    /// ten", §7.3).
    pub n_vfpgas: u8,
    /// Service selection.
    pub services: ShellServices,
    /// MMU geometry (per vFPGA).
    pub mmu: MmuConfig,
    /// Parallel host streams per vFPGA (§7.1).
    pub n_host_streams: u8,
    /// Parallel card streams per vFPGA.
    pub n_card_streams: u8,
    /// Sniffer filter configuration, when the sniffer service is present.
    pub sniffer_config: Option<SnifferConfig>,
    /// Node identity: selects the platform's MAC/IP on the simulated
    /// network (distinct per platform in multi-node deployments).
    pub node_id: u16,
    /// Completion-ring slots for the batched reconfiguration path. The
    /// platform sizes the driver's writeback ring to this at load.
    pub reconfig_ring_slots: usize,
    /// Largest frame-run batch a single reconfiguration submission may
    /// post. Must fit the ring: the engine writes one completion per
    /// in-flight run and stalls when the ring is full (WF001).
    pub max_reconfig_batch: usize,
    /// Reconfiguration batches that may be in flight against the shared
    /// completion ring concurrently. The ring must hold
    /// `max_reconfig_batch * max_concurrent_reconfigs` completions or a
    /// full fleet submission wedges the ICAP engine on writeback: the
    /// `coyote-lint` wait-for cycle WF001.
    pub max_concurrent_reconfigs: usize,
}

/// Configuration errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// vFPGA count outside 1..=10.
    BadVfpgaCount(u8),
    /// Sniffer requires the networking service.
    SnifferWithoutNetwork,
    /// Host stream counts must be 1..=16.
    BadStreamCount(u8),
    /// Card stream counts must be 0..=16.
    BadCardStreamCount(u8),
    /// More memory channels than the card has.
    TooManyChannels(usize),
    /// A TLB the MMU cannot build: `sets` is not a non-zero power of two
    /// (the set index is a bit-slice of the VPN) or `ways` is zero.
    BadTlbGeometry {
        /// `"stlb"` or `"ltlb"`.
        tlb: &'static str,
        /// Set count.
        sets: usize,
        /// Associativity.
        ways: usize,
    },
    /// The small-page TLB's page is not smaller than the huge-page TLB's,
    /// so every lookup would classify its page size wrong.
    InvertedTlbPages {
        /// sTLB page bytes.
        stlb: u64,
        /// lTLB page bytes.
        ltlb: u64,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::BadVfpgaCount(n) => write!(f, "{n} vFPGAs (1-10 supported)"),
            ConfigError::SnifferWithoutNetwork => {
                write!(f, "the traffic sniffer requires the networking service")
            }
            ConfigError::BadStreamCount(n) => write!(f, "{n} streams (1-16 supported)"),
            ConfigError::BadCardStreamCount(n) => {
                write!(f, "{n} card streams (0-16 supported)")
            }
            ConfigError::TooManyChannels(n) => write!(f, "{n} memory channels not available"),
            ConfigError::BadTlbGeometry { tlb, sets, ways } => write!(
                f,
                "{tlb} geometry {sets}x{ways} invalid: sets must be a non-zero power of two \
                 and ways non-zero"
            ),
            ConfigError::InvertedTlbPages { stlb, ltlb } => write!(
                f,
                "sTLB page ({stlb} B) must be smaller than lTLB page ({ltlb} B)"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

impl ShellConfig {
    /// Host-streaming-only shell (scenario #1 of §9.3).
    pub fn host_only(n_vfpgas: u8) -> ShellConfig {
        ShellConfig {
            device: DeviceKind::U55C,
            n_vfpgas,
            services: ShellServices {
                memory_channels: 0,
                networking: false,
                sniffer: false,
            },
            mmu: MmuConfig::default_2m(),
            n_host_streams: 4,
            n_card_streams: 0,
            sniffer_config: None,
            node_id: 1,
            reconfig_ring_slots: DEFAULT_RECONFIG_RING_SLOTS,
            max_reconfig_batch: DEFAULT_MAX_RECONFIG_BATCH,
            max_concurrent_reconfigs: DEFAULT_MAX_CONCURRENT_RECONFIGS,
        }
    }

    /// Host + card memory shell.
    pub fn host_memory(n_vfpgas: u8, channels: usize) -> ShellConfig {
        ShellConfig {
            device: DeviceKind::U55C,
            n_vfpgas,
            services: ShellServices {
                memory_channels: channels,
                networking: false,
                sniffer: false,
            },
            mmu: MmuConfig::default_2m(),
            n_host_streams: 4,
            n_card_streams: channels.min(16) as u8,
            sniffer_config: None,
            node_id: 1,
            reconfig_ring_slots: DEFAULT_RECONFIG_RING_SLOTS,
            max_reconfig_batch: DEFAULT_MAX_RECONFIG_BATCH,
            max_concurrent_reconfigs: DEFAULT_MAX_CONCURRENT_RECONFIGS,
        }
    }

    /// Full shell: host + memory + RDMA.
    pub fn host_memory_network(n_vfpgas: u8, channels: usize) -> ShellConfig {
        ShellConfig {
            device: DeviceKind::U55C,
            n_vfpgas,
            services: ShellServices {
                memory_channels: channels,
                networking: true,
                sniffer: false,
            },
            mmu: MmuConfig::default_2m(),
            n_host_streams: 4,
            n_card_streams: channels.min(16) as u8,
            sniffer_config: None,
            node_id: 1,
            reconfig_ring_slots: DEFAULT_RECONFIG_RING_SLOTS,
            max_reconfig_batch: DEFAULT_MAX_RECONFIG_BATCH,
            max_concurrent_reconfigs: DEFAULT_MAX_CONCURRENT_RECONFIGS,
        }
    }

    /// Enable the traffic sniffer (§8).
    pub fn with_sniffer(mut self, config: SnifferConfig) -> ShellConfig {
        self.services.sniffer = true;
        self.sniffer_config = Some(config);
        self
    }

    /// Use a different MMU geometry (scenario #1 of §9.3 swaps 2 MB pages
    /// for 1 GB pages this way).
    pub fn with_mmu(mut self, mmu: MmuConfig) -> ShellConfig {
        self.mmu = mmu;
        self
    }

    /// Assign a distinct network identity (multi-node deployments).
    pub fn with_node_id(mut self, node_id: u16) -> ShellConfig {
        self.node_id = node_id;
        self
    }

    /// Size the batched-reconfiguration control plane: `ring_slots`
    /// completion-ring entries and at most `max_batch` frame runs per
    /// submission. A ring smaller than the batch deadlocks by construction
    /// (the engine stalls on writeback while software waits on the
    /// doorbell) — `coyote-lint` refuses such a shell as the wait-for
    /// cycle WF001.
    pub fn with_reconfig_ring(mut self, ring_slots: usize, max_batch: usize) -> ShellConfig {
        self.reconfig_ring_slots = ring_slots;
        self.max_reconfig_batch = max_batch;
        self
    }

    /// Declare how many reconfiguration batches may share the completion
    /// ring concurrently (fleet deployments driving one control plane).
    /// The ring must then hold `max_batch * concurrency` completions.
    pub fn with_reconfig_concurrency(mut self, concurrency: usize) -> ShellConfig {
        self.max_concurrent_reconfigs = concurrency;
        self
    }

    /// This node's MAC address on the simulated fabric.
    pub fn mac(&self) -> coyote_net::MacAddr {
        coyote_net::MacAddr::node(self.node_id)
    }

    /// This node's IPv4 address.
    pub fn ip(&self) -> [u8; 4] {
        [10, 0, (self.node_id >> 8) as u8, self.node_id as u8]
    }

    /// Validate.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !(1..=10).contains(&self.n_vfpgas) {
            return Err(ConfigError::BadVfpgaCount(self.n_vfpgas));
        }
        if self.services.sniffer && !self.services.networking {
            return Err(ConfigError::SnifferWithoutNetwork);
        }
        if self.n_host_streams == 0 || self.n_host_streams > 16 {
            return Err(ConfigError::BadStreamCount(self.n_host_streams));
        }
        if self.n_card_streams > 16 {
            return Err(ConfigError::BadCardStreamCount(self.n_card_streams));
        }
        let max_ch = coyote_sim::params::HBM_CHANNELS;
        if self.services.memory_channels > max_ch {
            return Err(ConfigError::TooManyChannels(self.services.memory_channels));
        }
        for (tlb, cfg) in [("stlb", &self.mmu.stlb), ("ltlb", &self.mmu.ltlb)] {
            if !cfg.sets.is_power_of_two() || cfg.ways == 0 {
                return Err(ConfigError::BadTlbGeometry {
                    tlb,
                    sets: cfg.sets,
                    ways: cfg.ways,
                });
            }
        }
        let (stlb, ltlb) = (self.mmu.stlb.page.bytes(), self.mmu.ltlb.page.bytes());
        if stlb >= ltlb {
            return Err(ConfigError::InvertedTlbPages { stlb, ltlb });
        }
        Ok(())
    }

    /// Floorplan profile implied by the service set.
    pub fn profile(&self) -> ShellProfile {
        if self.services.networking {
            ShellProfile::HostMemoryNetwork
        } else if self.services.memory_channels > 0 {
            ShellProfile::HostMemory
        } else {
            ShellProfile::HostOnly
        }
    }

    /// Service IP blocks for the build flows.
    pub fn service_blocks(&self) -> Vec<IpBlock> {
        let mut blocks = vec![IpBlock::new(Ip::HostIf)];
        if self.services.memory_channels > 0 {
            blocks.push(IpBlock::new(Ip::MemoryCtrl {
                channels: self.services.memory_channels as u16,
            }));
            blocks.push(IpBlock::new(Ip::Mmu {
                sram_bits: self.mmu.sram_bits(),
            }));
        }
        if self.services.networking {
            blocks.push(IpBlock::new(Ip::Cmac));
            blocks.push(IpBlock::new(Ip::RdmaStack));
        }
        if self.services.sniffer {
            blocks.push(IpBlock::new(Ip::Sniffer));
        }
        blocks
    }

    /// A stable digest of the configuration (identifies shell bitstreams).
    pub fn digest(&self) -> u64 {
        // Not `coyote_sim::fnv`: its own offset, whole-word folds, and the
        // value names every shell bitstream.
        let mut h: u64 = 0x8396_5525_27F4_E6E5;
        let mut absorb = |v: u64| {
            h ^= v;
            h = h.wrapping_mul(0x1000_0000_01b3);
        };
        absorb(self.device.id() as u64);
        absorb(self.n_vfpgas as u64);
        absorb(self.services.memory_channels as u64);
        absorb(self.services.networking as u64);
        absorb(self.services.sniffer as u64);
        absorb(self.mmu.sram_bits());
        absorb(self.mmu.ltlb.page.bytes());
        absorb(self.n_host_streams as u64);
        absorb(self.n_card_streams as u64);
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coyote_mmu::MmuConfig;

    #[test]
    fn presets_validate() {
        ShellConfig::host_only(1).validate().unwrap();
        ShellConfig::host_memory(4, 16).validate().unwrap();
        ShellConfig::host_memory_network(8, 32).validate().unwrap();
    }

    #[test]
    fn profiles_derive_from_services() {
        assert_eq!(ShellConfig::host_only(1).profile(), ShellProfile::HostOnly);
        assert_eq!(
            ShellConfig::host_memory(1, 8).profile(),
            ShellProfile::HostMemory
        );
        assert_eq!(
            ShellConfig::host_memory_network(1, 8).profile(),
            ShellProfile::HostMemoryNetwork
        );
    }

    #[test]
    fn invalid_configs_rejected() {
        assert_eq!(
            ShellConfig::host_only(0).validate(),
            Err(ConfigError::BadVfpgaCount(0))
        );
        assert_eq!(
            ShellConfig::host_only(11).validate(),
            Err(ConfigError::BadVfpgaCount(11))
        );
        let mut cfg = ShellConfig::host_only(1);
        cfg.services.sniffer = true;
        assert_eq!(cfg.validate(), Err(ConfigError::SnifferWithoutNetwork));
        let mut cfg = ShellConfig::host_only(1);
        cfg.n_host_streams = 0;
        assert_eq!(cfg.validate(), Err(ConfigError::BadStreamCount(0)));
        let mut cfg = ShellConfig::host_memory(1, 16);
        cfg.n_card_streams = 17;
        assert_eq!(cfg.validate(), Err(ConfigError::BadCardStreamCount(17)));
        let mut cfg = ShellConfig::host_memory(1, 64);
        cfg.services.memory_channels = 64;
        assert_eq!(cfg.validate(), Err(ConfigError::TooManyChannels(64)));
        let mut cfg = ShellConfig::host_only(1);
        cfg.mmu.stlb.sets = 100;
        assert_eq!(
            cfg.validate(),
            Err(ConfigError::BadTlbGeometry {
                tlb: "stlb",
                sets: 100,
                ways: 4
            })
        );
        let mut cfg = ShellConfig::host_only(1);
        cfg.mmu.ltlb.ways = 0;
        assert_eq!(
            cfg.validate(),
            Err(ConfigError::BadTlbGeometry {
                tlb: "ltlb",
                sets: 32,
                ways: 0
            })
        );
        let mut cfg = ShellConfig::host_only(1);
        cfg.mmu.stlb.page = coyote_mem::PageSize::Huge1G;
        assert_eq!(
            cfg.validate(),
            Err(ConfigError::InvertedTlbPages {
                stlb: 1 << 30,
                ltlb: 2 << 20
            })
        );
    }

    #[test]
    fn service_blocks_match_selection() {
        let blocks = ShellConfig::host_memory_network(2, 16).service_blocks();
        let names: Vec<String> = blocks.iter().map(IpBlock::name).collect();
        assert!(names.contains(&"host_if".to_string()));
        assert!(names.contains(&"mem_ctrl_x16".to_string()));
        assert!(names.contains(&"rdma_stack".to_string()));
        assert!(!names.contains(&"sniffer".to_string()));

        let with_sniffer = ShellConfig::host_memory_network(2, 16)
            .with_sniffer(SnifferConfig::default())
            .service_blocks();
        assert!(with_sniffer.iter().any(|b| b.name() == "sniffer"));
    }

    #[test]
    fn digest_distinguishes_mmu_configs() {
        // Scenario #1 of §9.3: same services, different page size.
        let a = ShellConfig::host_only(1).with_mmu(MmuConfig::default_2m());
        let b = ShellConfig::host_only(1).with_mmu(MmuConfig::huge_1g());
        assert_ne!(a.digest(), b.digest());
    }
}
