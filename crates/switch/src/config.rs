//! Switch configuration: classification, buffers, PFC, watchdog.

use rocescale_monitor::MetricsHub;
use rocescale_packet::Priority;
use rocescale_sim::SimTime;

/// How the switch classifies packets into priority groups.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClassifyMode {
    /// VLAN-based PFC (Figure 3(a)): priority from the 802.1Q PCP bits.
    /// Untagged packets land in priority 0 — and server-facing ports must
    /// be in trunk mode for tagged traffic to work at all, which is what
    /// breaks PXE boot (§3).
    Vlan,
    /// DSCP-based PFC (Figure 3(b)): priority from the IP DSCP field, the
    /// paper's identity map ("we simply map DSCP value i to PFC priority
    /// i") on its low three bits; non-IP packets land in priority 0. No
    /// VLAN tag needed; packets survive L3 routing across subnets.
    Dscp,
}

/// What a port connects to; drives watchdog scope, trunk semantics, and
/// the flood-copy drop rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PortRole {
    /// Connects to a server NIC.
    #[default]
    Server,
    /// Connects to another switch (router port). Flooded copies that land
    /// on a router port are dropped when they reach the head of the
    /// egress queue — their destination MAC matches no next hop (the §4.2
    /// example's "drop … once they are at the head of the queue since the
    /// destination MAC does not match").
    Fabric,
}

/// Buffer sizing and PFC thresholds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BufferConfig {
    /// Total packet buffer (the paper's ToR/Leaf ASICs: 9 MB or 12 MB).
    pub total_bytes: u64,
    /// Per-(port, lossless-PG) headroom reservation, bytes. Sized by
    /// [`BufferConfig::headroom_for`] from cable length and MTU.
    pub headroom_per_port_pg: u64,
    /// If set, dynamic buffer sharing: XOFF threshold =
    /// `alpha × unallocated shared buffer` (the §6.2 α parameter:
    /// 1/16 good, 1/64 caused the incident). If `None`, the static
    /// `xoff_static` threshold applies.
    pub alpha: Option<f64>,
    /// Static XOFF threshold per (port, PG), bytes (used when `alpha` is
    /// `None`).
    pub xoff_static: u64,
    /// Hysteresis: XON fires when the ingress counter falls below
    /// `xoff_threshold - xon_delta` (clamped at ≥ 0).
    pub xon_delta: u64,
}

impl BufferConfig {
    /// The 802.1Qbb worst-case headroom for one (port, PG): two MTUs (one
    /// in flight each way) + round-trip propagation + the peer's response
    /// time, all converted to bytes at line rate.
    pub fn headroom_for(rate_bps: u64, cable_meters: u32, mtu_bytes: u32) -> u64 {
        let rtt_ps = 2 * cable_meters as u64 * rocescale_sim::PROPAGATION_PS_PER_METER;
        // Response time: one max-size frame serialization + PFC frame.
        let resp_ps = rocescale_sim::serialization_ps(mtu_bytes + 64, rate_bps);
        let wire_ps = rtt_ps + resp_ps;
        let wire_bytes = (wire_ps as u128 * rate_bps as u128 / 8 / 1_000_000_000_000) as u64;
        wire_bytes + 2 * mtu_bytes as u64
    }

    /// The paper's shallow-buffer ToR defaults: 12 MB shared buffer,
    /// dynamic sharing at α = 1/16, headroom for 300 m at 40 GbE.
    pub fn tor_defaults() -> BufferConfig {
        BufferConfig {
            total_bytes: 12 << 20,
            headroom_per_port_pg: BufferConfig::headroom_for(40_000_000_000, 300, 1120),
            alpha: Some(1.0 / 16.0),
            xoff_static: 256 * 1024,
            xon_delta: 2 * 1120,
        }
    }
}

/// The switch-side NIC-PFC-storm watchdog (§4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatchdogConfig {
    /// Enabled?
    pub enabled: bool,
    /// How long a server-facing egress port must be continuously paused
    /// with undrainable queued packets before lossless mode is disabled.
    pub disable_after: SimTime,
    /// How long after pause frames stop before lossless mode is
    /// re-enabled (the paper's default: 200 ms).
    pub reenable_after: SimTime,
    /// Poll period of the watchdog scan.
    pub poll_every: SimTime,
}

impl Default for WatchdogConfig {
    fn default() -> WatchdogConfig {
        WatchdogConfig {
            enabled: false,
            disable_after: SimTime::from_millis(10),
            reenable_after: SimTime::from_millis(200),
            poll_every: SimTime::from_millis(1),
        }
    }
}

/// Complete switch configuration.
#[derive(Debug, Clone)]
pub struct SwitchConfig {
    /// Human-readable name for traces and monitoring.
    pub name: String,
    /// Number of ports.
    pub ports: u16,
    /// Role of each port (defaults to `Server` if the vec is short).
    pub port_roles: Vec<PortRole>,
    /// Classification mode.
    pub classify: ClassifyMode,
    /// Which priorities are lossless (PFC-protected). The paper can
    /// afford exactly two on shallow-buffer switches (§2).
    pub lossless: [bool; Priority::COUNT],
    /// Buffer and threshold configuration.
    pub buffer: BufferConfig,
    /// ECN marking (DCQCN CP, [`rocescale_dcqcn::should_mark`]) per
    /// priority: `true` enables marking on the egress queue of that
    /// priority.
    pub ecn: [bool; Priority::COUNT],
    /// DWRR scheduling weight per priority (0 = only served when all
    /// positive-weight queues are empty).
    pub weights: [u32; Priority::COUNT],
    /// The §4.2 deadlock fix: drop lossless packets whose ARP entry is
    /// incomplete (IP→MAC known, MAC→port unknown) instead of flooding.
    pub drop_lossless_on_incomplete_arp: bool,
    /// Switch-side PFC storm watchdog.
    pub watchdog: WatchdogConfig,
    /// Fault injection for §4.1: drop any data packet whose IP ID has
    /// this low byte (the paper's switch was "configured to drop any
    /// packet with the least significant byte of IP ID equals to 0xff").
    pub drop_ip_id_low_byte: Option<u8>,
    /// §8.1 future-work ablation: spray packets over ECMP members
    /// round-robin per packet instead of pinning each five-tuple to one
    /// path. Raises utilization and destroys in-order delivery — the
    /// trade-off the paper leaves open ("How to make these designs work
    /// for RDMA in the lossless network context will be an interesting
    /// challenge").
    pub per_packet_spraying: bool,
    /// Telemetry bus handle. Disabled by default; when enabled the switch
    /// registers its counters under `switch.{name}.…` and feeds the
    /// flight recorder (drops, pauses, watchdog trips).
    pub telemetry: MetricsHub,
}

impl SwitchConfig {
    /// A DSCP-mode switch with the paper's recommended settings.
    pub fn new(name: impl Into<String>, ports: u16) -> SwitchConfig {
        SwitchConfig {
            name: name.into(),
            ports,
            port_roles: Vec::new(),
            classify: ClassifyMode::Dscp,
            lossless: [false, false, false, true, true, false, false, false],
            buffer: BufferConfig::tor_defaults(),
            ecn: [false, false, false, true, true, false, false, false],
            weights: [1; 8],
            drop_lossless_on_incomplete_arp: false,
            watchdog: WatchdogConfig::default(),
            drop_ip_id_low_byte: None,
            per_packet_spraying: false,
            telemetry: MetricsHub::disabled(),
        }
    }

    /// Role of `port`.
    pub fn role(&self, port: u16) -> PortRole {
        self.port_roles
            .get(port as usize)
            .copied()
            .unwrap_or_default()
    }

    /// Is `prio` a lossless class?
    pub fn is_lossless(&self, prio: Priority) -> bool {
        self.lossless[prio.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn headroom_scales_with_distance() {
        let near = BufferConfig::headroom_for(40_000_000_000, 2, 1120);
        let far = BufferConfig::headroom_for(40_000_000_000, 300, 1120);
        assert!(far > near);
        // 300 m at 40G: RTT 3 µs = 15 kB wire + 2 MTU + response; ballpark
        // tens of kB — the reason shallow-buffer switches can afford only
        // two lossless classes (§2).
        assert!(far > 15_000 && far < 40_000, "far = {far}");
    }

    #[test]
    fn defaults_match_paper() {
        let c = SwitchConfig::new("tor0", 32);
        assert_eq!(c.classify, ClassifyMode::Dscp);
        assert_eq!(c.lossless.iter().filter(|l| **l).count(), 2);
        assert_eq!(c.ecn, c.lossless, "ECN marks exactly the lossless classes");
        assert!((c.buffer.alpha.unwrap() - 1.0 / 16.0).abs() < 1e-9);
    }
}
