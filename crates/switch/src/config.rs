//! Switch configuration: classification, buffers, PFC, watchdog.

use rocescale_monitor::MetricsHub;
use rocescale_packet::{PfcMode, Priority};
use rocescale_sim::SimTime;

/// The paper's two RDMA classes (§2): the only priorities a
/// shallow-buffer switch can afford to make lossless, and the ones its
/// DCQCN congestion point ECN-marks.
pub const RDMA_CLASSES: [bool; Priority::COUNT] =
    [false, false, false, true, true, false, false, false];

/// The largest frame a lossless PG's headroom must absorb, bytes — above
/// the 1 086-byte frame of a 1 024-byte RoCEv2 payload (§5.4).
const MAX_FRAME_BYTES: u32 = 1120;

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
    /// [`BufferConfig::headroom_for`] from link rate and cable length.
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
    /// The 802.1Qbb worst-case headroom for one (port, PG): two
    /// `MAX_FRAME_BYTES` frames (one in flight each way) + round-trip
    /// propagation + the peer's response time, all converted to bytes at
    /// line rate.
    pub fn headroom_for(rate_bps: u64, cable_meters: u32) -> u64 {
        let rtt_ps = 2 * cable_meters as u64 * rocescale_sim::PROPAGATION_PS_PER_METER;
        // Response time: one max-size frame serialization + PFC frame.
        let resp_ps = rocescale_sim::serialization_ps(MAX_FRAME_BYTES + 64, rate_bps);
        let wire_ps = rtt_ps + resp_ps;
        let wire_bytes = (wire_ps as u128 * rate_bps as u128 / 8 / 1_000_000_000_000) as u64;
        wire_bytes + 2 * MAX_FRAME_BYTES as u64
    }

    /// The paper's shallow-buffer ToR defaults: 12 MB shared buffer,
    /// dynamic sharing at α = 1/16, headroom for 300 m at 40 GbE.
    pub fn tor_defaults() -> BufferConfig {
        BufferConfig {
            total_bytes: 12 << 20,
            headroom_per_port_pg: BufferConfig::headroom_for(40_000_000_000, 300),
            alpha: Some(1.0 / 16.0),
            xoff_static: 256 * 1024,
            xon_delta: 2 * MAX_FRAME_BYTES as u64,
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
    /// Classification: the priority group is read from the DSCP field or
    /// the PCP bits; in VLAN mode server ports are trunk ports and drop
    /// untagged frames.
    pub classify: PfcMode,
    /// Which priorities are lossless (PFC-protected): [`RDMA_CLASSES`] or
    /// none. ECN marking ([`rocescale_dcqcn::should_mark`]) covers
    /// [`RDMA_CLASSES`] whether or not they are lossless here.
    pub lossless: [bool; Priority::COUNT],
    /// Buffer and threshold configuration.
    pub buffer: BufferConfig,
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
            classify: PfcMode::Dscp,
            lossless: RDMA_CLASSES,
            buffer: BufferConfig::tor_defaults(),
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
        let near = BufferConfig::headroom_for(40_000_000_000, 2);
        let far = BufferConfig::headroom_for(40_000_000_000, 300);
        assert!(far > near);
        // 300 m at 40G: RTT 3 µs = 15 kB wire + 2 MTU + response; ballpark
        // tens of kB — the reason shallow-buffer switches can afford only
        // two lossless classes (§2).
        assert!(far > 15_000 && far < 40_000, "far = {far}");
    }

    #[test]
    fn defaults_match_paper() {
        let c = SwitchConfig::new("tor0", 32);
        assert_eq!(c.classify, PfcMode::Dscp);
        assert_eq!(c.lossless, RDMA_CLASSES);
        assert_eq!(RDMA_CLASSES.iter().filter(|l| **l).count(), 2);
        assert!((c.buffer.alpha.unwrap() - 1.0 / 16.0).abs() < 1e-9);
    }
}
