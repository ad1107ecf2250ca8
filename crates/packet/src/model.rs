//! The in-memory packet representation moved around by the simulator.
//!
//! Simulated packets carry *parsed* header metadata rather than raw bytes —
//! the event loop never serializes — but every size calculation defers to
//! the real wire encodings in [`crate::wire`], so buffer occupancy, pause
//! thresholds and serialization delays are byte-exact. The paper's RoCEv2
//! frame arithmetic (1024-byte payload → 1086-byte frame, §5.4) is enforced
//! by a unit test below.

use crate::wire::bth::{Aeth, Bth, Reth};
use crate::wire::ethernet::{EthernetHeader, MacAddr};
use crate::wire::ipv4::Ipv4Header;
use crate::wire::pfc::PfcPauseFrame;
use crate::wire::udp::UdpHeader;
use crate::wire::vlan::VlanTag;

/// A PFC priority class, 0–7.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Priority(u8);

impl Priority {
    /// Number of PFC priority classes.
    pub const COUNT: usize = 8;

    /// Construct, clamping to 0–7.
    pub const fn new(p: u8) -> Priority {
        Priority(if p > 7 { 7 } else { p })
    }

    /// The raw class index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// The raw class value.
    pub const fn value(self) -> u8 {
        self.0
    }

    /// Iterate over all eight priorities.
    pub fn all() -> impl Iterator<Item = Priority> {
        (0..8).map(Priority)
    }
}

impl core::fmt::Display for Priority {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "prio{}", self.0)
    }
}

/// How a frame carries its PFC priority (§3) — one choice for the whole
/// fabric: switches classify by it and hosts tag by it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PfcMode {
    /// DSCP-based PFC (Figure 3(b)), the paper's design: untagged frames,
    /// priority in the IP DSCP field ("we simply map DSCP value i to PFC
    /// priority i"); non-IP packets land in priority 0. Layer-3 clean,
    /// access-mode server ports.
    Dscp,
    /// VLAN-based PFC (Figure 3(a)): an 802.1Q tag whose PCP bits carry
    /// the priority ([`Packet::pcp_priority`]); untagged packets land in
    /// priority 0. Server-facing ports must be in trunk mode, which is
    /// what breaks PXE boot (§3).
    Vlan,
}

/// ECN codepoint carried in the IP header.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EcnCodepoint {
    /// Not ECN-capable.
    #[default]
    NotEct,
    /// ECN-capable transport.
    Ect,
    /// Congestion experienced — set by a DCQCN congestion point.
    Ce,
}

/// Ethernet-level metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EthMeta {
    /// Source MAC.
    pub src: MacAddr,
    /// Destination MAC.
    pub dst: MacAddr,
    /// 802.1Q tag, present only under VLAN-based PFC: (PCP, VID).
    pub vlan: Option<(u8, u16)>,
}

/// IPv4-level metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ipv4Meta {
    /// Source address.
    pub src: u32,
    /// Destination address.
    pub dst: u32,
    /// DSCP — carries priority under DSCP-based PFC.
    pub dscp: u8,
    /// ECN codepoint.
    pub ecn: EcnCodepoint,
    /// IP identification; sequential per sender, which makes §4.1's
    /// "drop if low byte == 0xff" filter exactly 1/256.
    pub id: u16,
    /// Time to live.
    pub ttl: u8,
}

/// The five-tuple ECMP hashes on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FiveTuple {
    /// Source IP.
    pub src_ip: u32,
    /// Destination IP.
    pub dst_ip: u32,
    /// IP protocol.
    pub protocol: u8,
    /// Source transport port.
    pub src_port: u16,
    /// Destination transport port.
    pub dst_port: u16,
}

/// Transport-level port metadata for kinds that have it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct L4Meta {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
}

/// Simplified RoCEv2 transport opcode for the simulator.
///
/// First/Middle/Last/Only are collapsed: the segmenter tags each data
/// packet with its position via `is_first`/`is_last` on [`RocePacket`], and
/// [`RocePacket::bth_opcode`] recovers the exact wire opcode, so sizes stay
/// correct.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RoceOpcode {
    /// SEND data packet.
    Send,
    /// RDMA WRITE data packet.
    Write,
    /// RDMA READ request (no payload, carries RETH with requested length).
    ReadRequest,
    /// RDMA READ response data packet.
    ReadResponse,
    /// Positive acknowledgement; `psn` is the highest PSN acknowledged.
    Ack,
    /// Negative acknowledgement (PSN sequence error); `psn` is the PSN the
    /// receiver expected — the NAK(i) of §4.1.
    Nak,
    /// DCQCN Congestion Notification Packet (NP → RP).
    Cnp,
}

impl RoceOpcode {
    /// Does this opcode carry message payload?
    pub fn carries_data(self) -> bool {
        matches!(
            self,
            RoceOpcode::Send | RoceOpcode::Write | RoceOpcode::ReadResponse
        )
    }
}

/// A RoCEv2 packet in the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RocePacket {
    /// Opcode.
    pub opcode: RoceOpcode,
    /// Destination queue pair number.
    pub dest_qp: u32,
    /// Source queue pair number (so the receiver can address replies; real
    /// RC QPs learn this at connection setup).
    pub src_qp: u32,
    /// Packet sequence number (24-bit space).
    pub psn: u32,
    /// Payload bytes carried (0 for control packets). For `ReadRequest`
    /// this is the *requested* length instead.
    pub payload: u32,
    /// First packet of its message.
    pub is_first: bool,
    /// Last packet of its message.
    pub is_last: bool,
    /// Random-per-QP UDP source port (ECMP path selector).
    pub udp_src: u16,
}

impl RocePacket {
    /// The exact BTH opcode this simulator packet corresponds to on the
    /// wire; used for header-size accounting.
    pub fn bth_opcode(&self) -> crate::wire::bth::BthOpcode {
        use crate::wire::bth::BthOpcode as Op;
        match self.opcode {
            RoceOpcode::Send => match (self.is_first, self.is_last) {
                (true, true) => Op::SendOnly,
                (true, false) => Op::SendFirst,
                (false, false) => Op::SendMiddle,
                (false, true) => Op::SendLast,
            },
            RoceOpcode::Write => match (self.is_first, self.is_last) {
                (true, true) => Op::RdmaWriteOnly,
                (true, false) => Op::RdmaWriteFirst,
                (false, false) => Op::RdmaWriteMiddle,
                (false, true) => Op::RdmaWriteLast,
            },
            RoceOpcode::ReadRequest => Op::RdmaReadRequest,
            RoceOpcode::ReadResponse => match (self.is_first, self.is_last) {
                (true, true) => Op::RdmaReadResponseOnly,
                (true, false) => Op::RdmaReadResponseFirst,
                (false, false) => Op::RdmaReadResponseMiddle,
                (false, true) => Op::RdmaReadResponseLast,
            },
            RoceOpcode::Ack | RoceOpcode::Nak => Op::Acknowledge,
            RoceOpcode::Cnp => Op::Cnp,
        }
    }
}

/// A PFC pause frame in the simulator (the parsed form of
/// [`crate::wire::pfc::PfcPauseFrame`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PauseFrame {
    /// Bit *i* set = `durations[i]` applies to priority *i*.
    pub class_enable: u8,
    /// Pause durations in 512-bit-time quanta; zero resumes.
    pub durations: [u16; 8],
}

impl PauseFrame {
    /// Pause a single priority.
    pub fn pause(priority: Priority, quanta: u16) -> PauseFrame {
        let w = PfcPauseFrame::pause_one(priority.value(), quanta);
        PauseFrame {
            class_enable: w.class_enable,
            durations: w.durations,
        }
    }

    /// Resume (XON) a single priority.
    pub fn resume(priority: Priority) -> PauseFrame {
        let w = PfcPauseFrame::resume_one(priority.value());
        PauseFrame {
            class_enable: w.class_enable,
            durations: w.durations,
        }
    }

    /// Iterate `(priority, quanta)` for enabled classes.
    pub fn entries(&self) -> impl Iterator<Item = (Priority, u16)> + '_ {
        (0..8u8)
            .filter(|i| self.class_enable & (1 << i) != 0)
            .map(|i| (Priority::new(i), self.durations[i as usize]))
    }
}

/// TCP flags subset used by the baseline model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TcpFlags {
    /// SYN.
    pub syn: bool,
    /// ACK.
    pub ack: bool,
    /// FIN.
    pub fin: bool,
    /// PSH — used by the simulator to mark message boundaries in the
    /// byte stream.
    pub psh: bool,
}

/// A TCP segment in the simulator. Sequence numbers are absolute `u64`
/// byte offsets (wrap-free), a standard simulator simplification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcpSegment {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// First payload byte offset.
    pub seq: u64,
    /// Cumulative acknowledgement offset.
    pub ack: u64,
    /// Flags.
    pub flags: TcpFlags,
    /// Payload bytes carried.
    pub payload: u32,
    /// ECN echo (receiver -> sender congestion feedback).
    pub ece: bool,
}

/// What a simulated packet is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketKind {
    /// RoCEv2 transport packet.
    Roce(RocePacket),
    /// 802.1Qbb PFC pause frame (a link-local MAC control frame).
    Pfc(PauseFrame),
    /// ARP request/reply (flooded when the MAC is unknown).
    Arp {
        /// True for requests.
        request: bool,
        /// IP being resolved / announced.
        target_ip: u32,
    },
    /// Baseline TCP segment.
    Tcp(TcpSegment),
    /// An untagged raw frame (e.g. the PXE boot traffic of §3), identified
    /// by an application label; `size` bytes on the wire including FCS.
    Raw {
        /// Caller-defined label.
        label: u16,
        /// Total frame size in bytes.
        size: u32,
    },
}

/// A packet in flight in the simulator.
///
/// Construct with [`Packet::new`]: the wire size is computed once from
/// the real header encodings and cached (`wire`), because the switch
/// pipeline consults it several times per hop (admission, queue byte
/// accounting, DWRR deficits, serialization delay). The field is private
/// so no construction path can skip the computation; nothing that exists
/// post-construction mutates a size-affecting field (VLAN presence and
/// the packet body are fixed at creation — forwarding only rewrites
/// MACs, TTL, and ECN bits).
/// `repr(C)` pins the declared field order so the hot header fields —
/// the id (tracing, arena free-list link, digest detail), the cached
/// wire size (admission, byte accounting, DWRR deficits, serialization
/// delay), the creation timestamp (latency accounting), and the IP
/// header whose DSCP/ECN bits the switch pipeline classifies on — share
/// the packet's first cache line in the world's dense arena slab,
/// instead of wherever layout optimization scatters them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(C)]
pub struct Packet {
    /// Unique id for tracing.
    pub id: u64,
    /// Simulation timestamp (picoseconds) when the packet was created by
    /// its original sender; used for end-to-end latency accounting.
    pub created_ps: u64,
    /// Cached [`Packet::compute_wire_size`] of `eth`/`kind`, filled at
    /// construction.
    wire: u32,
    /// IP metadata (absent for pause frames, ARP, raw L2) — carries the
    /// DSCP byte that priority classification reads per hop.
    pub ip: Option<Ipv4Meta>,
    /// Ethernet metadata.
    pub eth: EthMeta,
    /// The packet body.
    pub kind: PacketKind,
}

impl Packet {
    /// Construct a packet, computing and caching its wire size.
    pub fn new(
        id: u64,
        eth: EthMeta,
        ip: Option<Ipv4Meta>,
        kind: PacketKind,
        created_ps: u64,
    ) -> Packet {
        let wire = Packet::compute_wire_size(&eth, &kind);
        Packet {
            id,
            eth,
            ip,
            kind,
            created_ps,
            wire,
        }
    }

    /// The total size of this packet on the wire, in bytes, including the
    /// Ethernet header, any VLAN tag, and the FCS — cached at
    /// construction; a property test pins it against
    /// [`Packet::compute_wire_size`].
    #[inline]
    pub fn wire_size(&self) -> u32 {
        self.wire
    }

    /// Recompute the wire size from the real header encodings. The
    /// reference arithmetic behind the cached [`Packet::wire_size`].
    pub fn compute_wire_size(meta: &EthMeta, kind: &PacketKind) -> u32 {
        let eth = EthernetHeader::WIRE_LEN as u32 + EthernetHeader::FCS_LEN as u32;
        let vlan = if meta.vlan.is_some() {
            VlanTag::WIRE_LEN as u32
        } else {
            0
        };
        match kind {
            PacketKind::Roce(r) => {
                let op = r.bth_opcode();
                let mut n = eth
                    + vlan
                    + Ipv4Header::WIRE_LEN as u32
                    + UdpHeader::WIRE_LEN as u32
                    + Bth::WIRE_LEN as u32
                    + 4; // ICRC
                if op.has_reth() {
                    n += Reth::WIRE_LEN as u32;
                }
                if op.has_aeth() {
                    n += Aeth::WIRE_LEN as u32;
                }
                if r.opcode.carries_data() {
                    n += r.payload;
                }
                n.max(64)
            }
            PacketKind::Pfc(_) => (PfcPauseFrame::MIN_FRAME_LEN + EthernetHeader::FCS_LEN) as u32,
            PacketKind::Arp { .. } => 64,
            PacketKind::Tcp(t) => {
                (eth + vlan + Ipv4Header::WIRE_LEN as u32 + 20 + t.payload).max(64)
            }
            PacketKind::Raw { size, .. } => (*size).max(64),
        }
    }

    /// Debug-assert the cached wire size still matches the reference
    /// arithmetic (used by property tests; free in release builds).
    pub fn wire_size_is_fresh(&self) -> bool {
        self.wire == Packet::compute_wire_size(&self.eth, &self.kind)
    }

    /// The ECMP five-tuple, if this packet has one.
    pub fn five_tuple(&self) -> Option<FiveTuple> {
        let ip = self.ip?;
        match &self.kind {
            PacketKind::Roce(r) => Some(FiveTuple {
                src_ip: ip.src,
                dst_ip: ip.dst,
                protocol: crate::wire::ipv4::PROTO_UDP,
                src_port: r.udp_src,
                dst_port: crate::ROCEV2_UDP_PORT,
            }),
            PacketKind::Tcp(t) => Some(FiveTuple {
                src_ip: ip.src,
                dst_ip: ip.dst,
                protocol: crate::wire::ipv4::PROTO_TCP,
                src_port: t.src_port,
                dst_port: t.dst_port,
            }),
            _ => None,
        }
    }

    /// Is this a PFC pause frame? Pause frames are link-local control
    /// traffic: never forwarded, never buffered against a priority group,
    /// and never themselves subject to pausing.
    pub fn is_pause(&self) -> bool {
        matches!(self.kind, PacketKind::Pfc(_))
    }

    /// The packet priority under VLAN-based classification (PCP bits), if
    /// tagged.
    pub fn pcp_priority(&self) -> Option<Priority> {
        self.eth.vlan.map(|(pcp, _)| Priority::new(pcp))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roce_pkt(
        payload: u32,
        vlan: Option<(u8, u16)>,
        opcode: RoceOpcode,
        is_first: bool,
        is_last: bool,
    ) -> Packet {
        Packet::new(
            1,
            EthMeta {
                src: MacAddr::from_id(1),
                dst: MacAddr::from_id(2),
                vlan,
            },
            Some(Ipv4Meta {
                src: 1,
                dst: 2,
                dscp: 26,
                ecn: EcnCodepoint::Ect,
                id: 0,
                ttl: 64,
            }),
            PacketKind::Roce(RocePacket {
                opcode,
                dest_qp: 1,
                src_qp: 2,
                psn: 0,
                payload,
                is_first,
                is_last,
                udp_src: 50000,
            }),
            0,
        )
    }

    fn roce_data(payload: u32, vlan: Option<(u8, u16)>) -> Packet {
        roce_pkt(payload, vlan, RoceOpcode::Send, false, false)
    }

    /// §5.4: "The RDMA frame size is 1086 bytes with 1024 bytes as
    /// payload" — an untagged (DSCP-based PFC) SEND middle packet.
    #[test]
    fn paper_frame_size_1086() {
        assert_eq!(roce_data(1024, None).wire_size(), 1086);
    }

    #[test]
    fn vlan_tag_adds_four_bytes() {
        assert_eq!(roce_data(1024, Some((3, 100))).wire_size(), 1090);
    }

    #[test]
    fn ack_packet_size() {
        let p = roce_pkt(0, None, RoceOpcode::Ack, true, true);
        // 14+20+8+12+4(AETH)+4(ICRC)+4(FCS) = 66
        assert_eq!(p.wire_size(), 66);
    }

    #[test]
    fn small_frames_padded_to_64() {
        let p = roce_pkt(0, None, RoceOpcode::Cnp, false, false);
        assert_eq!(p.wire_size(), 64);
        let pause = Packet::new(
            p.id,
            p.eth,
            None,
            PacketKind::Pfc(PauseFrame::pause(Priority::new(3), 0xffff)),
            p.created_ps,
        );
        assert_eq!(pause.wire_size(), 64);
        assert!(pause.is_pause());
    }

    #[test]
    fn write_first_carries_reth() {
        let p = roce_pkt(1024, None, RoceOpcode::Write, true, false);
        assert_eq!(p.wire_size(), 1086 + 16);
    }

    #[test]
    fn cached_wire_size_matches_reference() {
        for p in [
            roce_data(1024, None),
            roce_data(0, Some((3, 100))),
            roce_pkt(0, None, RoceOpcode::Ack, true, true),
        ] {
            assert!(p.wire_size_is_fresh());
            assert_eq!(p.wire_size(), Packet::compute_wire_size(&p.eth, &p.kind));
        }
    }

    #[test]
    fn five_tuple_stability_per_qp() {
        let p = roce_data(1024, None);
        let t = p.five_tuple().unwrap();
        assert_eq!(t.dst_port, crate::ROCEV2_UDP_PORT);
        assert_eq!(t.src_port, 50000);
        // Same QP -> same tuple -> same ECMP path (paper §2).
        assert_eq!(p.five_tuple(), roce_data(512, None).five_tuple());
    }

    #[test]
    fn pause_entries() {
        let f = PauseFrame::pause(Priority::new(3), 7);
        let e: Vec<_> = f.entries().collect();
        assert_eq!(e, vec![(Priority::new(3), 7)]);
        assert!(PauseFrame::resume(Priority::new(3))
            .entries()
            .all(|(_, q)| q == 0));
    }

    #[test]
    fn priority_clamps() {
        assert_eq!(Priority::new(9).value(), 7);
        assert_eq!(Priority::all().count(), 8);
    }

    #[test]
    fn bth_opcode_positions() {
        use crate::wire::bth::BthOpcode;
        let mut r = RocePacket {
            opcode: RoceOpcode::Send,
            dest_qp: 0,
            src_qp: 0,
            psn: 0,
            payload: 0,
            is_first: true,
            is_last: true,
            udp_src: 0,
        };
        assert_eq!(r.bth_opcode(), BthOpcode::SendOnly);
        r.is_last = false;
        assert_eq!(r.bth_opcode(), BthOpcode::SendFirst);
        r.is_first = false;
        assert_eq!(r.bth_opcode(), BthOpcode::SendMiddle);
        r.is_last = true;
        assert_eq!(r.bth_opcode(), BthOpcode::SendLast);
    }
}
