//! Wire formats and the in-simulator packet model for `rocescale`.
//!
//! This crate has two halves:
//!
//! * **Wire formats** ([`wire`]): byte-exact encoders/decoders for every
//!   header the paper touches — Ethernet, 802.1Q VLAN tags, IPv4 (with the
//!   DSCP and ECN fields that carry packet priority and congestion marks),
//!   UDP, the RoCEv2 Base Transport Header and its ACK/RDMA extensions,
//!   the 802.1Qbb PFC pause frame, and ARP. Figure 3 of the paper is a
//!   diagram of exactly these layouts; the codecs here reproduce it bit
//!   for bit and are exercised by round-trip and property tests.
//!
//! * **Simulation model** ([`model`]): the compact in-memory [`Packet`]
//!   representation the discrete-event simulator moves around. The model
//!   carries parsed header metadata (MACs, IPs, DSCP, ECN, BTH fields …)
//!   rather than raw bytes, but its [`Packet::wire_size`] is computed from
//!   the real encodings so that serialization delays, buffer occupancy and
//!   the paper's 1086-byte frame arithmetic are exact.
//!
//! The crate is `#![forbid(unsafe_code)]`, allocation-light, and has no
//! knowledge of simulated time: timestamps that appear in a few payload
//! types are plain `u64` picosecond values owned by the caller.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod model;
pub mod wire;

pub use model::{
    EcnCodepoint, EthMeta, FiveTuple, Ipv4Meta, L4Meta, Packet, PacketKind, PauseFrame, PfcMode,
    Priority, RoceOpcode, RocePacket, TcpFlags, TcpSegment,
};
pub use wire::{
    arp::{ArpOp, ArpPacket},
    bth::{Aeth, AethCode, Bth, BthOpcode, Reth},
    ethernet::{EtherType, EthernetHeader, MacAddr},
    ipv4::Ipv4Header,
    pfc::PfcPauseFrame,
    udp::UdpHeader,
    vlan::VlanTag,
};

/// The UDP destination port reserved for RoCEv2 (§2 of the paper: "The
/// destination UDP port is always set to 4791, while the source UDP port is
/// randomly chosen for each queue pair").
pub const ROCEV2_UDP_PORT: u16 = 4791;

/// Default payload bytes carried per RoCEv2 data packet; the resulting
/// untagged frame is the paper's 1086 bytes (§5.4).
pub const ROCE_PAYLOAD_MTU: u32 = 1024;

/// Errors produced by the wire-format decoders.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer is shorter than the fixed part of the header.
    Truncated {
        /// Header family that failed to decode.
        what: &'static str,
        /// Bytes required.
        need: usize,
        /// Bytes available.
        have: usize,
    },
    /// A field has a value the decoder cannot interpret.
    BadField {
        /// Header family that failed to decode.
        what: &'static str,
        /// Field name.
        field: &'static str,
        /// Observed raw value.
        value: u64,
    },
}

impl core::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            DecodeError::Truncated { what, need, have } => {
                write!(f, "{what}: truncated (need {need} bytes, have {have})")
            }
            DecodeError::BadField { what, field, value } => {
                write!(f, "{what}: bad field {field} = {value:#x}")
            }
        }
    }
}

impl std::error::Error for DecodeError {}
