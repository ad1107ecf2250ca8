//! RoCEv2 / InfiniBand transport headers: the 12-byte Base Transport Header
//! (BTH), the RDMA Extended Transport Header (RETH) used by WRITE and READ,
//! and the ACK Extended Transport Header (AETH) used by ACK/NAK.
//!
//! Only the Reliable Connected (RC) service relevant to the paper is
//! modelled. The AETH syndrome encodes ACK vs NAK — the NAK(i) of §4.1's
//! livelock analysis is `AethCode::NakPsnSequenceError` carried here.

use crate::wire::buf::BufMut;

use crate::DecodeError;

/// RC-service BTH opcodes (IBTA spec table 38, RoCEv2 annex for CNP).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
#[allow(missing_docs)]
pub enum BthOpcode {
    SendFirst = 0x00,
    SendMiddle = 0x01,
    SendLast = 0x02,
    SendOnly = 0x04,
    RdmaWriteFirst = 0x06,
    RdmaWriteMiddle = 0x07,
    RdmaWriteLast = 0x08,
    RdmaWriteOnly = 0x0a,
    RdmaReadRequest = 0x0c,
    RdmaReadResponseFirst = 0x0d,
    RdmaReadResponseMiddle = 0x0e,
    RdmaReadResponseLast = 0x0f,
    RdmaReadResponseOnly = 0x10,
    Acknowledge = 0x11,
    /// RoCEv2 Congestion Notification Packet (DCQCN's NP -> RP signal).
    Cnp = 0x81,
}

impl BthOpcode {
    /// Parse from the raw opcode byte.
    pub fn from_raw(v: u8) -> Result<BthOpcode, DecodeError> {
        use BthOpcode::*;
        Ok(match v {
            0x00 => SendFirst,
            0x01 => SendMiddle,
            0x02 => SendLast,
            0x04 => SendOnly,
            0x06 => RdmaWriteFirst,
            0x07 => RdmaWriteMiddle,
            0x08 => RdmaWriteLast,
            0x0a => RdmaWriteOnly,
            0x0c => RdmaReadRequest,
            0x0d => RdmaReadResponseFirst,
            0x0e => RdmaReadResponseMiddle,
            0x0f => RdmaReadResponseLast,
            0x10 => RdmaReadResponseOnly,
            0x11 => Acknowledge,
            0x81 => Cnp,
            other => {
                return Err(DecodeError::BadField {
                    what: "bth",
                    field: "opcode",
                    value: other as u64,
                })
            }
        })
    }

    /// True for opcodes that carry a RETH (first packet of WRITE, and READ
    /// requests).
    pub fn has_reth(self) -> bool {
        matches!(
            self,
            BthOpcode::RdmaWriteFirst | BthOpcode::RdmaWriteOnly | BthOpcode::RdmaReadRequest
        )
    }

    /// True for opcodes that carry an AETH (ACK and READ responses except
    /// middle).
    pub fn has_aeth(self) -> bool {
        matches!(
            self,
            BthOpcode::Acknowledge
                | BthOpcode::RdmaReadResponseFirst
                | BthOpcode::RdmaReadResponseLast
                | BthOpcode::RdmaReadResponseOnly
        )
    }
}

/// The 12-byte Base Transport Header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bth {
    /// Operation code.
    pub opcode: BthOpcode,
    /// Solicited event flag.
    pub se: bool,
    /// Migration request flag.
    pub migreq: bool,
    /// Pad count (bytes of padding in the payload), 2 bits.
    pub pad: u8,
    /// Partition key.
    pub pkey: u16,
    /// Destination queue pair number, 24 bits.
    pub dest_qp: u32,
    /// ACK-request flag.
    pub ack_req: bool,
    /// Packet sequence number, 24 bits.
    pub psn: u32,
}

impl Bth {
    /// Encoded length in bytes.
    pub const WIRE_LEN: usize = 12;

    /// PSNs are 24-bit and wrap; this is the modulus.
    pub const PSN_MODULUS: u32 = 1 << 24;

    /// Append the header to `buf`.
    pub fn encode<B: BufMut>(&self, buf: &mut B) {
        buf.put_u8(self.opcode as u8);
        // SE(1) | M(1) | Pad(2) | TVer(4), transport version 0.
        buf.put_u8(((self.se as u8) << 7) | ((self.migreq as u8) << 6) | ((self.pad & 0x3) << 4));
        buf.put_u16(self.pkey);
        let qp = self.dest_qp & 0x00ff_ffff;
        buf.put_u32(qp); // top byte reserved = 0
        let psn = self.psn & 0x00ff_ffff;
        buf.put_u32(((self.ack_req as u32) << 31) | psn);
    }

    /// Decode from the front of `buf`, returning the header and bytes
    /// consumed.
    pub fn decode(buf: &[u8]) -> Result<(Self, usize), DecodeError> {
        super::need("bth", buf, Self::WIRE_LEN)?;
        let opcode = BthOpcode::from_raw(buf[0])?;
        let flags = buf[1];
        if flags & 0x0f != 0 {
            return Err(DecodeError::BadField {
                what: "bth",
                field: "tver",
                value: (flags & 0x0f) as u64,
            });
        }
        let w2 = u32::from_be_bytes([buf[8], buf[9], buf[10], buf[11]]);
        Ok((
            Bth {
                opcode,
                se: flags & 0x80 != 0,
                migreq: flags & 0x40 != 0,
                pad: (flags >> 4) & 0x3,
                pkey: u16::from_be_bytes([buf[2], buf[3]]),
                dest_qp: u32::from_be_bytes([0, buf[5], buf[6], buf[7]]),
                ack_req: w2 & 0x8000_0000 != 0,
                psn: w2 & 0x00ff_ffff,
            },
            Self::WIRE_LEN,
        ))
    }
}

/// RDMA Extended Transport Header (16 bytes) — virtual address, remote key,
/// and DMA length for WRITE first/only and READ requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reth {
    /// Remote virtual address.
    pub va: u64,
    /// Remote memory key.
    pub rkey: u32,
    /// DMA length in bytes.
    pub dma_len: u32,
}

impl Reth {
    /// Encoded length in bytes.
    pub const WIRE_LEN: usize = 16;

    /// Append the header to `buf`.
    pub fn encode<B: BufMut>(&self, buf: &mut B) {
        buf.put_u64(self.va);
        buf.put_u32(self.rkey);
        buf.put_u32(self.dma_len);
    }

    /// Decode from the front of `buf`, returning the header and bytes
    /// consumed.
    pub fn decode(buf: &[u8]) -> Result<(Self, usize), DecodeError> {
        super::need("reth", buf, Self::WIRE_LEN)?;
        Ok((
            Reth {
                va: u64::from_be_bytes(buf[0..8].try_into().unwrap()),
                rkey: u32::from_be_bytes(buf[8..12].try_into().unwrap()),
                dma_len: u32::from_be_bytes(buf[12..16].try_into().unwrap()),
            },
            Self::WIRE_LEN,
        ))
    }
}

/// Decoded AETH syndrome meaning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AethCode {
    /// Positive acknowledgement; the payload is the credit count.
    Ack,
    /// Receiver-not-ready NAK; the payload is the RNR timer code.
    RnrNak,
    /// NAK. Payload 0 = PSN sequence error — the NAK(i) of §4.1.
    Nak(u8),
}

/// ACK Extended Transport Header (4 bytes): syndrome + 24-bit message
/// sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Aeth {
    /// ACK/NAK discriminator and detail.
    pub code: AethCode,
    /// Message sequence number, 24 bits.
    pub msn: u32,
}

impl Aeth {
    /// Encoded length in bytes.
    pub const WIRE_LEN: usize = 4;

    /// Append the header to `buf`.
    pub fn encode<B: BufMut>(&self, buf: &mut B) {
        let syndrome: u8 = match self.code {
            // 000xxxxx = ACK (xxxxx = credits, we send 31 = unlimited)
            AethCode::Ack => 0b000_11111,
            // 001xxxxx = RNR NAK
            AethCode::RnrNak => 0b001_00000,
            // 011xxxxx = NAK, xxxxx = code
            AethCode::Nak(c) => 0b011_00000 | (c & 0x1f),
        };
        buf.put_u32(((syndrome as u32) << 24) | (self.msn & 0x00ff_ffff));
    }

    /// Decode from the front of `buf`, returning the header and bytes
    /// consumed.
    pub fn decode(buf: &[u8]) -> Result<(Self, usize), DecodeError> {
        super::need("aeth", buf, Self::WIRE_LEN)?;
        let w = u32::from_be_bytes([buf[0], buf[1], buf[2], buf[3]]);
        let syndrome = (w >> 24) as u8;
        let code = match syndrome >> 5 {
            0b000 => AethCode::Ack,
            0b001 => AethCode::RnrNak,
            0b011 => AethCode::Nak(syndrome & 0x1f),
            other => {
                return Err(DecodeError::BadField {
                    what: "aeth",
                    field: "syndrome",
                    value: other as u64,
                })
            }
        };
        Ok((
            Aeth {
                code,
                msn: w & 0x00ff_ffff,
            },
            Self::WIRE_LEN,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bth_roundtrip() {
        let h = Bth {
            opcode: BthOpcode::SendMiddle,
            se: true,
            migreq: false,
            pad: 2,
            pkey: 0xffff,
            dest_qp: 0x00ab_cdef,
            ack_req: true,
            psn: 0x00fe_dcba,
        };
        let mut buf = Vec::new();
        h.encode(&mut buf);
        assert_eq!(buf.len(), 12);
        let (back, n) = Bth::decode(&buf).unwrap();
        assert_eq!(n, 12);
        assert_eq!(back, h);
    }

    #[test]
    fn bth_masks_24bit_fields() {
        let h = Bth {
            opcode: BthOpcode::Acknowledge,
            se: false,
            migreq: false,
            pad: 0,
            pkey: 0,
            dest_qp: 0xff00_0001,
            ack_req: false,
            psn: 0xff00_0002,
        };
        let mut buf = Vec::new();
        h.encode(&mut buf);
        let (back, _) = Bth::decode(&buf).unwrap();
        assert_eq!(back.dest_qp, 0x0000_0001);
        assert_eq!(back.psn, 0x0000_0002);
    }

    #[test]
    fn reth_roundtrip() {
        let h = Reth {
            va: 0xdead_beef_0000_1000,
            rkey: 42,
            dma_len: 4 << 20,
        };
        let mut buf = Vec::new();
        h.encode(&mut buf);
        let (back, n) = Reth::decode(&buf).unwrap();
        assert_eq!(n, 16);
        assert_eq!(back, h);
    }

    #[test]
    fn aeth_ack_and_nak() {
        for code in [
            AethCode::Ack,
            AethCode::RnrNak,
            AethCode::Nak(0),
            AethCode::Nak(3),
        ] {
            let h = Aeth { code, msn: 77 };
            let mut buf = Vec::new();
            h.encode(&mut buf);
            let (back, n) = Aeth::decode(&buf).unwrap();
            assert_eq!(n, 4);
            assert_eq!(back.msn, 77);
            assert_eq!(back.code, code);
        }
    }

    #[test]
    fn opcode_extension_headers() {
        assert!(BthOpcode::RdmaWriteFirst.has_reth());
        assert!(BthOpcode::RdmaReadRequest.has_reth());
        assert!(!BthOpcode::SendOnly.has_reth());
        assert!(BthOpcode::Acknowledge.has_aeth());
        assert!(!BthOpcode::RdmaReadResponseMiddle.has_aeth());
    }

    #[test]
    fn unknown_opcode_rejected() {
        assert!(BthOpcode::from_raw(0x55).is_err());
    }
}
