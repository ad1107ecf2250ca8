//! NewReno-style TCP congestion control as a pure state machine.
//!
//! Sequence numbers are absolute byte offsets (`u64`, wrap-free). The
//! sender regenerates segments from its byte stream, so there is no
//! retransmission queue; message boundaries are carried as a PSH-like
//! flag on the segment that ends each message.

use std::collections::VecDeque;

use rocescale_packet::{TcpFlags, TcpSegment};

/// Maximum segment payload (1460 for standard Ethernet).
const MSS: u32 = 1460;
/// Initial congestion window, bytes (ten segments).
const INIT_CWND: u32 = 10 * MSS;
/// Minimum retransmission timeout, 5 ms (datacenter-tuned; the incast
/// literature the paper cites \[35\] tunes exactly this).
const MIN_RTO_PS: u64 = 5_000_000_000;
/// Maximum retransmission timeout, 200 ms.
const MAX_RTO_PS: u64 = 200_000_000_000;
/// Duplicate-ACK threshold for fast retransmit.
const DUPACK_THRESHOLD: u32 = 3;

/// Sender-side statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SenderStats {
    /// Segments transmitted, including retransmissions.
    pub segments_tx: u64,
    /// Fast retransmits triggered.
    pub fast_retransmits: u64,
    /// RTO expirations.
    pub timeouts: u64,
    /// Bytes acknowledged.
    pub bytes_acked: u64,
}

/// The sending half of a connection.
#[derive(Debug, Clone)]
pub struct TcpSender {
    /// Bytes the application has written (stream length).
    app_limit: u64,
    /// Message-end offsets not yet acknowledged, ascending.
    boundaries: VecDeque<u64>,
    snd_una: u64,
    snd_nxt: u64,
    cwnd: f64,
    ssthresh: f64,
    dupacks: u32,
    /// NewReno fast-recovery: recovery ends when `snd_una` passes this.
    recover: Option<u64>,
    // RTT estimation (RFC 6298).
    srtt_ps: Option<f64>,
    rttvar_ps: f64,
    rto_ps: u64,
    /// Send time of the segment being timed (one-at-a-time Karn timing).
    timing: Option<(u64 /*end_seq*/, u64 /*sent_ps*/)>,
    /// Deadline for the current outstanding data, ps.
    rto_deadline: Option<u64>,
    /// Counters.
    pub stats: SenderStats,
}

impl Default for TcpSender {
    /// New idle sender.
    fn default() -> TcpSender {
        TcpSender {
            app_limit: 0,
            boundaries: VecDeque::new(),
            snd_una: 0,
            snd_nxt: 0,
            cwnd: INIT_CWND as f64,
            ssthresh: f64::MAX,
            dupacks: 0,
            recover: None,
            srtt_ps: None,
            rttvar_ps: 0.0,
            rto_ps: MIN_RTO_PS.max(10_000_000_000),
            timing: None,
            rto_deadline: None,
            stats: SenderStats::default(),
        }
    }
}

impl TcpSender {
    /// Queue `len` application bytes ending a message (PSH at its end).
    pub fn write_message(&mut self, len: u32) {
        self.app_limit += len as u64;
        self.boundaries.push_back(self.app_limit);
    }

    /// Bytes in flight.
    pub fn flight(&self) -> u64 {
        self.snd_nxt - self.snd_una
    }

    /// Application bytes written but not yet acknowledged (how much
    /// stream is left to work on).
    pub fn backlog(&self) -> u64 {
        self.app_limit - self.snd_una
    }

    /// Current congestion window, bytes.
    pub fn cwnd(&self) -> u64 {
        self.cwnd as u64
    }

    /// True if the window and stream allow sending another segment.
    pub fn can_send(&self) -> bool {
        self.snd_nxt < self.app_limit && self.flight() < self.cwnd as u64
    }

    /// All data sent and acknowledged.
    pub fn is_idle(&self) -> bool {
        self.snd_una == self.app_limit
    }

    /// Produce the next new segment, if window and data allow.
    pub fn next_segment(&mut self, now_ps: u64) -> Option<TcpSegment> {
        if !self.can_send() {
            return None;
        }
        let start = self.snd_nxt;
        let seg = self.make_segment(start);
        self.snd_nxt = start + seg.payload as u64;
        self.after_transmit(start, self.snd_nxt, now_ps);
        Some(seg)
    }

    /// Build the segment starting at `start`: ends at the earliest of
    /// MSS, the next message boundary, or the stream end — so a PSH flag
    /// always sits exactly on a boundary.
    fn make_segment(&self, start: u64) -> TcpSegment {
        let mut end = (start + MSS as u64).min(self.app_limit);
        let mut psh = false;
        if let Some(b) = self.boundaries.iter().find(|b| **b > start) {
            if *b <= end {
                end = *b;
                psh = true;
            }
        }
        TcpSegment {
            src_port: 0, // stamped by the host
            dst_port: 0,
            seq: start,
            ack: 0,
            flags: TcpFlags {
                syn: false,
                ack: false,
                fin: false,
                psh,
            },
            payload: (end - start) as u32,
            ece: false,
        }
    }

    fn after_transmit(&mut self, start: u64, end: u64, now_ps: u64) {
        self.stats.segments_tx += 1;
        if self.timing.is_none() {
            self.timing = Some((end, now_ps));
        }
        if self.rto_deadline.is_none() {
            self.rto_deadline = Some(now_ps + self.rto_ps);
        }
        let _ = start;
    }

    /// Process a cumulative ACK (`ack` = next expected byte at receiver).
    /// Returns true if a retransmission should be pumped immediately.
    pub fn on_ack(&mut self, ack: u64, now_ps: u64) -> bool {
        if ack > self.snd_una {
            let acked = ack - self.snd_una;
            self.snd_una = ack;
            self.stats.bytes_acked += acked;
            self.dupacks = 0;
            while self.boundaries.front().is_some_and(|b| *b <= ack) {
                self.boundaries.pop_front();
            }
            // RTT sample (Karn: only for segments never retransmitted —
            // approximated by the one-at-a-time timer).
            if let Some((end, sent)) = self.timing {
                if ack >= end {
                    self.update_rtt((now_ps - sent) as f64);
                    self.timing = None;
                }
            }
            match self.recover {
                Some(r) if ack < r => {
                    // Partial ACK in NewReno: retransmit the next hole,
                    // deflate.
                    self.cwnd = (self.cwnd - acked as f64 + MSS as f64).max(MSS as f64);
                    self.rto_deadline = Some(now_ps + self.rto_ps);
                    return true;
                }
                Some(_) => {
                    // Recovery complete.
                    self.recover = None;
                    self.cwnd = self.ssthresh;
                }
                None => {
                    if self.cwnd < self.ssthresh {
                        self.cwnd += acked.min(MSS as u64) as f64; // slow start
                    } else {
                        self.cwnd += (MSS as f64 * MSS as f64) / self.cwnd;
                    }
                }
            }
            self.rto_deadline = if self.snd_una < self.snd_nxt {
                Some(now_ps + self.rto_ps)
            } else {
                None
            };
            false
        } else if ack == self.snd_una && self.flight() > 0 {
            self.dupacks += 1;
            if self.dupacks == DUPACK_THRESHOLD && self.recover.is_none() {
                // Fast retransmit + enter recovery.
                self.stats.fast_retransmits += 1;
                self.ssthresh = (self.flight() as f64 / 2.0).max(2.0 * MSS as f64);
                self.cwnd = self.ssthresh + 3.0 * MSS as f64;
                self.recover = Some(self.snd_nxt);
                self.timing = None;
                return true;
            }
            if self.recover.is_some() {
                self.cwnd += MSS as f64; // inflate per dup
            }
            false
        } else {
            false
        }
    }

    /// The retransmission segment for the first unacked byte.
    pub fn retransmit_segment(&mut self, now_ps: u64) -> TcpSegment {
        let seg = self.make_segment(self.snd_una);
        self.after_transmit(self.snd_una, self.snd_una + seg.payload as u64, now_ps);
        seg
    }

    /// Check the retransmission timer. Returns true if an RTO fired (the
    /// caller should send [`Self::retransmit_segment`]).
    pub fn check_rto(&mut self, now_ps: u64) -> bool {
        match self.rto_deadline {
            Some(d) if now_ps >= d && self.flight() > 0 => {
                self.stats.timeouts += 1;
                self.ssthresh = (self.flight() as f64 / 2.0).max(2.0 * MSS as f64);
                self.cwnd = MSS as f64;
                // Each partial ACK retransmits the next hole (RFC 6582
                // §3.2): the collapsed cwnd sends nothing new, so a
                // second hole would otherwise wait a doubled RTO.
                self.recover = Some(self.snd_nxt);
                self.dupacks = 0;
                self.timing = None;
                // Exponential backoff.
                self.rto_ps = (self.rto_ps * 2).min(MAX_RTO_PS);
                self.rto_deadline = Some(now_ps + self.rto_ps);
                true
            }
            Some(_) | None => false,
        }
    }

    /// Next RTO deadline, if any data is outstanding.
    pub fn rto_deadline_ps(&self) -> Option<u64> {
        self.rto_deadline
    }

    fn update_rtt(&mut self, sample_ps: f64) {
        match self.srtt_ps {
            None => {
                self.srtt_ps = Some(sample_ps);
                self.rttvar_ps = sample_ps / 2.0;
            }
            Some(srtt) => {
                self.rttvar_ps = 0.75 * self.rttvar_ps + 0.25 * (srtt - sample_ps).abs();
                self.srtt_ps = Some(0.875 * srtt + 0.125 * sample_ps);
            }
        }
        let rto = self.srtt_ps.unwrap() + 4.0 * self.rttvar_ps;
        self.rto_ps = (rto as u64).clamp(MIN_RTO_PS, MAX_RTO_PS);
    }
}

/// Receiver-side statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReceiverStats {
    /// In-order bytes delivered.
    pub bytes_delivered: u64,
    /// Segments that arrived out of order (buffered).
    pub out_of_order: u64,
    /// Exact duplicates discarded.
    pub duplicates: u64,
}

/// The receiving half: cumulative ACK with out-of-order buffering (as a
/// merged interval set) and PSH-boundary message delivery.
#[derive(Debug, Clone, Default)]
pub struct TcpReceiver {
    rcv_nxt: u64,
    /// Buffered out-of-order byte ranges, disjoint, ascending.
    sack: Vec<(u64, u64)>,
    /// Message boundaries seen (PSH segment ends), ascending.
    boundaries: VecDeque<u64>,
    /// Counters.
    pub stats: ReceiverStats,
}

impl TcpReceiver {
    /// New receiver at offset 0.
    pub fn new() -> TcpReceiver {
        TcpReceiver::default()
    }

    /// Next expected byte (the cumulative ACK value to send).
    pub fn ack_value(&self) -> u64 {
        self.rcv_nxt
    }

    /// Process a data segment `[seq, seq+len)`; `psh` marks a message end
    /// at `seq+len`. Returns the number of complete messages newly
    /// delivered in order.
    pub fn on_segment(&mut self, seq: u64, len: u32, psh: bool) -> u32 {
        let end = seq + len as u64;
        if psh && !self.boundaries.contains(&end) {
            // Insert keeping ascending order (retransmits may repeat).
            let pos = self.boundaries.partition_point(|b| *b < end);
            self.boundaries.insert(pos, end);
        }
        if end <= self.rcv_nxt {
            self.stats.duplicates += 1;
        } else if seq <= self.rcv_nxt {
            self.rcv_nxt = end;
            // Absorb any buffered ranges now contiguous.
            while let Some(&(s, e)) = self.sack.first() {
                if s <= self.rcv_nxt {
                    self.rcv_nxt = self.rcv_nxt.max(e);
                    self.sack.remove(0);
                } else {
                    break;
                }
            }
        } else {
            self.stats.out_of_order += 1;
            self.insert_sack(seq, end);
        }
        // Deliver complete messages.
        let mut delivered = 0;
        while self.boundaries.front().is_some_and(|b| *b <= self.rcv_nxt) {
            self.boundaries.pop_front();
            delivered += 1;
        }
        self.stats.bytes_delivered = self.rcv_nxt;
        delivered
    }

    fn insert_sack(&mut self, s: u64, e: u64) {
        self.sack.push((s, e));
        self.sack.sort_unstable();
        let mut merged: Vec<(u64, u64)> = Vec::with_capacity(self.sack.len());
        for &(s, e) in self.sack.iter() {
            match merged.last_mut() {
                Some((_, le)) if s <= *le => *le = (*le).max(e),
                _ => merged.push((s, e)),
            }
        }
        self.sack = merged;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_order_stream_delivers_messages() {
        let mut tx = TcpSender::default();
        let mut rx = TcpReceiver::new();
        tx.write_message(3000); // 1460+1460+80, PSH on the 80
        tx.write_message(100);
        let mut delivered = 0;
        let mut now = 0;
        while let Some(seg) = tx.next_segment(now) {
            delivered += rx.on_segment(seg.seq, seg.payload, seg.flags.psh);
            tx.on_ack(rx.ack_value(), now);
            now += 1000;
        }
        assert_eq!(delivered, 2);
        assert!(tx.is_idle());
        assert_eq!(rx.stats.bytes_delivered, 3100);
    }

    #[test]
    fn segments_never_cross_message_boundaries() {
        let mut tx = TcpSender::default();
        tx.write_message(2000);
        tx.write_message(2000);
        let s1 = tx.next_segment(0).unwrap();
        let s2 = tx.next_segment(0).unwrap();
        let s3 = tx.next_segment(0).unwrap();
        assert_eq!(s1.payload, 1460);
        assert_eq!(s2.payload, 540); // stops at the boundary
        assert!(s2.flags.psh, "boundary segment carries PSH");
        assert_eq!(s3.seq, 2000);
    }

    #[test]
    fn cwnd_limits_flight() {
        let mut tx = TcpSender::default();
        tx.write_message(1 << 20);
        let mut count = 0;
        while tx.next_segment(0).is_some() {
            count += 1;
        }
        assert_eq!(count, 10, "init cwnd = 10 MSS");
        assert!(tx.flight() <= tx.cwnd());
    }

    #[test]
    fn slow_start_doubles_per_rtt() {
        let mut tx = TcpSender::default();
        tx.write_message(10 << 20);
        let c0 = tx.cwnd();
        // Drain one full window; the receiver acks every segment (as our
        // receiver model does), each ack growing cwnd by one MSS.
        let mut sent = Vec::new();
        while let Some(s) = tx.next_segment(0) {
            sent.push(s);
        }
        for s in &sent {
            tx.on_ack(s.seq + s.payload as u64, 100_000_000);
        }
        assert!(tx.cwnd() >= 2 * c0 - 1460, "cwnd {} vs {}", tx.cwnd(), c0);
    }

    #[test]
    fn triple_dupack_fast_retransmit() {
        let mut tx = TcpSender::default();
        let mut rx = TcpReceiver::new();
        tx.write_message(20_000);
        let mut segs = Vec::new();
        while let Some(s) = tx.next_segment(0) {
            segs.push(s);
        }
        // Lose segment 0; deliver 1..=4 → 4 dupacks of 0.
        let mut pump = false;
        for s in &segs[1..5] {
            rx.on_segment(s.seq, s.payload, s.flags.psh);
            pump |= tx.on_ack(rx.ack_value(), 1000);
        }
        assert!(pump, "3rd dupack triggers fast retransmit");
        assert_eq!(tx.stats.fast_retransmits, 1);
        let r = tx.retransmit_segment(2000);
        assert_eq!(r.seq, 0);
        rx.on_segment(r.seq, r.payload, r.flags.psh);
        // Cumulative ack jumps past the buffered range.
        assert_eq!(rx.ack_value(), segs[4].seq + segs[4].payload as u64);
        assert_eq!(rx.stats.out_of_order, 4);
    }

    #[test]
    fn rto_fires_and_backs_off() {
        let mut tx = TcpSender::default();
        tx.write_message(1000);
        let _s = tx.next_segment(0).unwrap();
        assert!(!tx.check_rto(1_000_000)); // 1 µs: too early
        let d = tx.rto_deadline_ps().unwrap();
        assert!(tx.check_rto(d));
        assert_eq!(tx.stats.timeouts, 1);
        assert_eq!(tx.cwnd(), 1460, "RTO collapses cwnd to 1 MSS");
        let d2 = tx.rto_deadline_ps().unwrap();
        assert!(d2 - d >= d, "backoff grows the deadline");
    }

    #[test]
    fn a_timeout_recovers_every_hole_of_its_window_without_another() {
        let mut tx = TcpSender::default();
        let mut rx = TcpReceiver::new();
        tx.write_message(10 * 1460);
        let mut segs = Vec::new();
        while let Some(s) = tx.next_segment(0) {
            segs.push(s);
        }
        // Segments 0 and 5 are lost and too few follow 5 for three
        // duplicate ACKs to have fired before the timeout.
        for (i, s) in segs.iter().enumerate() {
            if i != 0 && i != 5 {
                rx.on_segment(s.seq, s.payload, s.flags.psh);
            }
        }
        let d = tx.rto_deadline_ps().unwrap();
        assert!(tx.check_rto(d));
        let r = tx.retransmit_segment(d);
        rx.on_segment(r.seq, r.payload, r.flags.psh);
        assert_eq!(
            rx.ack_value(),
            segs[5].seq,
            "the ACK stops at the second hole"
        );
        assert!(
            tx.on_ack(rx.ack_value(), d + 1),
            "a partial ACK retransmits the next hole"
        );
        let r = tx.retransmit_segment(d + 1);
        assert_eq!(r.seq, segs[5].seq);
        rx.on_segment(r.seq, r.payload, r.flags.psh);
        assert!(!tx.on_ack(rx.ack_value(), d + 2));
        assert!(tx.is_idle());
        assert_eq!(tx.stats.timeouts, 1);
    }

    #[test]
    fn rtt_estimation_tightens_rto() {
        let mut tx = TcpSender::default();
        tx.write_message(1 << 20);
        let mut now = 0u64;
        let mut rx = TcpReceiver::new();
        for _ in 0..50 {
            let Some(s) = tx.next_segment(now) else {
                break;
            };
            now += 100_000_000; // 100 µs RTT
            rx.on_segment(s.seq, s.payload, s.flags.psh);
            tx.on_ack(rx.ack_value(), now);
        }
        // RTO converges to the floor for a steady 100 µs RTT.
        assert_eq!(tx.rto_ps, MIN_RTO_PS);
    }

    #[test]
    fn receiver_merges_intervals() {
        let mut rx = TcpReceiver::new();
        rx.on_segment(3000, 1000, false);
        rx.on_segment(1000, 1000, false);
        rx.on_segment(2000, 1000, false); // merges 1000..4000
        assert_eq!(rx.ack_value(), 0);
        rx.on_segment(0, 1000, false);
        assert_eq!(rx.ack_value(), 4000);
    }

    #[test]
    fn lossy_stream_eventually_completes() {
        // Deterministic loss of every 7th transmission.
        let mut tx = TcpSender::default();
        let mut rx = TcpReceiver::new();
        tx.write_message(200_000);
        let mut now = 0u64;
        let mut n = 0u64;
        let mut delivered = 0;
        for _ in 0..100_000 {
            let seg = if tx.check_rto(now) {
                Some(tx.retransmit_segment(now))
            } else {
                tx.next_segment(now)
            };
            if let Some(s) = seg {
                n += 1;
                if !n.is_multiple_of(7) {
                    delivered += rx.on_segment(s.seq, s.payload, s.flags.psh);
                    if tx.on_ack(rx.ack_value(), now) {
                        let r = tx.retransmit_segment(now);
                        delivered += rx.on_segment(r.seq, r.payload, r.flags.psh);
                        tx.on_ack(rx.ack_value(), now);
                    }
                }
            }
            now += 50_000; // 50 ns per tick
            if tx.is_idle() {
                break;
            }
        }
        assert!(tx.is_idle(), "stream must complete under loss");
        assert_eq!(delivered, 1);
        assert_eq!(rx.stats.bytes_delivered, 200_000);
    }
}
