//! The RC queue-pair endpoint state machine.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use rocescale_packet::RoceOpcode;

/// Loss recovery scheme (§4.1 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LossRecovery {
    /// Restart the whole message on NAK (the vendor's original scheme;
    /// livelocks under deterministic loss).
    GoBack0,
    /// Resume from the first lost packet (the paper's fix).
    GoBackN,
    /// IRN-style selective repeat (Mittal et al., "Revisiting Network
    /// Support for RDMA"): the responder buffers out-of-order packets and
    /// NAKs each missing PSN exactly once; the requester retransmits only
    /// the NAK'd PSNs, tracked in a retransmit bitmap. RTO still covers
    /// tail loss by re-queuing everything outstanding.
    SelectiveRepeat,
}

/// Work request identifier chosen by the application.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WrId(pub u64);

/// An RDMA verb posted to the send queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verb {
    /// Two-sided send of `len` bytes.
    Send {
        /// Message length in bytes.
        len: u32,
    },
    /// One-sided RDMA write of `len` bytes.
    Write {
        /// Message length in bytes.
        len: u32,
    },
    /// One-sided RDMA read of `len` bytes from the peer.
    Read {
        /// Requested length in bytes.
        len: u32,
    },
}

/// Completion delivered to the application.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Completion {
    /// A SEND or WRITE message was fully acknowledged.
    SendDone {
        /// The posting work request.
        wr: WrId,
    },
    /// A READ response message fully arrived.
    ReadDone {
        /// The posting work request.
        wr: WrId,
        /// Bytes read.
        len: u32,
    },
    /// A peer's SEND message fully arrived (receiver side).
    MessageReceived {
        /// Message length in bytes.
        len: u32,
    },
}

/// A notable transport-level state transition, exposed for telemetry.
///
/// Like [`PacketDesc`] control output and [`Completion`]s, these are
/// queued sans-IO: the state machine records them and the NIC adapter
/// drains them (forwarding to the metrics hub's flight recorder), so the
/// transport crate stays free of any monitoring dependency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportEvent {
    /// The requester rewound its send pointer (go-back-N / go-back-0).
    Rollback {
        /// What triggered it: `"nak"` or `"rto"`.
        cause: &'static str,
        /// PSN the sender rewound to.
        to_psn: u32,
        /// PSNs between the old and new send pointer — the retransmit
        /// volume this rollback commits to.
        pkts: u32,
    },
}

/// A transport packet, as produced by / consumed from the state machine.
/// The NIC adapter adds addressing (QPNs, IPs, UDP source port) when
/// materializing a wire packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketDesc {
    /// Opcode.
    pub opcode: RoceOpcode,
    /// Packet sequence number (32-bit simulator space; see crate docs).
    pub psn: u32,
    /// Payload bytes (requested length for `ReadRequest`).
    pub payload: u32,
    /// First packet of its message.
    pub is_first: bool,
    /// Last packet of its message.
    pub is_last: bool,
    /// Requester asks for an immediate ACK.
    pub ack_req: bool,
}

/// Queue pair configuration, shared by both endpoints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QpConfig {
    /// Payload bytes per data packet (the paper uses 1024).
    pub mtu_payload: u32,
    /// Loss recovery scheme.
    pub recovery: LossRecovery,
    /// The responder coalesces ACKs: one per this many in-order data
    /// packets (an ACK is always sent for a message's last packet).
    pub ack_interval: u32,
    /// Retransmission timeout: if packets are outstanding and no
    /// cumulative-ACK progress happens for this long, rewind and resend.
    /// Covers tail loss the NAK mechanism cannot see.
    pub rto_ps: u64,
    /// Send-window cap: at most this many PSNs outstanding
    /// (sent-but-unacknowledged). Real RNICs bound this by their
    /// retransmission state; `u32::MAX` disables the cap.
    pub max_outstanding: u32,
}

impl Default for QpConfig {
    fn default() -> QpConfig {
        QpConfig {
            mtu_payload: 1024,
            recovery: LossRecovery::GoBackN,
            ack_interval: 4,
            rto_ps: 500_000_000, // 500 µs ≈ a few fabric RTTs
            max_outstanding: u32::MAX,
        }
    }
}

/// In-flight PSNs whose send time is tracked for RTT sampling (more
/// outstanding packets than this simply go unsampled).
const RTT_TRACK_CAP: usize = 64;
/// Measured RTT samples buffered until the NIC drains them.
const RTT_OUT_CAP: usize = 16;

/// What a queued transmit message is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TxKind {
    Send,
    Write,
    ReadRequest,
    ReadResponse,
}

#[derive(Debug, Clone, Copy)]
struct TxMsg {
    kind: TxKind,
    wr: Option<WrId>,
    len: u32,
    base_psn: u32,
    npkts: u32,
}

/// Counters exposed for monitoring and experiment assertions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QpStats {
    /// Data packets handed to the NIC (including retransmissions).
    pub data_pkts_tx: u64,
    /// Data payload bytes handed to the NIC (including retransmissions).
    pub data_bytes_tx: u64,
    /// In-order data packets accepted by the responder.
    pub data_pkts_rx: u64,
    /// Application payload bytes of *completed* messages delivered in
    /// order (goodput numerator).
    pub goodput_bytes: u64,
    /// Out-of-sequence packets discarded.
    pub out_of_seq_rx: u64,
    /// Duplicate packets discarded.
    pub duplicate_rx: u64,
    /// NAKs sent by the responder half.
    pub naks_tx: u64,
    /// NAKs received by the requester half.
    pub naks_rx: u64,
    /// ACKs sent.
    pub acks_tx: u64,
    /// Times the requester rewound due to RTO.
    pub rto_rewinds: u64,
    /// Messages fully acknowledged (sender side).
    pub msgs_completed: u64,
    /// Data packets transmitted more than once (subset of
    /// `data_pkts_tx`) — the waste a recovery scheme commits to.
    pub retx_pkts: u64,
    /// Payload bytes of those retransmissions (subset of
    /// `data_bytes_tx`).
    pub retx_bytes: u64,
}

/// One end of an RC queue pair: requester + responder halves.
#[derive(Debug, Clone)]
pub struct QpEndpoint {
    cfg: QpConfig,

    // ---- transmit (requester + READ-response) side ----
    msgs: VecDeque<TxMsg>,
    /// Next PSN to assign to a newly queued message.
    psn_alloc: u32,
    /// Next PSN to transmit (rewinds on NAK/RTO).
    snd_nxt: u32,
    /// Lowest unacknowledged PSN.
    snd_una: u32,
    /// Time of the last cumulative-ACK progress (or last rewind).
    last_progress_ps: u64,
    /// READ work requests awaiting their response message, FIFO.
    pending_reads: VecDeque<(WrId, u32)>,
    /// One past the highest PSN ever handed to the wire — transmissions
    /// below it are retransmissions.
    snd_max: u32,
    /// Selective repeat: NAK'd PSNs awaiting retransmission, in NAK
    /// order…
    retx_queue: VecDeque<u32>,
    /// …and the same PSNs as a membership bitmap, so a PSN is queued at
    /// most once however many signals implicate it.
    retx_bitmap: BTreeSet<u32>,
    /// Send times of in-flight PSNs awaiting an RTT sample. Karn's rule:
    /// a retransmitted PSN is evicted (its ACK would be ambiguous).
    rtt_track: VecDeque<(u32, u64)>,
    /// Measured RTT samples awaiting pickup via [`take_rtt_sample`]
    /// (QpEndpoint::take_rtt_sample), bounded.
    rtt_out: VecDeque<u64>,

    // ---- receive (responder) side ----
    /// Next expected PSN from the peer.
    rcv_nxt: u32,
    /// Whether a NAK may be sent for the current gap.
    nak_armed: bool,
    /// Selective repeat: out-of-order packets buffered until the gap
    /// fills (its key set is the receive-side bitmap).
    rx_buf: BTreeMap<u32, PacketDesc>,
    /// Selective repeat: missing PSNs already NAK'd (each is NAK'd
    /// exactly once; RTO covers a lost NAK), pruned as `rcv_nxt`
    /// advances.
    sr_naked: BTreeSet<u32>,
    /// Selective repeat: one past the highest PSN the gap scan has
    /// examined. Every PSN in `rcv_nxt..sr_scanned` is already in
    /// `rx_buf` or `sr_naked`, so an arrival only has to scan above it —
    /// without this a hole stuck at `rcv_nxt` makes every later arrival
    /// re-walk the whole window (quadratic).
    sr_scanned: u32,
    /// Test oracle: rescan from `rcv_nxt` on every arrival, as the
    /// receiver did before `sr_scanned` existed.
    #[cfg(test)]
    sr_naive_rescan: bool,
    /// In-order data packets since the last ACK.
    pkts_since_ack: u32,
    /// PSN of the first packet of the message currently being reassembled
    /// (go-back-0 restarts here).
    cur_msg_base: u32,
    /// Payload bytes reassembled so far of the current incoming message.
    cur_msg_bytes: u64,
    /// Kind of the current incoming message (data vs read response).
    cur_msg_is_read_resp: bool,

    // ---- outputs ----
    ctrl_out: VecDeque<PacketDesc>,
    completions: Vec<Completion>,
    events_out: VecDeque<TransportEvent>,

    /// Counters.
    pub stats: QpStats,
}

impl QpEndpoint {
    /// A fresh endpoint. Both ends of a QP must share the same `cfg`.
    pub fn new(cfg: QpConfig) -> QpEndpoint {
        QpEndpoint {
            cfg,
            msgs: VecDeque::new(),
            psn_alloc: 0,
            snd_nxt: 0,
            snd_una: 0,
            last_progress_ps: 0,
            pending_reads: VecDeque::new(),
            snd_max: 0,
            retx_queue: VecDeque::new(),
            retx_bitmap: BTreeSet::new(),
            rtt_track: VecDeque::new(),
            rtt_out: VecDeque::new(),
            rcv_nxt: 0,
            nak_armed: true,
            rx_buf: BTreeMap::new(),
            sr_naked: BTreeSet::new(),
            sr_scanned: 0,
            #[cfg(test)]
            sr_naive_rescan: false,
            pkts_since_ack: 0,
            cur_msg_base: 0,
            cur_msg_bytes: 0,
            cur_msg_is_read_resp: false,
            ctrl_out: VecDeque::new(),
            completions: Vec::new(),
            events_out: VecDeque::new(),
            stats: QpStats::default(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &QpConfig {
        &self.cfg
    }

    fn pkts_for(&self, len: u32) -> u32 {
        len.div_ceil(self.cfg.mtu_payload).max(1)
    }

    /// Post a work request to the send queue.
    pub fn post(&mut self, verb: Verb, wr: WrId) {
        let (kind, len, npkts) = match verb {
            Verb::Send { len } => (TxKind::Send, len, self.pkts_for(len)),
            Verb::Write { len } => (TxKind::Write, len, self.pkts_for(len)),
            Verb::Read { len } => (TxKind::ReadRequest, len, 1),
        };
        if kind == TxKind::ReadRequest {
            self.pending_reads.push_back((wr, len));
        }
        self.msgs.push_back(TxMsg {
            kind,
            wr: Some(wr),
            len,
            base_psn: self.psn_alloc,
            npkts,
        });
        self.psn_alloc += npkts;
    }

    /// True if the data path has a packet ready to transmit: a pending
    /// selective-repeat retransmission, or fresh data the send window
    /// allows.
    pub fn has_data_tx(&self) -> bool {
        !self.retx_queue.is_empty() || self.has_fresh_tx()
    }

    fn has_fresh_tx(&self) -> bool {
        self.snd_nxt < self.psn_alloc
            && self.snd_nxt.wrapping_sub(self.snd_una) < self.cfg.max_outstanding
    }

    /// Materialize the wire packet for `psn` from its (un-completed)
    /// message.
    fn desc_for_psn(&self, psn: u32) -> PacketDesc {
        let msg = *self
            .msgs
            .iter()
            .find(|m| psn >= m.base_psn && psn < m.base_psn + m.npkts)
            .expect("psn within an un-completed message");
        let off = psn - msg.base_psn;
        let is_first = off == 0;
        let is_last = off == msg.npkts - 1;
        let payload = match msg.kind {
            TxKind::ReadRequest => msg.len,
            _ => {
                let sent = off * self.cfg.mtu_payload;
                (msg.len - sent).min(self.cfg.mtu_payload)
            }
        };
        let opcode = match msg.kind {
            TxKind::Send => RoceOpcode::Send,
            TxKind::Write => RoceOpcode::Write,
            TxKind::ReadRequest => RoceOpcode::ReadRequest,
            TxKind::ReadResponse => RoceOpcode::ReadResponse,
        };
        PacketDesc {
            opcode,
            psn,
            payload,
            is_first,
            is_last,
            ack_req: is_last,
        }
    }

    /// Transmit-side accounting shared by fresh sends and
    /// retransmissions: byte/packet counters, the retransmission subset,
    /// and the RTT sample book-keeping.
    fn count_data_tx(&mut self, desc: &PacketDesc, now_ps: u64) {
        self.stats.data_pkts_tx += 1;
        let data = desc.opcode.carries_data();
        if data {
            self.stats.data_bytes_tx += desc.payload as u64;
        }
        if desc.psn < self.snd_max {
            self.stats.retx_pkts += 1;
            if data {
                self.stats.retx_bytes += desc.payload as u64;
            }
            // Karn's rule: an ACK covering a retransmitted PSN cannot be
            // attributed to either copy — drop its pending RTT sample.
            if let Some(i) = self.rtt_track.iter().position(|&(p, _)| p == desc.psn) {
                self.rtt_track.remove(i);
            }
        } else {
            self.snd_max = desc.psn + 1;
            if self.rtt_track.len() < RTT_TRACK_CAP {
                self.rtt_track.push_back((desc.psn, now_ps));
            }
        }
    }

    /// Produce the next data packet: a queued selective-repeat
    /// retransmission if one is pending, else fresh data (advancing
    /// `snd_nxt`). `now_ps` seeds the RTO clock on the first outstanding
    /// packet.
    pub fn next_data_tx(&mut self, now_ps: u64) -> Option<PacketDesc> {
        while let Some(psn) = self.retx_queue.pop_front() {
            self.retx_bitmap.remove(&psn);
            if psn < self.snd_una {
                continue; // acknowledged while queued
            }
            let mut desc = self.desc_for_psn(psn);
            // A retransmission plugs a known hole; ask for the ACK that
            // confirms it immediately.
            desc.ack_req = true;
            self.count_data_tx(&desc, now_ps);
            return Some(desc);
        }
        if !self.has_fresh_tx() {
            return None;
        }
        let desc = self.desc_for_psn(self.snd_nxt);
        if self.snd_una == self.snd_nxt {
            // First outstanding packet: start the RTO clock fresh.
            self.last_progress_ps = now_ps;
        }
        self.snd_nxt += 1;
        self.count_data_tx(&desc, now_ps);
        Some(desc)
    }

    /// Pop a pending control packet (ACK/NAK) for transmission.
    pub fn pop_ctrl_tx(&mut self) -> Option<PacketDesc> {
        self.ctrl_out.pop_front()
    }

    /// Drain completions accumulated since the last call.
    pub fn take_completions(&mut self) -> Vec<Completion> {
        std::mem::take(&mut self.completions)
    }

    /// Pop a telemetry event recorded since the last drain (rollbacks).
    pub fn pop_event(&mut self) -> Option<TransportEvent> {
        self.events_out.pop_front()
    }

    /// Feed an incoming transport packet (data or control) from the peer.
    pub fn on_packet(&mut self, desc: &PacketDesc, now_ps: u64) {
        match desc.opcode {
            RoceOpcode::Ack => self.on_ack(desc.psn, now_ps),
            RoceOpcode::Nak => self.on_nak(desc.psn, now_ps),
            RoceOpcode::Cnp => { /* handled by the NIC's DCQCN RP, not here */ }
            _ => self.on_data(desc),
        }
    }

    // ---- requester half ----

    fn on_ack(&mut self, psn: u32, now_ps: u64) {
        // Cumulative: everything through `psn` is acknowledged. Stale ACKs
        // from before a go-back-0 rewind may reference PSNs we have not
        // (re)sent yet — ignore them.
        if psn >= self.snd_nxt {
            return;
        }
        let new_una = psn + 1;
        if new_una <= self.snd_una {
            return;
        }
        self.snd_una = new_una;
        self.last_progress_ps = now_ps;
        // Harvest an RTT sample from the newest packet this ACK covers
        // (untouched by Karn eviction), and retire the older entries.
        let mut newest_sent = None;
        while let Some(&(p, sent)) = self.rtt_track.front() {
            if p >= self.snd_una {
                break;
            }
            newest_sent = Some(sent);
            self.rtt_track.pop_front();
        }
        if let Some(sent) = newest_sent {
            if self.rtt_out.len() < RTT_OUT_CAP {
                self.rtt_out.push_back(now_ps.saturating_sub(sent));
            }
        }
        // Selective repeat: retransmissions the ACK made moot.
        if !self.retx_queue.is_empty() {
            let una = self.snd_una;
            self.retx_queue.retain(|&p| p >= una);
            self.retx_bitmap.retain(|&p| p >= una);
        }
        self.complete_acked_msgs();
    }

    /// Pop a measured round-trip time (send→cumulative-ACK, picoseconds),
    /// for delay-based congestion control. Samples follow Karn's rule:
    /// retransmitted PSNs never produce one.
    pub fn take_rtt_sample(&mut self) -> Option<u64> {
        self.rtt_out.pop_front()
    }

    fn complete_acked_msgs(&mut self) {
        while let Some(m) = self.msgs.front() {
            if self.snd_una < m.base_psn + m.npkts {
                break;
            }
            let m = self.msgs.pop_front().expect("checked front");
            self.stats.msgs_completed += 1;
            match m.kind {
                TxKind::Send | TxKind::Write => {
                    if let Some(wr) = m.wr {
                        self.completions.push(Completion::SendDone { wr });
                    }
                }
                // READ requests complete when the response arrives, READ
                // responses complete nothing on the responder.
                TxKind::ReadRequest | TxKind::ReadResponse => {}
            }
        }
    }

    fn on_nak(&mut self, psn: u32, now_ps: u64) {
        // Stale NAK (references a PSN we have not re-sent after a rewind).
        if psn >= self.snd_nxt {
            return;
        }
        self.stats.naks_rx += 1;
        let target = match self.cfg.recovery {
            // Selective repeat: no rewind — queue exactly this PSN for
            // retransmission (once, however many NAKs implicate it).
            LossRecovery::SelectiveRepeat => {
                if psn >= self.snd_una && self.retx_bitmap.insert(psn) {
                    self.retx_queue.push_back(psn);
                    self.events_out.push_back(TransportEvent::Rollback {
                        cause: "nak",
                        to_psn: psn,
                        pkts: 1,
                    });
                }
                self.last_progress_ps = now_ps;
                return;
            }
            LossRecovery::GoBackN => psn.max(self.snd_una),
            // Go-back-0: restart the message containing `psn` from its
            // first packet. The responder NAKs the message base and has
            // discarded its partial reassembly, so un-acknowledge the
            // whole message too. A NAK for a PSN inside an already
            // completed message is stale — ignore it rather than rewind
            // into acknowledged space.
            LossRecovery::GoBack0 => {
                let Some(base) = self
                    .msgs
                    .iter()
                    .find(|m| psn >= m.base_psn && psn < m.base_psn + m.npkts)
                    .map(|m| m.base_psn)
                else {
                    return;
                };
                self.snd_una = self.snd_una.min(base);
                base
            }
        };
        if target < self.snd_nxt {
            self.events_out.push_back(TransportEvent::Rollback {
                cause: "nak",
                to_psn: target,
                pkts: self.snd_nxt - target,
            });
            self.snd_nxt = target;
        }
        self.last_progress_ps = now_ps;
    }

    /// RTO check; call periodically. Returns true if a rewind happened
    /// (the caller should restart its transmit pump).
    pub fn check_timeout(&mut self, now_ps: u64) -> bool {
        let outstanding = self.snd_una < self.snd_nxt;
        if !outstanding {
            return false;
        }
        if now_ps.saturating_sub(self.last_progress_ps) < self.cfg.rto_ps {
            return false;
        }
        self.stats.rto_rewinds += 1;
        self.last_progress_ps = now_ps;
        let target = match self.cfg.recovery {
            // Selective repeat: no rewind — requeue everything
            // outstanding (tail loss means the NAK/ACK dialogue stalled,
            // possibly because a NAK itself was lost).
            LossRecovery::SelectiveRepeat => {
                for psn in self.snd_una..self.snd_nxt {
                    if self.retx_bitmap.insert(psn) {
                        self.retx_queue.push_back(psn);
                    }
                }
                self.events_out.push_back(TransportEvent::Rollback {
                    cause: "rto",
                    to_psn: self.snd_una,
                    pkts: self.snd_nxt - self.snd_una,
                });
                return true;
            }
            LossRecovery::GoBackN => self.snd_una,
            LossRecovery::GoBack0 => {
                let base = self
                    .msgs
                    .iter()
                    .find(|m| self.snd_una >= m.base_psn && self.snd_una < m.base_psn + m.npkts)
                    .map(|m| m.base_psn)
                    .unwrap_or(self.snd_una);
                self.snd_una = self.snd_una.min(base);
                base
            }
        };
        self.events_out.push_back(TransportEvent::Rollback {
            cause: "rto",
            to_psn: target,
            pkts: self.snd_nxt.saturating_sub(target),
        });
        self.snd_nxt = target;
        true
    }

    /// Earliest time `check_timeout` could fire, if packets are
    /// outstanding.
    pub fn rto_deadline_ps(&self) -> Option<u64> {
        (self.snd_una < self.snd_nxt).then_some(self.last_progress_ps + self.cfg.rto_ps)
    }

    // ---- responder half ----

    fn on_data(&mut self, desc: &PacketDesc) {
        if self.cfg.recovery == LossRecovery::SelectiveRepeat {
            self.on_data_sr(desc);
        } else if desc.psn == self.rcv_nxt {
            self.accept_in_order(desc);
        } else if desc.psn > self.rcv_nxt {
            // Gap: the expected packet was lost. NAK once per gap; re-arm
            // on progress.
            self.stats.out_of_seq_rx += 1;
            if self.nak_armed {
                self.nak_armed = false;
                let nak_psn = match self.cfg.recovery {
                    LossRecovery::GoBackN => self.rcv_nxt,
                    // Go-back-0: request a whole-message restart and
                    // discard partial reassembly, so the retransmitted
                    // packets are consumed as fresh data (this is what
                    // makes the deterministic 1/256 drop filter lethal).
                    LossRecovery::GoBack0 => {
                        self.rcv_nxt = self.cur_msg_base;
                        self.cur_msg_bytes = 0;
                        self.pkts_since_ack = 0;
                        self.cur_msg_base
                    }
                    LossRecovery::SelectiveRepeat => {
                        unreachable!("selective repeat handled by on_data_sr")
                    }
                };
                self.stats.naks_tx += 1;
                self.ctrl_out.push_back(PacketDesc {
                    opcode: RoceOpcode::Nak,
                    psn: nak_psn,
                    payload: 0,
                    is_first: true,
                    is_last: true,
                    ack_req: false,
                });
            }
        } else {
            // Duplicate from a go-back overlap; drop silently (the
            // cumulative ACK of in-order traffic keeps the sender moving).
            self.stats.duplicate_rx += 1;
        }
    }

    /// Selective-repeat responder: buffer out-of-order arrivals and NAK
    /// every missing PSN exactly once; the retransmission that plugs the
    /// gap drains the buffer through the normal in-order path.
    fn on_data_sr(&mut self, desc: &PacketDesc) {
        if desc.psn == self.rcv_nxt {
            self.accept_in_order(desc);
            // The gap closed: consume everything now consecutive.
            while let Some(d) = self.rx_buf.remove(&self.rcv_nxt) {
                self.accept_in_order(&d);
            }
            // NAK-bitmap entries below the new edge are history.
            while let Some(&p) = self.sr_naked.first() {
                if p >= self.rcv_nxt {
                    break;
                }
                self.sr_naked.remove(&p);
            }
        } else if desc.psn > self.rcv_nxt {
            if self.rx_buf.contains_key(&desc.psn) {
                self.stats.duplicate_rx += 1;
                return;
            }
            self.stats.out_of_seq_rx += 1;
            self.rx_buf.insert(desc.psn, *desc);
            // NAK each PSN this arrival proves missing, exactly once. A
            // lost NAK is covered by the sender's RTO, not repetition.
            let from = self.rcv_nxt.max(self.sr_scanned);
            #[cfg(test)]
            let from = if self.sr_naive_rescan {
                self.rcv_nxt
            } else {
                from
            };
            self.sr_scanned = self.sr_scanned.max(desc.psn + 1);
            for psn in from..desc.psn {
                if !self.rx_buf.contains_key(&psn) && self.sr_naked.insert(psn) {
                    self.stats.naks_tx += 1;
                    self.ctrl_out.push_back(PacketDesc {
                        opcode: RoceOpcode::Nak,
                        psn,
                        payload: 0,
                        is_first: true,
                        is_last: true,
                        ack_req: false,
                    });
                }
            }
        } else {
            self.stats.duplicate_rx += 1;
        }
    }

    fn accept_in_order(&mut self, desc: &PacketDesc) {
        self.rcv_nxt += 1;
        self.nak_armed = true;
        self.stats.data_pkts_rx += 1;
        if desc.is_first {
            debug_assert_eq!(
                desc.psn, self.cur_msg_base,
                "a message's first packet arrives exactly at the tracked base"
            );
            self.cur_msg_bytes = 0;
            self.cur_msg_is_read_resp = desc.opcode == RoceOpcode::ReadResponse;
        }
        match desc.opcode {
            RoceOpcode::ReadRequest => {
                // Serve the read: queue a response message on our transmit
                // PSN space.
                self.msgs.push_back(TxMsg {
                    kind: TxKind::ReadResponse,
                    wr: None,
                    len: desc.payload,
                    base_psn: self.psn_alloc,
                    npkts: self.pkts_for(desc.payload),
                });
                self.psn_alloc += self.pkts_for(desc.payload);
            }
            RoceOpcode::Send | RoceOpcode::Write | RoceOpcode::ReadResponse => {
                self.cur_msg_bytes += desc.payload as u64;
                if desc.is_last {
                    self.stats.goodput_bytes += self.cur_msg_bytes;
                    if desc.opcode == RoceOpcode::ReadResponse {
                        if let Some((wr, len)) = self.pending_reads.pop_front() {
                            self.completions.push(Completion::ReadDone { wr, len });
                        }
                    } else if desc.opcode == RoceOpcode::Send {
                        self.completions.push(Completion::MessageReceived {
                            len: self.cur_msg_bytes as u32,
                        });
                    }
                }
            }
            RoceOpcode::Ack | RoceOpcode::Nak | RoceOpcode::Cnp => {
                unreachable!("control handled above")
            }
        }
        // Message boundary: the next message starts at the next expected
        // PSN. Keeping this tracked even before its first packet arrives
        // is what lets go-back-0 NAK the right base when a message's
        // *first* packet is the one lost.
        if desc.is_last {
            self.cur_msg_base = self.rcv_nxt;
        }
        // ACK policy: every `ack_interval` packets, on explicit request,
        // and always at message end.
        self.pkts_since_ack += 1;
        if desc.ack_req || desc.is_last || self.pkts_since_ack >= self.cfg.ack_interval {
            self.emit_ack();
        }
    }

    fn emit_ack(&mut self) {
        self.pkts_since_ack = 0;
        self.stats.acks_tx += 1;
        self.ctrl_out.push_back(PacketDesc {
            opcode: RoceOpcode::Ack,
            psn: self.rcv_nxt - 1,
            payload: 0,
            is_first: true,
            is_last: true,
            ack_req: false,
        });
    }

    /// Goodput numerator: payload bytes of fully received messages.
    pub fn goodput_bytes(&self) -> u64 {
        self.stats.goodput_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MB4: u32 = 4 << 20;

    fn pair(recovery: LossRecovery) -> (QpEndpoint, QpEndpoint) {
        let cfg = QpConfig {
            recovery,
            ..QpConfig::default()
        };
        (QpEndpoint::new(cfg), QpEndpoint::new(cfg))
    }

    /// Run a lossy in-order channel between two endpoints until quiescent
    /// or `max_steps`. `drop_nth` drops every nth *transmitted* data
    /// packet (1-based count across the whole run), mimicking the paper's
    /// deterministic IP-ID filter. Returns transmitted data packet count.
    fn run_channel(a: &mut QpEndpoint, b: &mut QpEndpoint, drop_every: u64, max_steps: u64) -> u64 {
        let mut now = 0u64;
        let mut tx_count = 0u64;
        for _ in 0..max_steps {
            now += 1_000_000; // 1 µs per exchange round
            let mut progressed = false;
            // a -> b : one data packet per round (plus all control).
            if let Some(d) = a.next_data_tx(now) {
                tx_count += 1;
                progressed = true;
                if drop_every == 0 || !tx_count.is_multiple_of(drop_every) {
                    b.on_packet(&d, now);
                }
            }
            while let Some(c) = a.pop_ctrl_tx() {
                b.on_packet(&c, now);
                progressed = true;
            }
            // b -> a : control only in these tests.
            while let Some(c) = b.pop_ctrl_tx() {
                a.on_packet(&c, now);
                progressed = true;
            }
            if let Some(d) = b.next_data_tx(now) {
                a.on_packet(&d, now);
                progressed = true;
            }
            if a.check_timeout(now) || b.check_timeout(now) {
                progressed = true;
            }
            // Idle with nothing outstanding ⇒ quiescent. (Outstanding
            // data with nothing to send is *not* quiescent: selective
            // repeat sits idle until its RTO re-queues a lost tail.)
            if !progressed
                && !a.has_data_tx()
                && !b.has_data_tx()
                && a.rto_deadline_ps().is_none()
                && b.rto_deadline_ps().is_none()
            {
                break;
            }
        }
        tx_count
    }

    #[test]
    fn lossless_send_completes() {
        let (mut a, mut b) = pair(LossRecovery::GoBackN);
        a.post(Verb::Send { len: 10_000 }, WrId(1));
        run_channel(&mut a, &mut b, 0, 100);
        assert_eq!(
            a.take_completions(),
            vec![Completion::SendDone { wr: WrId(1) }]
        );
        let rx = b.take_completions();
        assert_eq!(rx, vec![Completion::MessageReceived { len: 10_000 }]);
        assert_eq!(b.goodput_bytes(), 10_000);
        // 10 packets: 9 full + 1 of 784 bytes.
        assert_eq!(a.stats.data_pkts_tx, 10);
        assert_eq!(b.stats.data_pkts_rx, 10);
        assert_eq!(b.stats.naks_tx, 0);
    }

    #[test]
    fn segmentation_boundaries() {
        let (mut a, _b) = pair(LossRecovery::GoBackN);
        a.post(Verb::Send { len: 2048 }, WrId(1)); // exactly 2 packets
        a.post(Verb::Send { len: 1 }, WrId(2)); // 1 packet
        a.post(Verb::Send { len: 2049 }, WrId(3)); // 3 packets
        let d0 = a.next_data_tx(0).unwrap();
        assert!(d0.is_first && !d0.is_last && d0.payload == 1024);
        let d1 = a.next_data_tx(0).unwrap();
        assert!(!d1.is_first && d1.is_last && d1.payload == 1024 && d1.ack_req);
        let d2 = a.next_data_tx(0).unwrap();
        assert!(d2.is_first && d2.is_last && d2.payload == 1);
        let d3 = a.next_data_tx(0).unwrap();
        assert!(d3.is_first && !d3.is_last);
        let d4 = a.next_data_tx(0).unwrap();
        assert!(!d4.is_first && !d4.is_last);
        let d5 = a.next_data_tx(0).unwrap();
        assert!(d5.is_last && d5.payload == 1);
        assert_eq!(a.next_data_tx(0), None);
        // PSNs are consecutive across messages.
        assert_eq!(
            [d0.psn, d1.psn, d2.psn, d3.psn, d4.psn, d5.psn],
            [0, 1, 2, 3, 4, 5]
        );
    }

    #[test]
    fn single_loss_recovers_with_goback_n() {
        let (mut a, mut b) = pair(LossRecovery::GoBackN);
        a.post(Verb::Send { len: 100 * 1024 }, WrId(1)); // 100 packets
        let tx = run_channel(&mut a, &mut b, 50, 10_000); // drop every 50th
        assert_eq!(b.goodput_bytes(), 100 * 1024);
        assert!(a
            .take_completions()
            .contains(&Completion::SendDone { wr: WrId(1) }));
        assert!(b.stats.naks_tx > 0, "losses must trigger NAKs");
        // Go-back-N wastes some transmissions but far fewer than 2x.
        assert!(tx < 250, "tx = {tx}");
    }

    /// §4.1: the livelock experiment. 4 MB messages, every 256th
    /// transmitted packet dropped. Go-back-0 makes zero progress while the
    /// link stays busy; go-back-N completes.
    #[test]
    fn goback0_livelocks_goback_n_does_not() {
        // Go-back-0: transmit 100k packets, complete nothing.
        let (mut a, mut b) = pair(LossRecovery::GoBack0);
        a.post(Verb::Send { len: MB4 }, WrId(1));
        let tx = run_channel(&mut a, &mut b, 256, 100_000);
        assert!(tx >= 90_000, "link stays busy, tx = {tx}");
        assert_eq!(b.goodput_bytes(), 0, "go-back-0 must make no progress");
        assert_eq!(a.stats.msgs_completed, 0);

        // Go-back-N: same loss pattern, message completes.
        let (mut a, mut b) = pair(LossRecovery::GoBackN);
        a.post(Verb::Send { len: MB4 }, WrId(1));
        let tx = run_channel(&mut a, &mut b, 256, 100_000);
        assert_eq!(b.goodput_bytes(), MB4 as u64);
        // 4096 data packets + modest retransmission overhead.
        assert!(tx < 4096 * 2, "tx = {tx}");
    }

    #[test]
    fn tail_loss_recovered_by_rto() {
        let (mut a, mut b) = pair(LossRecovery::GoBackN);
        a.post(Verb::Send { len: 4096 }, WrId(1)); // 4 packets
                                                   // Drop the 4th (last) packet: no later packet will reveal the gap.
        let mut now = 0u64;
        for i in 0..4 {
            let d = a.next_data_tx(now).unwrap();
            if i != 3 {
                b.on_packet(&d, now);
            }
            now += 1000;
        }
        while let Some(c) = b.pop_ctrl_tx() {
            a.on_packet(&c, now);
        }
        assert!(a.take_completions().is_empty());
        // Nothing happens until RTO fires.
        now += a.config().rto_ps + 1;
        assert!(a.check_timeout(now));
        assert_eq!(a.stats.rto_rewinds, 1);
        // No ACK ever advanced snd_una (coalescing: fewer than
        // `ack_interval` packets arrived), so the rewind goes back to 0;
        // the receiver discards the three duplicates and accepts PSN 3.
        for expect_psn in 0..4 {
            let d = a.next_data_tx(now).unwrap();
            assert_eq!(d.psn, expect_psn);
            b.on_packet(&d, now);
        }
        assert_eq!(b.stats.duplicate_rx, 3);
        while let Some(c) = b.pop_ctrl_tx() {
            a.on_packet(&c, now);
        }
        assert_eq!(
            a.take_completions(),
            vec![Completion::SendDone { wr: WrId(1) }]
        );
        assert_eq!(b.goodput_bytes(), 4096);
    }

    #[test]
    fn read_roundtrip() {
        let (mut a, mut b) = pair(LossRecovery::GoBackN);
        a.post(Verb::Read { len: 8000 }, WrId(9));
        run_channel(&mut a, &mut b, 0, 200);
        let done = a.take_completions();
        assert_eq!(
            done,
            vec![Completion::ReadDone {
                wr: WrId(9),
                len: 8000
            }]
        );
        assert_eq!(a.goodput_bytes(), 8000, "response bytes land at requester");
        // The responder transmitted the 8 response packets.
        assert_eq!(b.stats.data_pkts_tx, 8);
    }

    #[test]
    fn read_with_loss_recovers() {
        let (mut a, mut b) = pair(LossRecovery::GoBackN);
        a.post(Verb::Read { len: 64 * 1024 }, WrId(9));
        run_channel(&mut a, &mut b, 7, 10_000);
        assert_eq!(
            a.take_completions(),
            vec![Completion::ReadDone {
                wr: WrId(9),
                len: 64 * 1024
            }]
        );
    }

    #[test]
    fn pipelined_messages_complete_in_order() {
        let (mut a, mut b) = pair(LossRecovery::GoBackN);
        for i in 0..10 {
            a.post(Verb::Write { len: 5000 }, WrId(i));
        }
        run_channel(&mut a, &mut b, 0, 1000);
        let wrs: Vec<_> = a
            .take_completions()
            .into_iter()
            .map(|c| match c {
                Completion::SendDone { wr } => wr.0,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(wrs, (0..10).collect::<Vec<_>>());
        assert_eq!(b.goodput_bytes(), 50_000);
    }

    #[test]
    fn duplicates_are_counted_not_delivered() {
        let (mut a, mut b) = pair(LossRecovery::GoBackN);
        a.post(Verb::Send { len: 3000 }, WrId(1));
        let d0 = a.next_data_tx(0).unwrap();
        b.on_packet(&d0, 0);
        b.on_packet(&d0, 0); // duplicate
        assert_eq!(b.stats.duplicate_rx, 1);
        assert_eq!(b.stats.data_pkts_rx, 1);
    }

    #[test]
    fn nak_not_spammed_for_one_gap() {
        let (mut a, mut b) = pair(LossRecovery::GoBackN);
        a.post(Verb::Send { len: 20 * 1024 }, WrId(1));
        // Drop packet 0; deliver packets 1..10 — only one NAK for the gap.
        let _lost = a.next_data_tx(0).unwrap();
        for _ in 1..10 {
            let d = a.next_data_tx(0).unwrap();
            b.on_packet(&d, 0);
        }
        assert_eq!(b.stats.naks_tx, 1);
        assert_eq!(b.stats.out_of_seq_rx, 9);
    }

    #[test]
    fn send_window_caps_outstanding() {
        let cfg = QpConfig {
            max_outstanding: 8,
            ..QpConfig::default()
        };
        let mut a = QpEndpoint::new(cfg);
        let mut b = QpEndpoint::new(cfg);
        a.post(Verb::Send { len: 100 * 1024 }, WrId(1)); // 100 packets
                                                         // Unacknowledged, the sender stalls at exactly the window.
        let mut sent = 0;
        while let Some(_d) = a.next_data_tx(0) {
            sent += 1;
        }
        assert_eq!(sent, 8, "window must cap outstanding PSNs");
        assert!(!a.has_data_tx());
        // ACK progress reopens the window, and the transfer completes.
        let mut now = 0u64;
        for _ in 0..10_000 {
            now += 1_000_000;
            if let Some(d) = a.next_data_tx(now) {
                b.on_packet(&d, now);
            }
            while let Some(c) = b.pop_ctrl_tx() {
                a.on_packet(&c, now);
            }
            if a.take_completions()
                .iter()
                .any(|c| matches!(c, Completion::SendDone { .. }))
            {
                break;
            }
            a.check_timeout(now);
        }
        assert_eq!(b.goodput_bytes(), 100 * 1024);
        // Flight never exceeded the window (spot check via stats).
        assert!(a.stats.data_pkts_tx >= 100);
    }

    #[test]
    fn rollback_events_carry_cause_and_volume() {
        // NAK-driven rollback.
        let (mut a, mut b) = pair(LossRecovery::GoBackN);
        a.post(Verb::Send { len: 10 * 1024 }, WrId(1));
        let _lost = a.next_data_tx(0).unwrap(); // PSN 0 dropped
        for _ in 1..4 {
            let d = a.next_data_tx(0).unwrap();
            b.on_packet(&d, 0);
        }
        while let Some(c) = b.pop_ctrl_tx() {
            a.on_packet(&c, 0);
        }
        assert_eq!(
            a.pop_event(),
            Some(TransportEvent::Rollback {
                cause: "nak",
                to_psn: 0,
                pkts: 4
            })
        );
        assert_eq!(a.pop_event(), None);

        // RTO-driven rollback.
        let (mut a, _b) = pair(LossRecovery::GoBackN);
        a.post(Verb::Send { len: 2048 }, WrId(1));
        a.next_data_tx(0).unwrap();
        a.next_data_tx(0).unwrap();
        assert!(a.check_timeout(a.config().rto_ps + 1));
        assert_eq!(
            a.pop_event(),
            Some(TransportEvent::Rollback {
                cause: "rto",
                to_psn: 0,
                pkts: 2
            })
        );
    }

    /// Property check, exhaustively enumerated (the in-tree idiom):
    /// under selective repeat, a PSN whose first transmission is dropped
    /// is retransmitted exactly once, and every other PSN is transmitted
    /// exactly once.
    #[test]
    fn selective_repeat_retransmits_each_dropped_psn_exactly_once() {
        use std::collections::HashMap;
        let (mut a, mut b) = pair(LossRecovery::SelectiveRepeat);
        a.post(Verb::Send { len: 100 * 1024 }, WrId(1)); // 100 packets
        let drop: std::collections::BTreeSet<u32> = [5, 17, 42, 97].into_iter().collect();
        let mut tx_per_psn: HashMap<u32, u32> = HashMap::new();
        let mut already_dropped = std::collections::BTreeSet::new();
        let mut now = 0u64;
        for _ in 0..10_000 {
            now += 1_000_000;
            let mut progressed = false;
            if let Some(d) = a.next_data_tx(now) {
                progressed = true;
                *tx_per_psn.entry(d.psn).or_insert(0) += 1;
                // Lose only the *first* copy of each marked PSN.
                if !(drop.contains(&d.psn) && already_dropped.insert(d.psn)) {
                    b.on_packet(&d, now);
                }
            }
            while let Some(c) = b.pop_ctrl_tx() {
                a.on_packet(&c, now);
                progressed = true;
            }
            if a.check_timeout(now) {
                progressed = true;
            }
            if !progressed && !a.has_data_tx() && a.rto_deadline_ps().is_none() {
                break;
            }
        }
        assert_eq!(b.goodput_bytes(), 100 * 1024);
        assert!(a
            .take_completions()
            .contains(&Completion::SendDone { wr: WrId(1) }));
        for psn in 0..100u32 {
            let expect = if drop.contains(&psn) { 2 } else { 1 };
            assert_eq!(tx_per_psn[&psn], expect, "psn {psn}");
        }
        assert_eq!(a.stats.retx_pkts, drop.len() as u64);
        assert_eq!(a.stats.retx_bytes, drop.len() as u64 * 1024);
        assert_eq!(b.stats.duplicate_rx, 0, "no spurious retransmissions");
    }

    /// Under the livelock drop pattern (every 256th transmission lost),
    /// selective repeat completes the 4 MB transfer with strictly fewer
    /// retransmitted bytes — and no more total bytes — than go-back-N.
    #[test]
    fn selective_repeat_beats_goback_n_byte_volume() {
        let (mut a_sr, mut b_sr) = pair(LossRecovery::SelectiveRepeat);
        a_sr.post(Verb::Send { len: MB4 }, WrId(1));
        run_channel(&mut a_sr, &mut b_sr, 256, 100_000);
        assert_eq!(b_sr.goodput_bytes(), MB4 as u64, "SR must complete");

        let (mut a_gbn, mut b_gbn) = pair(LossRecovery::GoBackN);
        a_gbn.post(Verb::Send { len: MB4 }, WrId(1));
        run_channel(&mut a_gbn, &mut b_gbn, 256, 100_000);
        assert_eq!(b_gbn.goodput_bytes(), MB4 as u64, "GBN must complete");

        assert!(
            a_sr.stats.retx_bytes < a_gbn.stats.retx_bytes,
            "SR retx {} !< GBN retx {}",
            a_sr.stats.retx_bytes,
            a_gbn.stats.retx_bytes
        );
        assert!(
            a_sr.stats.data_bytes_tx <= a_gbn.stats.data_bytes_tx,
            "SR total {} > GBN total {}",
            a_sr.stats.data_bytes_tx,
            a_gbn.stats.data_bytes_tx
        );
        // ~16 first-pass drops (4096/256) force at least that many
        // retransmissions; go-back-N multiplies them into whole windows.
        assert!(a_sr.stats.retx_pkts >= 16, "{}", a_sr.stats.retx_pkts);
        assert!(a_gbn.stats.retx_pkts > a_sr.stats.retx_pkts);
    }

    #[test]
    fn rtt_samples_harvested_with_karns_rule() {
        // Clean transfer: the cumulative ACK yields one sample, measured
        // from the newest packet it covers.
        let (mut a, mut b) = pair(LossRecovery::GoBackN);
        a.post(Verb::Send { len: 4096 }, WrId(1)); // 4 packets
        let mut now = 1_000_000;
        for _ in 0..4 {
            let d = a.next_data_tx(now).unwrap();
            b.on_packet(&d, now);
            now += 1_000_000;
        }
        while let Some(c) = b.pop_ctrl_tx() {
            a.on_packet(&c, now);
        }
        // Last data packet left at now-1µs; its ACK landed at now.
        assert_eq!(a.take_rtt_sample(), Some(1_000_000));
        assert_eq!(a.take_rtt_sample(), None);

        // Karn's rule: a rewind retransmits the PSNs, so their eventual
        // ACK must produce no sample.
        let (mut a, mut b) = pair(LossRecovery::GoBackN);
        a.post(Verb::Send { len: 2048 }, WrId(1)); // 2 packets
        let _lost = a.next_data_tx(0).unwrap();
        let d1 = a.next_data_tx(1000).unwrap();
        b.on_packet(&d1, 1000); // gap → NAK 0
        while let Some(c) = b.pop_ctrl_tx() {
            a.on_packet(&c, 2000);
        }
        for t in [3000u64, 4000] {
            let d = a.next_data_tx(t).unwrap();
            b.on_packet(&d, t);
        }
        while let Some(c) = b.pop_ctrl_tx() {
            a.on_packet(&c, 5000);
        }
        assert!(a
            .take_completions()
            .contains(&Completion::SendDone { wr: WrId(1) }));
        assert_eq!(a.take_rtt_sample(), None, "retransmitted PSNs are evicted");
    }

    #[test]
    fn goodput_counts_only_complete_messages() {
        let (mut a, mut b) = pair(LossRecovery::GoBackN);
        a.post(Verb::Send { len: 10 * 1024 }, WrId(1));
        for _ in 0..5 {
            let d = a.next_data_tx(0).unwrap();
            b.on_packet(&d, 0);
        }
        assert_eq!(b.goodput_bytes(), 0, "message incomplete");
    }

    /// Differential test of the selective-repeat receiver's gap scan: the
    /// high-water mark (`sr_scanned`) against the naive rescan from
    /// `rcv_nxt` it replaced, as oracle. One hole sticks at `rcv_nxt`
    /// (the original and every retransmission of it are lost) while more
    /// than 20 000 later packets arrive — with further losses, lost and
    /// late retransmissions, and duplicates — and is plugged at the very
    /// end. After every arrival both receivers must have emitted the
    /// same control packets and completions and hold the same counters.
    /// (The oracle is quadratic by nature: about a minute in a debug
    /// build, 8 s in release.)
    #[test]
    fn sr_gap_scan_mark_matches_naive_rescan() {
        use rocescale_sim::SimRng;
        const MSG: u32 = 64;
        const N: u32 = 322 * MSG; // 20 608 packets, whole messages
        const STUCK: u32 = 300;
        /// The receiver under test and its oracle, fed in lockstep.
        struct Twin {
            fast: QpEndpoint,
            naive: QpEndpoint,
            arrivals: u64,
            naks: u64,
        }
        impl Twin {
            fn deliver(&mut self, psn: u32, now: u64) {
                let data = PacketDesc {
                    opcode: RoceOpcode::Send,
                    psn,
                    payload: 1024,
                    is_first: psn.is_multiple_of(MSG),
                    is_last: psn % MSG == MSG - 1,
                    ack_req: false,
                };
                let Twin { fast, naive, .. } = self;
                fast.on_packet(&data, now);
                naive.on_packet(&data, now);
                assert_eq!(fast.ctrl_out, naive.ctrl_out, "control after psn {psn}");
                assert_eq!(fast.completions, naive.completions, "psn {psn}");
                assert_eq!(fast.stats, naive.stats, "psn {psn}");
                self.arrivals += 1;
                self.naks += fast
                    .ctrl_out
                    .drain(..)
                    .filter(|c| c.opcode == RoceOpcode::Nak)
                    .count() as u64;
                naive.ctrl_out.clear();
                fast.completions.clear();
                naive.completions.clear();
            }
        }
        let (fast, mut naive) = pair(LossRecovery::SelectiveRepeat);
        naive.sr_naive_rescan = true;
        let mut t = Twin {
            fast,
            naive,
            arrivals: 0,
            naks: 0,
        };

        let mut rng = SimRng::from_seed(0x5e1ec7);
        // Retransmissions in flight: (step they arrive at, psn).
        let mut retx: Vec<(u64, u32)> = Vec::new();
        let mut lost_for_good = vec![STUCK];
        for psn in 0..N {
            let step = psn as u64;
            if psn == STUCK {
                continue;
            }
            if rng.gen_below(64) == 0 {
                retx.push((step + 20 + rng.gen_below(200), psn));
            } else {
                t.deliver(psn, step);
            }
            if psn > 0 && rng.gen_below(200) == 0 {
                t.deliver(rng.gen_below(psn as u64) as u32, step); // duplicate
            }
            let mut i = 0;
            while i < retx.len() {
                if retx[i].0 > step {
                    i += 1;
                    continue;
                }
                let (_, p) = retx.swap_remove(i);
                match rng.gen_below(8) {
                    0 => lost_for_good.push(p),          // never re-NAK'd, so never resent
                    1 | 2 => retx.push((step + 500, p)), // lost, recovered late (RTO)
                    _ => t.deliver(p, step),
                }
            }
        }
        assert!(
            t.arrivals > 20_000 + STUCK as u64,
            "{} arrivals",
            t.arrivals
        );
        assert!(t.fast.rcv_nxt <= STUCK, "a hole held the edge all run long");
        assert!(t.fast.rx_buf.len() > 20_000);
        // The sender's RTO finally resends everything outstanding.
        lost_for_good.extend(retx.iter().map(|&(_, p)| p));
        lost_for_good.sort_unstable();
        for p in lost_for_good {
            t.deliver(p, N as u64);
        }
        assert_eq!((t.fast.rcv_nxt, t.naive.rcv_nxt), (N, N));
        assert!(t.fast.rx_buf.is_empty() && t.fast.sr_naked.is_empty());
        assert_eq!(t.fast.stats.goodput_bytes, N as u64 * 1024);
        assert!(t.naks > 300, "{} NAKs compared", t.naks);
    }
}
