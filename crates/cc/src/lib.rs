//! Pluggable congestion control: the sender/receiver/marking roles behind
//! the paper's DCQCN deployment, abstracted into a sans-IO trait layer.
//!
//! §7 of the paper frames DCQCN as one point in a design space — it is
//! explicitly contrasted with delay-based TIMELY — and the companion
//! choice of go-back-N loss recovery is challenged by IRN ("Revisiting
//! Network Support for RDMA", Mittal et al.). This crate makes the
//! congestion-control half of that space pluggable:
//!
//! * **Sender role** ([`CongestionControl`] / [`SenderCc`]): consumes
//!   typed [`CcSignal`]s (CNP arrival, an RTT sample, bytes sent, the
//!   periodic tick) and exposes the pacing rate. Three implementations:
//!   DCQCN's reaction point ([`DcqcnSender`], wrapping
//!   [`rocescale_dcqcn::RpState`]), a TIMELY-style delay-gradient
//!   controller ([`TimelyState`]), and a fixed-rate/off controller
//!   ([`FixedRate`]).
//! * **Receiver role** ([`ReceiverCc`]): decides when a congestion
//!   notification packet must be sent back. DCQCN's notification point is
//!   the only non-trivial implementation; it runs regardless of the
//!   sender's controller (non-DCQCN senders simply ignore CNPs), which
//!   keeps the receive-side event stream identical across ablations.
//! * **Marking role**: the switch-side congestion point — re-exported
//!   [`CpParams`] ECN marking, unchanged.
//!
//! Everything is time-as-argument pure logic in the style of the dcqcn
//! state machines: the NIC adapter owns the clocks, feeds signals, and
//! applies the returned [`CcAction`]s. Determinism argument: controllers
//! never read wall clocks or draw randomness; a signal sequence maps to
//! exactly one action sequence, so enum dispatch through [`SenderCc`]
//! adds no nondeterminism — and with [`CcKind::Dcqcn`] selected, the
//! signal plumbing reduces to the exact pre-refactor RP/NP call sequence,
//! which is what keeps the paper-default golden dispatch digest
//! unchanged.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use rocescale_dcqcn::CpParams;
use rocescale_dcqcn::{NpParams, NpState, RpParams, RpState};

/// Which congestion-control algorithm a sender runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CcKind {
    /// DCQCN (ECN-based; the paper's deployment).
    Dcqcn,
    /// TIMELY-style delay-gradient control (RTT-based; §7's contrast).
    Timely,
    /// No congestion control: fixed pacing at line rate.
    Off,
}

impl CcKind {
    /// Short lowercase name, used in telemetry instrument names and trace
    /// events.
    pub fn name(self) -> &'static str {
        match self {
            CcKind::Dcqcn => "dcqcn",
            CcKind::Timely => "timely",
            CcKind::Off => "off",
        }
    }
}

/// A typed input event to the sender-side controller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CcSignal {
    /// A congestion notification packet arrived for this QP.
    Cnp,
    /// A cumulative ACK carried a fresh RTT sample (send→ACK delay of the
    /// newest acknowledged packet, as measured by the transport endpoint).
    AckRtt {
        /// The measured round-trip time, picoseconds.
        rtt_ps: u64,
    },
    /// The NIC handed `bytes` of this QP's data to the wire.
    BytesSent {
        /// Wire bytes sent.
        bytes: u64,
    },
    /// The periodic controller tick fired (see [`CcParams::tick_period_ps`]).
    Tick,
}

/// A typed action returned by the sender-side controller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CcAction {
    /// The pacing rate moved; the adapter should record it.
    RateChange {
        /// The new pacing rate, bits/second.
        rate_bps: f64,
        /// What moved it (`"cnp"`, `"rtt-low"`, `"rtt-high"`,
        /// `"gradient-rise"`, `"gradient-fall"`).
        cause: &'static str,
    },
}

/// The sans-IO sender-side congestion-control role: the NIC feeds
/// [`CcSignal`]s with the current time and paces each QP at
/// [`rate_bps`](CongestionControl::rate_bps).
pub trait CongestionControl {
    /// Which algorithm this is.
    fn kind(&self) -> CcKind;
    /// The rate the NIC should currently pace this QP at, b/s.
    fn rate_bps(&self) -> f64;
    /// Feed one signal; returns an action when the controller wants the
    /// adapter to record a state change.
    fn on_signal(&mut self, sig: CcSignal, now_ps: u64) -> Option<CcAction>;
    /// Times the pacing rate actually moved.
    fn rate_changes(&self) -> u64;
}

/// Sender-role configuration: which controller to run, with its knobs.
#[derive(Debug, Clone, PartialEq)]
pub enum CcParams {
    /// DCQCN reaction point.
    Dcqcn(RpParams),
    /// TIMELY-style delay-gradient controller.
    Timely(TimelyParams),
    /// Fixed pacing at line rate (congestion control off).
    Off,
}

impl CcParams {
    /// Default parameters of `kind` for a given line rate.
    pub fn for_line_rate(kind: CcKind, line_rate_bps: u64) -> CcParams {
        match kind {
            CcKind::Dcqcn => CcParams::Dcqcn(RpParams::for_line_rate(line_rate_bps)),
            CcKind::Timely => CcParams::Timely(TimelyParams::for_line_rate(line_rate_bps)),
            CcKind::Off => CcParams::Off,
        }
    }

    /// Which algorithm these parameters select.
    pub fn kind(&self) -> CcKind {
        match self {
            CcParams::Dcqcn(_) => CcKind::Dcqcn,
            CcParams::Timely(_) => CcKind::Timely,
            CcParams::Off => CcKind::Off,
        }
    }

    /// Period of the controller's periodic [`CcSignal::Tick`], if it
    /// needs one (DCQCN's alpha/increase timers; TIMELY and fixed-rate
    /// are purely event-driven).
    pub fn tick_period_ps(&self) -> Option<u64> {
        match self {
            CcParams::Dcqcn(p) => Some(p.alpha_timer_ps),
            CcParams::Timely(_) | CcParams::Off => None,
        }
    }
}

/// DCQCN's reaction point as a [`CongestionControl`] implementation: a
/// thin adapter over [`RpState`] that maps [`CcSignal`]s onto the exact
/// `on_cnp` / `on_bytes_sent` / `on_alpha_timer` + `on_increase_timer`
/// call sequence the NIC used before the trait layer existed.
#[derive(Debug, Clone)]
pub struct DcqcnSender {
    rp: RpState,
}

impl DcqcnSender {
    /// A fresh reaction point at line rate.
    pub fn new(params: RpParams) -> DcqcnSender {
        DcqcnSender {
            rp: RpState::new(params),
        }
    }

    /// The wrapped RP state (alpha, counters).
    pub fn rp(&self) -> &RpState {
        &self.rp
    }
}

impl CongestionControl for DcqcnSender {
    fn kind(&self) -> CcKind {
        CcKind::Dcqcn
    }

    fn rate_bps(&self) -> f64 {
        self.rp.rate_bps()
    }

    fn on_signal(&mut self, sig: CcSignal, _now_ps: u64) -> Option<CcAction> {
        match sig {
            CcSignal::Cnp => {
                let before = self.rp.rate_bps();
                self.rp.on_cnp();
                let after = self.rp.rate_bps();
                (after != before).then_some(CcAction::RateChange {
                    rate_bps: after,
                    cause: "cnp",
                })
            }
            CcSignal::BytesSent { bytes } => {
                self.rp.on_bytes_sent(bytes);
                None
            }
            CcSignal::Tick => {
                self.rp.on_alpha_timer();
                self.rp.on_increase_timer();
                None
            }
            // DCQCN is ECN-driven; delay samples carry no information.
            CcSignal::AckRtt { .. } => None,
        }
    }

    fn rate_changes(&self) -> u64 {
        self.rp.rate_changes()
    }
}

/// TIMELY-style controller parameters (Mittal et al., SIGCOMM 2015).
/// Values are tuned for this simulator's 40 GbE fabrics, not copied from
/// the paper's 10 GbE testbed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimelyParams {
    /// Line rate and rate cap, b/s.
    pub line_rate_bps: f64,
    /// Rate floor, b/s.
    pub min_rate_bps: f64,
    /// EWMA weight on the newest RTT difference (TIMELY's α).
    pub ewma_alpha: f64,
    /// Multiplicative decrease factor (TIMELY's β).
    pub beta: f64,
    /// Additive increase step δ, b/s.
    pub add_bps: f64,
    /// RTT below which the controller always additively increases.
    pub t_low_ps: u64,
    /// RTT above which the controller always multiplicatively decreases.
    pub t_high_ps: u64,
    /// Gradient normalization: the fabric's propagation-only RTT.
    pub min_rtt_ps: u64,
    /// Consecutive negative-gradient updates before hyper increase (N).
    pub hai_after: u32,
    /// Minimum interval between rate updates (≈ one RTT; samples between
    /// updates still refresh the gradient EWMA).
    pub update_every_ps: u64,
}

impl TimelyParams {
    /// Defaults for a given line rate.
    pub fn for_line_rate(line_rate_bps: u64) -> TimelyParams {
        TimelyParams {
            line_rate_bps: line_rate_bps as f64,
            min_rate_bps: 10e6,
            ewma_alpha: 0.46,
            beta: 0.8,
            add_bps: 40e6,
            t_low_ps: 12_000_000,  // 12 µs
            t_high_ps: 48_000_000, // 48 µs
            min_rtt_ps: 4_000_000, // 4 µs
            hai_after: 5,
            update_every_ps: 20_000_000, // 20 µs ≈ a congested RTT
        }
    }
}

/// TIMELY-style delay-gradient sender state: rate cuts on rising RTT,
/// additive (then hyper) increase on falling RTT, with hard `t_low` /
/// `t_high` guard bands.
#[derive(Debug, Clone)]
pub struct TimelyState {
    params: TimelyParams,
    rate_bps: f64,
    prev_rtt_ps: Option<u64>,
    /// EWMA of consecutive RTT differences, picoseconds.
    rtt_diff_ps: f64,
    neg_gradient_streak: u32,
    last_update_ps: u64,
    samples: u64,
    rate_changes: u64,
}

impl TimelyState {
    /// A fresh controller at line rate.
    pub fn new(params: TimelyParams) -> TimelyState {
        TimelyState {
            rate_bps: params.line_rate_bps,
            params,
            prev_rtt_ps: None,
            rtt_diff_ps: 0.0,
            neg_gradient_streak: 0,
            last_update_ps: 0,
            samples: 0,
            rate_changes: 0,
        }
    }

    /// RTT samples consumed so far.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// The smoothed RTT gradient, normalized by `min_rtt` (positive =
    /// queues building).
    pub fn normalized_gradient(&self) -> f64 {
        self.rtt_diff_ps / self.params.min_rtt_ps as f64
    }

    fn on_rtt(&mut self, rtt_ps: u64, now_ps: u64) -> Option<CcAction> {
        self.samples += 1;
        // The first sample only seeds the gradient.
        let prev = self.prev_rtt_ps.replace(rtt_ps)?;
        let a = self.params.ewma_alpha;
        self.rtt_diff_ps = (1.0 - a) * self.rtt_diff_ps + a * (rtt_ps as f64 - prev as f64);
        if now_ps.saturating_sub(self.last_update_ps) < self.params.update_every_ps {
            return None; // at most one rate move per (congested) RTT
        }
        self.last_update_ps = now_ps;
        let p = self.params;
        let old = self.rate_bps;
        let cause = if rtt_ps < p.t_low_ps {
            // Far below target delay: increase regardless of gradient.
            self.rate_bps = (self.rate_bps + p.add_bps).min(p.line_rate_bps);
            "rtt-low"
        } else if rtt_ps > p.t_high_ps {
            // Far above: multiplicative decrease proportional to overshoot.
            let f = 1.0 - p.beta * (1.0 - p.t_high_ps as f64 / rtt_ps as f64);
            self.rate_bps = (self.rate_bps * f).max(p.min_rate_bps);
            self.neg_gradient_streak = 0;
            "rtt-high"
        } else {
            let grad = self.normalized_gradient();
            if grad <= 0.0 {
                self.neg_gradient_streak += 1;
                let n = if self.neg_gradient_streak >= p.hai_after {
                    5.0 // hyper increase
                } else {
                    1.0
                };
                self.rate_bps = (self.rate_bps + n * p.add_bps).min(p.line_rate_bps);
                "gradient-fall"
            } else {
                self.neg_gradient_streak = 0;
                let f = 1.0 - p.beta * grad.min(1.0);
                self.rate_bps = (self.rate_bps * f).max(p.min_rate_bps);
                "gradient-rise"
            }
        };
        if self.rate_bps != old {
            self.rate_changes += 1;
            Some(CcAction::RateChange {
                rate_bps: self.rate_bps,
                cause,
            })
        } else {
            None
        }
    }
}

impl CongestionControl for TimelyState {
    fn kind(&self) -> CcKind {
        CcKind::Timely
    }

    fn rate_bps(&self) -> f64 {
        self.rate_bps
    }

    fn on_signal(&mut self, sig: CcSignal, now_ps: u64) -> Option<CcAction> {
        match sig {
            CcSignal::AckRtt { rtt_ps } => self.on_rtt(rtt_ps, now_ps),
            // TIMELY is delay-driven; CNPs, byte counts and ticks carry no
            // information it uses.
            CcSignal::Cnp | CcSignal::BytesSent { .. } | CcSignal::Tick => None,
        }
    }

    fn rate_changes(&self) -> u64 {
        self.rate_changes
    }
}

/// The null controller: a constant pacing rate (line rate = congestion
/// control off). Ignores every signal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FixedRate {
    rate_bps: f64,
}

impl FixedRate {
    /// Pace at `rate_bps` forever.
    pub fn new(rate_bps: f64) -> FixedRate {
        FixedRate { rate_bps }
    }
}

impl CongestionControl for FixedRate {
    fn kind(&self) -> CcKind {
        CcKind::Off
    }

    fn rate_bps(&self) -> f64 {
        self.rate_bps
    }

    fn on_signal(&mut self, _sig: CcSignal, _now_ps: u64) -> Option<CcAction> {
        None
    }

    fn rate_changes(&self) -> u64 {
        0
    }
}

/// Enum dispatch over the sender-role implementations. The NIC stores one
/// of these per QP — static dispatch keeps determinism auditable and the
/// per-packet cost of the paper-default path identical to the concrete
/// `RpState` it replaced.
#[derive(Debug, Clone)]
pub enum SenderCc {
    /// DCQCN reaction point.
    Dcqcn(DcqcnSender),
    /// TIMELY-style delay-gradient controller.
    Timely(TimelyState),
    /// Fixed-rate/off controller.
    Off(FixedRate),
}

impl SenderCc {
    /// Build the sender role from its parameters; `line_rate_bps` backs
    /// the fixed-rate/off controller.
    pub fn new(params: &CcParams, line_rate_bps: u64) -> SenderCc {
        match params {
            CcParams::Dcqcn(p) => SenderCc::Dcqcn(DcqcnSender::new(*p)),
            CcParams::Timely(p) => SenderCc::Timely(TimelyState::new(*p)),
            CcParams::Off => SenderCc::Off(FixedRate::new(line_rate_bps as f64)),
        }
    }
}

impl CongestionControl for SenderCc {
    fn kind(&self) -> CcKind {
        match self {
            SenderCc::Dcqcn(c) => c.kind(),
            SenderCc::Timely(c) => c.kind(),
            SenderCc::Off(c) => c.kind(),
        }
    }

    fn rate_bps(&self) -> f64 {
        match self {
            SenderCc::Dcqcn(c) => c.rate_bps(),
            SenderCc::Timely(c) => c.rate_bps(),
            SenderCc::Off(c) => c.rate_bps(),
        }
    }

    fn on_signal(&mut self, sig: CcSignal, now_ps: u64) -> Option<CcAction> {
        match self {
            SenderCc::Dcqcn(c) => c.on_signal(sig, now_ps),
            SenderCc::Timely(c) => c.on_signal(sig, now_ps),
            SenderCc::Off(c) => c.on_signal(sig, now_ps),
        }
    }

    fn rate_changes(&self) -> u64 {
        match self {
            SenderCc::Dcqcn(c) => c.rate_changes(),
            SenderCc::Timely(c) => c.rate_changes(),
            SenderCc::Off(c) => c.rate_changes(),
        }
    }
}

/// The receiver (notification) role: decides when a congestion
/// notification packet must travel back to the sender.
#[derive(Debug, Clone)]
pub enum ReceiverCc {
    /// DCQCN's notification point: one CNP per flow per
    /// [`NpParams::min_cnp_interval_ps`] on CE-marked arrivals.
    DcqcnNp(NpState),
    /// Never notifies (delay-based and off senders need no CNPs).
    Null,
}

impl ReceiverCc {
    /// A DCQCN notification point.
    pub fn dcqcn(params: NpParams) -> ReceiverCc {
        ReceiverCc::DcqcnNp(NpState::new(params))
    }

    /// A CE-marked packet arrived at `now_ps`; should a CNP be sent?
    pub fn on_ce_packet(&mut self, now_ps: u64) -> bool {
        match self {
            ReceiverCc::DcqcnNp(np) => np.on_ce_packet(now_ps),
            ReceiverCc::Null => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LINE: u64 = 40_000_000_000;

    fn timely() -> TimelyState {
        TimelyState::new(TimelyParams::for_line_rate(LINE))
    }

    /// Feed a sample every update interval (advancing the shared clock so
    /// consecutive batches stay ordered) so each one may move the rate.
    fn feed_at(s: &mut TimelyState, now: &mut u64, rtts_us: &[u64]) {
        let step = s.params.update_every_ps;
        for &us in rtts_us {
            *now += step;
            s.on_signal(
                CcSignal::AckRtt {
                    rtt_ps: us * 1_000_000,
                },
                *now,
            );
        }
    }

    fn feed(s: &mut TimelyState, rtts_us: &[u64]) {
        let mut now = 0;
        feed_at(s, &mut now, rtts_us);
    }

    #[test]
    fn timely_cuts_rate_on_rising_rtt() {
        let mut s = timely();
        feed(&mut s, &[15, 20, 26, 33, 41]); // rising inside the band
        assert!(
            s.rate_bps() < 40e9,
            "rising RTT must cut the rate: {}",
            s.rate_bps()
        );
        assert!(s.rate_changes() > 0);
        assert!(s.normalized_gradient() > 0.0);
    }

    #[test]
    fn timely_additively_increases_on_falling_rtt() {
        let mut s = timely();
        let mut now = 0;
        // Rise first so there is headroom below line rate…
        feed_at(&mut s, &mut now, &[15, 20, 26, 33, 41, 45]);
        let cut = s.rate_bps();
        assert!(cut < 40e9);
        // …then fall: gradient goes negative, additive increase resumes.
        feed_at(&mut s, &mut now, &[40, 34, 28, 22, 16]);
        assert!(
            s.rate_bps() > cut,
            "falling RTT must recover: {} vs {}",
            s.rate_bps(),
            cut
        );
        // Each negative-gradient step adds at least δ.
        assert!(s.rate_bps() >= cut + TimelyParams::for_line_rate(LINE).add_bps);
    }

    #[test]
    fn timely_t_low_always_increases_t_high_always_cuts() {
        let mut s = timely();
        let mut now = 0;
        feed_at(&mut s, &mut now, &[20, 30, 40, 45]); // leave line rate
        let r = s.rate_bps();
        // Below t_low: additive increase regardless of gradient.
        feed_at(&mut s, &mut now, &[5, 5]);
        assert!(s.rate_bps() > r);
        let r = s.rate_bps();
        // Way above t_high: multiplicative brake.
        feed_at(&mut s, &mut now, &[200]);
        assert!(s.rate_bps() < r * 0.5, "t_high must brake hard");
    }

    #[test]
    fn timely_respects_floor_and_cap() {
        let mut s = timely();
        feed(&mut s, &[500; 200]);
        assert!(s.rate_bps() >= 10e6, "floor: {}", s.rate_bps());
        let mut s = timely();
        feed(&mut s, &[5; 200]);
        assert!(s.rate_bps() <= 40e9, "cap: {}", s.rate_bps());
    }

    #[test]
    fn timely_rate_updates_are_paced() {
        let mut s = timely();
        // Two samples inside one update interval: only the first may move
        // the rate (and the very first sample only seeds the gradient).
        s.on_signal(CcSignal::AckRtt { rtt_ps: 30_000_000 }, 1);
        s.on_signal(CcSignal::AckRtt { rtt_ps: 45_000_000 }, 2);
        assert_eq!(s.rate_bps(), 40e9, "no update before the interval");
        assert_eq!(s.samples(), 2, "samples still refresh the gradient");
    }

    #[test]
    fn dcqcn_sender_matches_raw_rp_state() {
        // The trait adapter must reproduce the concrete RP call sequence
        // bit-for-bit — this is the digest-neutrality argument in unit
        // test form.
        let params = RpParams::for_line_rate(LINE);
        let mut raw = RpState::new(params);
        let mut cc = SenderCc::new(&CcParams::Dcqcn(params), LINE);
        let mut acted = 0;
        for step in 0..2000u64 {
            if step % 97 == 0 {
                raw.on_cnp();
                if cc.on_signal(CcSignal::Cnp, step).is_some() {
                    acted += 1;
                }
            }
            raw.on_bytes_sent(64 * 1024);
            cc.on_signal(CcSignal::BytesSent { bytes: 64 * 1024 }, step);
            if step % 5 == 0 {
                raw.on_alpha_timer();
                raw.on_increase_timer();
                cc.on_signal(CcSignal::Tick, step);
            }
            assert_eq!(cc.rate_bps(), raw.rate_bps(), "diverged at step {step}");
        }
        assert_eq!(cc.rate_changes(), raw.rate_changes());
        assert!(acted > 0, "CNP cuts must surface as actions");
        assert_eq!(cc.kind(), CcKind::Dcqcn);
    }

    #[test]
    fn fixed_rate_ignores_everything() {
        let mut cc = SenderCc::new(&CcParams::Off, LINE);
        assert_eq!(cc.rate_bps(), 40e9);
        for sig in [
            CcSignal::Cnp,
            CcSignal::AckRtt { rtt_ps: 1_000_000 },
            CcSignal::BytesSent { bytes: 1 << 20 },
            CcSignal::Tick,
        ] {
            assert_eq!(cc.on_signal(sig, 123), None);
        }
        assert_eq!(cc.rate_bps(), 40e9);
        assert_eq!(cc.rate_changes(), 0);
        assert_eq!(cc.kind(), CcKind::Off);
    }

    #[test]
    fn params_tick_only_for_dcqcn() {
        assert_eq!(
            CcParams::for_line_rate(CcKind::Dcqcn, LINE).tick_period_ps(),
            Some(55_000_000)
        );
        assert_eq!(
            CcParams::for_line_rate(CcKind::Timely, LINE).tick_period_ps(),
            None
        );
        assert_eq!(CcParams::Off.tick_period_ps(), None);
        for k in [CcKind::Dcqcn, CcKind::Timely, CcKind::Off] {
            assert_eq!(CcParams::for_line_rate(k, LINE).kind(), k);
        }
    }

    #[test]
    fn receiver_role_rate_limits_or_stays_silent() {
        let mut np = ReceiverCc::dcqcn(NpParams::default());
        assert!(np.on_ce_packet(0));
        assert!(!np.on_ce_packet(10_000_000));
        assert!(np.on_ce_packet(50_000_000));
        let mut null = ReceiverCc::Null;
        assert!(!null.on_ce_packet(0));
        assert!(!null.on_ce_packet(50_000_000));
    }

    #[test]
    fn kind_names_are_stable() {
        assert_eq!(CcKind::Dcqcn.name(), "dcqcn");
        assert_eq!(CcKind::Timely.name(), "timely");
        assert_eq!(CcKind::Off.name(), "off");
    }
}
