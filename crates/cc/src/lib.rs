//! Pluggable congestion control: the sender role behind the paper's
//! DCQCN deployment, abstracted into a sans-IO layer.
//!
//! §7 of the paper frames DCQCN as one point in a design space — it is
//! explicitly contrasted with delay-based TIMELY — and the companion
//! choice of go-back-N loss recovery is challenged by IRN ("Revisiting
//! Network Support for RDMA", Mittal et al.). This crate makes the
//! congestion-control half of that space pluggable: [`SenderCc`] consumes
//! typed [`CcSignal`]s (CNP arrival, an RTT sample, bytes sent, the
//! periodic tick) and exposes the pacing rate, running DCQCN's reaction
//! point ([`rocescale_dcqcn::RpState`]), a TIMELY-style delay-gradient
//! controller ([`TimelyState`]), or fixed pacing at line rate (off). The
//! notification point and the switch-side marking are DCQCN's alone and
//! live in `rocescale_dcqcn`.
//!
//! Everything is time-as-argument pure logic in the style of the dcqcn
//! state machines: the NIC adapter owns the clocks, feeds signals, and
//! applies the returned [`CcAction`]s. Determinism argument: controllers
//! never read wall clocks or draw randomness; a signal sequence maps to
//! exactly one action sequence, so enum dispatch through [`SenderCc`]
//! adds no nondeterminism — and with [`CcKind::Dcqcn`] selected, the
//! signal plumbing reduces to the exact pre-refactor RP call sequence,
//! which is what keeps the paper-default golden dispatch digest
//! unchanged.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rocescale_dcqcn::RpState;

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

/// The sender role's configuration is its algorithm alone: every DCQCN
/// and TIMELY constant is a `const` of the module that reads it, and the
/// one value that varies, the line rate, is the link's and goes to
/// [`SenderCc::new`].
pub type CcParams = CcKind;

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

    /// The parameters of `kind` for a given line rate: `kind` itself,
    /// since no constant depends on the rate. Kept for callers that
    /// derive parameters per link, such as the benchmark's CC kernel.
    pub fn for_line_rate(kind: CcKind, _line_rate_bps: u64) -> CcParams {
        kind
    }

    /// Period of the controller's periodic [`CcSignal::Tick`], if it
    /// needs one (DCQCN's alpha/increase timers; TIMELY and fixed-rate
    /// are purely event-driven).
    pub fn tick_period_ps(self) -> Option<u64> {
        match self {
            CcKind::Dcqcn => Some(rocescale_dcqcn::TIMER_PS),
            CcKind::Timely | CcKind::Off => None,
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
    /// The periodic controller tick fired (see [`CcKind::tick_period_ps`]).
    Tick,
}

/// A typed action returned by the sender-side controller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CcAction {
    /// The pacing rate moved; the adapter should record it.
    RateChange {
        /// The new pacing rate, bits/second.
        rate_bps: f64,
        /// What moved it (DCQCN: `"cnp"`, `"byte-counter"`, `"timer"`;
        /// TIMELY: `"rtt-low"`, `"rtt-high"`, `"gradient-rise"`,
        /// `"gradient-fall"`).
        cause: &'static str,
    },
}

/// The sans-IO sender-side congestion-control role: the NIC feeds
/// [`CcSignal`]s with the current time and paces each QP at
/// [`rate_bps`](CongestionControl::rate_bps). [`SenderCc`] is its one
/// implementation.
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

// TIMELY constants (Mittal et al., SIGCOMM 2015), tuned for this
// simulator's 40 GbE fabrics rather than copied from the paper's 10 GbE
// testbed.

/// Rate floor, b/s.
const TIMELY_MIN_RATE_BPS: f64 = 10e6;
/// EWMA weight on the newest RTT difference (TIMELY's α).
const EWMA_ALPHA: f64 = 0.46;
/// Multiplicative decrease factor (TIMELY's β).
const BETA: f64 = 0.8;
/// Additive increase step δ, b/s.
const ADD_BPS: f64 = 40e6;
/// RTT below which the controller always additively increases (12 µs).
const T_LOW_PS: u64 = 12_000_000;
/// RTT above which the controller always multiplicatively decreases
/// (48 µs).
const T_HIGH_PS: u64 = 48_000_000;
/// Gradient normalization: the fabric's propagation-only RTT (4 µs).
const MIN_RTT_PS: u64 = 4_000_000;
/// Consecutive negative-gradient updates before hyper increase (N).
const HAI_AFTER: u32 = 5;
/// Minimum interval between rate updates (20 µs ≈ one congested RTT;
/// samples between updates still refresh the gradient EWMA).
const UPDATE_EVERY_PS: u64 = 20_000_000;

/// TIMELY-style delay-gradient sender state: rate cuts on rising RTT,
/// additive (then hyper) increase on falling RTT, with hard `t_low` /
/// `t_high` guard bands.
#[derive(Debug, Clone)]
pub struct TimelyState {
    /// Line rate and rate cap, b/s.
    line_rate_bps: f64,
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
    /// A fresh controller at `line_rate_bps`.
    pub fn new(line_rate_bps: u64) -> TimelyState {
        let line_rate_bps = line_rate_bps as f64;
        TimelyState {
            line_rate_bps,
            rate_bps: line_rate_bps,
            prev_rtt_ps: None,
            rtt_diff_ps: 0.0,
            neg_gradient_streak: 0,
            last_update_ps: 0,
            samples: 0,
            rate_changes: 0,
        }
    }

    /// The current pacing rate, b/s.
    pub fn rate_bps(&self) -> f64 {
        self.rate_bps
    }

    /// Times the pacing rate actually moved.
    pub fn rate_changes(&self) -> u64 {
        self.rate_changes
    }

    /// RTT samples consumed so far.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// The smoothed RTT gradient, normalized by the propagation-only RTT
    /// (positive = queues building).
    pub fn normalized_gradient(&self) -> f64 {
        self.rtt_diff_ps / MIN_RTT_PS as f64
    }

    /// Consume one RTT sample taken at `now_ps`; returns the rate move it
    /// caused, if any.
    pub fn on_rtt(&mut self, rtt_ps: u64, now_ps: u64) -> Option<CcAction> {
        self.samples += 1;
        // The first sample only seeds the gradient.
        let prev = self.prev_rtt_ps.replace(rtt_ps)?;
        self.rtt_diff_ps =
            (1.0 - EWMA_ALPHA) * self.rtt_diff_ps + EWMA_ALPHA * (rtt_ps as f64 - prev as f64);
        if now_ps.saturating_sub(self.last_update_ps) < UPDATE_EVERY_PS {
            return None; // at most one rate move per (congested) RTT
        }
        self.last_update_ps = now_ps;
        let old = self.rate_bps;
        let cause = if rtt_ps < T_LOW_PS {
            // Far below target delay: increase regardless of gradient.
            self.rate_bps = (self.rate_bps + ADD_BPS).min(self.line_rate_bps);
            "rtt-low"
        } else if rtt_ps > T_HIGH_PS {
            // Far above: multiplicative decrease proportional to overshoot.
            let f = 1.0 - BETA * (1.0 - T_HIGH_PS as f64 / rtt_ps as f64);
            self.rate_bps = (self.rate_bps * f).max(TIMELY_MIN_RATE_BPS);
            self.neg_gradient_streak = 0;
            "rtt-high"
        } else {
            let grad = self.normalized_gradient();
            if grad <= 0.0 {
                self.neg_gradient_streak += 1;
                let n = if self.neg_gradient_streak >= HAI_AFTER {
                    5.0 // hyper increase
                } else {
                    1.0
                };
                self.rate_bps = (self.rate_bps + n * ADD_BPS).min(self.line_rate_bps);
                "gradient-fall"
            } else {
                self.neg_gradient_streak = 0;
                let f = 1.0 - BETA * grad.min(1.0);
                self.rate_bps = (self.rate_bps * f).max(TIMELY_MIN_RATE_BPS);
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

/// Enum dispatch over the sender-role controllers. The NIC stores one of
/// these per QP — static dispatch keeps determinism auditable and the
/// per-packet cost of the paper-default path identical to a concrete
/// `RpState`. Each variant holds the line rate once.
#[derive(Debug, Clone)]
pub enum SenderCc {
    /// DCQCN reaction point.
    Dcqcn(RpState),
    /// TIMELY-style delay-gradient controller.
    Timely(TimelyState),
    /// Congestion control off: a constant pacing rate (the line rate)
    /// whatever the signals say.
    Off {
        /// The pacing rate, b/s.
        rate_bps: f64,
    },
}

impl SenderCc {
    /// The sender role running `params` at `line_rate_bps`.
    pub fn new(params: &CcParams, line_rate_bps: u64) -> SenderCc {
        match params {
            CcKind::Dcqcn => SenderCc::Dcqcn(RpState::new(line_rate_bps)),
            CcKind::Timely => SenderCc::Timely(TimelyState::new(line_rate_bps)),
            CcKind::Off => SenderCc::Off {
                rate_bps: line_rate_bps as f64,
            },
        }
    }
}

impl CongestionControl for SenderCc {
    fn kind(&self) -> CcKind {
        match self {
            SenderCc::Dcqcn(_) => CcKind::Dcqcn,
            SenderCc::Timely(_) => CcKind::Timely,
            SenderCc::Off { .. } => CcKind::Off,
        }
    }

    fn rate_bps(&self) -> f64 {
        match self {
            SenderCc::Dcqcn(rp) => rp.rate_bps(),
            SenderCc::Timely(t) => t.rate_bps(),
            SenderCc::Off { rate_bps } => *rate_bps,
        }
    }

    /// DCQCN maps the signals onto the `on_cnp` / `on_bytes_sent` /
    /// `on_alpha_timer` + `on_increase_timer` call sequence of its
    /// reaction point and ignores RTT samples; TIMELY uses RTT samples
    /// only; the off arm ignores everything. Inlined: the NIC calls it
    /// for every packet it sends, and most calls do nothing.
    #[inline]
    fn on_signal(&mut self, sig: CcSignal, now_ps: u64) -> Option<CcAction> {
        match self {
            SenderCc::Dcqcn(rp) => {
                let (moved, cause) = match sig {
                    CcSignal::Cnp => (rp.on_cnp(), "cnp"),
                    CcSignal::BytesSent { bytes } => (rp.on_bytes_sent(bytes), "byte-counter"),
                    CcSignal::Tick => {
                        rp.on_alpha_timer();
                        (rp.on_increase_timer(), "timer")
                    }
                    CcSignal::AckRtt { .. } => return None,
                };
                moved.then(|| CcAction::RateChange {
                    rate_bps: rp.rate_bps(),
                    cause,
                })
            }
            SenderCc::Timely(t) => match sig {
                CcSignal::AckRtt { rtt_ps } => t.on_rtt(rtt_ps, now_ps),
                CcSignal::Cnp | CcSignal::BytesSent { .. } | CcSignal::Tick => None,
            },
            SenderCc::Off { .. } => None,
        }
    }

    fn rate_changes(&self) -> u64 {
        match self {
            SenderCc::Dcqcn(rp) => rp.rate_changes(),
            SenderCc::Timely(t) => t.rate_changes(),
            SenderCc::Off { .. } => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LINE: u64 = 40_000_000_000;

    fn timely() -> TimelyState {
        TimelyState::new(LINE)
    }

    /// Feed a sample every update interval (advancing the shared clock so
    /// consecutive batches stay ordered) so each one may move the rate.
    fn feed_at(s: &mut TimelyState, now: &mut u64, rtts_us: &[u64]) {
        for &us in rtts_us {
            *now += UPDATE_EVERY_PS;
            s.on_rtt(us * 1_000_000, *now);
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
        assert!(s.rate_bps() >= cut + ADD_BPS);
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
        s.on_rtt(30_000_000, 1);
        s.on_rtt(45_000_000, 2);
        assert_eq!(s.rate_bps(), 40e9, "no update before the interval");
        assert_eq!(s.samples(), 2, "samples still refresh the gradient");
    }

    /// Through the enum, DCQCN is its reaction point: CNPs cut the rate,
    /// RTT samples do nothing, and a tick runs both RP timers; every move
    /// of the rate surfaces as an action naming its cause.
    #[test]
    fn dcqcn_sender_runs_its_reaction_point() {
        let mut cc = SenderCc::new(&CcKind::Dcqcn, LINE);
        assert_eq!(cc.rate_bps(), 40e9);
        assert_eq!(cc.on_signal(CcSignal::AckRtt { rtt_ps: 1 << 40 }, 0), None);
        let Some(CcAction::RateChange { rate_bps, cause }) = cc.on_signal(CcSignal::Cnp, 0) else {
            panic!("a CNP must cut the rate");
        };
        assert_eq!((rate_bps, cause), (20e9, "cnp"));
        let Some(CcAction::RateChange { rate_bps, cause }) = cc.on_signal(CcSignal::Tick, 1) else {
            panic!("a tick starts fast recovery");
        };
        assert!(rate_bps > 20e9 && rate_bps == cc.rate_bps());
        assert_eq!(cause, "timer");
        assert_eq!(cc.rate_changes(), 2);
        // The byte counter moves the rate once per stage it completes.
        let mut moves = 0;
        while moves == 0 {
            let act = cc.on_signal(CcSignal::BytesSent { bytes: 1 << 20 }, 2);
            if let Some(CcAction::RateChange { cause, .. }) = act {
                assert_eq!(cause, "byte-counter");
                moves += 1;
            }
        }
        assert_eq!(cc.rate_changes(), 3);
        assert_eq!(cc.kind(), CcKind::Dcqcn);
    }

    /// DCQCN's reaction point reports its own rate moves: over seeded
    /// streams of CNPs, ticks and byte counts — some long enough to
    /// complete several byte-counter stages in one call — a signal
    /// yields a `RateChange` exactly when the rate before and after it
    /// differ, carrying the rate after, and the moves reported are the
    /// ones `rate_changes()` counts.
    #[test]
    fn dcqcn_reports_exactly_the_moves_a_before_after_compare_sees() {
        let mut seed = 0xDC0C_u64;
        let mut rand = move |n: u64| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed % n
        };
        let mut total = 0;
        for _ in 0..64 {
            let mut cc = SenderCc::new(&CcKind::Dcqcn, LINE);
            let mut reported = 0;
            for t in 0..2000 {
                let sig = match rand(10) {
                    0 => CcSignal::Cnp,
                    1 | 2 => CcSignal::Tick,
                    3 => CcSignal::BytesSent {
                        bytes: rand(40 << 20),
                    },
                    _ => CcSignal::BytesSent {
                        bytes: 1 + rand(4096),
                    },
                };
                let before = cc.rate_bps();
                let action = cc.on_signal(sig, t);
                let after = cc.rate_bps();
                assert_eq!(action.is_some(), after != before, "{sig:?}");
                if let Some(CcAction::RateChange { rate_bps, .. }) = action {
                    assert_eq!(rate_bps, after);
                    reported += 1;
                }
            }
            assert_eq!(reported, cc.rate_changes());
            total += reported;
        }
        assert!(total > 10_000, "{total} moves");
    }

    #[test]
    fn fixed_rate_ignores_everything() {
        let mut cc = SenderCc::new(&CcKind::Off, LINE);
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
        assert_eq!(CcKind::Off.tick_period_ps(), None);
        for k in [CcKind::Dcqcn, CcKind::Timely, CcKind::Off] {
            assert_eq!(CcParams::for_line_rate(k, LINE), k);
            assert_eq!(SenderCc::new(&k, LINE).kind(), k);
        }
    }

    #[test]
    fn kind_names_are_stable() {
        assert_eq!(CcKind::Dcqcn.name(), "dcqcn");
        assert_eq!(CcKind::Timely.name(), "timely");
        assert_eq!(CcKind::Off.name(), "off");
    }
}
