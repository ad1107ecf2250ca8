//! DCQCN congestion control (Zhu et al., SIGCOMM 2015) as pure state
//! machines.
//!
//! The paper under reproduction uses DCQCN as its flow-level congestion
//! control: "We use DCQCN, which uses ECN for congestion notification, in
//! our network … Small queue lengths reduce the PFC generation and
//! propagation probability" (§2). DCQCN has three roles:
//!
//! * **CP** (congestion point, the switch): RED-style probabilistic ECN
//!   marking on egress queue length — [`should_mark`].
//! * **NP** (notification point, the receiving NIC): on a CE-marked
//!   packet, send a CNP back to the sender, at most one per
//!   50 µs per flow — [`NpState`].
//! * **RP** (reaction point, the sending NIC): on CNP, multiplicatively
//!   cut the per-QP rate and remember the pre-cut rate as a target; then
//!   recover in three phases (fast recovery → additive increase → hyper
//!   increase) driven by a timer and a byte counter — [`RpState`].
//!
//! Everything here is time-as-argument pure logic: the NIC adapter owns
//! the clocks and calls `on_*` methods, which makes the algorithm directly
//! unit-testable (rate trajectories, alpha decay, phase transitions).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Queue length (bytes) at or below which the congestion point marks
/// nothing: the DCQCN paper's Kmin for 40 GbE, 40 KB.
const KMIN_BYTES: u64 = 40 * 1024;
/// Queue length (bytes) at or above which it marks everything: Kmax,
/// 200 KB.
const KMAX_BYTES: u64 = 200 * 1024;
/// Marking probability just below Kmax; it ramps linearly from 0 at
/// Kmin (Pmax, 1%).
const PMAX: f64 = 0.01;

/// The congestion point (switch): RED/WRED marking on instantaneous egress
/// queue length, as the DCQCN paper recommends. Decide whether to CE-mark
/// a packet arriving to an egress queue of `queue_bytes`. `draw` yields a
/// uniform value in `[0, 1)` and is called only inside (Kmin, Kmax), where
/// it can change the outcome. Marking is memoryless, so this function is
/// the whole congestion point.
pub fn should_mark(queue_bytes: u64, draw: impl FnOnce() -> f64) -> bool {
    if queue_bytes <= KMIN_BYTES {
        false
    } else if queue_bytes >= KMAX_BYTES {
        true
    } else {
        let frac = (queue_bytes - KMIN_BYTES) as f64 / (KMAX_BYTES - KMIN_BYTES) as f64;
        draw() < frac * PMAX
    }
}

/// Minimum interval between CNPs for one flow; the DCQCN paper uses
/// 50 µs.
const MIN_CNP_INTERVAL_PS: u64 = 50_000_000;

/// Per-flow notification-point state; the default has sent no CNP yet.
#[derive(Debug, Clone, Default)]
pub struct NpState {
    last_cnp_ps: Option<u64>,
}

impl NpState {
    /// A CE-marked packet arrived for this flow at time `now_ps`.
    /// Returns true if a CNP should be sent now.
    pub fn on_ce_packet(&mut self, now_ps: u64) -> bool {
        let fire = match self.last_cnp_ps {
            None => true,
            Some(t) => now_ps.saturating_sub(t) >= MIN_CNP_INTERVAL_PS,
        };
        if fire {
            self.last_cnp_ps = Some(now_ps);
        }
        fire
    }
}

// The reaction-point constants below follow the DCQCN paper and common
// NIC firmware; only the line rate varies, per QP.

/// Rate floor, bits/second (10 Mb/s).
const MIN_RATE_BPS: f64 = 10e6;
/// EWMA gain `g` of the alpha update (1/256).
const G: f64 = 1.0 / 256.0;
/// Period of both the alpha-update timer and the rate-increase timer
/// (55 µs each). The NIC drives the two from one tick of this period.
pub const TIMER_PS: u64 = 55_000_000;
/// Byte-counter threshold that also drives rate increase (10 MB).
const BYTE_COUNTER: u64 = 10 * 1024 * 1024;
/// Stage threshold F: expiries of either counter before leaving fast
/// recovery (5).
const F_STAGES: u32 = 5;
/// Additive increase step, bits/second (40 Mb/s).
const RAI_BPS: f64 = 40e6;
/// Hyper increase step, bits/second (400 Mb/s).
const RHAI_BPS: f64 = 400e6;

/// Per-QP reaction-point state: the DCQCN sender algorithm.
#[derive(Debug, Clone)]
pub struct RpState {
    /// Line rate and the cap for the current rate, b/s.
    line_rate_bps: f64,
    /// Current (enforced) rate, b/s.
    rc: f64,
    /// Target rate, b/s.
    rt: f64,
    /// Congestion estimate α ∈ [0, 1].
    alpha: f64,
    /// Bytes sent since the byte counter last expired.
    bytes_since: u64,
    /// Byte-counter expiries since the last rate decrease.
    bc_stage: u32,
    /// Increase-timer expiries since the last rate decrease.
    t_stage: u32,
    /// Whether any CNP has ever been received (rate stays at line rate
    /// until first congestion feedback).
    cut_ever: bool,
    /// True if a CNP arrived during the current alpha-timer period.
    cnp_this_period: bool,
    rate_changes: u64,
}

impl RpState {
    /// A fresh RP at `line_rate_bps`.
    pub fn new(line_rate_bps: u64) -> RpState {
        let line_rate_bps = line_rate_bps as f64;
        RpState {
            line_rate_bps,
            rc: line_rate_bps,
            rt: line_rate_bps,
            alpha: 1.0,
            bytes_since: 0,
            bc_stage: 0,
            t_stage: 0,
            cut_ever: false,
            cnp_this_period: false,
            rate_changes: 0,
        }
    }

    /// The rate the NIC should currently pace this QP at, b/s.
    pub fn rate_bps(&self) -> f64 {
        self.rc
    }

    /// Congestion estimate α (1 = fully congested).
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Calls to [`Self::on_cnp`], [`Self::on_bytes_sent`] and
    /// [`Self::on_increase_timer`] that moved the enforced rate `Rc` —
    /// the telemetry bus's `rate_change` event count.
    pub fn rate_changes(&self) -> u64 {
        self.rate_changes
    }

    /// Count one rate move if `moved`; hands `moved` back.
    fn counted(&mut self, moved: bool) -> bool {
        self.rate_changes += moved as u64;
        moved
    }

    /// A CNP arrived: multiplicative decrease and reset the recovery
    /// machinery. `Rt ← Rc; Rc ← Rc·(1 − α/2)`. Returns whether `Rc`
    /// moved.
    pub fn on_cnp(&mut self) -> bool {
        self.cnp_this_period = true;
        self.cut_ever = true;
        self.rt = self.rc;
        let old_rc = self.rc;
        self.rc = (self.rc * (1.0 - self.alpha / 2.0)).max(MIN_RATE_BPS);
        self.alpha = (1.0 - G) * self.alpha + G;
        self.bytes_since = 0;
        self.bc_stage = 0;
        self.t_stage = 0;
        self.counted(self.rc != old_rc)
    }

    /// Alpha-update timer expired (call every [`TIMER_PS`]): if no CNP
    /// arrived this period, α decays toward zero.
    pub fn on_alpha_timer(&mut self) {
        if !self.cnp_this_period {
            self.alpha *= 1.0 - G;
        }
        self.cnp_this_period = false;
    }

    /// Account `bytes` sent on this QP; may trigger byte-counter stages.
    /// Returns whether `Rc` moved.
    pub fn on_bytes_sent(&mut self, bytes: u64) -> bool {
        if !self.cut_ever {
            return false; // still at line rate, nothing to recover
        }
        self.bytes_since += bytes;
        let mut moved = false;
        while self.bytes_since >= BYTE_COUNTER {
            self.bytes_since -= BYTE_COUNTER;
            self.bc_stage = self.bc_stage.saturating_add(1);
            moved |= self.increase();
        }
        self.counted(moved)
    }

    /// Rate-increase timer expired (call every [`TIMER_PS`]). Returns
    /// whether `Rc` moved.
    pub fn on_increase_timer(&mut self) -> bool {
        if !self.cut_ever {
            return false;
        }
        self.t_stage = self.t_stage.saturating_add(1);
        let moved = self.increase();
        self.counted(moved)
    }

    /// One recovery step; phase depends on how many stages each counter
    /// has accumulated since the last decrease. Returns whether `Rc`
    /// moved: `Rc ≤ Rt` always holds, so a step only raises it.
    fn increase(&mut self) -> bool {
        if self.bc_stage > F_STAGES && self.t_stage > F_STAGES {
            // Hyper increase: both counters deep into recovery.
            self.rt = (self.rt + RHAI_BPS).min(self.line_rate_bps);
        } else if self.bc_stage > F_STAGES || self.t_stage > F_STAGES {
            // Additive increase.
            self.rt = (self.rt + RAI_BPS).min(self.line_rate_bps);
        }
        // Fast recovery (and every phase): close half the gap to target.
        let old_rc = self.rc;
        self.rc = ((self.rt + self.rc) / 2.0).min(self.line_rate_bps);
        self.rc != old_rc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rp() -> RpState {
        RpState::new(40_000_000_000)
    }

    #[test]
    fn starts_at_line_rate() {
        let s = rp();
        assert_eq!(s.rate_bps(), 40e9);
        assert_eq!(s.alpha(), 1.0);
    }

    #[test]
    fn first_cnp_halves_rate() {
        let mut s = rp();
        s.on_cnp();
        // α = 1 → cut by α/2 = 50%.
        assert!((s.rate_bps() - 20e9).abs() < 1e6, "rc = {}", s.rate_bps());
    }

    #[test]
    fn alpha_decays_without_cnps() {
        let mut s = rp();
        s.on_cnp();
        let a0 = s.alpha();
        for _ in 0..256 {
            s.on_alpha_timer();
        }
        // (1 - 1/256)^256 ≈ e^-1.
        assert!(s.alpha() < a0 * 0.4, "alpha = {}", s.alpha());
    }

    #[test]
    fn repeated_cnps_converge_to_floor_not_zero() {
        let mut s = rp();
        for _ in 0..10_000 {
            s.on_cnp();
        }
        assert!(s.rate_bps() >= 10e6);
    }

    #[test]
    fn fast_recovery_converges_to_target() {
        let mut s = rp();
        s.on_cnp(); // rt = 40G, rc = 20G
        for _ in 0..5 {
            s.on_increase_timer();
        }
        // After 5 halvings of the gap: 40 - 20/2^5 = 39.375G.
        assert!(
            (s.rate_bps() - 39.375e9).abs() < 1e6,
            "rc = {}",
            s.rate_bps()
        );
        assert!(s.rate_bps() < 40e9);
    }

    #[test]
    fn additive_then_hyper_increase_recovers_to_line_rate() {
        let mut s = rp();
        s.on_cnp();
        for _ in 0..200 {
            s.on_increase_timer();
        }
        // Timer-driven additive increase alone must restore line rate.
        assert!((s.rate_bps() - 40e9).abs() < 1e3, "rc = {}", s.rate_bps());
    }

    #[test]
    fn byte_counter_drives_stages() {
        let mut s = rp();
        s.on_cnp();
        let before = s.rate_bps();
        s.on_bytes_sent(10 * 1024 * 1024); // one full byte-counter period
        assert!(
            s.rate_bps() > before,
            "byte counter should trigger recovery"
        );
    }

    #[test]
    fn no_recovery_before_first_cnp() {
        let mut s = rp();
        s.on_bytes_sent(100 * 1024 * 1024);
        s.on_increase_timer();
        assert_eq!(s.rate_bps(), 40e9);
    }

    #[test]
    fn hyper_increase_faster_than_additive() {
        // Cut twice so the target rate sits well below line rate, then
        // compare recovery driven by the timer alone (additive phase)
        // against recovery driven by timer + byte counter (hyper phase).
        let setup = || {
            let mut s = rp();
            s.on_cnp();
            s.on_cnp(); // rt = 20G, rc ≈ 10G — headroom above the target
            s
        };
        let mut additive = setup();
        let mut hyper = setup();
        for _ in 0..30 {
            additive.on_increase_timer();
            hyper.on_increase_timer();
            hyper.on_bytes_sent(10 * 1024 * 1024);
        }
        assert!(
            hyper.rate_bps() > additive.rate_bps(),
            "hyper {} <= additive {}",
            hyper.rate_bps(),
            additive.rate_bps()
        );
    }

    #[test]
    fn cnp_resets_recovery_stages() {
        let mut s = rp();
        s.on_cnp();
        for _ in 0..10 {
            s.on_increase_timer();
        }
        let recovered = s.rate_bps();
        s.on_cnp();
        assert!(s.rate_bps() < recovered);
        // Post-CNP the target is the pre-cut rate, and stages restart in
        // fast recovery: first step closes half the gap.
        let rc0 = s.rate_bps();
        s.on_increase_timer();
        assert!((s.rate_bps() - (recovered + rc0) / 2.0).abs() < 1e6);
    }

    #[test]
    fn rate_changes_count_actual_moves() {
        let mut s = rp();
        assert_eq!(s.rate_changes(), 0);
        s.on_increase_timer(); // pre-CNP: rc pinned at line rate, no change
        assert_eq!(s.rate_changes(), 0);
        s.on_cnp(); // multiplicative decrease
        assert_eq!(s.rate_changes(), 1);
        s.on_increase_timer(); // fast recovery moves rc toward target
        assert_eq!(s.rate_changes(), 2);
    }

    #[test]
    fn np_rate_limits_cnps() {
        let mut np = NpState::default();
        assert!(np.on_ce_packet(0));
        assert!(!np.on_ce_packet(10_000_000)); // 10 µs later: suppressed
        assert!(!np.on_ce_packet(49_000_000));
        assert!(np.on_ce_packet(50_000_000)); // 50 µs: allowed
        assert!(!np.on_ce_packet(60_000_000)); // the interval restarts
    }

    #[test]
    fn cp_marking_ramp() {
        // Outside (Kmin, Kmax) the outcome is fixed and nothing is drawn.
        let no_draw = || -> f64 { panic!("drew outside the ramp") };
        assert!(!should_mark(10 * 1024, no_draw));
        assert!(!should_mark(KMIN_BYTES, no_draw));
        assert!(should_mark(KMAX_BYTES, no_draw));
        assert!(should_mark(300 * 1024, no_draw));
        // Midpoint: probability pmax/2.
        let mid = (40 + (200 - 40) / 2) * 1024;
        assert!(should_mark(mid, || 0.004));
        assert!(!should_mark(mid, || 0.006));
    }

    /// Closed-loop stability: if the congestion point marks only while the
    /// rate exceeds a capacity threshold, the rate converges to a band
    /// around that threshold instead of collapsing or pinning at line
    /// rate. (Open-loop constant CNPs correctly cause monotone decrease —
    /// that is the algorithm working, not a stable operating point.)
    #[test]
    fn closed_loop_converges_to_bottleneck() {
        let capacity = 10e9;
        let mut s = rp();
        let mut rates = Vec::new();
        for round in 0..3000 {
            if s.rate_bps() > capacity {
                s.on_cnp();
            }
            s.on_increase_timer();
            s.on_alpha_timer();
            // Byte counter advances in proportion to the current rate over
            // one 55 µs period.
            s.on_bytes_sent((s.rate_bps() * 55e-6 / 8.0) as u64);
            if round > 2500 {
                rates.push(s.rate_bps());
            }
        }
        let min = rates.iter().cloned().fold(f64::MAX, f64::min);
        let max = rates.iter().cloned().fold(0.0, f64::max);
        assert!(min > capacity * 0.3, "collapsed: {min}");
        assert!(max < capacity * 2.0, "overshoot: {max}");
    }
}
