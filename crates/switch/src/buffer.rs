//! Shared-buffer ingress accounting: the counters PFC lives on.
//!
//! Mirrors the paper's description of commodity shared-buffer ASICs (§2):
//! all packets share one pool; an "ingress queue" is just a byte counter
//! per (ingress port, priority group). Lossless PGs additionally own a
//! reserved *headroom* that absorbs in-flight bytes after XOFF is sent.
//! The dynamic-sharing rule (§6.2) gates shared-pool admission at
//! `α × unallocated`, the parameter whose silent change from 1/16 to 1/64
//! caused the production incident of Figure 10.

use rocescale_packet::Priority;

use crate::config::BufferConfig;

/// Where an admitted packet's bytes were accounted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmitOutcome {
    /// Counted against the shared pool.
    Shared,
    /// Counted against the (port, PG) headroom (lossless only, after the
    /// XOFF threshold is exceeded).
    Headroom,
    /// Rejected: lossy packet over threshold, or pool exhausted, or —
    /// configuration failure — lossless headroom overrun.
    Drop,
}

/// One port's ingress counters, one lane per PG. `u32` bytes: no
/// counter exceeds the buffer, which [`SharedBuffer::new`] bounds below
/// 4 GiB.
#[derive(Debug, Clone, Copy, Default)]
struct PortPgs {
    shared: [u32; Priority::COUNT],
    headroom: [u32; Priority::COUNT],
    /// Bit `pg` set: that PG is in XOFF state (pause sent, XON pending).
    xoff: u8,
}

/// The shared buffer of one switch.
#[derive(Debug, Clone)]
pub struct SharedBuffer {
    cfg: BufferConfig,
    /// Shared-pool bytes in use across all (port, PG).
    shared_used: u64,
    /// Shared-pool capacity: total minus all headroom reservations.
    shared_capacity: u64,
    /// Per-(port, PG) counters.
    counters: Vec<PortPgs>,
    /// Peak shared usage, for monitoring.
    peak_shared: u64,
    /// Memoized [`SharedBuffer::xoff_threshold`]: the float multiply only
    /// depends on `shared_used` and the configured α, so it is recomputed
    /// at those (rare) mutation points instead of on every admission,
    /// XOFF, and XON comparison. Bit-exact with the direct computation.
    cached_threshold: u64,
}

impl SharedBuffer {
    /// Build for `ports` ports; headroom is reserved for each
    /// (port, lossless PG) pair up front, exactly like static headroom
    /// carving on real ASICs.
    pub fn new(cfg: BufferConfig, ports: u16, lossless: &[bool; Priority::COUNT]) -> SharedBuffer {
        assert!(
            cfg.total_bytes <= u32::MAX as u64,
            "buffer of {} B: per-queue byte counters are 32-bit",
            cfg.total_bytes
        );
        let lossless_pgs = lossless.iter().filter(|l| **l).count() as u64;
        let reserved = cfg.headroom_per_port_pg * lossless_pgs * ports as u64;
        assert!(
            reserved < cfg.total_bytes,
            "headroom ({reserved} B) exceeds buffer ({} B): too many lossless classes for \
             this buffer — the §2 constraint",
            cfg.total_bytes
        );
        let mut b = SharedBuffer {
            shared_capacity: cfg.total_bytes - reserved,
            cfg,
            shared_used: 0,
            counters: vec![PortPgs::default(); ports as usize],
            peak_shared: 0,
            cached_threshold: 0,
        };
        b.recompute_threshold();
        b
    }

    /// Recompute [`SharedBuffer::cached_threshold`] after a mutation of
    /// `shared_used` or the threshold configuration.
    fn recompute_threshold(&mut self) {
        self.cached_threshold = match self.cfg.alpha {
            Some(a) => {
                let unallocated = self.shared_capacity.saturating_sub(self.shared_used);
                (a * unallocated as f64) as u64
            }
            None => self.cfg.xoff_static,
        };
    }

    /// The XOFF threshold currently in force for one (port, PG) counter.
    /// Dynamic mode: `α × unallocated shared buffer`; static mode: fixed.
    pub fn xoff_threshold(&self) -> u64 {
        #[cfg(debug_assertions)]
        {
            let fresh = match self.cfg.alpha {
                Some(a) => {
                    let unallocated = self.shared_capacity.saturating_sub(self.shared_used);
                    (a * unallocated as f64) as u64
                }
                None => self.cfg.xoff_static,
            };
            debug_assert_eq!(self.cached_threshold, fresh);
        }
        self.cached_threshold
    }

    /// Try to admit `bytes` for (`port`, `pg`). Lossless packets overflow
    /// into headroom after the threshold; lossy packets drop.
    pub fn admit(&mut self, port: u16, pg: Priority, bytes: u64, lossless: bool) -> AdmitOutcome {
        let threshold = self.xoff_threshold();
        let c = &mut self.counters[port as usize];
        let (shared, headroom) = (&mut c.shared[pg.index()], &mut c.headroom[pg.index()]);
        let room_in_shared =
            self.shared_used + bytes <= self.shared_capacity && *shared as u64 + bytes <= threshold;
        if room_in_shared {
            *shared += bytes as u32;
            self.shared_used += bytes;
            self.peak_shared = self.peak_shared.max(self.shared_used);
            self.recompute_threshold();
            return AdmitOutcome::Shared;
        }
        if lossless {
            if *headroom as u64 + bytes <= self.cfg.headroom_per_port_pg {
                *headroom += bytes as u32;
                return AdmitOutcome::Headroom;
            }
            // Headroom overrun: a configuration error (undersized
            // headroom), surfaced as a lossless drop the experiments
            // assert to be zero.
            return AdmitOutcome::Drop;
        }
        AdmitOutcome::Drop
    }

    /// Release bytes previously admitted with `outcome`.
    pub fn release(&mut self, port: u16, pg: Priority, bytes: u64, outcome: AdmitOutcome) {
        let c = &mut self.counters[port as usize];
        match outcome {
            AdmitOutcome::Shared => {
                let shared = &mut c.shared[pg.index()];
                debug_assert!(*shared as u64 >= bytes && self.shared_used >= bytes);
                *shared -= bytes as u32;
                self.shared_used -= bytes;
                self.recompute_threshold();
            }
            AdmitOutcome::Headroom => {
                let headroom = &mut c.headroom[pg.index()];
                debug_assert!(*headroom as u64 >= bytes);
                *headroom -= bytes as u32;
            }
            AdmitOutcome::Drop => {}
        }
    }

    /// (shared, headroom) bytes held for (`port`, `pg`).
    fn held(&self, port: u16, pg: Priority) -> (u64, u64) {
        let c = &self.counters[port as usize];
        (c.shared[pg.index()] as u64, c.headroom[pg.index()] as u64)
    }

    /// Total (shared + headroom) bytes held for (`port`, `pg`).
    pub fn occupancy(&self, port: u16, pg: Priority) -> u64 {
        let (shared, headroom) = self.held(port, pg);
        shared + headroom
    }

    /// Should this counter be in XOFF? True once occupancy crosses the
    /// threshold (headroom use always implies XOFF).
    pub fn over_xoff(&self, port: u16, pg: Priority) -> bool {
        let (shared, headroom) = self.held(port, pg);
        headroom > 0 || shared >= self.xoff_threshold()
    }

    /// Should this counter be resumed? True once occupancy falls below
    /// threshold − hysteresis and headroom has drained.
    pub fn below_xon(&self, port: u16, pg: Priority) -> bool {
        let (shared, headroom) = self.held(port, pg);
        headroom == 0 && shared <= self.xoff_threshold().saturating_sub(self.cfg.xon_delta)
    }

    /// The latched XOFF state: set when a pause is sent, cleared when a
    /// resume is sent.
    pub fn xoff(&self, port: u16, pg: Priority) -> bool {
        self.counters[port as usize].xoff & (1 << pg.index()) != 0
    }

    /// Latch or clear the XOFF state of (`port`, `pg`).
    pub fn set_xoff(&mut self, port: u16, pg: Priority, on: bool) {
        let bit = 1 << pg.index();
        let flags = &mut self.counters[port as usize].xoff;
        if on {
            *flags |= bit;
        } else {
            *flags &= !bit;
        }
    }

    /// Shared-pool bytes currently in use.
    pub fn shared_used(&self) -> u64 {
        self.shared_used
    }

    /// Peak shared-pool usage observed.
    pub fn peak_shared(&self) -> u64 {
        self.peak_shared
    }

    /// Shared-pool capacity after headroom carving.
    pub fn shared_capacity(&self) -> u64 {
        self.shared_capacity
    }

    /// Rewrite the XOFF thresholds at runtime — the §6.2 incident knob
    /// (a firmware update silently shipping α = 1/64 instead of 1/16).
    /// `alpha = Some(a)` selects dynamic sharing at `a × unallocated`;
    /// `None` selects the static threshold `xoff_static`. Occupancy and
    /// headroom carving are untouched; only future admission and
    /// XOFF/XON comparisons see the new values.
    pub fn set_thresholds(&mut self, alpha: Option<f64>, xoff_static: u64) {
        self.cfg.alpha = alpha;
        self.cfg.xoff_static = xoff_static;
        self.recompute_threshold();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RDMA_CLASSES as LOSSLESS;

    fn cfg(alpha: Option<f64>) -> BufferConfig {
        BufferConfig {
            total_bytes: 1 << 20, // 1 MB
            headroom_per_port_pg: 20 * 1024,
            alpha,
            xoff_static: 100 * 1024,
            xon_delta: 4 * 1024,
        }
    }

    #[test]
    fn headroom_carved_up_front() {
        let b = SharedBuffer::new(cfg(None), 4, &LOSSLESS);
        // 4 ports × 2 lossless PGs × 20 KB = 160 KB reserved.
        assert_eq!(b.shared_capacity(), (1 << 20) - 160 * 1024);
    }

    #[test]
    #[should_panic(expected = "headroom")]
    fn too_many_lossless_classes_panics() {
        // 8 lossless PGs × 64 ports × 20 KB = 10 MB > 1 MB: the §2
        // shallow-buffer constraint, enforced at construction.
        SharedBuffer::new(cfg(None), 64, &[true; 8]);
    }

    #[test]
    fn static_threshold_admission() {
        let mut b = SharedBuffer::new(cfg(None), 4, &LOSSLESS);
        let p3 = Priority::new(3);
        // Fill to just under the static 100 KB threshold.
        assert_eq!(b.admit(0, p3, 99 * 1024, true), AdmitOutcome::Shared);
        assert!(!b.over_xoff(0, p3));
        // Next admission crosses into shared up to threshold...
        assert_eq!(b.admit(0, p3, 1024, true), AdmitOutcome::Shared);
        assert!(b.over_xoff(0, p3));
        // ...and beyond it, lossless traffic lands in headroom.
        assert_eq!(b.admit(0, p3, 1024, true), AdmitOutcome::Headroom);
        // Lossy traffic at the same point drops.
        assert_eq!(
            b.admit(0, Priority::new(0), 200 * 1024, false),
            AdmitOutcome::Drop
        );
    }

    #[test]
    fn lossless_headroom_overrun_drops() {
        let mut b = SharedBuffer::new(cfg(None), 4, &LOSSLESS);
        let p3 = Priority::new(3);
        assert_eq!(b.admit(0, p3, 100 * 1024, true), AdmitOutcome::Shared);
        assert_eq!(b.admit(0, p3, 20 * 1024, true), AdmitOutcome::Headroom);
        assert_eq!(b.admit(0, p3, 1, true), AdmitOutcome::Drop);
    }

    #[test]
    fn release_restores_capacity_and_xon() {
        let mut b = SharedBuffer::new(cfg(None), 4, &LOSSLESS);
        let p3 = Priority::new(3);
        b.admit(0, p3, 100 * 1024, true);
        let h = b.admit(0, p3, 10 * 1024, true);
        assert_eq!(h, AdmitOutcome::Headroom);
        assert!(b.over_xoff(0, p3));
        assert!(!b.below_xon(0, p3));
        b.release(0, p3, 10 * 1024, AdmitOutcome::Headroom);
        // Still at the threshold: not below XON yet (hysteresis).
        assert!(!b.below_xon(0, p3));
        b.release(0, p3, 10 * 1024, AdmitOutcome::Shared);
        assert!(b.below_xon(0, p3));
        assert_eq!(b.occupancy(0, p3), 90 * 1024);
    }

    /// The §6.2 incident in miniature: a smaller α makes XOFF fire at a
    /// fraction of the buffer, so pauses trigger far more easily.
    #[test]
    fn alpha_controls_pause_sensitivity() {
        let mk = |a| SharedBuffer::new(cfg(Some(a)), 4, &LOSSLESS);
        let b16 = mk(1.0 / 16.0);
        let b64 = mk(1.0 / 64.0);
        assert!(b16.xoff_threshold() > 3 * b64.xoff_threshold());
    }

    /// Dynamic threshold shrinks as the pool fills: admission from other
    /// ports reduces every port's XOFF point.
    #[test]
    fn dynamic_threshold_shrinks_under_load() {
        let mut b = SharedBuffer::new(cfg(Some(0.5)), 4, &LOSSLESS);
        let t0 = b.xoff_threshold();
        b.admit(1, Priority::new(4), 400 * 1024, true);
        let t1 = b.xoff_threshold();
        assert!(t1 < t0, "{t1} !< {t0}");
    }

    #[test]
    fn per_port_counters_independent() {
        let mut b = SharedBuffer::new(cfg(None), 4, &LOSSLESS);
        let p3 = Priority::new(3);
        b.admit(0, p3, 100 * 1024, true);
        assert!(b.over_xoff(0, p3));
        assert!(!b.over_xoff(1, p3));
        assert_eq!(b.occupancy(1, p3), 0);
    }

    #[test]
    fn peak_tracking() {
        let mut b = SharedBuffer::new(cfg(None), 4, &LOSSLESS);
        b.admit(0, Priority::new(3), 50 * 1024, true);
        b.release(0, Priority::new(3), 50 * 1024, AdmitOutcome::Shared);
        b.admit(0, Priority::new(3), 10 * 1024, true);
        assert_eq!(b.peak_shared(), 50 * 1024);
        assert_eq!(b.shared_used(), 10 * 1024);
    }
}
