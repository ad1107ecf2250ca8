//! Property tests on the shared-buffer accounting — the invariants PFC
//! correctness rests on. Randomized via the in-tree deterministic
//! `SimRng`, so every failing case replays from its seed.

use rocescale_packet::Priority;
use rocescale_sim::SimRng;
use rocescale_switch::{AdmitOutcome, BufferConfig, SharedBuffer, RDMA_CLASSES as LOSSLESS};

fn cfg(alpha: Option<f64>) -> BufferConfig {
    BufferConfig {
        total_bytes: 1 << 20,
        headroom_per_port_pg: 16 * 1024,
        alpha,
        xoff_static: 64 * 1024,
        xon_delta: 4 * 1024,
    }
}

#[derive(Debug, Clone)]
struct Op {
    port: u16,
    pg: u8,
    bytes: u64,
    admit: bool, // false = release the oldest admitted packet
}

fn random_ops(rng: &mut SimRng) -> Vec<Op> {
    let n = rng.gen_range(1..400) as usize;
    (0..n)
        .map(|_| Op {
            port: rng.gen_below(4) as u16,
            pg: rng.gen_below(8) as u8,
            bytes: rng.gen_range(64..4096),
            admit: rng.gen_bool(0.5),
        })
        .collect()
}

/// Under any admit/release sequence: shared usage never exceeds
/// capacity, counters never go negative (checked by the release
/// debug asserts), lossless packets are never dropped while their
/// headroom has room, and full release returns the pool to zero.
#[test]
fn accounting_invariants() {
    let mut rng = SimRng::from_seed(0xB0FF_0001);
    for _ in 0..128 {
        let ops = random_ops(&mut rng);
        let dynamic = rng.gen_bool(0.5);
        let alpha = if dynamic { Some(1.0 / 8.0) } else { None };
        let mut buf = SharedBuffer::new(cfg(alpha), 4, &LOSSLESS);
        // (port, pg, bytes, outcome) of live admissions.
        let mut live: Vec<(u16, Priority, u64, AdmitOutcome)> = Vec::new();
        for op in &ops {
            if op.admit {
                let pg = Priority::new(op.pg);
                let lossless = LOSSLESS[pg.index()];
                let outcome = buf.admit(op.port, pg, op.bytes, lossless);
                assert!(
                    buf.shared_used() <= buf.shared_capacity(),
                    "shared pool overflow"
                );
                match outcome {
                    AdmitOutcome::Drop => {
                        if lossless {
                            // Only legal when this counter's headroom is
                            // genuinely exhausted.
                            assert!(
                                buf.occupancy(op.port, pg) + op.bytes
                                    > buf.xoff_threshold() + 16 * 1024
                                    || buf.shared_used() + op.bytes > buf.shared_capacity()
                            );
                        }
                    }
                    o => live.push((op.port, pg, op.bytes, o)),
                }
            } else if let Some((port, pg, bytes, outcome)) = live.pop() {
                buf.release(port, pg, bytes, outcome);
            }
        }
        // Drain everything: the pool must return to exactly zero.
        while let Some((port, pg, bytes, outcome)) = live.pop() {
            buf.release(port, pg, bytes, outcome);
        }
        assert_eq!(buf.shared_used(), 0);
        for port in 0..4u16 {
            for pg in 0..8u8 {
                assert_eq!(buf.occupancy(port, Priority::new(pg)), 0);
            }
        }
    }
}

/// XOFF hysteresis: `below_xon` implies not `over_xoff` (with any
/// positive delta), so the pause state machine can never flap in the
/// same instant.
#[test]
fn xoff_xon_are_disjoint() {
    let mut rng = SimRng::from_seed(0xB0FF_0002);
    for _ in 0..128 {
        let fill = rng.gen_below(300_000);
        let dynamic = rng.gen_bool(0.5);
        let alpha = if dynamic { Some(1.0 / 8.0) } else { None };
        let mut buf = SharedBuffer::new(cfg(alpha), 4, &LOSSLESS);
        let pg = Priority::new(3);
        let mut outcomes = Vec::new();
        let mut admitted = 0u64;
        while admitted < fill {
            match buf.admit(0, pg, 1024, true) {
                AdmitOutcome::Drop => break,
                o => outcomes.push(o),
            }
            admitted += 1024;
        }
        if buf.below_xon(0, pg) {
            assert!(!buf.over_xoff(0, pg));
        }
        for o in outcomes {
            buf.release(0, pg, 1024, o);
        }
    }
}

/// The dynamic threshold is monotone: admitting from another port
/// never raises this port's threshold.
#[test]
fn dynamic_threshold_monotone_decreasing() {
    let mut rng = SimRng::from_seed(0xB0FF_0003);
    for _ in 0..128 {
        let chunks: Vec<u64> = (0..rng.gen_range(1..20))
            .map(|_| rng.gen_range(1024..32_768))
            .collect();
        let mut buf = SharedBuffer::new(cfg(Some(0.25)), 4, &LOSSLESS);
        let mut last = buf.xoff_threshold();
        for (i, c) in chunks.iter().enumerate() {
            let port = (i % 3 + 1) as u16;
            if buf.admit(port, Priority::new(4), *c, true) == AdmitOutcome::Drop {
                break;
            }
            let t = buf.xoff_threshold();
            assert!(t <= last, "threshold rose under load: {t} > {last}");
            last = t;
        }
    }
}
