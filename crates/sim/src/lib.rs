//! Deterministic discrete-event simulation kernel for `rocescale`.
//!
//! The kernel is deliberately small: simulated time, an event queue, duplex
//! links, and a [`Node`] trait that switches and hosts implement. Every
//! interaction between nodes happens through packets scheduled on links —
//! nodes never call each other — which keeps the component crates
//! decoupled and the whole simulation reproducible.
//!
//! Determinism is load-bearing for this reproduction: the paper's
//! incidents (PFC deadlock, pause storms) are emergent interleavings, and
//! being able to replay them exactly from a seed is what makes them
//! testable. Two rules guarantee it:
//!
//! 1. Events are ordered by `(time, sequence-number)`, the sequence number
//!    being a monotone counter assigned at scheduling time, so simultaneous
//!    events fire in a defined order.
//! 2. All randomness flows from one seeded in-tree [`SimRng`] owned by
//!    the [`World`] — no external PRNG crate, so identical seeds give
//!    identical runs regardless of dependency version drift.
//!
//! The design follows smoltcp's event-driven philosophy: protocol logic
//! lives in plain state machines (see `rocescale-transport`,
//! `rocescale-dcqcn`), and nodes adapt them to this event loop. Per the
//! Tokio guidance on CPU-bound work, there is no async runtime here — the
//! simulation is a single-threaded computation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arena;
mod rng;
pub mod sched;
mod shard;
mod time;
mod world;

pub use rng::SimRng;
pub use sched::{EngineKind, SchedStats};
pub use shard::{
    merged_digest, EpochPacing, ShardStats, ShardTiming, ShardedWorld, WorldSet,
    PACKET_ID_SHARD_SHIFT,
};
pub use time::SimTime;
pub use world::{
    digest_fold, BoundaryMsg, Ctx, EventProfile, LinkSpec, Node, NodeId, PortId, ProfileMode,
    RemotePort, TxError, World,
};

/// Speed of signal propagation in copper/fiber used for cable-length →
/// delay conversion: ~2/3 c ≈ 5 ns per metre.
pub const PROPAGATION_PS_PER_METER: u64 = 5_000;

/// Picoseconds to serialize `bytes` at `bps` bits/second.
#[inline]
pub fn serialization_ps(bytes: u32, bps: u64) -> u64 {
    // `bytes * 8e12` fits u64 up to ~2.3 MB frames, which covers every
    // real wire size — so the per-transmit path stays in one u64
    // division instead of a u128 libcall. Results are bit-identical.
    const PS_PER_BYTE_NUM: u64 = 8 * 1_000_000_000_000;
    if let Some(num) = (bytes as u64).checked_mul(PS_PER_BYTE_NUM) {
        num / bps
    } else {
        ((bytes as u128) * PS_PER_BYTE_NUM as u128 / bps as u128) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serialization_examples() {
        // 1086-byte frame at 40 Gb/s = 217.2 ns.
        assert_eq!(serialization_ps(1086, 40_000_000_000), 217_200);
        // 64-byte frame at 10 Gb/s = 51.2 ns.
        assert_eq!(serialization_ps(64, 10_000_000_000), 51_200);
    }

    #[test]
    fn propagation_300m() {
        // The paper's max Leaf–Spine cable: 300 m ≈ 1.5 µs one way.
        assert_eq!(300 * PROPAGATION_PS_PER_METER, 1_500_000);
    }
}
