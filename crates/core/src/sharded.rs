//! Sharded cluster execution: per-pod worker shards behind the
//! conservative exchange.
//!
//! [`ShardedCluster`] is [`Cluster`] instantiated over a
//! [`ShardedWorld`]: the same devices, the same constructor, the same
//! methods — distributed across per-pod [`rocescale_sim::World`]s that
//! the exchange advances in lookahead epochs. Only the knobs and
//! counters of the exchange itself live here. Four determinism
//! guarantees anchor it (pinned by `tests/shard_determinism.rs`):
//!
//! 1. One effective shard (a `SingleThread` profile, `shards: 1`, or a
//!    single-pod topology the partition collapses) dispatches the
//!    byte-identical event stream — and golden digest — of
//!    [`ClusterBuilder::build`](crate::ClusterBuilder::build).
//! 2. With N ≥ 2 shards, serial and threaded epoch execution agree
//!    byte-for-byte: same digest, same event counts, same merged
//!    counter snapshot.
//! 3. The digest folds per-shard digests in fixed shard order, so a
//!    sharded run is replayable and pinnable like any other.
//! 4. Where `run_until` deadlines fall does not matter: one call,
//!    chunks on the exchange grid, chunks off it and the telemetry
//!    hub's own sampling chunks dispatch the same event stream.
//!
//! Every observation feature runs *bank-per-shard*: each shard's
//! devices register counters, gauges, time series and trace streams on
//! their own hub; [`Cluster::counters_snapshot`] merges the banks by
//! name (summing duplicates) into one deterministic fleet view, and a
//! configured trace sink receives every shard's records merged in
//! `(time, shard, emission)` order with a `shard` tag per line. Serial
//! and threaded execution produce byte-identical exports: within an
//! epoch each world writes only to its own bank, and the merge order is
//! a pure function of the records.

use rocescale_sim::{ShardStats, ShardTiming, ShardedWorld, SimTime};

use crate::cluster::Cluster;

/// A cluster on per-pod worker shards — what
/// [`ClusterBuilder::build_sharded`](crate::ClusterBuilder::build_sharded)
/// returns.
pub type ShardedCluster = Cluster<ShardedWorld>;

/// The exchange-specific surface: everything else is shared with the
/// one-world [`Cluster`].
impl Cluster<ShardedWorld> {
    /// Run every shard on the caller's thread — the same epoch loop
    /// with one worker — even with multiple shards (differential
    /// testing: results are byte-identical either way).
    pub fn set_threaded(&mut self, threaded: bool) {
        self.world.set_threaded(threaded);
    }

    /// Executed/skipped/boundary counters in one snapshot.
    pub fn shard_stats(&self) -> ShardStats {
        self.world.stats()
    }

    /// Per-shard wall-clock spent inside `World::run_until`, in
    /// nanoseconds (index = shard).
    pub fn shard_wall_nanos(&self) -> &[u64] {
        self.world.shard_wall_nanos()
    }

    /// Where the exchange's wall-clock went: the worker count and, per
    /// shard, nanoseconds busy, waiting at the barrier and exchanging.
    pub fn shard_timing(&self) -> ShardTiming {
        self.world.timing()
    }

    /// The conservative lookahead (min cross-shard propagation delay);
    /// `None` with one shard.
    pub fn lookahead(&self) -> Option<SimTime> {
        self.world.lookahead()
    }
}
