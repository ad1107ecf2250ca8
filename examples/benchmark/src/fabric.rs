//! Outside-in readers over a built cluster: everything here goes through
//! the product's public accessors (`switch(i).stats`, `rdma(id).stats`,
//! `qp_endpoint`, `World::sched_stats`, …). `Cluster` and
//! `ShardedCluster` expose the same reads under the same names, so one
//! small trait lets the four workloads share the per-layer counters.

use rocescale::core::{Cluster, ServerId, ServerKind, ShardedCluster};
use rocescale::nic::{QpHandle, RdmaHost};
use rocescale::sim::World;
use rocescale::switch::{DropReason, Switch};

use crate::metrics::Table;

/// The reads the benchmark needs from either cluster flavour.
pub trait Fabric {
    /// Number of servers.
    fn host_count(&self) -> usize;
    /// Number of switches.
    fn switch_count(&self) -> usize;
    /// Borrow switch `i`.
    fn switch(&self, i: usize) -> &Switch;
    /// Ids of the RDMA servers.
    fn rdma_ids(&self) -> Vec<ServerId>;
    /// Borrow an RDMA server.
    fn rdma(&self, id: ServerId) -> &RdmaHost;
    /// The simulation worlds (one per shard).
    fn worlds(&self) -> Vec<&World>;
}

impl Fabric for Cluster {
    fn host_count(&self) -> usize {
        self.server_count()
    }
    fn switch_count(&self) -> usize {
        Cluster::switch_count(self)
    }
    fn switch(&self, i: usize) -> &Switch {
        Cluster::switch(self, i)
    }
    fn rdma_ids(&self) -> Vec<ServerId> {
        self.servers_of_kind(ServerKind::Rdma)
    }
    fn rdma(&self, id: ServerId) -> &RdmaHost {
        Cluster::rdma(self, id)
    }
    fn worlds(&self) -> Vec<&World> {
        vec![&self.world]
    }
}

impl Fabric for ShardedCluster {
    fn host_count(&self) -> usize {
        self.server_count()
    }
    fn switch_count(&self) -> usize {
        ShardedCluster::switch_count(self)
    }
    fn switch(&self, i: usize) -> &Switch {
        ShardedCluster::switch(self, i)
    }
    fn rdma_ids(&self) -> Vec<ServerId> {
        self.servers_of_kind(ServerKind::Rdma)
    }
    fn rdma(&self, id: ServerId) -> &RdmaHost {
        ShardedCluster::rdma(self, id)
    }
    fn worlds(&self) -> Vec<&World> {
        (0..self.shard_count()).map(|s| self.world(s)).collect()
    }
}

/// Index of one cumulative work counter in [`Counts`].
#[derive(Debug, Clone, Copy)]
#[repr(usize)]
enum C {
    SwRx,
    SwTx,
    SwPauseTx,
    SwResumeTx,
    SwEcn,
    SwDrops,
    SwLosslessDrops,
    FcHits,
    FcMisses,
    NicTx,
    NicRx,
    NicCnpTx,
    NicCnpRx,
    NicPauseRx,
    NicRxOverflow,
    NicCompletions,
    TrMsgs,
    TrRetx,
    TrDataTx,
    TrNaksRx,
    TrRto,
    TrOos,
    TrDup,
    Events,
    SchedPushed,
    SchedCascades,
    SchedOverflow,
    ArrivalEvents,
    PortIdleEvents,
    TimerEvents,
    ArrivalNanos,
    PortIdleNanos,
    TimerNanos,
    SingletonBatches,
    Batches,
    Len,
}

/// Cumulative work counters of the switch, nic, transport and sim
/// layers. Two readings bracket a timed window; their difference is the
/// work the window did, and the windows of a multi-arm workload add up.
#[derive(Debug, Clone, Copy)]
pub struct Counts([u64; C::Len as usize]);

impl Default for Counts {
    fn default() -> Counts {
        Counts([0; C::Len as usize])
    }
}

impl Counts {
    fn bump(&mut self, c: C, n: u64) {
        self.0[c as usize] += n;
    }

    fn get(&self, c: C) -> f64 {
        self.0[c as usize] as f64
    }

    /// Read every counter of `f` now.
    pub fn read(f: &impl Fabric) -> Counts {
        let mut c = Counts::default();
        for i in 0..f.switch_count() {
            let sw = f.switch(i);
            let st = &sw.stats;
            c.bump(C::SwRx, st.rx_pkts.iter().sum());
            c.bump(C::SwTx, st.tx_pkts.iter().sum());
            c.bump(C::SwPauseTx, st.total_pause_tx());
            c.bump(C::SwResumeTx, st.resume_tx.iter().sum());
            c.bump(C::SwEcn, st.ecn_marked);
            c.bump(C::SwDrops, st.total_drops());
            c.bump(
                C::SwLosslessDrops,
                st.drops_of(DropReason::LosslessOverflow),
            );
            let fc = sw.flow_cache_stats();
            c.bump(C::FcHits, fc.hits);
            c.bump(C::FcMisses, fc.misses);
        }
        for id in f.rdma_ids() {
            let h = f.rdma(id);
            c.bump(C::NicTx, h.stats.data_pkts_tx);
            c.bump(C::NicRx, h.stats.data_pkts_rx);
            c.bump(C::NicCnpTx, h.stats.cnp_tx);
            c.bump(C::NicCnpRx, h.stats.cnp_rx);
            c.bump(C::NicPauseRx, h.stats.pause_rx);
            c.bump(C::NicRxOverflow, h.stats.rx_overflow);
            c.bump(C::NicCompletions, h.stats.send_completions);
            for q in 0..h.qp_count() {
                let s = &h.qp_endpoint(QpHandle(q as u32)).stats;
                c.bump(C::TrMsgs, s.msgs_completed);
                c.bump(C::TrRetx, s.retx_pkts);
                c.bump(C::TrDataTx, s.data_pkts_tx);
                c.bump(C::TrNaksRx, s.naks_rx);
                c.bump(C::TrRto, s.rto_rewinds);
                c.bump(C::TrOos, s.out_of_seq_rx);
                c.bump(C::TrDup, s.duplicate_rx);
            }
        }
        for w in f.worlds() {
            c.bump(C::Events, w.events_processed());
            let s = w.sched_stats();
            c.bump(C::SchedPushed, s.pushed);
            c.bump(C::SchedCascades, s.cascades);
            c.bump(C::SchedOverflow, s.overflow_pushed);
            let p = w.event_profile();
            c.bump(C::ArrivalEvents, p.counts[1]);
            c.bump(C::PortIdleEvents, p.counts[2]);
            c.bump(C::TimerEvents, p.counts[3]);
            c.bump(C::ArrivalNanos, p.nanos[1]);
            c.bump(C::PortIdleNanos, p.nanos[2]);
            c.bump(C::TimerNanos, p.nanos[3]);
            c.bump(C::SingletonBatches, p.batches[0]);
            c.bump(C::Batches, p.total_batches());
        }
        c
    }

    /// Add the work done between `start` and `end` to `self`.
    pub fn add_window(&mut self, start: &Counts, end: &Counts) {
        for (acc, (s, e)) in self.0.iter_mut().zip(start.0.iter().zip(end.0.iter())) {
            *acc += e - s;
        }
    }

    /// Write the counters, and the ratios they define, into `t`.
    pub fn emit(&self, t: &mut Table) {
        let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        for (name, c) in [
            ("switch.rx_pkts", C::SwRx),
            ("switch.tx_pkts", C::SwTx),
            ("switch.pause_tx", C::SwPauseTx),
            ("switch.resume_tx", C::SwResumeTx),
            ("switch.ecn_marked", C::SwEcn),
            ("switch.drops", C::SwDrops),
            ("switch.lossless_drops", C::SwLosslessDrops),
            ("nic.data_pkts_tx", C::NicTx),
            ("nic.data_pkts_rx", C::NicRx),
            ("nic.cnp_tx", C::NicCnpTx),
            ("nic.pause_rx", C::NicPauseRx),
            ("nic.rx_overflow", C::NicRxOverflow),
            ("nic.send_completions", C::NicCompletions),
            ("transport.msgs_completed", C::TrMsgs),
            ("transport.retx_pkts", C::TrRetx),
            ("transport.naks_rx", C::TrNaksRx),
            ("transport.rto_rewinds", C::TrRto),
            ("transport.out_of_seq_rx", C::TrOos),
            ("transport.duplicate_rx", C::TrDup),
            ("sim.events", C::Events),
            ("sim.sched_pushed", C::SchedPushed),
            ("sim.sched_overflow_pushed", C::SchedOverflow),
            ("sim.kind_arrival_events", C::ArrivalEvents),
            ("sim.kind_port_idle_events", C::PortIdleEvents),
            ("sim.kind_timer_events", C::TimerEvents),
        ] {
            t.set(name, self.get(c));
        }
        t.set(
            "switch.flow_cache_hit_ratio",
            ratio(
                self.get(C::FcHits),
                self.get(C::FcHits) + self.get(C::FcMisses),
            ),
        );
        t.set(
            "transport.retx_ratio",
            ratio(self.get(C::TrRetx), self.get(C::TrDataTx)),
        );
        t.set(
            "cc.cnp_per_kpkt",
            ratio(self.get(C::NicCnpRx) * 1e3, self.get(C::NicTx)),
        );
        t.set(
            "sim.sched_cascades_per_event",
            ratio(self.get(C::SchedCascades), self.get(C::Events)),
        );
        t.set(
            "sim.batch_singleton_ratio",
            ratio(self.get(C::SingletonBatches), self.get(C::Batches)),
        );
        for (name, nanos, events) in [
            ("sim.kind_arrival_ns", C::ArrivalNanos, C::ArrivalEvents),
            ("sim.kind_port_idle_ns", C::PortIdleNanos, C::PortIdleEvents),
            ("sim.kind_timer_ns", C::TimerNanos, C::TimerEvents),
        ] {
            t.set(name, ratio(self.get(nanos), self.get(events)));
        }
    }
}
