//! Cluster construction and operation: topology → simulated fabric.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use rocescale_monitor::{
    BlockId, GaugeId, Group, MemorySink, MetricsHub, Path, Pingmesh, QueueSample, ScopeId,
    StreamRecord, TraceSink,
};
use rocescale_nic::{
    host::{TOK_INJECT_STORM, TOK_STOP_STORM},
    HostPfcMode, NicConfig, QpApp, QpHandle, RdmaHost,
};
use rocescale_packet::{MacAddr, Priority};
use rocescale_sim::{
    merged_digest, LinkSpec, Node, NodeId, PortId, RemotePort, ShardedWorld, SimTime, World,
    WorldSet,
};
use rocescale_switch::{
    AdminAction, BufferConfig, ClassifyMode, DropReason, EcmpGroup, PortRole, Switch, SwitchConfig,
    WatchdogConfig,
};
use rocescale_tcp::{ConnHandle, TcpApp, TcpHost, TcpHostConfig};
use rocescale_topology::{ClosSpec, Partition, RouteSpec, Tier, Topology};
use rocescale_transport::QpConfig;

use crate::detect::{DeadlockProbe, ProbeLink};
use crate::instrument::InstrumentationProfile;
use crate::profiles::{
    ExecutionProfile, FabricProfile, FaultProfile, ScriptAction, TransportProfile,
};

/// Per-shard world-seed stride: shard `s` seeds its world with
/// `seed + s * STRIDE`, so shard 0 keeps the builder's seed (and thus
/// the single-shard event stream) while other shards draw independent
/// streams.
const SHARD_SEED_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;

/// Park an admin action in a switch and schedule the timer that fires it
/// — the build-time translation of one scripted incident step.
fn sched_admin(world: &mut World, at: SimTime, sim: NodeId, action: AdminAction) {
    let token = world.node_mut::<Switch>(sim).schedule_admin(action);
    world.schedule_timer(at, sim, token);
}

/// PFC flavour for the whole cluster (§3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PfcMode {
    /// DSCP-based PFC: the paper's design. Layer-3 clean, access-mode
    /// server ports.
    Dscp,
    /// VLAN-based PFC: the original design whose trunk-mode coupling
    /// breaks PXE boot.
    Vlan,
}

/// What runs on a server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServerKind {
    /// RoCEv2 host.
    Rdma,
    /// Kernel-TCP host (the baseline / legacy apps).
    Tcp,
}

/// Index into the cluster's server list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ServerId(pub usize);

/// Builder for a [`Cluster`].
///
/// Configuration is grouped into five profiles — [`FabricProfile`]
/// (switches), [`TransportProfile`] (NICs), [`FaultProfile`] (injected
/// failures), [`InstrumentationProfile`] (observation: telemetry hub,
/// digest, profiler, trace sink), [`ExecutionProfile`] (single-threaded
/// or pod-sharded dispatch) — each defaulting to the paper's deployed
/// settings. The builder itself keeps only the seed and per-node escape
/// hatches.
pub struct ClusterBuilder {
    spec: ClosSpec,
    fabric: FabricProfile,
    transport: TransportProfile,
    faults: FaultProfile,
    instr: InstrumentationProfile,
    execution: ExecutionProfile,
    seed: u64,
    server_kind: Box<dyn FnMut(usize) -> ServerKind + Send>,
    host_tweak: HostTweak,
    tcp_tweak: TcpTweak,
    switch_tweak: SwitchTweak,
}

/// Per-server hook mutating a NIC config before the host is built.
///
/// Hooks are `Send` (like the builder itself) so the fleet runner can
/// construct whole clusters inside worker threads.
type HostTweak = Box<dyn FnMut(usize, &mut NicConfig) + Send>;
/// Per-server hook mutating a TCP host config before the host is built.
type TcpTweak = Box<dyn FnMut(usize, &mut TcpHostConfig) + Send>;
/// Per-switch hook (keyed by name) mutating a switch config.
type SwitchTweak = Box<dyn FnMut(&str, &mut SwitchConfig) + Send>;

impl ClusterBuilder {
    /// A cluster over an arbitrary Clos spec, with the paper's
    /// recommended configuration: DSCP-based PFC, go-back-N, DCQCN + ECN,
    /// watchdogs on, deadlock fix on, PFC up to the spine.
    pub fn new(spec: ClosSpec) -> ClusterBuilder {
        ClusterBuilder {
            spec,
            fabric: FabricProfile::paper_default(),
            transport: TransportProfile::paper_default(),
            faults: FaultProfile::paper_default(),
            instr: InstrumentationProfile::paper_default(),
            execution: ExecutionProfile::paper_default(),
            seed: 1,
            server_kind: Box::new(|_| ServerKind::Rdma),
            host_tweak: Box::new(|_, _| {}),
            tcp_tweak: Box::new(|_, _| {}),
            switch_tweak: Box::new(|_, _| {}),
        }
    }

    /// One pod, `tors` racks of `servers_per_tor`, two leaves (a small
    /// two-tier testbed like Figure 8's).
    pub fn two_tier(tors: u32, servers_per_tor: u32) -> ClusterBuilder {
        ClusterBuilder::new(ClosSpec::uniform_40g(1, tors, 2, 2, servers_per_tor))
    }

    /// One ToR with `servers` hosts (a lab rack).
    pub fn single_tor(servers: u32) -> ClusterBuilder {
        ClusterBuilder::new(ClosSpec::uniform_40g(1, 1, 1, 1, servers))
    }

    /// Replace the switch-side configuration profile.
    pub fn fabric(mut self, f: FabricProfile) -> Self {
        self.fabric = f;
        self
    }

    /// Replace the NIC-side transport profile.
    pub fn transport(mut self, t: TransportProfile) -> Self {
        self.transport = t;
        self
    }

    /// Replace the fault-injection profile.
    pub fn faults(mut self, f: FaultProfile) -> Self {
        self.faults = f;
        self
    }

    /// Replace the observation profile: telemetry hub, dispatch digest,
    /// dispatch profiler, and streaming trace sink, as one coherent
    /// group.
    pub fn instrumentation(mut self, i: InstrumentationProfile) -> Self {
        self.instr = i;
        self
    }

    /// Replace the execution profile: the shard count
    /// [`build_sharded`](Self::build_sharded) asks for (clamped to the
    /// pod count); [`build`](Self::build) is always one shard.
    pub fn execution(mut self, e: ExecutionProfile) -> Self {
        self.execution = e;
        self
    }

    /// RNG seed (every run with the same seed is identical).
    pub fn seed(mut self, s: u64) -> Self {
        self.seed = s;
        self
    }

    /// Choose per-server kind (index = server order in the topology).
    pub fn server_kind(mut self, f: impl FnMut(usize) -> ServerKind + Send + 'static) -> Self {
        self.server_kind = Box::new(f);
        self
    }

    /// Post-process each RDMA host's config (MTT models, custom DCQCN…).
    pub fn host_tweak(mut self, f: impl FnMut(usize, &mut NicConfig) + Send + 'static) -> Self {
        self.host_tweak = Box::new(f);
        self
    }

    /// Post-process each TCP host's config (kernel model, RTO…).
    pub fn tcp_tweak(mut self, f: impl FnMut(usize, &mut TcpHostConfig) + Send + 'static) -> Self {
        self.tcp_tweak = Box::new(f);
        self
    }

    /// Post-process each switch's config by name (headroom overrides,
    /// per-type buffer settings — the §6.2 "new switch type" situation).
    pub fn switch_tweak(mut self, f: impl FnMut(&str, &mut SwitchConfig) + Send + 'static) -> Self {
        self.switch_tweak = Box::new(f);
        self
    }

    /// Instantiate the cluster on one world, one thread — the
    /// golden-trace path. `cluster.world` is the [`World`] itself.
    pub fn build(self) -> Cluster {
        self.assemble(1, |mut worlds| {
            worlds.pop().expect("one shard builds one world")
        })
    }

    /// Instantiate the cluster as per-pod worker shards advanced through
    /// the conservative exchange (see [`crate::sharded`]). The
    /// [`ExecutionProfile`] chooses the shard count; `SingleThread` (or a
    /// single-pod topology, which the partition collapses) yields one
    /// shard whose event stream — and dispatch digest — is byte-identical
    /// to [`build`](Self::build)'s.
    pub fn build_sharded(self) -> crate::ShardedCluster {
        let shards = self.execution.shard_count();
        self.assemble(shards, ShardedWorld::new)
    }

    /// The one constructor: instantiate every device into its shard's
    /// world (the pod-granular [`Partition`] decides ownership), wire
    /// local links directly and boundary links as mirrored remote ports,
    /// translate the fault profile into timers on the owning shards,
    /// register the per-shard observation banks and the deadlock probe,
    /// and hand the worlds to `wrap` — the only step that differs
    /// between [`build`](Self::build) and
    /// [`build_sharded`](Self::build_sharded).
    fn assemble<W: WorldSet>(
        mut self,
        shards: u32,
        wrap: impl FnOnce(Vec<World>) -> W,
    ) -> Cluster<W> {
        // A trace sink needs a live hub to stream through; upgrade a
        // disabled hub before any device registers instruments, then
        // attach the sink so records flow from the first event on.
        if self.instr.sink.is_some() && !self.instr.telemetry.is_enabled() {
            self.instr.telemetry = MetricsHub::enabled();
        }
        let topo = Topology::clos(&self.spec);
        let partition = Partition::pods(&topo, shards);
        let nshards = partition.shards() as usize;
        // With one effective shard the caller's sink attaches directly to
        // the hub (the historical path — record bytes unchanged, no shard
        // tag). With several, each shard's hub streams into its own
        // MemorySink bank and the caller's sink becomes the merge target:
        // the cluster drains the banks in deterministic order at every
        // flush boundary and stamps each record with its shard.
        let mut deferred_sink = None;
        if let Some((sink, filter)) = self.instr.sink.take() {
            if nshards == 1 {
                self.instr.telemetry.attach_sink(sink, filter);
            } else {
                deferred_sink = Some((sink, filter));
            }
        }
        // Shard-local telemetry banks: shard 0 keeps the builder's hub
        // (so the single-shard path is unchanged and callers hold a live
        // handle), every other shard gets its own bank with the same
        // enablement and configuration. Snapshots merge them by name.
        let hubs: Vec<MetricsHub> = (0..nshards)
            .map(|s| match (s, self.instr.telemetry.config()) {
                (0, _) => self.instr.telemetry.clone(),
                (_, Some(cfg)) => MetricsHub::with_config(cfg),
                (_, None) => MetricsHub::disabled(),
            })
            .collect();
        let banks: Vec<MemorySink> = if let Some((_, filter)) = &deferred_sink {
            hubs.iter()
                .map(|h| {
                    let bank = MemorySink::new();
                    h.attach_sink(Box::new(bank.clone()), *filter);
                    bank
                })
                .collect()
        } else {
            Vec::new()
        };
        let mut worlds: Vec<World> = (0..nshards as u64)
            .map(|s| {
                let mut w = World::new(self.seed.wrapping_add(s.wrapping_mul(SHARD_SEED_STRIDE)));
                w.set_profile_mode(self.instr.profile);
                w
            })
            .collect();
        let n = topo.nodes.len();

        // MAC conventions: switches get 0x00F0_0000 + idx, servers idx+1.
        let switch_mac = |idx: usize| MacAddr::from_id(0x00F0_0000 + idx as u32);
        let server_mac = |idx: usize| MacAddr::from_id(idx as u32 + 1);

        // Peer role/mac per link endpoint for switch construction.
        let classify = match self.fabric.pfc_mode {
            PfcMode::Dscp => ClassifyMode::Dscp,
            PfcMode::Vlan => ClassifyMode::Vlan,
        };
        let pfc_enabled = self.fabric.pfc_enabled;
        let stage = self.fabric.stage;
        // The paper's two lossless classes, which are also the two that
        // ECN marks.
        const RDMA_CLASSES: [bool; 8] = [false, false, false, true, true, false, false, false];
        let lossless_for = |tier: Tier| -> [bool; 8] {
            let on = pfc_enabled
                && match tier {
                    Tier::Tor => stage.tor(),
                    Tier::Leaf => stage.leaf(),
                    Tier::Spine => stage.spine(),
                    Tier::Server => true,
                };
            if on {
                RDMA_CLASSES
            } else {
                [false; 8]
            }
        };

        // Each node's (shard, shard-local sim id) once instantiated.
        let mut sim_ids: Vec<Option<(u32, NodeId)>> = vec![None; n];
        let mut servers: Vec<ServerInfo> = Vec::new();
        let mut switches: Vec<SwitchInfo> = Vec::new();

        // Build switches first (they need routes + table seeds).
        for (idx, node) in topo.nodes.iter().enumerate() {
            if node.tier == Tier::Server {
                continue;
            }
            let ports = topo.port_count(idx);
            let mut cfg = SwitchConfig::new(&*node.name, ports);
            cfg.classify = classify;
            cfg.lossless = lossless_for(node.tier);
            // Port roles from the topology; headroom for the worst link
            // the switch terminates — the fastest and the longest.
            let mut roles = vec![PortRole::Fabric; ports as usize];
            let (mut max_meters, mut max_bps) = (2u32, 0u64);
            for n in topo.neighbors(idx) {
                let link = &topo.links[n.link as usize];
                max_meters = max_meters.max(link.meters);
                max_bps = max_bps.max(link.rate_bps);
                if topo.nodes[n.peer as usize].tier == Tier::Server {
                    roles[n.port.index()] = PortRole::Server;
                }
            }
            cfg.port_roles = roles;
            cfg.buffer = BufferConfig {
                total_bytes: 12 << 20,
                headroom_per_port_pg: BufferConfig::headroom_for(max_bps, max_meters, 1120),
                alpha: self.fabric.alpha,
                xoff_static: 256 * 1024,
                xon_delta: 2 * 1120,
            };
            cfg.ecn = if self.fabric.ecn {
                RDMA_CLASSES
            } else {
                [false; 8]
            };
            cfg.watchdog = WatchdogConfig {
                enabled: self.fabric.switch_watchdog,
                ..WatchdogConfig::default()
            };
            // The §4.2 deadlock fix, always on: the scenarios that model
            // a fabric without it build their switches by hand.
            cfg.drop_lossless_on_incomplete_arp = true;
            cfg.drop_ip_id_low_byte = self.faults.drop_ip_id_low_byte;
            let shard = partition.shard_of(idx);
            cfg.telemetry = hubs[shard as usize].clone();
            (self.switch_tweak)(&node.name, &mut cfg);

            let mut sw = Switch::new(cfg, switch_mac(idx), idx as u64 * 0x9e37 + 7);
            for r in topo.routes(idx) {
                match r {
                    RouteSpec::Connected { prefix, len } => {
                        sw.routes_mut().add_connected(*prefix, *len);
                    }
                    RouteSpec::Via { prefix, len, ports } => {
                        sw.routes_mut()
                            .add(*prefix, *len, EcmpGroup::new(ports.clone()));
                    }
                }
            }
            // Seed ARP + MAC for directly attached servers; peer MACs for
            // fabric links.
            for n in topo.neighbors(idx) {
                let peer = n.peer as usize;
                match topo.nodes[peer].tier {
                    Tier::Server => {
                        let ip = topo.nodes[peer].ip.expect("servers have IPs");
                        sw.seed_arp(ip, server_mac(peer), SimTime::ZERO);
                        sw.seed_mac(server_mac(peer), n.port, SimTime::ZERO);
                    }
                    _ => sw.set_peer_mac(n.port, switch_mac(peer)),
                }
            }
            let sim = worlds[shard as usize].add_node(Box::new(sw));
            sim_ids[idx] = Some((shard, sim));
            switches.push(SwitchInfo {
                topo_idx: idx as u32,
                shard,
                sim,
                tier: node.tier,
                name: node.name.clone(),
            });
        }

        // Hosts.
        for (idx, node) in topo.nodes.iter().enumerate() {
            if node.tier != Tier::Server {
                continue;
            }
            let tor_idx = topo.tor_of_server(idx);
            let gateway = switch_mac(tor_idx);
            let ip = node.ip.expect("servers have IPs");
            let link_bps = topo
                .neighbors(idx)
                .first()
                .map(|n| topo.links[n.link as usize].rate_bps)
                .expect("servers have a ToR link");
            let order = servers.len();
            let kind = (self.server_kind)(order);
            let shard = partition.shard_of(idx);
            let sim = match kind {
                ServerKind::Rdma => {
                    let mut cfg = NicConfig::new(node.name.clone(), idx as u32 + 1, ip, gateway);
                    cfg.link_bps = link_bps;
                    cfg.pfc_mode = match self.fabric.pfc_mode {
                        PfcMode::Dscp => HostPfcMode::Dscp,
                        PfcMode::Vlan => HostPfcMode::Vlan { vid: 100 },
                    };
                    cfg.qp_defaults = QpConfig {
                        recovery: self.transport.recovery,
                        rto_ps: self.transport.qp_rto.as_ps(),
                        ..QpConfig::default()
                    };
                    // Sender-role congestion control, run at the host's
                    // line rate.
                    cfg.cc = self.transport.cc;
                    cfg.nic_watchdog_after = self.transport.nic_watchdog;
                    cfg.telemetry = hubs[shard as usize].clone();
                    (self.host_tweak)(order, &mut cfg);
                    worlds[shard as usize].add_node(Box::new(RdmaHost::new(cfg)))
                }
                ServerKind::Tcp => {
                    let mut cfg =
                        TcpHostConfig::new(node.name.clone(), idx as u32 + 1, ip, gateway);
                    cfg.link_bps = link_bps;
                    cfg.telemetry = hubs[shard as usize].clone();
                    (self.tcp_tweak)(order, &mut cfg);
                    worlds[shard as usize].add_node(Box::new(TcpHost::new(cfg)))
                }
            };
            sim_ids[idx] = Some((shard, sim));
            servers.push(ServerInfo {
                topo_idx: idx as u32,
                shard,
                sim,
                kind,
                ip,
                pod: node.pod,
                tor_topo_idx: tor_idx as u32,
            });
        }

        // Links: shard-local ones wire directly; boundary links become a
        // mirrored pair of remote ports whose packets travel through the
        // shard exchange (the partition guarantees only ToR/leaf↔spine
        // links ever cross, so the exchange lookahead is the spine-cable
        // propagation delay).
        for l in &topo.links {
            let (sa, a) = sim_ids[l.a.0 as usize].expect("all nodes instantiated");
            let (sb, b) = sim_ids[l.b.0 as usize].expect("all nodes instantiated");
            let spec = LinkSpec::with_length(l.rate_bps, l.meters);
            if sa == sb {
                worlds[sa as usize].connect(a, l.a.1, b, l.b.1, spec);
            } else {
                worlds[sa as usize].connect_remote(
                    a,
                    l.a.1,
                    spec,
                    RemotePort {
                        shard: sb,
                        node: b,
                        port: l.b.1,
                    },
                );
                worlds[sb as usize].connect_remote(
                    b,
                    l.b.1,
                    spec,
                    RemotePort {
                        shard: sa,
                        node: a,
                        port: l.a.1,
                    },
                );
            }
        }

        // Incident-replay script (FaultProfile::at): every action becomes
        // either a NIC storm timer or a switch admin action fired by an
        // ordinary Timer event, so scripted runs stay deterministic and
        // digest-pinnable — and an empty script changes nothing.
        {
            let find_switch = |name: &str| -> &SwitchInfo {
                switches
                    .iter()
                    .find(|s| &*s.name == name)
                    .unwrap_or_else(|| panic!("script names unknown switch {name:?}"))
            };
            // A server's ToR-side attachment: (ToR shard, ToR sim node,
            // ToR port facing the server, server topo index).
            let tor_attach = |server: usize| -> (u32, NodeId, PortId, usize) {
                let info = servers
                    .get(server)
                    .unwrap_or_else(|| panic!("script server {server} out of range"));
                let (tor_t, srv_t) = (info.tor_topo_idx as usize, info.topo_idx as usize);
                let port = topo
                    .port_toward(tor_t, srv_t)
                    .expect("server has a ToR link");
                let (shard, sim) = sim_ids[tor_t].expect("ToR instantiated");
                (shard, sim, port, srv_t)
            };
            let script = std::mem::take(&mut self.faults.script);
            for (at, action) in &script {
                match action {
                    ScriptAction::ServerLink { server, up } => {
                        let (shard, tor, port, _) = tor_attach(*server);
                        sched_admin(
                            &mut worlds[shard as usize],
                            *at,
                            tor,
                            AdminAction::LinkSet { port, up: *up },
                        );
                    }
                    ScriptAction::FabricLink { a, b, up } => {
                        let (sa, sb) = (find_switch(a), find_switch(b));
                        // Link state is per shard: a switch flips its own
                        // half of the link, and the half in another shard
                        // is flipped by its own switch at the same instant.
                        // Within one world the first flip sets both.
                        let far = (sb.shard != sa.shard).then_some((sb, sa));
                        for (sw, peer) in std::iter::once((sa, sb)).chain(far) {
                            let port = topo
                                .port_toward(sw.topo_idx as usize, peer.topo_idx as usize)
                                .unwrap_or_else(|| panic!("no fabric link {a:?} <-> {b:?}"));
                            sched_admin(
                                &mut worlds[sw.shard as usize],
                                *at,
                                sw.sim,
                                AdminAction::LinkSet { port, up: *up },
                            );
                        }
                    }
                    ScriptAction::StormStart { server } => {
                        let s = servers
                            .get(*server)
                            .unwrap_or_else(|| panic!("script server {server} out of range"));
                        worlds[s.shard as usize].schedule_timer(*at, s.sim, TOK_INJECT_STORM);
                    }
                    ScriptAction::StormStop { server } => {
                        let s = servers
                            .get(*server)
                            .unwrap_or_else(|| panic!("script server {server} out of range"));
                        worlds[s.shard as usize].schedule_timer(*at, s.sim, TOK_STOP_STORM);
                    }
                    ScriptAction::ServerDeath { server } => {
                        // A dead server is *silent*: its link goes down
                        // (no frames to re-learn the MAC from) and its
                        // MAC entry is evicted — while the ARP entry
                        // survives, the §4.2 "dead but remembered" state.
                        let (shard, tor, port, srv_t) = tor_attach(*server);
                        let world = &mut worlds[shard as usize];
                        sched_admin(world, *at, tor, AdminAction::LinkSet { port, up: false });
                        sched_admin(
                            world,
                            *at,
                            tor,
                            AdminAction::EvictMac {
                                mac: server_mac(srv_t),
                            },
                        );
                    }
                    ScriptAction::ServerResurrect { server } => {
                        let (shard, tor, port, srv_t) = tor_attach(*server);
                        let world = &mut worlds[shard as usize];
                        sched_admin(world, *at, tor, AdminAction::LinkSet { port, up: true });
                        sched_admin(
                            world,
                            *at,
                            tor,
                            AdminAction::SeedMac {
                                mac: server_mac(srv_t),
                                port,
                            },
                        );
                    }
                    ScriptAction::PfcThreshold {
                        switch,
                        alpha,
                        xoff_static,
                    } => {
                        let sw = find_switch(switch);
                        sched_admin(
                            &mut worlds[sw.shard as usize],
                            *at,
                            sw.sim,
                            AdminAction::SetThresholds {
                                alpha: *alpha,
                                xoff_static: *xoff_static,
                            },
                        );
                    }
                    ScriptAction::SetLossless { switch, prio, on } => {
                        let sw = find_switch(switch);
                        sched_admin(
                            &mut worlds[sw.shard as usize],
                            *at,
                            sw.sim,
                            AdminAction::SetLossless {
                                prio: *prio,
                                on: *on,
                            },
                        );
                    }
                    ScriptAction::Reroute {
                        switch,
                        prefix,
                        len,
                        ports,
                    } => {
                        let sw = find_switch(switch);
                        sched_admin(
                            &mut worlds[sw.shard as usize],
                            *at,
                            sw.sim,
                            AdminAction::Reroute {
                                prefix: *prefix,
                                len: *len,
                                ports: ports.iter().map(|p| PortId(*p)).collect(),
                            },
                        );
                    }
                }
            }
        }

        let deadlock = probe(&hubs[0], &topo, &switches);
        let obs = hubs
            .iter()
            .enumerate()
            .map(|(s, hub)| {
                let owned: Vec<(usize, ScopeId)> = switches
                    .iter()
                    .enumerate()
                    .filter(|(_, sw)| sw.shard == s as u32)
                    .map(|(i, sw)| {
                        let node: &Switch = worlds[s].node(sw.sim);
                        (i, node.telemetry_scope())
                    })
                    .collect();
                ShardObs::register(hub, &owned)
            })
            .collect();

        Cluster {
            world: wrap(worlds),
            topo,
            spec: self.spec,
            partition,
            servers,
            switches,
            hubs,
            obs,
            deadlock,
            banks,
            sink: deferred_sink.map(|(sink, _)| sink),
            wakes: BTreeSet::new(),
        }
    }
}

/// The live deadlock probe over a built fabric: every switch keyed by
/// (name, shard, sim id), watching every switch egress that faces
/// another device (fabric links both directions, plus switch→server
/// ports so storm victims show up as wait-chain leaves), for the two
/// lossless priorities.
fn probe(hub: &MetricsHub, topo: &Topology, switches: &[SwitchInfo]) -> DeadlockProbe {
    // Topology node id → position in `switches`.
    let mut switch_at: Vec<Option<u32>> = vec![None; topo.nodes.len()];
    for (i, s) in switches.iter().enumerate() {
        switch_at[s.topo_idx as usize] = Some(i as u32);
    }
    let mut links = Vec::new();
    for l in &topo.links {
        for (me, peer) in [(l.a, l.b), (l.b, l.a)] {
            let Some(sw_idx) = switch_at[me.0 as usize] else {
                continue;
            };
            links.push(ProbeLink {
                switch: sw_idx,
                port: me.1,
                peer: topo.nodes[peer.0 as usize].name.clone(),
            });
        }
    }
    DeadlockProbe::new(
        hub,
        switches
            .iter()
            .map(|s| (s.name.to_string(), s.shard, s.sim))
            .collect(),
        links,
        vec![Priority::new(3), Priority::new(4)],
        3,
    )
}

/// One shard's observation bank: the fleet-level gauges registered on
/// that shard's hub (sentinels when telemetry is disabled), over the
/// switches the shard owns.
struct ShardObs {
    /// The [`ENGINE_GAUGES`] block.
    engine: BlockId,
    /// Per owned switch: its index into the cluster's switch list, its
    /// trace scope — the one the switch registered, so streamed queue
    /// samples land under the same scope as its hop records and events —
    /// and its `lossless_backlog_bytes` gauge, registered under it.
    switches: Vec<(usize, ScopeId, GaugeId)>,
}

/// The engine's gauges, `engine.{leaf}`, in block order: events
/// dispatched, and events queued but not yet dispatched.
const ENGINE_GAUGES: &[&str] = &["events_processed", "pending"];

impl ShardObs {
    fn register(hub: &MetricsHub, switches: &[(usize, ScopeId)]) -> ShardObs {
        let engine = hub.register(Path::fixed("engine"), &[Group::gauges(ENGINE_GAUGES)]);
        ShardObs {
            engine: engine.base,
            switches: switches
                .iter()
                .map(|&(i, scope)| {
                    let backlog = &[Group::gauges(&["lossless_backlog_bytes"])];
                    (i, scope, hub.register_in(scope, backlog).gauge(0))
                })
                .collect(),
        }
    }
}

/// One server's row. Indices are `u32`: a fleet is mostly these rows.
#[derive(Debug)]
struct ServerInfo {
    topo_idx: u32,
    /// Owning shard (always 0 in a one-shard cluster).
    shard: u32,
    /// Shard-local sim node id.
    sim: NodeId,
    kind: ServerKind,
    ip: u32,
    pod: u32,
    tor_topo_idx: u32,
}

#[derive(Debug)]
struct SwitchInfo {
    topo_idx: u32,
    /// Owning shard (always 0 in a one-shard cluster).
    shard: u32,
    /// Shard-local sim node id.
    sim: NodeId,
    tier: Tier,
    name: Arc<str>,
}

/// A running cluster: the simulation worlds plus the index structures to
/// reach every device.
///
/// One implementation serves both execution modes. `W` is the
/// [`WorldSet`] the cluster drives: [`World`] (the default — what
/// [`ClusterBuilder::build`] returns; one shard, `cluster.world` is the
/// world itself) or [`ShardedWorld`] ([`crate::ShardedCluster`], from
/// [`ClusterBuilder::build_sharded`]). Every method below reads devices
/// through `world.worlds()[shard]` and keeps observation state as
/// per-shard banks, so the one-shard case is simply a slice of length 1:
/// `telemetry()` is `hub(0)`, trace records stream straight into the
/// caller's sink, and `run_until` is the world's own.
pub struct Cluster<W = World> {
    /// The simulation world set (exposed for advanced scenarios: fault
    /// injection timers, custom nodes, engine stats).
    pub world: W,
    topo: Topology,
    spec: ClosSpec,
    partition: Partition,
    servers: Vec<ServerInfo>,
    switches: Vec<SwitchInfo>,
    /// Per-shard telemetry banks; shard 0's is the builder's hub.
    hubs: Vec<MetricsHub>,
    obs: Vec<ShardObs>,
    deadlock: DeadlockProbe,
    /// Per-shard trace banks (parallel to `hubs`) and the caller's sink
    /// they merge into; both empty/none unless a sink was configured on
    /// a multi-shard build.
    banks: Vec<MemorySink>,
    sink: Option<Box<dyn TraceSink>>,
    /// Hosts handed work from outside the event loop since the last
    /// run, as (shard, node, wake token), delivered by the next
    /// [`Cluster::run_until`].
    wakes: BTreeSet<(u32, NodeId, u64)>,
}

impl<W: WorldSet> Cluster<W> {
    fn node<T: Node>(&self, shard: u32, sim: NodeId) -> &T {
        self.world.worlds()[shard as usize].node::<T>(sim)
    }

    fn node_mut<T: Node>(&mut self, shard: u32, sim: NodeId) -> &mut T {
        self.world.worlds_mut()[shard as usize].node_mut::<T>(sim)
    }

    // ---- shape ----

    /// The Clos spec this cluster was built from.
    pub fn spec(&self) -> &ClosSpec {
        &self.spec
    }

    /// The topology description.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The pod-granular partition plan in force.
    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    /// Number of worker shards (1 for `build()` or a single-pod topology).
    pub fn shard_count(&self) -> usize {
        self.world.worlds().len()
    }

    /// Borrow shard `s`'s world (for per-shard engine stats).
    pub fn world(&self, s: usize) -> &World {
        &self.world.worlds()[s]
    }

    /// Mutably borrow shard `s`'s world.
    pub fn world_mut(&mut self, s: usize) -> &mut World {
        &mut self.world.worlds_mut()[s]
    }

    // ---- servers ----

    /// Number of servers.
    pub fn server_count(&self) -> usize {
        self.servers.len()
    }

    /// All server ids.
    pub fn all_servers(&self) -> Vec<ServerId> {
        (0..self.servers.len()).map(ServerId).collect()
    }

    /// Server ids of a given kind.
    pub fn servers_of_kind(&self, kind: ServerKind) -> Vec<ServerId> {
        self.servers
            .iter()
            .enumerate()
            .filter(|(_, s)| s.kind == kind)
            .map(|(i, _)| ServerId(i))
            .collect()
    }

    /// The servers under `tor` (pod-relative index), in port order.
    /// Answered from the topology's cabling, not from addresses, so it
    /// holds for racks of any size.
    pub fn servers_under(&self, pod: u32, tor: u32) -> Vec<ServerId> {
        let Some(t) = self
            .switches
            .iter()
            .filter(|s| s.tier == Tier::Tor && self.topo.nodes[s.topo_idx as usize].pod == pod)
            .nth(tor as usize)
        else {
            return Vec::new();
        };
        // Servers are built in topology order, which within a rack is
        // ToR port order.
        self.servers
            .iter()
            .enumerate()
            .filter(|(_, s)| s.tor_topo_idx == t.topo_idx)
            .map(|(i, _)| ServerId(i))
            .collect()
    }

    /// A server's IP.
    pub fn server_ip(&self, id: ServerId) -> u32 {
        self.servers[id.0].ip
    }

    /// A server's pod.
    pub fn server_pod(&self, id: ServerId) -> u32 {
        self.servers[id.0].pod
    }

    /// The shard that owns a server.
    pub fn server_shard(&self, id: ServerId) -> u32 {
        self.servers[id.0].shard
    }

    /// The sim node id of a server within its shard's world (for
    /// fault-injection timers).
    pub fn server_node(&self, id: ServerId) -> NodeId {
        self.servers[id.0].sim
    }

    /// Two servers share a ToR?
    pub fn same_tor(&self, a: ServerId, b: ServerId) -> bool {
        self.servers[a.0].tor_topo_idx == self.servers[b.0].tor_topo_idx
    }

    /// Borrow an RDMA server.
    pub fn rdma(&self, id: ServerId) -> &RdmaHost {
        let s = &self.servers[id.0];
        assert_eq!(s.kind, ServerKind::Rdma);
        self.node(s.shard, s.sim)
    }

    /// Mutably borrow an RDMA server.
    pub fn rdma_mut(&mut self, id: ServerId) -> &mut RdmaHost {
        let s = &self.servers[id.0];
        assert_eq!(s.kind, ServerKind::Rdma);
        self.node_mut(s.shard, s.sim)
    }

    /// Borrow a TCP server.
    pub fn tcp(&self, id: ServerId) -> &TcpHost {
        let s = &self.servers[id.0];
        assert_eq!(s.kind, ServerKind::Tcp);
        self.node(s.shard, s.sim)
    }

    /// Mutably borrow a TCP server.
    pub fn tcp_mut(&mut self, id: ServerId) -> &mut TcpHost {
        let s = &self.servers[id.0];
        assert_eq!(s.kind, ServerKind::Tcp);
        self.node_mut(s.shard, s.sim)
    }

    // ---- switches ----

    /// Number of switches.
    pub fn switch_count(&self) -> usize {
        self.switches.len()
    }

    /// Borrow switch `i` (iteration order: ToRs and leaves pod-major,
    /// then spines — the topology's order).
    pub fn switch(&self, i: usize) -> &Switch {
        let s = &self.switches[i];
        self.node(s.shard, s.sim)
    }

    /// Mutably borrow switch `i`.
    pub fn switch_mut(&mut self, i: usize) -> &mut Switch {
        let s = &self.switches[i];
        self.node_mut(s.shard, s.sim)
    }

    /// A switch's display name.
    pub fn switch_name(&self, i: usize) -> &str {
        &self.switches[i].name
    }

    /// Indices of switches of a tier.
    pub fn switches_of_tier(&self, tier: Tier) -> Vec<usize> {
        self.switches
            .iter()
            .enumerate()
            .filter(|(_, s)| s.tier == tier)
            .map(|(i, _)| i)
            .collect()
    }

    /// The ToR switch index (into [`Cluster::switch`]) serving a server.
    pub fn tor_of(&self, id: ServerId) -> usize {
        let t = self.servers[id.0].tor_topo_idx;
        self.switches
            .iter()
            .position(|s| s.topo_idx == t)
            .expect("server's ToR exists")
    }

    // ---- workload wiring ----

    /// Note that a server's host was handed work from outside the event
    /// loop and needs waking: idle hosts keep no periodic timer that
    /// would find it. A world that has dispatched nothing still has its
    /// `Start` events to come, and those see the new work themselves.
    fn wake(&mut self, id: ServerId, token: u64) {
        let s = &self.servers[id.0];
        if self.world.worlds()[s.shard as usize].events_processed() > 0 {
            self.wakes.insert((s.shard, s.sim, token));
        }
    }

    /// Deliver the pending wakes, in node order — the order the hosts'
    /// always-armed timers used to fire in, and one that does not depend
    /// on the order an experiment wired its connections in: hosts woken
    /// together send their first packets at the same instant, and the
    /// fabric breaks such ties by scheduling order.
    fn deliver_wakes(&mut self) {
        // The set's clock, not the world's own: a shard whose windows
        // were all skipped lags the horizon.
        let now = self.world.now();
        for (shard, sim, token) in std::mem::take(&mut self.wakes) {
            self.world.worlds_mut()[shard as usize].schedule_timer(now, sim, token);
        }
    }

    /// Create a QP pair between two RDMA servers. `udp_src` selects the
    /// ECMP path; both directions share it. Shard-oblivious: the
    /// endpoints may live in different worlds, and their traffic rides
    /// the exchange. Works on a fabric that is already running: the next
    /// [`run_until`](Self::run_until) wakes both hosts, and a `Saturate`
    /// side starts sending on its host's next timer line (see
    /// `rocescale_nic::host::TOK_WAKE`).
    pub fn connect_qp(
        &mut self,
        a: ServerId,
        b: ServerId,
        udp_src: u16,
        app_a: QpApp,
        app_b: QpApp,
    ) -> (QpHandle, QpHandle) {
        let a_ip = self.server_ip(a);
        let b_ip = self.server_ip(b);
        let a_qpn = self.rdma(a).qp_count() as u32;
        let b_qpn = self.rdma(b).qp_count() as u32;
        let ha = self.rdma_mut(a).add_qp(b_ip, b_qpn, udp_src, app_a);
        let hb = self.rdma_mut(b).add_qp(a_ip, a_qpn, udp_src, app_b);
        self.wake(a, rocescale_nic::host::TOK_WAKE);
        self.wake(b, rocescale_nic::host::TOK_WAKE);
        (ha, hb)
    }

    /// Create a TCP connection between two TCP servers (shard-oblivious
    /// and usable mid-run, like [`connect_qp`](Self::connect_qp)).
    pub fn connect_tcp(
        &mut self,
        a: ServerId,
        b: ServerId,
        app_a: TcpApp,
        app_b: TcpApp,
    ) -> (ConnHandle, ConnHandle) {
        let a_ip = self.server_ip(a);
        let b_ip = self.server_ip(b);
        let pa = self.tcp_mut(a).alloc_port();
        let pb = self.tcp_mut(b).alloc_port();
        let ca = self.tcp_mut(a).add_conn(b_ip, pa, pb, app_a);
        let cb = self.tcp_mut(b).add_conn(a_ip, pb, pa, app_b);
        self.wake(a, rocescale_tcp::host::TOK_WAKE);
        self.wake(b, rocescale_tcp::host::TOK_WAKE);
        (ca, cb)
    }

    // ---- running ----

    /// Run the simulation until `t`.
    ///
    /// With telemetry enabled the run is chunked at sample boundaries so
    /// every shard bank samples its time series on the hub's cadence,
    /// fleet gauges refresh, each switch streams one [`QueueSample`]
    /// into its owning shard's bank (with a queue-class trace sink), and
    /// the deadlock probe reads the pause/occupancy view across all
    /// shard worlds at the barrier. Chunked `run_until` dispatches the
    /// exact same event sequence as one big call, so the dispatch digest
    /// is byte-identical with telemetry (and any sink) on or off,
    /// threaded or serial.
    pub fn run_until(&mut self, t: SimTime) {
        self.deliver_wakes();
        if self.hubs[0].is_enabled() {
            while let Some(ns) = self.hubs[0].next_sample_ps() {
                if ns >= t.as_ps() {
                    break;
                }
                self.world.run_until(SimTime(ns));
                self.publish_gauges();
                self.stream_queue_samples(ns);
                self.deadlock.observe(self.world.worlds(), SimTime(ns));
                for h in &self.hubs {
                    h.maybe_sample(ns);
                }
            }
        }
        self.world.run_until(t);
        // A run boundary is where readers expect the exported trace to
        // be complete: drain every hub's writer thread into its sink (the
        // caller's with one shard, a bank with several), then move every
        // bank's records into the caller's sink; both are no-ops without
        // a sink.
        for h in &self.hubs {
            h.flush_sink();
        }
        self.merge_trace_banks();
    }

    /// Refresh each shard's fleet-level gauges (engine progress,
    /// per-switch lossless backlog) from live state. Called
    /// automatically at each sample boundary; call manually before
    /// rendering JSON mid-run.
    pub fn publish_gauges(&self) {
        for ((obs, hub), w) in self.obs.iter().zip(&self.hubs).zip(self.world.worlds()) {
            if !hub.is_enabled() {
                continue;
            }
            let [events, pending] = [0, 1].map(|k| obs.engine.gauge(k));
            hub.set_gauge(events, w.events_processed() as f64);
            let st = w.sched_stats();
            hub.set_gauge(pending, (st.pushed - st.dispatched) as f64);
            for &(i, _, backlog) in &obs.switches {
                hub.set_gauge(backlog, self.switch(i).lossless_backlog() as f64);
            }
        }
    }

    /// Stream one queue-depth sample per switch into its owning shard's
    /// bank at epoch boundary `ns` (no-op for shards without a
    /// queue-class sink).
    fn stream_queue_samples(&self, ns: u64) {
        for (obs, hub) in self.obs.iter().zip(&self.hubs) {
            if !hub.streams_queues() {
                continue;
            }
            for &(i, scope, _) in &obs.switches {
                let sw = self.switch(i);
                hub.stream_queue(
                    ns,
                    scope,
                    QueueSample {
                        backlog_bytes: sw.lossless_backlog(),
                        max_port_bytes: sw.max_egress_depth(),
                        tx_pkts: sw.total_data_tx_pkts(),
                    },
                );
            }
        }
    }

    /// Drain every shard's trace bank into the caller's sink, merged in
    /// `(time, shard, emission order)` — a pure function of the records,
    /// so threaded and serial runs export byte-identical files. Each
    /// line carries its owning shard in the `shard` field. Records never
    /// interleave wrongly across successive calls: a chunk's records all
    /// precede the next chunk's in simulated time.
    fn merge_trace_banks(&mut self) {
        let Some(sink) = self.sink.as_mut() else {
            return;
        };
        let mut all: Vec<(u64, u32, usize, rocescale_monitor::OwnedRecord)> = Vec::new();
        for (s, bank) in self.banks.iter().enumerate() {
            for (i, rec) in bank.take_records().into_iter().enumerate() {
                all.push((rec.t_ps, s as u32, i, rec));
            }
        }
        all.sort_by_key(|&(t, s, i, _)| (t, s, i));
        for (_, s, _, rec) in all {
            sink.write(&StreamRecord {
                t_ps: rec.t_ps,
                scope: &rec.scope,
                shard: Some(s),
                body: rec.body,
            });
        }
        sink.flush();
    }

    /// The live deadlock probe over the barrier-merged fleet view: cycle
    /// history, verdicts, last wait graph. Epochs run automatically at
    /// each telemetry sample boundary.
    pub fn deadlock_probe(&self) -> &DeadlockProbe {
        &self.deadlock
    }

    /// Force one deadlock-detection epoch right now (for runs without
    /// telemetry sampling, or end-of-run checks). Returns the wait cycle
    /// found this epoch, if any.
    pub fn deadlock_observe_now(&mut self) -> Option<Vec<String>> {
        let now = self.world.now();
        self.deadlock.observe(self.world.worlds(), now)
    }

    /// The cluster's telemetry hub — shard 0's bank, which is the hub the
    /// builder was given (disabled unless one was attached via
    /// [`InstrumentationProfile::telemetry`]). With several shards it
    /// sees only shard 0's devices; use [`hub`](Self::hub) or the merged
    /// snapshots for the rest.
    pub fn telemetry(&self) -> &MetricsHub {
        &self.hubs[0]
    }

    /// Shard `s`'s telemetry bank.
    pub fn hub(&self, s: usize) -> &MetricsHub {
        &self.hubs[s]
    }

    /// Run for `ms` more milliseconds of simulated time.
    pub fn run_for_millis(&mut self, ms: u64) {
        let t = self.now() + SimTime::from_millis(ms);
        self.run_until(t);
    }

    /// Current simulated time (every shard has advanced at least this
    /// far).
    pub fn now(&self) -> SimTime {
        self.world.now()
    }

    // ---- determinism & progress ----

    /// Global dispatch digest: per-shard digests folded in shard order
    /// (one shard: exactly that world's digest).
    pub fn dispatch_digest(&self) -> u64 {
        merged_digest(self.world.worlds())
    }

    /// Total events dispatched across all shards.
    pub fn events_processed(&self) -> u64 {
        self.world
            .worlds()
            .iter()
            .map(World::events_processed)
            .sum()
    }

    // ---- fleet-wide monitoring (what §5's systems aggregate) ----

    /// Total XOFF pause frames sent by all switches.
    pub fn total_switch_pause_tx(&self) -> u64 {
        (0..self.switches.len())
            .map(|i| self.switch(i).stats.total_pause_tx())
            .sum()
    }

    /// Total pause frames received by servers — the Figure 9/10 metric.
    pub fn total_server_pause_rx(&self) -> u64 {
        self.servers
            .iter()
            .filter(|s| s.kind == ServerKind::Rdma)
            .map(|s| self.node::<RdmaHost>(s.shard, s.sim).stats.pause_rx)
            .sum()
    }

    /// Total drops of a given reason across switches.
    pub fn total_drops_of(&self, reason: DropReason) -> u64 {
        (0..self.switches.len())
            .map(|i| self.switch(i).stats.drops_of(reason))
            .sum()
    }

    /// Drops that must be zero in a healthy lossless fabric.
    pub fn lossless_drops(&self) -> u64 {
        self.total_drops_of(DropReason::LosslessOverflow)
    }

    /// Sum of receiver-side RDMA goodput bytes across all servers.
    pub fn total_rdma_goodput(&self) -> u64 {
        self.servers
            .iter()
            .filter(|s| s.kind == ServerKind::Rdma)
            .map(|s| self.node::<RdmaHost>(s.shard, s.sim).total_goodput_bytes())
            .sum()
    }

    /// Fleet counter snapshot: every shard bank's counters merged by
    /// name, duplicates summed, name-sorted — deterministic regardless
    /// of shard count or threading.
    pub fn counters_snapshot(&self) -> Vec<(String, u64)> {
        let mut merged: BTreeMap<String, u64> = BTreeMap::new();
        for h in &self.hubs {
            for (name, v) in h.counters_snapshot() {
                *merged.entry(name).or_insert(0) += v;
            }
        }
        merged.into_iter().collect()
    }

    /// Fleet gauge snapshot: every shard bank's gauges merged by name.
    /// Additive fleet gauges (engine events/pending, per-switch backlog)
    /// sum; names are unique per shard otherwise, so summing is exact.
    pub fn gauges_snapshot(&self) -> Vec<(String, f64)> {
        let mut merged: BTreeMap<String, f64> = BTreeMap::new();
        for h in &self.hubs {
            for (name, v) in h.gauges_snapshot() {
                *merged.entry(name).or_insert(0.0) += v;
            }
        }
        merged.into_iter().collect()
    }

    /// Drain all RDMA RTT samples collected so far (ps).
    pub fn take_rdma_rtts(&mut self) -> Vec<u64> {
        let worlds = self.world.worlds_mut();
        let mut out = Vec::new();
        for s in self.servers.iter().filter(|s| s.kind == ServerKind::Rdma) {
            let host = worlds[s.shard as usize].node_mut::<RdmaHost>(s.sim);
            out.append(&mut host.stats.rtt_samples_ps);
        }
        out
    }

    /// Drain all TCP RTT samples collected so far (ps).
    pub fn take_tcp_rtts(&mut self) -> Vec<u64> {
        let worlds = self.world.worlds_mut();
        let mut out = Vec::new();
        for s in self.servers.iter().filter(|s| s.kind == ServerKind::Tcp) {
            let host = worlds[s.shard as usize].node_mut::<TcpHost>(s.sim);
            out.append(&mut host.stats.rtt_samples_ps);
        }
        out
    }

    // ---- pingmesh ----

    /// Pingmesh scope of a server pair (§5.3's ToR / Podset / DC levels).
    pub fn scope_of(&self, a: ServerId, b: ServerId) -> rocescale_monitor::pingmesh::Scope {
        use rocescale_monitor::pingmesh::Scope;
        if self.same_tor(a, b) {
            Scope::IntraTor
        } else if self.server_pod(a) == self.server_pod(b) {
            Scope::IntraPodset
        } else {
            Scope::IntraDc
        }
    }

    /// Install the RDMA Pingmesh service (§5.3): every RDMA server probes
    /// `fanout` others (512-byte payloads) every `interval`, chosen
    /// round-robin so ToR-, podset- and DC-scope pairs all get coverage;
    /// probes that cross shard boundaries ride the exchange like any
    /// other flow. Returns the probed pairs; collect results with
    /// [`Cluster::pingmesh_report`].
    pub fn install_pingmesh(
        &mut self,
        fanout: usize,
        interval: SimTime,
    ) -> Vec<(ServerId, ServerId)> {
        let servers = self.servers_of_kind(ServerKind::Rdma);
        let mut pairs = Vec::new();
        for (i, a) in servers.iter().enumerate() {
            for k in 1..=fanout {
                let b = servers[(i + k * (servers.len() / (fanout + 1)).max(1)) % servers.len()];
                if b == *a {
                    continue;
                }
                self.connect_qp(
                    *a,
                    b,
                    (20_000 + i * 17 + k) as u16,
                    rocescale_nic::QpApp::Pinger {
                        payload: rocescale_monitor::pingmesh::PROBE_BYTES,
                        interval,
                        start_at: SimTime::from_micros(10 + (i * 13 + k * 7) as u64),
                    },
                    rocescale_nic::QpApp::Echo {
                        reply_len: rocescale_monitor::pingmesh::PROBE_BYTES,
                    },
                );
                pairs.push((*a, b));
            }
        }
        pairs
    }

    /// Aggregate all collected probe RTTs into a fleet Pingmesh report.
    ///
    /// Each RTT sample is mirrored into the *prober's owning shard's*
    /// bank, so with telemetry enabled the per-scope counters and
    /// percentiles also land in hub snapshots and exported traces
    /// (`pingmesh.{tor,podset,dc}.*`) next to that shard's other metrics
    /// and merge by name in [`counters_snapshot`](Self::counters_snapshot).
    /// With one shard that bank *is* the fleet aggregate and is returned
    /// as is (each sample recorded once); with several, the samples are
    /// recorded once more into an unbound fleet aggregate — which is
    /// what callers quote for percentiles, since per-shard gauge banks
    /// only see their own shard's latencies.
    ///
    /// A host logs its RTT samples in one list across all of its prober
    /// QPs, so attribution is per prober host, not per pair: the first
    /// pair in `pairs` that a host probes drains all of its samples under
    /// that pair's scope, and its later pairs find the list empty. With
    /// `install_pingmesh(2, …)` the scope of a host's second pair gets
    /// none of its samples (per-QP logs would be the production
    /// refinement).
    pub fn pingmesh_report(&mut self, pairs: &[(ServerId, ServerId)]) -> Pingmesh {
        use rocescale_monitor::pingmesh::ProbeResult;
        let mut banks: Vec<Pingmesh> = self
            .hubs
            .iter()
            .map(|h| Pingmesh::with_hub(h.clone()))
            .collect();
        let mut fleet = (banks.len() > 1).then(Pingmesh::new);
        for (a, b) in pairs {
            let scope = self.scope_of(*a, *b);
            let shard = self.servers[a.0].shard as usize;
            for s in std::mem::take(&mut self.rdma_mut(*a).stats.rtt_samples_ps) {
                banks[shard].record(scope, ProbeResult::Rtt(s));
                if let Some(fleet) = &mut fleet {
                    fleet.record(scope, ProbeResult::Rtt(s));
                }
            }
        }
        fleet.unwrap_or_else(|| banks.pop().expect("one shard, one bank"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn saturate() -> QpApp {
        QpApp::Saturate {
            msg_len: 128 * 1024,
            inflight: 1,
        }
    }

    fn observed() -> InstrumentationProfile {
        InstrumentationProfile::paper_default().telemetry(MetricsHub::enabled())
    }

    /// Line rates come from the spec's links, not a 40 G default: on a
    /// 100 G fabric every switch's headroom is sized for the fastest link
    /// it terminates over its longest cable, and the NICs run at the
    /// server link's rate, so a DCQCN sender starts at 100 G.
    #[test]
    fn a_100g_spec_builds_100g_headroom_and_nics() {
        const G100: u64 = 100_000_000_000;
        let spec = ClosSpec {
            server_bps: G100,
            tor_leaf_bps: G100,
            leaf_spine_bps: G100,
            ..ClosSpec::uniform_40g(1, 2, 1, 1, 2)
        };
        let mut c = ClusterBuilder::new(spec).build();
        for (tier, cable_m) in [
            (Tier::Tor, spec.tor_leaf_m),
            (Tier::Leaf, spec.leaf_spine_m),
            (Tier::Spine, spec.leaf_spine_m),
        ] {
            for i in c.switches_of_tier(tier) {
                assert_eq!(
                    c.switch(i).config().buffer.headroom_per_port_pg,
                    BufferConfig::headroom_for(G100, cable_m, 1120),
                    "{tier:?} headroom"
                );
            }
        }
        let (a, b) = (ServerId(0), ServerId(3));
        let (qa, _) = c.connect_qp(a, b, 6000, saturate(), QpApp::None);
        assert_eq!(c.rdma(a).config().link_bps, G100);
        assert_eq!(c.rdma(a).qp_rate_bps(qa), G100 as f64);
    }

    #[test]
    fn builder_is_send() {
        // The fleet runner moves builders (or closures that construct
        // them) into worker threads; compile-time proof it stays legal.
        fn assert_send<T: Send>() {}
        assert_send::<ClusterBuilder>();
    }

    /// What one drive of the shared body yields: digest, events, merged
    /// counters. Equal outcomes mean the same simulation was run.
    type Outcome = (u64, u64, Vec<(String, u64)>);

    /// The body every row of the table below runs, whichever world set
    /// is underneath: one saturating flow from the first server to the
    /// last (another rack, or another pod), which must complete
    /// losslessly — over the spines when it leaves the pod.
    fn drive<W: WorldSet>(c: &mut Cluster<W>) -> Outcome {
        let (a, b) = (ServerId(0), ServerId(c.server_count() - 1));
        assert!(!c.same_tor(a, b));
        c.connect_qp(a, b, 6000, saturate(), QpApp::None);
        c.run_for_millis(2);
        assert!(
            c.total_rdma_goodput() >= 128 * 1024,
            "the flow must complete: {}",
            c.total_rdma_goodput()
        );
        assert_eq!(c.lossless_drops(), 0);
        if c.server_pod(a) != c.server_pod(b) {
            let spine_tx: u64 = c
                .switches_of_tier(Tier::Spine)
                .into_iter()
                .map(|i| c.switch(i).total_tx_pkts())
                .sum();
            assert!(spine_tx > 100, "spines must carry the flow: {spine_tx}");
        }
        (
            c.dispatch_digest(),
            c.events_processed(),
            c.counters_snapshot(),
        )
    }

    #[test]
    fn one_body_runs_through_build_and_build_sharded() {
        let one_pod = ClosSpec::uniform_40g(1, 2, 2, 2, 3);
        let two_pods = ClosSpec::uniform_40g(2, 1, 2, 2, 2);
        // (fabric, requested shards, effective shards): a single pod
        // collapses any request to one shard.
        for (spec, requested, effective) in [(one_pod, 4, 1), (two_pods, 1, 1), (two_pods, 2, 2)] {
            let builder = || {
                ClusterBuilder::new(spec)
                    .seed(7)
                    .instrumentation(observed())
                    .execution(ExecutionProfile::Sharded { shards: requested })
            };
            let mut plain = builder().build();
            assert_eq!(plain.shard_count(), 1);
            assert_eq!(
                plain.server_count() as u32,
                spec.pods * spec.tors_per_pod * spec.servers_per_tor
            );
            let reference = drive(&mut plain);
            assert_eq!(plain.world.dispatch_digest(), reference.0);

            let [threaded, serial] = [true, false].map(|threaded| {
                let mut c = builder().build_sharded();
                c.set_threaded(threaded);
                assert_eq!(c.shard_count(), effective);
                let out = drive(&mut c);
                assert_eq!(
                    c.server_shard(ServerId(0)) != c.server_shard(ServerId(c.server_count() - 1)),
                    effective > 1
                );
                assert_eq!(c.lookahead().is_some(), effective > 1);
                (out, c.shard_stats())
            });
            assert_eq!(
                threaded, serial,
                "threaded ≡ serial at {effective} shard(s)"
            );
            if effective == 1 {
                assert_eq!(
                    serial,
                    (reference, rocescale_sim::ShardStats::default()),
                    "one shard is build() byte for byte and never runs an exchange"
                );
            } else {
                assert!(
                    serial.1.epochs_executed > 0,
                    "multi-shard runs advance in epochs"
                );
                assert!(
                    serial.1.boundary_messages > 0,
                    "the flow crosses the boundary"
                );
            }
        }
    }

    #[test]
    fn sharded_fabric_hosts_the_tcp_baseline() {
        let run = |threaded: bool| {
            let mut c = ClusterBuilder::new(ClosSpec::uniform_40g(2, 1, 2, 2, 4))
                .seed(11)
                .server_kind(|i| {
                    if i % 2 == 0 {
                        ServerKind::Rdma
                    } else {
                        ServerKind::Tcp
                    }
                })
                .execution(ExecutionProfile::Sharded { shards: 2 })
                .build_sharded();
            c.set_threaded(threaded);
            let (tcp, rdma) = (
                c.servers_of_kind(ServerKind::Tcp),
                c.servers_of_kind(ServerKind::Rdma),
            );
            let (a, b) = (tcp[0], tcp[3]);
            assert_ne!(c.server_shard(a), c.server_shard(b));
            let (ca, _) = c.connect_tcp(a, b, TcpApp::Saturate { msg_len: 100_000 }, TcpApp::None);
            c.connect_tcp(
                tcp[1],
                tcp[2],
                TcpApp::Pinger {
                    payload: 512,
                    interval: SimTime::from_micros(200),
                    start_at: SimTime::from_micros(10),
                },
                TcpApp::Echo { reply_len: 512 },
            );
            c.connect_qp(rdma[0], rdma[3], 6000, saturate(), QpApp::None);
            // Mutable switch access resolves (shard, node) like the
            // shared borrow does, on the far shard too.
            let far = c.tor_of(b);
            let name = c.switch_name(far).to_string();
            assert_eq!(c.switch_mut(far).config().name, name);
            c.run_for_millis(5);
            let acked = c.tcp(a).sender_stats(ca).bytes_acked;
            assert!(
                acked >= 100_000,
                "TCP must flow across the boundary: {acked}"
            );
            assert!(!c.take_tcp_rtts().is_empty());
            assert!(c.total_rdma_goodput() >= 128 * 1024);
            (
                c.dispatch_digest(),
                c.events_processed(),
                acked,
                c.total_server_pause_rx(),
            )
        };
        assert_eq!(run(true), run(false));
    }

    /// Connections made on a fabric that has already run start without
    /// any always-armed periodic timer to find them: the cluster wakes
    /// both hosts at the next run, across shards too. Congestion control
    /// is off, so no DCQCN tick exists to do it by accident, and the
    /// fabric is otherwise idle — nothing but the wake can start them.
    #[test]
    fn connections_made_mid_run_are_woken() {
        let mut c = ClusterBuilder::new(ClosSpec::uniform_40g(2, 1, 2, 2, 4))
            .seed(11)
            .server_kind(|i| {
                if i % 2 == 0 {
                    ServerKind::Rdma
                } else {
                    ServerKind::Tcp
                }
            })
            .fabric(FabricProfile::paper_default().switch_watchdog(false))
            .transport(TransportProfile::paper_default().cc(rocescale_cc::CcKind::Off))
            .execution(ExecutionProfile::Sharded { shards: 2 })
            .build_sharded();
        c.run_for_millis(1);
        let starts = c.server_count() + c.switch_count();
        assert_eq!(c.events_processed(), starts as u64, "an idle fabric");

        let (tcp, rdma) = (
            c.servers_of_kind(ServerKind::Tcp),
            c.servers_of_kind(ServerKind::Rdma),
        );
        assert_ne!(c.server_shard(rdma[0]), c.server_shard(rdma[3]));
        c.connect_qp(rdma[0], rdma[3], 6000, saturate(), QpApp::None);
        let (ca, _) = c.connect_tcp(
            tcp[0],
            tcp[3],
            TcpApp::Saturate { msg_len: 100_000 },
            TcpApp::None,
        );
        // The RDMA sender starts on its host's next timer line — the
        // 100 µs scan line, as it would have under the always-armed scan.
        c.run_until(SimTime::from_micros(1099));
        assert_eq!(c.rdma(rdma[0]).stats.data_pkts_tx, 0);
        c.run_until(SimTime::from_micros(1100));
        assert!(c.rdma(rdma[0]).stats.data_pkts_tx > 0);
        c.run_for_millis(2);
        assert!(c.total_rdma_goodput() >= 128 * 1024);
        assert!(c.tcp(tcp[0]).sender_stats(ca).bytes_acked >= 100_000);
    }

    /// Pingmesh on any world set: every sample lands once in its
    /// prober's shard bank, and the returned report counts each once.
    fn pingmesh_probes_agree<W: WorldSet>(mut c: Cluster<W>) {
        let pairs = c.install_pingmesh(2, SimTime::from_micros(100));
        c.run_for_millis(1);
        let report = c.pingmesh_report(&pairs);
        assert!(report.total() > 0);
        let in_banks: u64 = c
            .counters_snapshot()
            .into_iter()
            .filter(|(name, _)| name.starts_with("pingmesh.") && name.ends_with(".probes"))
            .map(|(_, v)| v)
            .sum();
        assert_eq!(in_banks, report.total());
    }

    #[test]
    fn pingmesh_report_records_each_sample_once() {
        let builder = |shards| {
            ClusterBuilder::new(ClosSpec::uniform_40g(2, 2, 2, 2, 2))
                .instrumentation(observed())
                .execution(ExecutionProfile::Sharded { shards })
        };
        pingmesh_probes_agree(builder(1).build());
        pingmesh_probes_agree(builder(1).build_sharded());
        pingmesh_probes_agree(builder(2).build_sharded());
    }

    /// A switch's scope, registered from structure, is what its name
    /// looks up: queue samples the cluster streams for it, and a caller
    /// that asks the hub by name, land under the switch's own scope.
    #[test]
    fn a_switch_scope_is_found_by_its_name() {
        let c = ClusterBuilder::new(ClosSpec::uniform_40g(1, 2, 1, 1, 2))
            .instrumentation(observed())
            .build();
        for i in 0..c.switch_count() {
            let scope = c.switch(i).telemetry_scope();
            assert_ne!(scope, ScopeId::sentinel());
            let name = format!("switch.{}", c.switch_name(i));
            assert_eq!(c.telemetry().scope(&name), scope, "{name}");
        }
        assert_eq!(
            c.telemetry()
                .gauge_value("switch.pod0-tor0.lossless_backlog_bytes"),
            Some(0.0)
        );
    }

    #[test]
    fn servers_under_answers_from_cabling_past_254_servers_per_tor() {
        // server_ip packs the slot into a /24, so at 320 servers per ToR
        // slots 255.. alias into the next rack's subnet; rack membership
        // must not be read off addresses.
        let c = ClusterBuilder::new(ClosSpec::uniform_40g(1, 2, 1, 1, 320)).build();
        for tor in 0..2 {
            let rack = c.servers_under(0, tor);
            let expect: Vec<ServerId> =
                (0..320).map(|s| ServerId(tor as usize * 320 + s)).collect();
            assert_eq!(rack, expect, "rack {tor}");
            let tor_switch = c.tor_of(rack[0]);
            assert_eq!(c.switch_name(tor_switch), format!("pod0-tor{tor}"));
            assert!(rack.iter().all(|s| c.tor_of(*s) == tor_switch));
        }
        assert!(c.servers_under(0, 2).is_empty() && c.servers_under(1, 0).is_empty());
    }

    #[test]
    fn mixed_rdma_tcp_cluster() {
        let mut c = ClusterBuilder::two_tier(1, 4)
            .server_kind(|i| {
                if i % 2 == 0 {
                    ServerKind::Rdma
                } else {
                    ServerKind::Tcp
                }
            })
            .build();
        assert_eq!(c.servers_of_kind(ServerKind::Rdma).len(), 2);
        assert_eq!(c.servers_of_kind(ServerKind::Tcp).len(), 2);
        let t = c.servers_of_kind(ServerKind::Tcp);
        let (ca, _cb) = c.connect_tcp(
            t[0],
            t[1],
            TcpApp::Saturate { msg_len: 100_000 },
            TcpApp::None,
        );
        c.run_for_millis(5);
        let sent = c.tcp(t[0]).sender_stats(ca).bytes_acked;
        assert!(sent >= 100_000, "TCP stream must flow: {sent}");
    }

    #[test]
    fn fault_profile_injects_storm() {
        let mut c = ClusterBuilder::two_tier(2, 2)
            .faults(FaultProfile::paper_default().at(
                SimTime::from_millis(1),
                ScriptAction::StormStart { server: 0 },
            ))
            .build();
        let ids = c.all_servers();
        // Traffic toward the stormer piles up behind its paused port.
        c.connect_qp(
            ids[2],
            ids[0],
            5000,
            QpApp::Saturate {
                msg_len: 128 * 1024,
                inflight: 2,
            },
            QpApp::None,
        );
        c.run_until(SimTime::from_millis(1));
        assert_eq!(
            c.rdma(ids[0]).stats.rx_storm_dropped,
            0,
            "storm must not start early"
        );
        c.run_for_millis(4);
        assert!(
            c.rdma(ids[0]).stats.rx_storm_dropped > 0,
            "stormer must drop its inbound traffic"
        );
        assert!(
            c.rdma(ids[0]).stats.pause_tx > 0,
            "stormer must pause its ToR port"
        );
        let tor_pause_rx: u64 = c
            .switches_of_tier(Tier::Tor)
            .into_iter()
            .map(|i| c.switch(i).stats.pause_rx.iter().sum::<u64>())
            .sum();
        assert!(tor_pause_rx > 0, "ToR must see the storm's pause frames");
    }

    #[test]
    fn scripted_lossless_off_flushes_queued_packets_exactly_once() {
        // A storming NIC pauses its ToR port so lossless packets queue
        // behind it; the scripted SetLossless(off) must flush that queue
        // once — counted once — and never again.
        let mut c = ClusterBuilder::two_tier(2, 2)
            .faults(
                FaultProfile::paper_default()
                    .at(
                        SimTime::from_millis(1),
                        ScriptAction::StormStart { server: 0 },
                    )
                    .at(
                        SimTime::from_millis(3),
                        ScriptAction::SetLossless {
                            switch: "pod0-tor0".to_string(),
                            prio: 3,
                            on: false,
                        },
                    ),
            )
            .build();
        let ids = c.all_servers();
        c.connect_qp(
            ids[2],
            ids[0],
            5000,
            QpApp::Saturate {
                msg_len: 128 * 1024,
                inflight: 2,
            },
            QpApp::None,
        );
        c.run_until(SimTime::from_micros(2_900));
        assert_eq!(
            c.total_drops_of(DropReason::AdminLosslessOff),
            0,
            "no admin flush before the scripted action fires"
        );
        c.run_until(SimTime::from_millis(4));
        let flushed = c.total_drops_of(DropReason::AdminLosslessOff);
        assert!(flushed > 0, "queued lossless packets must be flushed");
        c.run_for_millis(3);
        assert_eq!(
            c.total_drops_of(DropReason::AdminLosslessOff),
            flushed,
            "the flush happens exactly once"
        );
    }

    #[test]
    fn scripted_link_flap_stalls_then_resumes_traffic() {
        let flap_down = SimTime::from_millis(1);
        let flap_up = SimTime::from_millis(2);
        let mut c = ClusterBuilder::single_tor(2)
            .faults(
                FaultProfile::paper_default()
                    .at(
                        flap_down,
                        ScriptAction::ServerLink {
                            server: 1,
                            up: false,
                        },
                    )
                    .at(
                        flap_up,
                        ScriptAction::ServerLink {
                            server: 1,
                            up: true,
                        },
                    ),
            )
            .build();
        let ids = c.all_servers();
        c.connect_qp(
            ids[0],
            ids[1],
            5000,
            QpApp::Saturate {
                msg_len: 64 * 1024,
                inflight: 2,
            },
            QpApp::None,
        );
        c.run_until(flap_down);
        let before = c.total_rdma_goodput();
        assert!(before > 0, "traffic must flow before the flap");
        c.run_until(flap_up);
        let during = c.total_rdma_goodput();
        c.run_for_millis(3);
        let after = c.total_rdma_goodput();
        assert!(
            after > during + 64 * 1024,
            "traffic must resume after re-up: {during} -> {after}"
        );
    }

    /// The probe reads every switch: traffic that flows never looks
    /// stuck, while a storm victim's switches do — stuck, but on a pause
    /// chain rather than a cycle, so the verdict stays empty.
    #[test]
    fn the_deadlock_probe_tells_progress_from_a_stall() {
        let mut c = ClusterBuilder::two_tier(2, 2)
            .fabric(FabricProfile::paper_default().switch_watchdog(false))
            .faults(FaultProfile::paper_default().at(
                SimTime::from_millis(1),
                ScriptAction::StormStart { server: 0 },
            ))
            .build();
        let ids = c.all_servers();
        c.connect_qp(
            ids[2],
            ids[0],
            5000,
            QpApp::Saturate {
                msg_len: 128 * 1024,
                inflight: 2,
            },
            QpApp::None,
        );
        for us in [250, 500, 750, 1000] {
            c.run_until(SimTime::from_micros(us));
            assert_eq!(c.deadlock_observe_now(), None);
        }
        assert!(c.deadlock_probe().stuck().is_empty(), "traffic flows");
        for ms in 2..=6 {
            c.run_until(SimTime::from_millis(ms));
            assert_eq!(c.deadlock_observe_now(), None, "a storm is no cycle");
        }
        assert_eq!(c.deadlock_probe().epochs(), 9);
        assert!(
            c.deadlock_probe()
                .stuck()
                .contains(&"pod0-tor0".to_string()),
            "the stormer's ToR stalls: {:?}",
            c.deadlock_probe().stuck()
        );
        assert!(c.deadlock_probe().verdict().is_empty());
    }

    /// Every shard's hub is built from the caller's whole telemetry
    /// configuration, not just its sampling cadence: an eight-record
    /// flight ring stays eight records on shard 1 too.
    #[test]
    fn every_shard_hub_keeps_the_callers_telemetry_config() {
        let cfg = rocescale_monitor::TelemetryConfig {
            flight_capacity: 8,
            ..Default::default()
        };
        let mut c = ClusterBuilder::new(ClosSpec::uniform_40g(2, 1, 2, 2, 4))
            .instrumentation(
                InstrumentationProfile::paper_default().telemetry(MetricsHub::with_config(cfg)),
            )
            .execution(ExecutionProfile::Sharded { shards: 2 })
            .build_sharded();
        // Incast into the last server, in pod 1: its ToR pauses and
        // records it on shard 1.
        let dst = ServerId(c.server_count() - 1);
        for s in 0..c.server_count() - 1 {
            c.connect_qp(ServerId(s), dst, 6000 + s as u16, saturate(), QpApp::None);
        }
        c.run_for_millis(1);
        assert_eq!(c.shard_count(), 2);
        for s in 0..2 {
            assert_eq!(c.hub(s).config(), Some(cfg), "shard {s}");
        }
        let (records, dropped) = c.hub(1).flight_snapshot();
        assert!(
            records.len() <= 8 && dropped > 0,
            "{} records kept, {dropped} evicted",
            records.len()
        );
    }
}
