//! Clos topology descriptions: the paper's multi-layer network (Figure 1)
//! as data.
//!
//! "Twenty to forty servers connect to a top-of-rack (ToR) switch. Tens of
//! ToRs connect to a layer of Leaf switches. The Leaf switches in turn
//! connect to a layer of tens to hundreds of Spine switches." (§2)
//!
//! This crate is pure description — node inventory, links with cable
//! lengths, addressing, and up-down ECMP routes — consumed by
//! `rocescale-core`, which instantiates the actual switch and host nodes.
//! Keeping it data-only makes topology properties unit-testable without a
//! simulation (port counts, oversubscription ratios, route reachability).
//!
//! Addressing scheme: server *s* under ToR *t* of pod *p* is
//! `10.p.t.(s+1)/24`; the ToR owns the `/24`, pods own `/16`s. Up-down
//! routes follow the paper: packets climb to a common ancestor and come
//! down, with ECMP at every fan-out.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::Arc;

use rocescale_sim::PortId;

/// Role of a node in the Clos fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Tier {
    /// A server (one NIC port).
    Server,
    /// Top-of-rack switch.
    Tor,
    /// Leaf (aggregation) switch.
    Leaf,
    /// Spine (core) switch.
    Spine,
}

/// A node in the topology. Index in [`Topology::nodes`] is its id.
#[derive(Debug, Clone)]
pub struct TopoNode {
    /// Tier.
    pub tier: Tier,
    /// Human-readable name, e.g. `pod0-tor3` or `pod1-tor3-srv17`.
    /// Shared, not copied: the cluster builder hands the same string to
    /// the host's config and the deadlock probe.
    pub name: Arc<str>,
    /// Pod index (spines use `u32::MAX`).
    pub pod: u32,
    /// For servers: assigned IPv4 address.
    pub ip: Option<u32>,
}

/// A duplex link between two (node, port) endpoints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TopoLink {
    /// First endpoint (topology node index, port).
    pub a: (u32, PortId),
    /// Second endpoint.
    pub b: (u32, PortId),
    /// Line rate, b/s.
    pub rate_bps: u64,
    /// Cable length, metres (drives propagation delay and headroom).
    pub meters: u32,
}

/// One route table entry for a switch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RouteSpec {
    /// `prefix/len` reachable via ECMP over these local ports.
    Via {
        /// Network prefix.
        prefix: u32,
        /// Prefix length.
        len: u8,
        /// Equal-cost egress ports.
        ports: Vec<PortId>,
    },
    /// `prefix/len` is this switch's directly connected subnet.
    Connected {
        /// Network prefix.
        prefix: u32,
        /// Prefix length.
        len: u8,
    },
}

/// One end of a cable as seen from a node: its own `port`, the `peer`
/// node on the far end, and the [`Topology::links`] entry that is the
/// cable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Neighbor {
    /// This node's port.
    pub port: PortId,
    /// Node id at the far end.
    pub peer: u32,
    /// Index into [`Topology::links`].
    pub link: u32,
}

/// A complete topology: nodes, links, and per-switch routes.
#[derive(Debug, Clone)]
pub struct Topology {
    /// Nodes; index = id.
    pub nodes: Vec<TopoNode>,
    /// Links.
    pub links: Vec<TopoLink>,
    /// Switch routes in compressed rows: node `i`'s table is
    /// `route_rows[route_start[i]..route_start[i + 1]]` (see
    /// [`Topology::routes`]), so a server's empty table is one offset.
    route_rows: Vec<RouteSpec>,
    route_start: Vec<u32>,
    /// Per-node adjacency over `links` as built by [`Topology::clos`], in
    /// compressed rows: node `i`'s neighbours are
    /// `adj[adj_start[i]..adj_start[i + 1]]`, in link order. Every
    /// per-node question (ports, ToR, attached servers) is answered from
    /// here in time proportional to the node's radix, not the fabric's
    /// link count.
    adj: Vec<Neighbor>,
    adj_start: Vec<u32>,
}

/// Parameters of a Clos fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClosSpec {
    /// Number of pods (podsets).
    pub pods: u32,
    /// ToRs per pod.
    pub tors_per_pod: u32,
    /// Leaves per pod.
    pub leaves_per_pod: u32,
    /// Spine switches. Spines are organized in *planes*: plane *l*
    /// (of `leaves_per_pod` planes) contains `spines / leaves_per_pod`
    /// spines, each connecting to leaf *l* of every pod — the
    /// arrangement that gives the paper's 64 podset uplinks from 4
    /// leaves and 64 spines (16 uplinks per leaf).
    pub spines: u32,
    /// Servers per ToR.
    pub servers_per_tor: u32,
    /// Server↔ToR link rate, b/s.
    pub server_bps: u64,
    /// ToR↔Leaf link rate, b/s.
    pub tor_leaf_bps: u64,
    /// Leaf↔Spine link rate, b/s.
    pub leaf_spine_bps: u64,
    /// Server cable length, metres (paper: ~2 m).
    pub server_m: u32,
    /// ToR↔Leaf cable, metres (paper: 10–20 m).
    pub tor_leaf_m: u32,
    /// Leaf↔Spine cable, metres (paper: 200–300 m).
    pub leaf_spine_m: u32,
}

impl ClosSpec {
    /// All links 40 GbE with the paper's cable lengths.
    pub fn uniform_40g(
        pods: u32,
        tors_per_pod: u32,
        leaves_per_pod: u32,
        spines: u32,
        servers_per_tor: u32,
    ) -> ClosSpec {
        ClosSpec {
            pods,
            tors_per_pod,
            leaves_per_pod,
            spines,
            servers_per_tor,
            server_bps: 40_000_000_000,
            tor_leaf_bps: 40_000_000_000,
            leaf_spine_bps: 40_000_000_000,
            server_m: 2,
            tor_leaf_m: 15,
            leaf_spine_m: 300,
        }
    }

    /// ToR oversubscription: server bandwidth in vs uplink bandwidth out.
    pub fn tor_oversubscription(&self) -> f64 {
        (self.servers_per_tor as u64 * self.server_bps) as f64
            / (self.leaves_per_pod as u64 * self.tor_leaf_bps) as f64
    }

    /// Spines per plane (= spine uplinks per leaf).
    pub fn spines_per_plane(&self) -> u32 {
        self.spines / self.leaves_per_pod
    }

    /// Leaf oversubscription: downlink vs uplink bandwidth.
    pub fn leaf_oversubscription(&self) -> f64 {
        (self.tors_per_pod as u64 * self.tor_leaf_bps) as f64
            / (self.spines_per_plane() as u64 * self.leaf_spine_bps) as f64
    }
}

/// A node name, formatted into the reused `buf` so the name costs one
/// allocation: its shared block.
fn name(buf: &mut String, args: std::fmt::Arguments<'_>) -> Arc<str> {
    use std::fmt::Write;
    buf.clear();
    buf.write_fmt(args)
        .expect("formatting into a String cannot fail");
    Arc::from(buf.as_str())
}

/// IP of server `s` under ToR `t` in pod `p`.
pub fn server_ip(pod: u32, tor: u32, server: u32) -> u32 {
    0x0a000000 | (pod << 16) | (tor << 8) | (server + 1)
}

/// The `/24` subnet of ToR `t` in pod `p`.
pub fn tor_subnet(pod: u32, tor: u32) -> u32 {
    0x0a000000 | (pod << 16) | (tor << 8)
}

/// The `/16` prefix of pod `p`.
pub fn pod_prefix(pod: u32) -> u32 {
    0x0a000000 | (pod << 16)
}

impl Topology {
    /// Build a Clos fabric from its spec. Panics if `spines` is not a
    /// multiple of `leaves_per_pod` (planes must be uniform), or if
    /// several pods have no spine to join them. One pod needs none: its
    /// leaves then carry only their down routes (FIG-4's fragment).
    pub fn clos(spec: &ClosSpec) -> Topology {
        assert_eq!(
            spec.spines % spec.leaves_per_pod,
            0,
            "spines must divide evenly into {} planes",
            spec.leaves_per_pod
        );
        assert!(
            spec.spines > 0 || spec.pods <= 1,
            "{} pods need spines to reach each other: {spec:?}",
            spec.pods
        );
        let spines_per_plane = spec.spines_per_plane() as usize;
        let mut t = Topology {
            nodes: Vec::new(),
            links: Vec::new(),
            route_rows: Vec::new(),
            route_start: Vec::new(),
            adj: Vec::new(),
            adj_start: Vec::new(),
        };
        let mut tor_ids = vec![vec![0u32; spec.tors_per_pod as usize]; spec.pods as usize];
        let mut leaf_ids = vec![vec![0u32; spec.leaves_per_pod as usize]; spec.pods as usize];
        let mut spine_ids = vec![0u32; spec.spines as usize];
        let mut buf = String::new();
        // Nodes.
        for p in 0..spec.pods {
            for tor in 0..spec.tors_per_pod {
                tor_ids[p as usize][tor as usize] = t.push(TopoNode {
                    tier: Tier::Tor,
                    name: name(&mut buf, format_args!("pod{p}-tor{tor}")),
                    pod: p,
                    ip: None,
                });
                for s in 0..spec.servers_per_tor {
                    t.push(TopoNode {
                        tier: Tier::Server,
                        name: name(&mut buf, format_args!("pod{p}-tor{tor}-srv{s}")),
                        pod: p,
                        ip: Some(server_ip(p, tor, s)),
                    });
                }
            }
            for l in 0..spec.leaves_per_pod {
                leaf_ids[p as usize][l as usize] = t.push(TopoNode {
                    tier: Tier::Leaf,
                    name: name(&mut buf, format_args!("pod{p}-leaf{l}")),
                    pod: p,
                    ip: None,
                });
            }
        }
        for s in 0..spec.spines {
            spine_ids[s as usize] = t.push(TopoNode {
                tier: Tier::Spine,
                name: name(&mut buf, format_args!("spine{s}")),
                pod: u32::MAX,
                ip: None,
            });
        }
        // Links. Port conventions:
        //   ToR:   0..servers → servers, then one per leaf.
        //   Leaf:  0..tors → ToRs of the pod, then one per spine.
        //   Spine: pod-major × leaf index.
        for p in 0..spec.pods as usize {
            for (tor, &tor_id) in tor_ids[p].iter().enumerate() {
                for s in 0..spec.servers_per_tor {
                    let srv_id = tor_id + 1 + s;
                    t.links.push(TopoLink {
                        a: (srv_id, PortId(0)),
                        b: (tor_id, PortId(s as u16)),
                        rate_bps: spec.server_bps,
                        meters: spec.server_m,
                    });
                }
                for (l, &leaf_id) in leaf_ids[p].iter().enumerate() {
                    t.links.push(TopoLink {
                        a: (tor_id, PortId((spec.servers_per_tor as usize + l) as u16)),
                        b: (leaf_id, PortId(tor as u16)),
                        rate_bps: spec.tor_leaf_bps,
                        meters: spec.tor_leaf_m,
                    });
                }
            }
            for (l, &leaf_id) in leaf_ids[p].iter().enumerate() {
                // Leaf l connects to the spines of plane l only.
                for k in 0..spines_per_plane {
                    let spine = l * spines_per_plane + k;
                    t.links.push(TopoLink {
                        a: (leaf_id, PortId((spec.tors_per_pod as usize + k) as u16)),
                        b: (spine_ids[spine], PortId(p as u16)),
                        rate_bps: spec.leaf_spine_bps,
                        meters: spec.leaf_spine_m,
                    });
                }
            }
        }
        // Routes (up-down), gathered per node, then packed into rows.
        let mut routes: Vec<Vec<RouteSpec>> = vec![Vec::new(); t.nodes.len()];
        for p in 0..spec.pods {
            for tor in 0..spec.tors_per_pod {
                let tor_id = tor_ids[p as usize][tor as usize] as usize;
                let uplinks: Vec<PortId> = (0..spec.leaves_per_pod)
                    .map(|l| PortId((spec.servers_per_tor + l) as u16))
                    .collect();
                routes[tor_id].push(RouteSpec::Connected {
                    prefix: tor_subnet(p, tor),
                    len: 24,
                });
                // Everything else goes up.
                routes[tor_id].push(RouteSpec::Via {
                    prefix: 0x0a000000,
                    len: 8,
                    ports: uplinks,
                });
            }
            for l in 0..spec.leaves_per_pod {
                let leaf_id = leaf_ids[p as usize][l as usize] as usize;
                // Down: each ToR subnet of this pod via its ToR port.
                for tor in 0..spec.tors_per_pod {
                    routes[leaf_id].push(RouteSpec::Via {
                        prefix: tor_subnet(p, tor),
                        len: 24,
                        ports: vec![PortId(tor as u16)],
                    });
                }
                // Up: everything else via this leaf's spine plane, if
                // it has one.
                let uplinks: Vec<PortId> = (0..spec.spines_per_plane())
                    .map(|s| PortId((spec.tors_per_pod + s) as u16))
                    .collect();
                if uplinks.is_empty() {
                    continue;
                }
                routes[leaf_id].push(RouteSpec::Via {
                    prefix: 0x0a000000,
                    len: 8,
                    ports: uplinks,
                });
            }
        }
        for s in 0..spec.spines {
            // A spine has exactly one leaf (its plane's) in each pod.
            let spine_id = spine_ids[s as usize] as usize;
            for p in 0..spec.pods {
                routes[spine_id].push(RouteSpec::Via {
                    prefix: pod_prefix(p),
                    len: 16,
                    ports: vec![PortId(p as u16)],
                });
            }
        }
        t.route_start.reserve_exact(routes.len() + 1);
        t.route_start.push(0);
        for r in routes {
            t.route_rows.extend(r);
            t.route_start.push(t.route_rows.len() as u32);
        }
        t.index_links();
        t
    }

    fn push(&mut self, n: TopoNode) -> u32 {
        self.nodes.push(n);
        (self.nodes.len() - 1) as u32
    }

    /// The route table of `node` (empty for servers).
    pub fn routes(&self, node: usize) -> &[RouteSpec] {
        &self.route_rows[self.route_start[node] as usize..self.route_start[node + 1] as usize]
    }

    /// Build the adjacency rows from `links` (a counting sort by node,
    /// so each row keeps link order and the whole index is two
    /// allocations however many nodes there are).
    fn index_links(&mut self) {
        let mut start = vec![0u32; self.nodes.len() + 1];
        for l in &self.links {
            start[l.a.0 as usize + 1] += 1;
            start[l.b.0 as usize + 1] += 1;
        }
        for i in 0..self.nodes.len() {
            start[i + 1] += start[i];
        }
        let unset = Neighbor {
            port: PortId(0),
            peer: 0,
            link: 0,
        };
        let mut adj = vec![unset; 2 * self.links.len()];
        let mut next = start.clone();
        for (link, l) in self.links.iter().enumerate() {
            for (me, peer) in [(l.a, l.b), (l.b, l.a)] {
                let at = &mut next[me.0 as usize];
                adj[*at as usize] = Neighbor {
                    port: me.1,
                    peer: peer.0,
                    link: link as u32,
                };
                *at += 1;
            }
        }
        self.adj = adj;
        self.adj_start = start;
    }

    /// The cable ends at `node`, in link order.
    pub fn neighbors(&self, node: usize) -> &[Neighbor] {
        &self.adj[self.adj_start[node] as usize..self.adj_start[node + 1] as usize]
    }

    /// The port of `node` cabled to `peer`, if they are adjacent.
    pub fn port_toward(&self, node: usize, peer: usize) -> Option<PortId> {
        self.neighbors(node)
            .iter()
            .find(|n| n.peer as usize == peer)
            .map(|n| n.port)
    }

    /// Number of pods actually present (max pod index + 1 over
    /// non-spine nodes; 0 for an all-spine or empty topology).
    pub fn pod_count(&self) -> u32 {
        self.nodes
            .iter()
            .filter(|n| n.pod != u32::MAX)
            .map(|n| n.pod + 1)
            .max()
            .unwrap_or(0)
    }

    /// Ids of all nodes of a tier.
    pub fn of_tier(&self, tier: Tier) -> Vec<usize> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.tier == tier)
            .map(|(i, _)| i)
            .collect()
    }

    /// Number of ports each node needs (max port index + 1 over links).
    pub fn port_count(&self, node: usize) -> u16 {
        self.neighbors(node)
            .iter()
            .map(|n| n.port.0 + 1)
            .max()
            .unwrap_or(0)
    }

    /// The server node ids under a given ToR id, in port order.
    pub fn servers_of_tor(&self, tor: usize) -> Vec<usize> {
        let mut out: Vec<(PortId, usize)> = self
            .neighbors(tor)
            .iter()
            .filter(|n| self.nodes[n.peer as usize].tier == Tier::Server)
            .map(|n| (n.port, n.peer as usize))
            .collect();
        out.sort();
        out.into_iter().map(|(_, s)| s).collect()
    }

    /// The ToR id a server connects to.
    pub fn tor_of_server(&self, server: usize) -> usize {
        self.neighbors(server)
            .iter()
            .find(|n| self.nodes[n.peer as usize].tier == Tier::Tor)
            .map(|n| n.peer as usize)
            .unwrap_or_else(|| panic!("server {server} has no ToR link"))
    }
}

/// A pod-granular shard plan over a [`Topology`]: every node is
/// assigned to exactly one shard, and the plan is the *only* input the
/// sharded cluster builder needs — which worlds to build, where each
/// node lives, and which links become cross-shard boundary links.
///
/// Assignment rule:
/// - The effective shard count is `min(requested, pods)` — a pod is
///   never split, so a 1-pod topology collapses to one shard no matter
///   what was requested (this is what lets the golden single-pod fabric
///   re-pin its digest under any `Sharded { shards: N }`).
/// - Pod `p` (and every host/ToR/leaf in it) goes to shard
///   `p * eff / pods` — contiguous pod ranges, sizes differing by at
///   most one pod.
/// - Spines (pod = `u32::MAX`) are *owned*, not replicated: spine
///   ordinal `s` goes to shard `s % eff`, spreading the spine layer's
///   event load round-robin. Leaf↔spine links whose endpoints land on
///   different shards become explicit cross-shard links.
#[derive(Debug, Clone)]
pub struct Partition {
    shard_of: Vec<u32>,
    shards: u32,
}

impl Partition {
    /// The trivial plan: every node on shard 0.
    pub fn single(topo: &Topology) -> Partition {
        Partition {
            shard_of: vec![0; topo.nodes.len()],
            shards: 1,
        }
    }

    /// Pod-granular plan over (at most) `shards` shards; see the type
    /// docs for the assignment rule.
    pub fn pods(topo: &Topology, shards: u32) -> Partition {
        let pods = topo.pod_count();
        let eff = shards.max(1).min(pods.max(1));
        if eff <= 1 {
            return Partition::single(topo);
        }
        let mut spine_ordinal = 0u32;
        let shard_of = topo
            .nodes
            .iter()
            .map(|n| {
                if n.pod == u32::MAX {
                    let s = spine_ordinal % eff;
                    spine_ordinal += 1;
                    s
                } else {
                    // Contiguous pod ranges: pods 0..pods map onto
                    // 0..eff monotonically, never splitting a pod.
                    (n.pod as u64 * eff as u64 / pods as u64) as u32
                }
            })
            .collect();
        Partition {
            shard_of,
            shards: eff,
        }
    }

    /// Effective number of shards (≥ 1).
    pub fn shards(&self) -> u32 {
        self.shards
    }

    /// Shard owning topology node `node`.
    pub fn shard_of(&self, node: usize) -> u32 {
        self.shard_of[node]
    }

    /// Does `link` cross a shard boundary under this plan?
    pub fn is_cross(&self, link: &TopoLink) -> bool {
        self.shard_of[link.a.0 as usize] != self.shard_of[link.b.0 as usize]
    }

    /// The links that cross shard boundaries (topology order).
    pub fn cross_links<'a>(&'a self, topo: &'a Topology) -> impl Iterator<Item = &'a TopoLink> {
        topo.links.iter().filter(|l| self.is_cross(l))
    }

    /// Dense per-shard renumbering: element `i` is node `i`'s index
    /// within its own shard's world (nodes of a shard keep topology
    /// order). The sharded builder adds nodes in topology order, so
    /// this is exactly the `NodeId` each node receives there.
    pub fn local_index(&self) -> Vec<u32> {
        let mut next = vec![0u32; self.shards as usize];
        self.shard_of
            .iter()
            .map(|&s| {
                let i = next[s as usize];
                next[s as usize] += 1;
                i
            })
            .collect()
    }

    /// Node count per shard.
    pub fn shard_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.shards as usize];
        for &s in &self.shard_of {
            sizes[s as usize] += 1;
        }
        sizes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig7_full_scale_counts() {
        // The paper: "A podset is composed of 4 Leaf switches, 24 ToR
        // switches, and 576 servers … The 4 Leaf switches connect to a
        // total of 64 Spine switches."
        let spec = ClosSpec::uniform_40g(2, 24, 4, 64, 24);
        let t = Topology::clos(&spec);
        assert_eq!(t.of_tier(Tier::Server).len(), 1152);
        assert_eq!(t.of_tier(Tier::Tor).len(), 48);
        assert_eq!(t.of_tier(Tier::Leaf).len(), 8);
        assert_eq!(t.of_tier(Tier::Spine).len(), 64);
        // "The oversubscription ratios at the ToR and the Leaf are 6:1
        // and 3:2, respectively."
        assert!((spec.tor_oversubscription() - 6.0).abs() < 1e-9);
        assert!((spec.leaf_oversubscription() - 1.5).abs() < 1e-9);
        // Aggregate podset↔spine bandwidth = 64 × 4 × ... per paper:
        // 64 uplinks per podset × 40G = 2.56 Tb/s.
        let per_podset_uplinks = 4 * 64;
        assert_eq!(
            per_podset_uplinks as u64 * 40_000_000_000 / 4,
            2_560_000_000_000
        );
    }

    #[test]
    fn addressing_is_unique_and_structured() {
        let t = Topology::clos(&ClosSpec::uniform_40g(2, 3, 2, 4, 5));
        let mut ips: Vec<u32> = t.nodes.iter().filter_map(|n| n.ip).collect();
        let before = ips.len();
        ips.sort_unstable();
        ips.dedup();
        assert_eq!(ips.len(), before, "duplicate server IPs");
        assert_eq!(server_ip(1, 2, 0), 0x0a010201);
        assert_eq!(tor_subnet(1, 2), 0x0a010200);
    }

    #[test]
    fn every_link_endpoint_port_is_consistent() {
        let t = Topology::clos(&ClosSpec::uniform_40g(2, 3, 2, 4, 5));
        // No two links share a (node, port) endpoint.
        let mut seen = std::collections::HashSet::new();
        for l in &t.links {
            assert!(seen.insert(l.a), "duplicate endpoint {:?}", l.a);
            assert!(seen.insert(l.b), "duplicate endpoint {:?}", l.b);
        }
    }

    #[test]
    fn tor_routes_cover_own_subnet_and_default_up() {
        let spec = ClosSpec::uniform_40g(1, 2, 2, 2, 3);
        let t = Topology::clos(&spec);
        let tor0 = t.of_tier(Tier::Tor)[0];
        let routes = t.routes(tor0);
        assert!(routes
            .iter()
            .any(|r| matches!(r, RouteSpec::Connected { len: 24, .. })));
        let up = routes.iter().find_map(|r| match r {
            RouteSpec::Via { len: 8, ports, .. } => Some(ports.len()),
            _ => None,
        });
        assert_eq!(up, Some(2), "default route ECMPs over both leaves");
    }

    #[test]
    fn leaf_uplinks_are_one_plane() {
        let spec = ClosSpec::uniform_40g(2, 2, 2, 4, 2);
        let t = Topology::clos(&spec);
        let leaf0 = t.of_tier(Tier::Leaf)[0];
        let up = t.routes(leaf0).iter().find_map(|r| match r {
            RouteSpec::Via { len: 8, ports, .. } => Some(ports.len()),
            _ => None,
        });
        assert_eq!(up, Some(2), "2 spines per plane");
    }

    /// FIG-4's fragment: one pod, two ToRs, two leaves and no spine.
    /// Each leaf routes down to the two ToR subnets and nowhere else.
    #[test]
    fn a_spineless_pod_has_only_down_routes() {
        let t = Topology::clos(&ClosSpec::uniform_40g(1, 2, 2, 0, 3));
        assert_eq!(t.of_tier(Tier::Tor).len() + t.of_tier(Tier::Leaf).len(), 4);
        assert!(t.of_tier(Tier::Spine).is_empty());
        let down: Vec<_> = (0..2)
            .map(|tor| RouteSpec::Via {
                prefix: tor_subnet(0, tor),
                len: 24,
                ports: vec![PortId(tor as u16)],
            })
            .collect();
        for leaf in t.of_tier(Tier::Leaf) {
            assert_eq!(t.routes(leaf), &down[..]);
        }
    }

    /// Without spines, a packet bound for another pod would find no
    /// route at its leaf and vanish.
    #[test]
    #[should_panic(expected = "2 pods need spines to reach each other")]
    fn spineless_pods_are_refused() {
        Topology::clos(&ClosSpec::uniform_40g(2, 2, 2, 0, 3));
    }

    #[test]
    fn spine_routes_per_pod() {
        let spec = ClosSpec::uniform_40g(2, 2, 2, 4, 2);
        let t = Topology::clos(&spec);
        let spine0 = t.of_tier(Tier::Spine)[0];
        assert_eq!(t.routes(spine0).len(), 2, "one /16 per pod");
        for r in t.routes(spine0) {
            match r {
                RouteSpec::Via { len: 16, ports, .. } => assert_eq!(ports.len(), 1),
                other => panic!("unexpected spine route {other:?}"),
            }
        }
    }

    #[test]
    fn server_tor_helpers() {
        let t = Topology::clos(&ClosSpec::uniform_40g(1, 2, 1, 1, 3));
        let tors = t.of_tier(Tier::Tor);
        for tor in tors {
            let servers = t.servers_of_tor(tor);
            assert_eq!(servers.len(), 3);
            for s in servers {
                assert_eq!(t.tor_of_server(s), tor);
            }
        }
    }

    /// The adjacency index answers exactly what a scan over `links`
    /// answers — same values, same order — on the rack, two-tier and
    /// multi-pod shapes the cluster builders use.
    #[test]
    fn adjacency_index_matches_link_scan() {
        for spec in [
            ClosSpec::uniform_40g(1, 1, 1, 1, 8), // ClusterBuilder::single_tor
            ClosSpec::uniform_40g(1, 8, 2, 2, 16), // ClusterBuilder::two_tier
            ClosSpec::uniform_40g(3, 4, 2, 6, 5),
        ] {
            let t = Topology::clos(&spec);
            for node in 0..t.nodes.len() {
                // Every cable end at `node`, by scanning all links.
                let mut scan = Vec::new();
                for (link, l) in t.links.iter().enumerate() {
                    for (me, peer) in [(l.a, l.b), (l.b, l.a)] {
                        if me.0 as usize == node {
                            scan.push(Neighbor {
                                port: me.1,
                                peer: peer.0,
                                link: link as u32,
                            });
                        }
                    }
                }
                assert_eq!(t.neighbors(node), scan, "node {node}");
                let ports = scan.iter().map(|n| n.port.0 + 1).max().unwrap_or(0);
                assert_eq!(t.port_count(node), ports);
                for n in &scan {
                    assert_eq!(t.port_toward(node, n.peer as usize), Some(n.port));
                }
                assert_eq!(t.port_toward(node, node), None);
                if t.nodes[node].tier == Tier::Server {
                    let tor = scan
                        .iter()
                        .find(|n| t.nodes[n.peer as usize].tier == Tier::Tor);
                    assert_eq!(t.tor_of_server(node), tor.unwrap().peer as usize);
                }
            }
        }
    }

    #[test]
    fn partition_is_pod_granular_and_total() {
        let spec = ClosSpec::uniform_40g(4, 2, 2, 4, 3);
        let t = Topology::clos(&spec);
        let p = Partition::pods(&t, 2);
        assert_eq!(p.shards(), 2);
        // Every non-spine node follows its pod; pods 0–1 → shard 0,
        // pods 2–3 → shard 1 (contiguous, never splitting a pod).
        for (i, n) in t.nodes.iter().enumerate() {
            if n.pod != u32::MAX {
                assert_eq!(p.shard_of(i), n.pod * 2 / 4, "node {}", n.name);
            }
        }
        // Spines round-robin across both shards.
        let spines = t.of_tier(Tier::Spine);
        let on_shard1 = spines.iter().filter(|&&s| p.shard_of(s) == 1).count();
        assert_eq!(on_shard1, spines.len() / 2);
        // Sizes cover every node exactly once.
        assert_eq!(p.shard_sizes().iter().sum::<usize>(), t.nodes.len());
    }

    #[test]
    fn partition_collapses_to_pod_count() {
        let t = Topology::clos(&ClosSpec::uniform_40g(2, 2, 2, 4, 3));
        // More shards requested than pods exist: clamp to 2.
        let p = Partition::pods(&t, 16);
        assert_eq!(p.shards(), 2);
        // Single-pod topology collapses to one shard for ANY request —
        // the golden-fabric guarantee.
        let t1 = Topology::clos(&ClosSpec::uniform_40g(1, 4, 2, 4, 3));
        for n in [1, 2, 4, 8] {
            let p = Partition::pods(&t1, n);
            assert_eq!(p.shards(), 1);
            assert_eq!(p.cross_links(&t1).count(), 0);
        }
    }

    #[test]
    fn only_leaf_spine_links_cross() {
        let t = Topology::clos(&ClosSpec::uniform_40g(4, 2, 2, 4, 3));
        let p = Partition::pods(&t, 4);
        assert!(p.cross_links(&t).count() > 0);
        for l in p.cross_links(&t) {
            let tiers = (t.nodes[l.a.0 as usize].tier, t.nodes[l.b.0 as usize].tier);
            assert!(
                matches!(tiers, (Tier::Leaf, Tier::Spine) | (Tier::Spine, Tier::Leaf)),
                "unexpected cross-shard link {:?}",
                tiers
            );
        }
    }

    #[test]
    fn local_indices_are_dense_per_shard() {
        let t = Topology::clos(&ClosSpec::uniform_40g(4, 2, 2, 4, 3));
        let p = Partition::pods(&t, 3);
        let local = p.local_index();
        let sizes = p.shard_sizes();
        let mut seen: Vec<Vec<bool>> = sizes.iter().map(|&n| vec![false; n]).collect();
        for (node, &l) in local.iter().enumerate() {
            let s = p.shard_of(node) as usize;
            assert!(!seen[s][l as usize], "duplicate local index");
            seen[s][l as usize] = true;
        }
        assert!(seen.iter().flatten().all(|&b| b), "gaps in local indices");
    }

    #[test]
    fn port_counts_match_radix() {
        let spec = ClosSpec::uniform_40g(2, 3, 2, 4, 5);
        let t = Topology::clos(&spec);
        let tor = t.of_tier(Tier::Tor)[0];
        assert_eq!(t.port_count(tor), (5 + 2) as u16);
        let leaf = t.of_tier(Tier::Leaf)[0];
        assert_eq!(t.port_count(leaf), (3 + 4 / 2) as u16);
        let spine = t.of_tier(Tier::Spine)[0];
        assert_eq!(t.port_count(spine), 2, "one port per pod");
        let server = t.of_tier(Tier::Server)[0];
        assert_eq!(t.port_count(server), 1);
    }
}
