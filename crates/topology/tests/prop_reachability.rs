//! Property test: in any well-formed Clos spec, the generated up-down
//! routes deliver every server-to-server packet — walked hop by hop over
//! the route *data* (no simulator involved), including loop-freedom and
//! the paper's up-down property (once a path turns downward it never
//! goes up again).

use rocescale_sim::PortId;
use rocescale_topology::{ClosSpec, RouteSpec, Tier, Topology};

/// Longest-prefix match over a node's RouteSpec list.
fn lookup(routes: &[RouteSpec], dst: u32) -> Option<&RouteSpec> {
    let mask = |len: u8| -> u32 {
        if len == 0 {
            0
        } else {
            u32::MAX << (32 - len)
        }
    };
    routes
        .iter()
        .filter(|r| {
            let (p, l) = match r {
                RouteSpec::Via { prefix, len, .. } => (*prefix, *len),
                RouteSpec::Connected { prefix, len } => (*prefix, *len),
            };
            dst & mask(l) == p
        })
        .max_by_key(|r| match r {
            RouteSpec::Via { len, .. } => *len,
            RouteSpec::Connected { len, .. } => *len,
        })
}

/// The node on the other end of (`node`, `port`).
fn peer(topo: &Topology, node: usize, port: PortId) -> usize {
    let me = (node as u32, port);
    for l in &topo.links {
        if l.a == me {
            return l.b.0 as usize;
        }
        if l.b == me {
            return l.a.0 as usize;
        }
    }
    panic!("route names unconnected port {port:?} on node {node}");
}

fn tier_rank(t: Tier) -> u8 {
    match t {
        Tier::Server => 0,
        Tier::Tor => 1,
        Tier::Leaf => 2,
        Tier::Spine => 3,
    }
}

/// Walk a packet from `src` server to `dst` server through the route
/// tables, trying *every* ECMP member at each hop (exhaustive path
/// enumeration with memo). Asserts delivery, hop bound, and up-down.
fn verify_pair(topo: &Topology, src: usize, dst: usize) -> Result<(), String> {
    let dst_ip = topo.nodes[dst].ip.expect("server");
    // BFS over (node, direction) where direction=down once we left a peak.
    let start = {
        // Server's first hop is its ToR.
        let mut tor = None;
        for l in &topo.links {
            let (a, b) = (l.a.0 as usize, l.b.0 as usize);
            if a == src && topo.nodes[b].tier == Tier::Tor {
                tor = Some(b);
            }
            if b == src && topo.nodes[a].tier == Tier::Tor {
                tor = Some(a);
            }
        }
        tor.ok_or("server has no ToR")?
    };
    let mut stack = vec![(start, false, 0u32)];
    let mut seen = std::collections::HashSet::new();
    while let Some((node, went_down, hops)) = stack.pop() {
        if hops > 8 {
            return Err(format!("hop bound exceeded toward {dst_ip:x}"));
        }
        if !seen.insert((node, went_down)) {
            continue;
        }
        match lookup(topo.routes(node), dst_ip) {
            None => {
                return Err(format!(
                    "{} has no route to {dst_ip:x}",
                    topo.nodes[node].name
                ))
            }
            Some(RouteSpec::Connected { .. }) => {
                // Deliverable iff dst really is attached here.
                let attached = topo.servers_of_tor(node).contains(&dst);
                if !attached {
                    return Err(format!(
                        "{} claims {dst_ip:x} connected but it is not",
                        topo.nodes[node].name
                    ));
                }
                continue; // this branch delivered
            }
            Some(RouteSpec::Via { ports, .. }) => {
                for p in ports {
                    let next = peer(topo, node, *p);
                    let up = tier_rank(topo.nodes[next].tier) > tier_rank(topo.nodes[node].tier);
                    if went_down && up {
                        return Err(format!(
                            "up-down violated: {} -> {}",
                            topo.nodes[node].name, topo.nodes[next].name
                        ));
                    }
                    stack.push((next, went_down || !up, hops + 1));
                }
            }
        }
    }
    Ok(())
}

/// Every server reaches every other server over every ECMP branch,
/// within the hop bound, without ever turning back upward. The previous
/// proptest sampled this space; the parameter ranges are small enough to
/// check exhaustively (72 fabric shapes).
#[test]
fn all_pairs_reachable_up_down() {
    for pods in 1u32..3 {
        for tors in 1u32..4 {
            for leaves in 1u32..3 {
                for planes in 1u32..3 {
                    for servers in 1u32..4 {
                        let spec =
                            ClosSpec::uniform_40g(pods, tors, leaves, leaves * planes, servers);
                        let topo = Topology::clos(&spec);
                        let all = topo.of_tier(Tier::Server);
                        for &a in &all {
                            for &b in &all {
                                if a == b {
                                    continue;
                                }
                                if let Err(e) = verify_pair(&topo, a, b) {
                                    panic!("{} -> {}: {e}", topo.nodes[a].name, topo.nodes[b].name);
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}

/// The exact paper-scale fabric also passes the reachability walk (one
/// representative cross-podset pair; the full quadratic check above runs
/// on smaller instances).
#[test]
fn paper_scale_cross_podset_reachable() {
    let spec = ClosSpec::uniform_40g(2, 24, 4, 64, 24);
    let topo = Topology::clos(&spec);
    let servers = topo.of_tier(Tier::Server);
    let a = servers[0];
    let b = *servers.last().unwrap();
    verify_pair(&topo, a, b).expect("cross-podset reachability");
    verify_pair(&topo, b, a).expect("reverse direction");
}
