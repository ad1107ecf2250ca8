//! L3 forwarding: longest-prefix match and five-tuple ECMP (§2).
//!
//! "The UDP header is needed for ECMP-based multi-path routing. … The
//! intermediate switches use standard five-tuple hashing. Thus, traffic
//! belonging to the same QP follows the same path, while traffic on
//! different QPs … can follow different paths." The 60% utilization
//! ceiling of Figure 7 is ECMP hash collision, which this deterministic
//! hash reproduces.

use rocescale_packet::FiveTuple;
use rocescale_sim::rng::keyed;
use rocescale_sim::PortId;

/// A set of equal-cost egress ports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EcmpGroup {
    ports: Vec<PortId>,
}

impl EcmpGroup {
    /// Build from the member ports (must be non-empty).
    pub fn new(ports: Vec<PortId>) -> EcmpGroup {
        assert!(!ports.is_empty(), "empty ECMP group");
        EcmpGroup { ports }
    }

    /// A single next hop.
    pub fn single(port: PortId) -> EcmpGroup {
        EcmpGroup { ports: vec![port] }
    }

    /// Member ports.
    pub fn ports(&self) -> &[PortId] {
        &self.ports
    }

    /// Pick the member for a flow: standard five-tuple hash, salted per
    /// switch so different hops hash independently (as distinct ASICs'
    /// seeds do in practice).
    pub fn select(&self, tuple: &FiveTuple, salt: u64) -> PortId {
        let h = hash_five_tuple(tuple, salt);
        self.ports[(h % self.ports.len() as u64) as usize]
    }
}

/// The five-tuple's ECMP hash: [`keyed`] on the switch's salt, the tuple
/// packed into three words.
pub fn hash_five_tuple(t: &FiveTuple, salt: u64) -> u64 {
    keyed(
        salt,
        &[
            t.src_ip as u64,
            t.dst_ip as u64,
            ((t.protocol as u64) << 32) | ((t.src_port as u64) << 16) | t.dst_port as u64,
        ],
    )
}

#[derive(Debug, Clone)]
struct Route {
    prefix: u32,
    len: u8,
    group: EcmpGroup,
    /// Directly connected subnet: deliver via ARP + MAC table instead of
    /// forwarding to a next-hop port.
    connected: bool,
}

/// A longest-prefix-match table.
#[derive(Debug, Clone, Default)]
pub struct RouteTable {
    routes: Vec<Route>,
}

/// Result of a route lookup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NextHop<'a> {
    /// Forward out one of these ports (ECMP).
    Via(&'a EcmpGroup),
    /// The destination is on a directly connected subnet: resolve with
    /// ARP/MAC tables (ToR behaviour).
    Connected,
}

impl RouteTable {
    /// Empty table.
    pub fn new() -> RouteTable {
        RouteTable::default()
    }

    fn mask(len: u8) -> u32 {
        if len == 0 {
            0
        } else {
            u32::MAX << (32 - len)
        }
    }

    /// Add a forwarding route for `prefix/len` via `group`.
    pub fn add(&mut self, prefix: u32, len: u8, group: EcmpGroup) {
        self.routes.push(Route {
            prefix: prefix & Self::mask(len),
            len,
            group,
            connected: false,
        });
        self.routes.sort_by_key(|r| std::cmp::Reverse(r.len));
    }

    /// Replace the forwarding route for `prefix/len` with `group`,
    /// removing any previous forwarding entry for the same prefix —
    /// the mid-run reroute primitive ([`add`](Self::add) only appends,
    /// so a reroute through it would leave the old, longer-lived entry
    /// winning ties). Connected routes are untouched.
    pub fn replace(&mut self, prefix: u32, len: u8, group: EcmpGroup) {
        let prefix = prefix & Self::mask(len);
        self.routes
            .retain(|r| r.connected || r.len != len || r.prefix != prefix);
        self.add(prefix, len, group);
    }

    /// Mark `prefix/len` as directly connected (L2 resolution applies).
    pub fn add_connected(&mut self, prefix: u32, len: u8) {
        self.routes.push(Route {
            prefix: prefix & Self::mask(len),
            len,
            group: EcmpGroup::single(PortId(0)), // unused
            connected: true,
        });
        self.routes.sort_by_key(|r| std::cmp::Reverse(r.len));
    }

    /// Longest-prefix match for `dst`.
    pub fn lookup(&self, dst: u32) -> Option<NextHop<'_>> {
        self.routes
            .iter()
            .find(|r| dst & Self::mask(r.len) == r.prefix)
            .map(|r| {
                if r.connected {
                    NextHop::Connected
                } else {
                    NextHop::Via(&r.group)
                }
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tuple(src_port: u16) -> FiveTuple {
        FiveTuple {
            src_ip: 0x0a000001,
            dst_ip: 0x0a010001,
            protocol: 17,
            src_port,
            dst_port: 4791,
        }
    }

    #[test]
    fn lpm_prefers_longer_prefix() {
        let mut t = RouteTable::new();
        t.add(0x0a000000, 8, EcmpGroup::single(PortId(1)));
        t.add(0x0a010000, 16, EcmpGroup::single(PortId(2)));
        t.add_connected(0x0a010200, 24);
        match t.lookup(0x0a000005).unwrap() {
            NextHop::Via(g) => assert_eq!(g.ports(), &[PortId(1)]),
            other => panic!("{other:?}"),
        }
        match t.lookup(0x0a010005).unwrap() {
            NextHop::Via(g) => assert_eq!(g.ports(), &[PortId(2)]),
            other => panic!("{other:?}"),
        }
        assert_eq!(t.lookup(0x0a010203).unwrap(), NextHop::Connected);
        assert!(t.lookup(0x0b000001).is_none());
    }

    /// Same QP (same tuple) always hashes to the same member — the
    /// in-order-delivery property RoCEv2 relies on.
    #[test]
    fn ecmp_is_deterministic_per_flow() {
        let g = EcmpGroup::new((0..4).map(PortId).collect());
        let a = g.select(&tuple(5000), 42);
        for _ in 0..10 {
            assert_eq!(g.select(&tuple(5000), 42), a);
        }
    }

    /// Different QPs (different UDP source ports) spread across members —
    /// and collide at roughly the birthday rate, which is what caps
    /// Figure 7 at ~60%.
    #[test]
    fn ecmp_spreads_flows() {
        let g = EcmpGroup::new((0..8).map(PortId).collect());
        let mut counts = [0u32; 8];
        for sp in 0..8000u16 {
            counts[g.select(&tuple(sp), 42).index()] += 1;
        }
        for c in counts {
            assert!((800..1200).contains(&c), "skewed: {counts:?}");
        }
    }

    /// Different salts (switches) give independent selections.
    #[test]
    fn salt_changes_mapping() {
        let g = EcmpGroup::new((0..16).map(PortId).collect());
        let differs = (0..100u16)
            .filter(|sp| g.select(&tuple(*sp), 1) != g.select(&tuple(*sp), 2))
            .count();
        assert!(differs > 50, "only {differs}/100 differ");
    }

    /// The hash is the fold ECMP always used, bit for bit, so no flow's
    /// path moved when it became a [`keyed`] draw. The reference below is
    /// that fold as it was written inline.
    #[test]
    fn hash_is_the_historical_five_tuple_fold() {
        fn reference(t: &FiveTuple, salt: u64) -> u64 {
            let mut x = salt ^ 0x9e37_79b9_7f4a_7c15;
            for word in [
                t.src_ip as u64,
                t.dst_ip as u64,
                ((t.protocol as u64) << 32) | ((t.src_port as u64) << 16) | t.dst_port as u64,
            ] {
                x = x.wrapping_add(word).wrapping_add(0x9e37_79b9_7f4a_7c15);
                x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                x ^= x >> 31;
            }
            x
        }
        let mut rng = rocescale_sim::SimRng::from_seed(0xEC3F);
        for _ in 0..100_000 {
            let t = FiveTuple {
                src_ip: rng.next_u32(),
                dst_ip: rng.next_u32(),
                protocol: rng.next_u32() as u8,
                src_port: rng.next_u32() as u16,
                dst_port: rng.next_u32() as u16,
            };
            let salt = rng.next_u64();
            assert_eq!(hash_five_tuple(&t, salt), reference(&t, salt));
        }
    }

    #[test]
    #[should_panic(expected = "empty ECMP group")]
    fn empty_group_rejected() {
        EcmpGroup::new(vec![]);
    }
}
