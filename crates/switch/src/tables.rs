//! The ToR switch's two L2/L3 resolution tables and their disparate
//! timeouts (§4.2).
//!
//! "The typical timeout values for the ARP and MAC tables are very
//! different: 4 hours and 5 minutes, respectively. … Such disparate
//! timeout values can lead to an 'incomplete' ARP entry — i.e. a MAC
//! address is present in the ARP table, but there is no entry in the MAC
//! address table for that MAC address." The standard switch response is to
//! flood — which, combined with PFC, builds the deadlock of Figure 4.

use std::collections::HashMap;
use std::hash::BuildHasherDefault;

use rocescale_packet::MacAddr;
use rocescale_sim::{PortId, SimTime};

/// Multiply-mix hasher for the small fixed-width keys these tables use
/// (`u32` IPs, 6-byte MACs). Both lookups sit on the per-packet L2/L3
/// resolution path of every ToR, where SipHash's per-call setup is pure
/// overhead; these keys need mixing, not DoS resistance — the simulator
/// generates them itself.
#[derive(Debug, Default)]
pub struct IntHasher(u64);

impl std::hash::Hasher for IntHasher {
    fn finish(&self) -> u64 {
        // fmix64 (MurmurHash3 finalizer): full avalanche over the
        // accumulated key bits.
        let mut x = self.0;
        x ^= x >> 33;
        x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
        x ^= x >> 33;
        x
    }
    /// Up to eight bytes at a time, each chunk as one little-endian
    /// word: a MAC's six bytes cost one multiply, not six.
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }
    fn write_u32(&mut self, v: u32) {
        self.0 ^= (v as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
    fn write_u64(&mut self, v: u64) {
        self.0 ^= v.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
    /// The length prefix a slice or array key (`MacAddr`'s `[u8; 6]`)
    /// writes first; the default would take the byte path.
    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }
}

type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;

/// MAC table entry timeout: the paper's typical 5 minutes.
const MAC_TIMEOUT: SimTime = SimTime::from_secs(300);
/// ARP table entry timeout: the paper's typical 4 hours.
const ARP_TIMEOUT: SimTime = SimTime::from_secs(4 * 3600);

#[derive(Debug, Clone, Copy)]
struct Timestamped<T> {
    value: T,
    refreshed: SimTime,
}

/// The L2 MAC-address table: MAC → physical port, hardware-learned from
/// source addresses, short timeout (~5 min).
#[derive(Debug, Clone, Default)]
pub struct MacTable {
    entries: FastMap<MacAddr, Timestamped<PortId>>,
}

impl MacTable {
    /// Hardware learning: note that a frame from `mac` arrived on `port`.
    pub fn learn(&mut self, mac: MacAddr, port: PortId, now: SimTime) {
        self.entries.insert(
            mac,
            Timestamped {
                value: port,
                refreshed: now,
            },
        );
    }

    /// Look up the port for `mac`; entries past their timeout are dead
    /// (lazily expired).
    pub fn lookup(&self, mac: MacAddr, now: SimTime) -> Option<PortId> {
        self.entries
            .get(&mac)
            .filter(|e| now.saturating_sub(e.refreshed) < MAC_TIMEOUT)
            .map(|e| e.value)
    }

    /// Remove an entry (test/scenario helper: simulates timeout of a dead
    /// server's MAC while its ARP entry survives).
    pub fn evict(&mut self, mac: MacAddr) {
        self.entries.remove(&mac);
    }

    /// Number of live entries at `now`.
    pub fn len(&self, now: SimTime) -> usize {
        self.entries
            .values()
            .filter(|e| now.saturating_sub(e.refreshed) < MAC_TIMEOUT)
            .count()
    }

    /// True if no live entries at `now`.
    pub fn is_empty(&self, now: SimTime) -> bool {
        self.len(now) == 0
    }
}

/// The L3 ARP table: IP → MAC, maintained by the (CPU-driven) ARP
/// protocol, long timeout (~4 h).
#[derive(Debug, Clone, Default)]
pub struct ArpTable {
    entries: FastMap<u32, Timestamped<MacAddr>>,
}

impl ArpTable {
    /// Insert/refresh a mapping (from an ARP reply, or scenario setup).
    pub fn insert(&mut self, ip: u32, mac: MacAddr, now: SimTime) {
        self.entries.insert(
            ip,
            Timestamped {
                value: mac,
                refreshed: now,
            },
        );
    }

    /// Look up the MAC for `ip` (lazily expired).
    pub fn lookup(&self, ip: u32, now: SimTime) -> Option<MacAddr> {
        self.entries
            .get(&ip)
            .filter(|e| now.saturating_sub(e.refreshed) < ARP_TIMEOUT)
            .map(|e| e.value)
    }

    /// Remove an entry.
    pub fn evict(&mut self, ip: u32) {
        self.entries.remove(&ip);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mac_entries_expire() {
        let mut t = MacTable::default();
        let mac = MacAddr::from_id(1);
        t.learn(mac, PortId(3), SimTime::ZERO);
        assert_eq!(t.lookup(mac, SimTime::from_secs(299)), Some(PortId(3)));
        assert_eq!(t.lookup(mac, SimTime::from_secs(300)), None);
    }

    #[test]
    fn mac_learning_refreshes() {
        let mut t = MacTable::default();
        let mac = MacAddr::from_id(1);
        t.learn(mac, PortId(3), SimTime::ZERO);
        t.learn(mac, PortId(5), SimTime::from_secs(200)); // moved + refreshed
        assert_eq!(t.lookup(mac, SimTime::from_secs(400)), Some(PortId(5)));
    }

    /// The §4.2 precondition: ARP outlives MAC, leaving an "incomplete"
    /// entry — IP resolves to a MAC no port claims.
    #[test]
    fn incomplete_arp_window() {
        let mut mac_table = MacTable::default();
        let mut arp_t = ArpTable::default();
        let (ip, mac) = (0x0a000003, MacAddr::from_id(3));
        mac_table.learn(mac, PortId(7), SimTime::ZERO);
        arp_t.insert(ip, mac, SimTime::ZERO);
        // Ten minutes later (server died silently): ARP alive, MAC gone.
        let now = SimTime::from_secs(600);
        assert_eq!(arp_t.lookup(ip, now), Some(mac));
        assert_eq!(mac_table.lookup(mac, now), None);
        // And ARP entries do age out, after four hours.
        assert_eq!(arp_t.lookup(ip, SimTime::from_secs(14_400)), None);
    }

    #[test]
    fn evict_helpers() {
        let now = SimTime::ZERO;
        let mut m = MacTable::default();
        m.learn(MacAddr::from_id(9), PortId(1), now);
        assert!(!m.is_empty(now));
        m.evict(MacAddr::from_id(9));
        assert!(m.is_empty(now));
        let mut a = ArpTable::default();
        a.insert(5, MacAddr::from_id(9), now);
        a.evict(5);
        assert_eq!(a.lookup(5, now), None);
    }
}
