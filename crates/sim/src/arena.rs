//! Dense arena for in-flight packet storage.
//!
//! The world's packet slab used to be a `Vec<Option<Packet>>` plus a
//! separate `Vec<u32>` free list. The `Option` tag widened the stride of
//! the hottest array in the simulator and put a discriminant check (and
//! panic branch) on every arrival, and the side free list cost its own
//! heap allocation and cache line. This arena stores packets *densely* —
//! `Vec<Packet>`, no tag — and threads the free list through the vacant
//! slots themselves: a vacant slot's `id` field holds the index of the
//! next free slot (`Packet` is `Copy` with no `Drop`, so a dead packet
//! body is just bytes). Allocation and free are O(1) pointer-free index
//! ops touching only the slot itself.
//!
//! Slot indices are allocator artifacts: nothing semantic (digest,
//! trace, handler logic) may depend on them — packets are identified by
//! `Packet::id`. The property tests below pin the two guarantees the
//! world relies on: slots are recycled (bounded memory under steady
//! churn) and a live packet's identity is never disturbed by
//! [`PacketArena::compact`].
//!
//! A struct-of-arrays split was considered and rejected on measurement
//! (EXPERIMENTS.md, INC-FLEET-SCALE, "Packet-slab layout"): `Packet` is
//! 88 bytes — at most two cache lines — and it crosses this API *by
//! value, whole-struct* in both directions
//! ([`PacketArena::insert`] writes every field, [`PacketArena::remove`]
//! reads every field into the handler's argument). An SoA layout would
//! replace one contiguous 88-byte copy with five-plus scattered loads
//! over distinct arrays; no field is accessed separately from the rest
//! while a packet is in flight, so the split only adds lines touched.
//! The profiler agrees: arrival dispatch costs ~180 ns/event on the
//! fleet workload, dominated by switch/NIC logic, not slab locality.

use rocescale_packet::Packet;

/// Free-list terminator. Slot indices are `u32`, so `u32::MAX` can never
/// collide with a real slot (the slab would exceed memory long before).
const NIL: u32 = u32::MAX;

/// The dense in-flight packet slab: `Vec<Packet>` with an intrusive
/// LIFO free list over vacant slots.
pub(crate) struct PacketArena {
    /// All slots, live and vacant. A vacant slot's `id` field holds the
    /// next free index ([`NIL`] terminates the chain).
    slots: Vec<Packet>,
    /// Head of the intrusive free list ([`NIL`] when empty).
    free_head: u32,
    /// Number of vacant slots (chain length).
    free_len: usize,
    /// Debug-only occupancy mirror so a double-consumed arrival slot
    /// still fails loudly (the old `Option::take().expect(..)` check)
    /// without taxing the release hot path.
    #[cfg(debug_assertions)]
    vacant: Vec<bool>,
}

impl PacketArena {
    pub(crate) fn new() -> PacketArena {
        PacketArena {
            slots: Vec::new(),
            free_head: NIL,
            free_len: 0,
            #[cfg(debug_assertions)]
            vacant: Vec::new(),
        }
    }

    /// Store `pkt`, reusing the most recently freed slot if any (LIFO —
    /// the warmest slot, and deterministic for replay).
    pub(crate) fn insert(&mut self, pkt: Packet) -> u32 {
        let slot = if self.free_head == NIL {
            self.slots.push(pkt);
            #[cfg(debug_assertions)]
            self.vacant.push(false);
            return (self.slots.len() - 1) as u32;
        } else {
            self.free_head
        };
        self.free_head = self.slots[slot as usize].id as u32;
        self.free_len -= 1;
        self.slots[slot as usize] = pkt;
        #[cfg(debug_assertions)]
        {
            self.vacant[slot as usize] = false;
        }
        slot
    }

    /// Take the packet out of `slot` and push the slot onto the free
    /// list. Each stored slot must be removed exactly once (enforced in
    /// debug builds).
    pub(crate) fn remove(&mut self, slot: u32) -> Packet {
        #[cfg(debug_assertions)]
        {
            assert!(
                !std::mem::replace(&mut self.vacant[slot as usize], true),
                "arrival slot already consumed"
            );
        }
        let pkt = self.slots[slot as usize];
        self.slots[slot as usize].id = self.free_head as u64;
        self.free_head = slot;
        self.free_len += 1;
        pkt
    }

    /// Physical slot count (live + vacant).
    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }

    /// Allocated slot capacity.
    pub(crate) fn capacity(&self) -> usize {
        self.slots.capacity()
    }

    /// Vacant slots awaiting reuse.
    pub(crate) fn free_len(&self) -> usize {
        self.free_len
    }

    /// Shed capacity retained from past bursts: drop every vacant slot
    /// at the tail of the slab, rebuild the free chain over the
    /// survivors (preserving LIFO order, so replay stays deterministic),
    /// and shrink the backing storage. Live packets keep their slots —
    /// pending `Arrival` events hold indices into this slab.
    pub(crate) fn compact(&mut self) {
        // The chain orders vacant slots most-recently-freed first.
        let mut free = Vec::with_capacity(self.free_len);
        let mut cur = self.free_head;
        while cur != NIL {
            free.push(cur);
            cur = self.slots[cur as usize].id as u32;
        }
        debug_assert_eq!(free.len(), self.free_len);
        let mut is_vacant = vec![false; self.slots.len()];
        for &s in &free {
            is_vacant[s as usize] = true;
        }
        while self.slots.last().is_some() && is_vacant[self.slots.len() - 1] {
            self.slots.pop();
        }
        let live = self.slots.len() as u32;
        free.retain(|&s| s < live);
        self.free_len = free.len();
        self.free_head = NIL;
        for &s in free.iter().rev() {
            self.slots[s as usize].id = self.free_head as u64;
            self.free_head = s;
        }
        self.slots.shrink_to_fit();
        #[cfg(debug_assertions)]
        {
            self.vacant.truncate(self.slots.len());
            self.vacant.shrink_to_fit();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;
    use rocescale_packet::{EthMeta, MacAddr, PacketKind};

    fn pkt(id: u64) -> Packet {
        Packet::new(
            id,
            EthMeta {
                src: MacAddr::from_id(0),
                dst: MacAddr::from_id(1),
                vlan: None,
            },
            None,
            PacketKind::Raw {
                label: 0,
                size: 1000,
            },
            0,
        )
    }

    #[test]
    fn reuses_freed_slots_lifo() {
        let mut a = PacketArena::new();
        let s0 = a.insert(pkt(1));
        let s1 = a.insert(pkt(2));
        assert_eq!((s0, s1), (0, 1));
        assert_eq!(a.remove(s0).id, 1);
        assert_eq!(a.remove(s1).id, 2);
        assert_eq!(a.free_len(), 2);
        // Most recently freed first, and no growth.
        assert_eq!(a.insert(pkt(3)), s1);
        assert_eq!(a.insert(pkt(4)), s0);
        assert_eq!(a.len(), 2);
        assert_eq!(a.free_len(), 0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "arrival slot already consumed")]
    fn double_remove_fails_loudly() {
        let mut a = PacketArena::new();
        let s = a.insert(pkt(1));
        a.remove(s);
        a.remove(s);
    }

    #[test]
    fn compact_drops_vacant_tail_and_keeps_live_packets() {
        let mut a = PacketArena::new();
        let slots: Vec<u32> = (0..8).map(|i| a.insert(pkt(100 + i))).collect();
        // Free the tail half plus one interior slot.
        for &s in &slots[4..] {
            a.remove(s);
        }
        a.remove(slots[1]);
        a.compact();
        // Tail slots gone; the interior hole survives (slot 1 < live
        // prefix) and stays reusable.
        assert_eq!(a.len(), 4);
        assert_eq!(a.free_len(), 1);
        assert_eq!(a.insert(pkt(9)), slots[1], "interior hole reused");
        for &s in &[slots[0], slots[2], slots[3]] {
            assert_eq!(a.remove(s).id, 100 + s as u64);
        }
    }

    /// Property: under seeded random insert/remove/compact churn the
    /// arena (a) recycles slots — memory stays bounded by peak
    /// in-flight, not total traffic — and (b) never changes a live
    /// packet's id, across any number of compacts.
    #[test]
    fn churn_recycles_slots_and_preserves_live_ids() {
        let mut rng = SimRng::from_seed(0xA5EA);
        let mut a = PacketArena::new();
        let mut live: Vec<(u32, u64)> = Vec::new(); // (slot, id)
        let mut next_id = 1u64;
        let mut peak_live = 0usize;
        for step in 0..20_000u32 {
            match rng.gen_below(100) {
                // Bias toward insert so the population stays interesting.
                0..=54 => {
                    let id = next_id;
                    next_id += 1;
                    live.push((a.insert(pkt(id)), id));
                }
                55..=97 => {
                    if !live.is_empty() {
                        let i = rng.gen_below(live.len() as u64) as usize;
                        let (slot, id) = live.swap_remove(i);
                        assert_eq!(a.remove(slot).id, id, "step {step}");
                    }
                }
                _ => {
                    a.compact();
                    assert!(a.len() >= live.len());
                }
            }
            peak_live = peak_live.max(live.len());
            assert_eq!(a.len() - a.free_len(), live.len(), "step {step}");
        }
        // (a) Recycling: ~11k packets flowed, but the slab never grew
        // past the peak concurrent population.
        assert!(next_id > 10_000);
        assert_eq!(a.len() - a.free_len(), live.len());
        assert!(
            a.len() <= peak_live,
            "slab {} > peak live {peak_live}",
            a.len()
        );
        // (b) Every live id still reads back intact after a final compact.
        a.compact();
        for (slot, id) in live {
            assert_eq!(a.remove(slot).id, id);
        }
        a.compact();
        assert_eq!((a.len(), a.free_len(), a.capacity()), (0, 0, 0));
    }
}
