//! Chunked arena for parked packets: every packet on a wire, and every
//! packet queued at a switch egress port.
//!
//! The paper's switches are shared-buffer ASICs: every queued packet sits
//! in one pool. This slab is that pool for the whole world. A packet is
//! stored once when a switch admits it ([`crate::Ctx::park`]); its
//! egress queue holds only the slot index, and transmitting it on a
//! local link reuses the same slot for the peer's arrival. Packet memory
//! therefore follows how many packets the world holds at once, not each
//! queue's own historical peak.
//!
//! Packets are stored *densely* — no `Option` tag — and the free list is
//! threaded through the vacant slots themselves: a vacant slot's `id`
//! field holds the index of the next free slot (`Packet` is `Copy` with
//! no `Drop`, so a dead packet body is just bytes). Allocation and free
//! are O(1) index operations touching only the slot itself.
//!
//! The slab grows in chunks and never moves a packet. The first chunk is
//! small ([`FIRST_CHUNK_LOG2`]), so a world that only ever holds a few
//! packets stays small; each further chunk doubles the slab's size until
//! chunks reach a fixed cap ([`CHUNK_CAP_LOG2`]). A contiguous `Vec` that
//! doubles would instead copy every parked packet at each growth step,
//! and a sharded run's queues build up mid-window while the other shards
//! wait on the one that is copying.
//!
//! Slot indices are allocator artifacts: nothing semantic (digest,
//! trace, handler logic) may depend on them — packets are identified by
//! `Packet::id`. The property tests below pin the guarantees the world
//! relies on: slots are recycled (bounded memory under steady churn), a
//! live packet's identity is never disturbed by other slots' churn, and
//! chunk edges are invisible.
//!
//! A struct-of-arrays split was considered and rejected on measurement
//! (EXPERIMENTS.md, INC-FLEET-SCALE, "Packet-slab layout"): `Packet` is
//! 88 bytes — at most two cache lines — and it crosses this API *by
//! value, whole-struct* in both directions
//! ([`PacketArena::insert`] writes every field, [`PacketArena::remove`]
//! reads every field into the handler's argument). While a packet is
//! parked nothing reads it at all: the switch keeps the wire size it
//! schedules on beside the handle. An SoA layout would replace one
//! contiguous 88-byte copy with five-plus scattered loads over distinct
//! arrays, so the split only adds lines touched. The profiler agrees:
//! arrival dispatch costs ~180 ns/event on the fleet workload, dominated
//! by switch/NIC logic, not slab locality.

use rocescale_packet::Packet;

/// Free-list terminator. Slot indices are `u32`, so `u32::MAX` can never
/// collide with a real slot (the slab would exceed memory long before).
const NIL: u32 = u32::MAX;

/// log2 of the first chunk's slot count (64 slots, 5.6 kB).
const FIRST_CHUNK_LOG2: u32 = 6;

/// log2 of the largest chunk's slot count (4 096 slots, 360 kB).
const CHUNK_CAP_LOG2: u32 = 12;

/// Slot count of chunk `c`: the first two chunks hold 2^[`FIRST_CHUNK_LOG2`]
/// slots each, every later one twice its predecessor, up to
/// 2^[`CHUNK_CAP_LOG2`]. Below the cap, chunk `c ≥ 1` therefore starts at
/// slot 2^(`FIRST_CHUNK_LOG2` + c − 1), a power of two.
fn chunk_slots(c: usize) -> usize {
    let log2 = FIRST_CHUNK_LOG2 + (c as u32).saturating_sub(1);
    1 << log2.min(CHUNK_CAP_LOG2)
}

/// The chunk holding `slot` and the slot's offset within it.
#[inline]
fn locate(slot: u32) -> (usize, usize) {
    let s = slot as usize;
    let log2 = usize::BITS - 1 - (s | 1).leading_zeros();
    if log2 < FIRST_CHUNK_LOG2 {
        (0, s)
    } else if log2 < CHUNK_CAP_LOG2 {
        ((log2 - FIRST_CHUNK_LOG2 + 1) as usize, s - (1 << log2))
    } else {
        (
            (s >> CHUNK_CAP_LOG2) + (CHUNK_CAP_LOG2 - FIRST_CHUNK_LOG2) as usize,
            s & ((1 << CHUNK_CAP_LOG2) - 1),
        )
    }
}

/// The world's packet slab: chunks that never move, with an intrusive
/// LIFO free list over vacant slots.
pub(crate) struct PacketArena {
    /// All slots, live and vacant, chunk by chunk. Chunk `c` is
    /// allocated with [`chunk_slots`]`(c)` slots and never grows past
    /// them, so pushing into it never moves a packet. A vacant slot's
    /// `id` field holds the next free index ([`NIL`] terminates the
    /// chain).
    chunks: Vec<Vec<Packet>>,
    /// Slots ever used: the slab's high-water mark.
    len: usize,
    /// Head of the intrusive free list ([`NIL`] when empty).
    free_head: u32,
    /// Number of vacant slots (chain length).
    free_len: usize,
    /// Debug-only occupancy mirror so a slot spent twice fails loudly
    /// without taxing the release hot path.
    #[cfg(debug_assertions)]
    vacant: Vec<bool>,
}

impl PacketArena {
    pub(crate) fn new() -> PacketArena {
        PacketArena {
            chunks: Vec::new(),
            len: 0,
            free_head: NIL,
            free_len: 0,
            #[cfg(debug_assertions)]
            vacant: Vec::new(),
        }
    }

    /// Store `pkt`, reusing the most recently freed slot if any (LIFO —
    /// the warmest slot, and deterministic for replay).
    pub(crate) fn insert(&mut self, pkt: Packet) -> u32 {
        if self.free_head == NIL {
            return self.push(pkt);
        }
        let slot = self.free_head;
        let cell = self.slot_mut(slot);
        let next = cell.id as u32;
        *cell = pkt;
        self.free_head = next;
        self.free_len -= 1;
        #[cfg(debug_assertions)]
        {
            self.vacant[slot as usize] = false;
        }
        slot
    }

    /// Append `pkt` in a fresh slot, opening the next chunk when the last
    /// one is full.
    fn push(&mut self, pkt: Packet) -> u32 {
        let slot = u32::try_from(self.len)
            .ok()
            .filter(|&s| s != NIL)
            .expect("packet slab exceeds u32 slots");
        let n = self.chunks.len();
        match self.chunks.last_mut() {
            Some(chunk) if chunk.len() < chunk_slots(n - 1) => chunk.push(pkt),
            _ => {
                let mut chunk = Vec::with_capacity(chunk_slots(n));
                chunk.push(pkt);
                self.chunks.push(chunk);
            }
        }
        self.len += 1;
        #[cfg(debug_assertions)]
        self.vacant.push(false);
        slot
    }

    #[inline]
    fn slot_mut(&mut self, slot: u32) -> &mut Packet {
        let (c, o) = locate(slot);
        &mut self.chunks[c][o]
    }

    /// The packet in live `slot`.
    #[inline]
    pub(crate) fn get(&self, slot: u32) -> &Packet {
        let (c, o) = locate(slot);
        &self.chunks[c][o]
    }

    /// Take the packet out of `slot` and push the slot onto the free
    /// list. Each stored slot must be removed exactly once (enforced in
    /// debug builds).
    pub(crate) fn remove(&mut self, slot: u32) -> Packet {
        #[cfg(debug_assertions)]
        {
            assert!(
                !std::mem::replace(&mut self.vacant[slot as usize], true),
                "packet slot already freed"
            );
        }
        let free_head = self.free_head;
        let cell = self.slot_mut(slot);
        let pkt = *cell;
        cell.id = free_head as u64;
        self.free_head = slot;
        self.free_len += 1;
        pkt
    }

    /// Slots ever used (live + vacant): the high-water mark of packets
    /// held at once.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Allocated slot capacity: every chunk opened so far. Exceeds
    /// [`Self::len`] by at most the last chunk's untouched tail.
    pub(crate) fn capacity(&self) -> usize {
        self.chunks.iter().map(Vec::capacity).sum()
    }

    /// Vacant slots awaiting reuse.
    pub(crate) fn free_len(&self) -> usize {
        self.free_len
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;
    use rocescale_packet::{EthMeta, MacAddr, PacketKind};

    const FIRST: usize = 1 << FIRST_CHUNK_LOG2;
    const CAP: usize = 1 << CHUNK_CAP_LOG2;

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

    /// Fill `n` fresh slots with ids `base..base + n`, returning the slots.
    fn fill(a: &mut PacketArena, base: u64, n: usize) -> Vec<u32> {
        (0..n as u64).map(|i| a.insert(pkt(base + i))).collect()
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
    #[should_panic(expected = "packet slot already freed")]
    fn double_remove_fails_loudly() {
        let mut a = PacketArena::new();
        let s = a.insert(pkt(1));
        a.remove(s);
        a.remove(s);
    }

    /// Chunks tile the slot space with no gap or overlap: consecutive
    /// slots walk each chunk's offsets 0..chunk_slots(c) in order, then
    /// step to the next chunk.
    #[test]
    fn chunks_tile_the_slot_space() {
        let (mut chunk, mut offset) = (0usize, 0usize);
        for s in 0..(4 * CAP) as u32 {
            assert_eq!(locate(s), (chunk, offset), "slot {s}");
            offset += 1;
            if offset == chunk_slots(chunk) {
                (chunk, offset) = (chunk + 1, 0);
            }
        }
        assert_eq!(chunk_slots(0), FIRST);
        assert_eq!(chunk_slots(1), FIRST);
        assert_eq!(chunk_slots(2), 2 * FIRST);
        assert_eq!(chunk_slots(99), CAP);
    }

    /// Inserts and removals straddling the first chunk edge (0 → 1) and
    /// the first capped chunk's edge keep every packet intact, and a
    /// freed slot on either side of an edge is the next one reused.
    #[test]
    fn inserts_and_removals_cross_chunk_edges() {
        for edge in [FIRST, CAP] {
            let mut a = PacketArena::new();
            let slots = fill(&mut a, 0, edge + 2);
            assert_eq!(slots, (0..(edge + 2) as u32).collect::<Vec<_>>());
            for (i, &s) in slots.iter().enumerate() {
                assert_eq!(a.get(s).id, i as u64);
            }
            // The last slot before the edge and the first after it.
            let (before, after) = (edge as u32 - 1, edge as u32);
            assert_eq!(a.remove(before).id, edge as u64 - 1);
            assert_eq!(a.remove(after).id, edge as u64);
            assert_eq!(a.insert(pkt(1_000_000)), after);
            assert_eq!(a.insert(pkt(1_000_001)), before);
            assert_eq!(a.get(after).id, 1_000_000);
            assert_eq!(a.get(before).id, 1_000_001);
            // Neighbours across the edge were never disturbed.
            assert_eq!(a.get(before - 1).id, edge as u64 - 2);
            assert_eq!(a.get(after + 1).id, edge as u64 + 1);
            assert_eq!(a.len(), edge + 2);
            assert_eq!(a.free_len(), 0);
        }
    }

    /// A free list threaded through slots in many chunks hands them back
    /// in exact reverse free order, across chunk boundaries both ways.
    #[test]
    fn the_free_list_threads_across_chunks() {
        let mut a = PacketArena::new();
        let n = 2 * CAP + 3;
        fill(&mut a, 0, n);
        let mut rng = SimRng::from_seed(0xC4A1);
        // Free a scattered set: slots in chunk 0, the doubling chunks and
        // the capped chunks, interleaved so consecutive frees jump edges.
        let mut freed: Vec<u32> = Vec::new();
        for _ in 0..300 {
            let s = rng.gen_below(n as u64) as u32;
            if !freed.contains(&s) {
                assert_eq!(a.remove(s).id, s as u64);
                freed.push(s);
            }
        }
        let chunks: std::collections::BTreeSet<usize> =
            freed.iter().map(|&s| locate(s).0).collect();
        assert!(chunks.len() >= 6, "frees touched chunks {chunks:?}");
        assert_eq!(a.free_len(), freed.len());
        for (k, &s) in freed.iter().rev().enumerate() {
            assert_eq!(a.insert(pkt(10_000_000 + k as u64)), s);
        }
        assert_eq!(a.len(), n, "reuse never grows the slab");
        // The next insert has no free slot and opens a fresh one.
        assert_eq!(a.insert(pkt(0)), n as u32);
        for s in 0..n as u32 {
            let want = match freed.iter().rev().position(|&f| f == s) {
                Some(k) => 10_000_000 + k as u64,
                None => s as u64,
            };
            assert_eq!(a.get(s).id, want, "slot {s}");
        }
    }

    /// Capacity is whole chunks: it covers the high-water mark, exceeds
    /// it by less than one chunk, and is at most twice it (or one first
    /// chunk) — the slab allocates what it uses, never a slot per packet
    /// that ever flowed.
    #[test]
    fn capacity_tracks_the_high_water_mark() {
        let mut a = PacketArena::new();
        assert_eq!(a.capacity(), 0);
        let mut live: Vec<u32> = Vec::new();
        let mut rng = SimRng::from_seed(7);
        for step in 0..40_000u32 {
            // Populations rise and fall past several chunk edges, gaining
            // ~1 000 packets a 10 000-step cycle.
            let grow = (step / 5_000) % 2 == 0;
            if rng.gen_below(100) < if grow { 75 } else { 35 } || live.is_empty() {
                live.push(a.insert(pkt(step as u64)));
            } else {
                let i = rng.gen_below(live.len() as u64) as usize;
                a.remove(live.swap_remove(i));
            }
            let (len, cap) = (a.len(), a.capacity());
            let last = chunk_slots(a.chunks.len() - 1);
            assert!(cap >= len, "step {step}: capacity {cap} < high water {len}");
            assert!(cap - len < last, "step {step}: {cap} − {len} ≥ a chunk");
            assert!(cap <= 2 * len.max(FIRST), "step {step}: {cap} > 2 × {len}");
            assert_eq!(len - a.free_len(), live.len(), "step {step}");
        }
        assert!(a.len() > CAP, "the walk crossed the chunk cap");
    }

    /// Property: under seeded random insert/remove churn the arena (a)
    /// recycles slots — memory stays bounded by peak in-flight, not
    /// total traffic — and (b) never changes a live packet's id.
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
                _ => {
                    if !live.is_empty() {
                        let i = rng.gen_below(live.len() as u64) as usize;
                        let (slot, id) = live.swap_remove(i);
                        assert_eq!(a.remove(slot).id, id, "step {step}");
                    }
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
        // (b) Every live id still reads back intact.
        for (slot, id) in live {
            assert_eq!(a.remove(slot).id, id);
        }
        assert_eq!(a.free_len(), a.len());
    }
}
