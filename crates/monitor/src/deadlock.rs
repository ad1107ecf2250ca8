//! Deadlock detection over counter snapshots (§4.2).
//!
//! A PFC deadlock's observable signature is stark: switches hold lossless
//! backlog, their egress ports are paused, and *nothing moves* — "Once the
//! deadlock occurs, it does not go away even if we restart all the
//! servers." The detector consumes periodic snapshots of each device's
//! (transmitted-packet counter, lossless backlog bytes) and reports
//! devices that made zero transmit progress across a full window while
//! holding backlog.
//!
//! Both halves work on dense `u32` ids and keep their buffers from round
//! to round; names are the caller's (a cluster's vertex ids are its
//! topology node indices).

/// One device snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Snapshot {
    /// Cumulative packets transmitted by the device.
    pub tx_pkts: u64,
    /// Lossless bytes currently queued.
    pub backlog_bytes: u64,
}

/// Tracks the progress of a fixed set of devices between snapshot rounds:
/// device `i` is position `i` of every round.
#[derive(Debug, Clone)]
pub struct ProgressTracker {
    /// Each device's snapshot in the last round, if there was one.
    last: Vec<Option<Snapshot>>,
    /// Consecutive rounds each device has been stuck (0: not stuck).
    stuck_rounds: Vec<u32>,
}

impl ProgressTracker {
    /// A tracker over `devices` devices.
    pub fn new(devices: usize) -> ProgressTracker {
        ProgressTracker {
            last: vec![None; devices],
            stuck_rounds: vec![0; devices],
        }
    }

    /// Feed one round: every device's snapshot, in device order, all at
    /// the same instant. Returns how many devices were stuck (no transmit
    /// progress since the last round, lossless backlog held) this round.
    pub fn observe(&mut self, round: impl IntoIterator<Item = Snapshot>) -> usize {
        let (mut seen, mut stuck) = (0, 0);
        for (i, snap) in round.into_iter().enumerate() {
            let prev = self.last[i].replace(snap);
            let stalled = prev.is_some_and(|p| p.tx_pkts == snap.tx_pkts) && snap.backlog_bytes > 0;
            stuck += stalled as usize;
            self.stuck_rounds[i] = if stalled { self.stuck_rounds[i] + 1 } else { 0 };
            seen = i + 1;
        }
        assert_eq!(seen, self.last.len(), "a round snapshots every device");
        stuck
    }

    /// Devices stuck for at least `rounds` (≥ 1) consecutive rounds, in
    /// device order — the behavioural *suspicion*. This alone cannot
    /// distinguish a deadlock from a storm victim (a single device starved
    /// by a pause storm also makes zero progress while holding backlog);
    /// the verdict also asks for membership of a [`WaitGraph`] cycle.
    pub fn stuck(&self, rounds: u32) -> impl Iterator<Item = u32> + '_ {
        (0..)
            .zip(&self.stuck_rounds)
            .filter(move |&(_, &c)| c >= rounds.max(1))
            .map(|(i, _)| i)
    }
}

/// A pause-wait graph: directed edges `a → b` meaning device a's egress
/// toward b is paused (a waits on b to resume it) while a holds lossless
/// backlog for that port. A cycle in this graph is the §4.2 "cyclic
/// buffer dependency" — the topological signature of a PFC deadlock,
/// complementing [`ProgressTracker`]'s behavioural one.
///
/// Both searches walk one adjacency, built from the edges when a search
/// starts: the vertices on some edge, ascending, each with its
/// successors in the order their edges were added.
#[derive(Debug, Clone, Default)]
pub struct WaitGraph {
    edges: Vec<(u32, u32)>,
    /// Every vertex on an edge, ascending; a search numbers them by
    /// position here.
    verts: Vec<u32>,
    /// Successors of position `k`: `succ[first[k]..first[k + 1]]`.
    first: Vec<u32>,
    succ: Vec<u32>,
    /// Per position: when the search entered it (`u32::MAX`: not yet),
    /// the earliest entry it reaches (Tarjan's low-link), and whether it
    /// is open — on the DFS path, or on Tarjan's component stack.
    entered: Vec<u32>,
    low: Vec<u32>,
    open: Vec<bool>,
    /// The depth-first walk: (position, successors tried).
    call: Vec<(u32, u32)>,
    /// The DFS start order, or Tarjan's component stack.
    list: Vec<u32>,
}

impl WaitGraph {
    /// Empty graph.
    pub fn new() -> WaitGraph {
        WaitGraph::default()
    }

    /// Remove every edge, keeping the buffers.
    pub fn clear(&mut self) {
        self.edges.clear();
    }

    /// Add a wait edge: `from`'s egress toward `to` is paused with
    /// backlog behind it.
    pub fn add_edge(&mut self, from: u32, to: u32) {
        self.edges.push((from, to));
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Build the adjacency from the edges and clear the search state.
    fn index(&mut self) {
        let verts = &mut self.verts;
        verts.clear();
        verts.extend(self.edges.iter().flat_map(|&(a, b)| [a, b]));
        verts.sort_unstable();
        verts.dedup();
        let n = verts.len();
        let pos = |v: u32| verts.binary_search(&v).expect("an edge's vertex") as u32;
        let first = &mut self.first;
        first.clear();
        first.resize(n + 1, 0);
        for &(a, _) in &self.edges {
            first[pos(a) as usize + 1] += 1;
        }
        for k in 1..=n {
            first[k] += first[k - 1];
        }
        // Fill each source's slots in edge order, then shift the starts back.
        self.succ.resize(self.edges.len(), 0);
        for &(a, b) in &self.edges {
            let k = pos(a) as usize;
            self.succ[first[k] as usize] = pos(b);
            first[k] += 1;
        }
        first.rotate_right(1);
        first[0] = 0;
        self.entered.clear();
        self.entered.resize(n, u32::MAX);
        self.low.resize(n, 0);
        self.open.clear();
        self.open.resize(n, false);
        self.call.clear();
        self.list.clear();
    }

    /// Successors of position `k`.
    fn succ_of(&self, k: u32) -> &[u32] {
        &self.succ[self.first[k as usize] as usize..self.first[k as usize + 1] as usize]
    }

    /// Enter position `k` as the search's `index`-th vertex.
    fn enter(&mut self, k: u32, index: u32) {
        let k = k as usize;
        (self.entered[k], self.low[k], self.open[k]) = (index, index, true);
    }

    /// Find one cycle: a depth-first search from each vertex with a
    /// successor, tried in ascending `key` order, following edges in the
    /// order they were added; the first edge back onto the search path
    /// closes the cycle. Writes the vertices around it into `cycle`
    /// (cleared first), starting after the vertex the back edge reaches
    /// and ending with it, and returns whether there was one.
    pub fn find_cycle<K: Ord>(
        &mut self,
        mut key: impl FnMut(u32) -> K,
        cycle: &mut Vec<u32>,
    ) -> bool {
        self.index();
        cycle.clear();
        let mut starts = std::mem::take(&mut self.list);
        starts.extend((0..self.verts.len() as u32).filter(|&k| !self.succ_of(k).is_empty()));
        starts.sort_unstable_by_key(|&k| key(self.verts[k as usize]));
        for &start in &starts {
            if self.entered[start as usize] == u32::MAX {
                self.call.push((start, 0));
            }
            while let Some(&(v, tried)) = self.call.last() {
                if tried == 0 {
                    self.enter(v, 0);
                }
                self.call.last_mut().expect("on the path").1 += 1;
                match self.succ_of(v).get(tried as usize).copied() {
                    Some(w) if self.entered[w as usize] == u32::MAX => self.call.push((w, 0)),
                    Some(w) if self.open[w as usize] => {
                        let at = self.call.iter().rposition(|&(u, _)| u == w).expect("open");
                        let path = self.call[at + 1..].iter().map(|&(u, _)| u).chain([w]);
                        cycle.extend(path.map(|u| self.verts[u as usize]));
                        break;
                    }
                    Some(_) => {}
                    None => {
                        self.open[v as usize] = false;
                        self.call.pop();
                    }
                }
            }
            if !cycle.is_empty() {
                break;
            }
        }
        self.list = starts;
        !cycle.is_empty()
    }

    /// Every vertex on *some* cycle, ascending, into `members` (cleared
    /// first): the union of strongly connected components of size ≥ 2,
    /// plus self-loops (Tarjan's algorithm, iteratively). A vertex merely
    /// downstream of a cycle — a storm victim on a pause chain — is not
    /// in it.
    pub fn cycle_members(&mut self, members: &mut Vec<u32>) {
        self.index();
        members.clear();
        let mut next = 0;
        for root in 0..self.verts.len() as u32 {
            if self.entered[root as usize] == u32::MAX {
                self.call.push((root, 0));
            }
            while let Some(&(v, tried)) = self.call.last() {
                let k = v as usize;
                if tried == 0 {
                    self.enter(v, next);
                    next += 1;
                    self.list.push(v);
                }
                self.call.last_mut().expect("on the path").1 += 1;
                match self.succ_of(v).get(tried as usize).copied() {
                    Some(w) if self.entered[w as usize] == u32::MAX => self.call.push((w, 0)),
                    Some(w) if self.open[w as usize] => {
                        self.low[k] = self.low[k].min(self.entered[w as usize]);
                    }
                    Some(_) => {}
                    None => {
                        self.call.pop();
                        if let Some(&(p, _)) = self.call.last() {
                            self.low[p as usize] = self.low[p as usize].min(self.low[k]);
                        }
                        if self.low[k] < self.entered[k] {
                            continue;
                        }
                        // Root of a component: pop it off.
                        let at = self.list.iter().rposition(|&u| u == v).expect("stacked");
                        let cyclic = self.list.len() - at >= 2 || self.succ_of(v).contains(&v);
                        for u in self.list.drain(at..) {
                            self.open[u as usize] = false;
                            if cyclic {
                                members.push(self.verts[u as usize]);
                            }
                        }
                    }
                }
            }
        }
        members.sort_unstable();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rocescale_sim::SimRng;

    fn snap(tx: u64, backlog: u64) -> Snapshot {
        Snapshot {
            tx_pkts: tx,
            backlog_bytes: backlog,
        }
    }

    fn stuck(t: &ProgressTracker, rounds: u32) -> Vec<u32> {
        t.stuck(rounds).collect()
    }

    /// A graph over named vertices: vertex `i` is `names[i]`.
    fn named(names: &[&str], edges: &[(&str, &str)]) -> WaitGraph {
        let id = |n: &str| names.iter().position(|m| *m == n).unwrap() as u32;
        let mut g = WaitGraph::new();
        for (a, b) in edges {
            g.add_edge(id(a), id(b));
        }
        g
    }

    /// The cycle `find_cycle` reports, by name, starting from vertices in
    /// name order.
    fn cycle_of(g: &mut WaitGraph, names: &[&str]) -> Option<Vec<String>> {
        let mut cycle = Vec::new();
        g.find_cycle(|v| names[v as usize], &mut cycle).then(|| {
            let name = |v: &u32| names[*v as usize].to_string();
            cycle.iter().map(name).collect()
        })
    }

    fn members_of(g: &mut WaitGraph) -> Vec<u32> {
        let mut members = Vec::new();
        g.cycle_members(&mut members);
        members
    }

    #[test]
    fn progress_is_not_deadlock() {
        let mut t = ProgressTracker::new(1);
        t.observe([snap(100, 5000)]);
        t.observe([snap(200, 5000)]);
        t.observe([snap(300, 9000)]);
        assert!(stuck(&t, 1).is_empty());
    }

    #[test]
    fn zero_progress_with_backlog_is_stuck() {
        let mut t = ProgressTracker::new(2);
        for round in 0..4 {
            let n = t.observe([snap(100, 5000), snap(80, 3000)]);
            assert_eq!(n, if round == 0 { 0 } else { 2 });
        }
        assert_eq!(stuck(&t, 3), [0, 1]);
        assert_eq!(stuck(&t, 4), []);
    }

    #[test]
    fn idle_device_is_not_stuck() {
        let mut t = ProgressTracker::new(1);
        for _ in 0..4 {
            t.observe([snap(100, 0)]); // no backlog: just idle
        }
        assert!(stuck(&t, 1).is_empty());
    }

    #[test]
    #[should_panic(expected = "a round snapshots every device")]
    fn a_round_must_cover_every_device() {
        ProgressTracker::new(2).observe([snap(1, 1)]);
    }

    #[test]
    fn recovery_resets_the_counter() {
        let mut t = ProgressTracker::new(1);
        t.observe([snap(100, 5000)]);
        t.observe([snap(100, 5000)]); // stuck 1
        t.observe([snap(150, 1000)]); // progress
        t.observe([snap(150, 1000)]); // stuck 1 again
        assert!(stuck(&t, 2).is_empty());
        assert_eq!(stuck(&t, 1), [0]);
    }

    /// The corroborated verdict: only stuck devices on a wait-graph cycle
    /// are deadlocked. A storm victim (stuck, but waiting on a chain) is
    /// excluded.
    #[test]
    fn deadlock_verdict_requires_cycle_membership() {
        // Devices and vertices share ids here: T0, T1, victim.
        let mut t = ProgressTracker::new(3);
        for _ in 0..4 {
            t.observe([snap(10, 5000), snap(20, 5000), snap(30, 4000)]);
        }
        assert_eq!(stuck(&t, 3), [0, 1, 2]);
        let mut g = WaitGraph::new();
        g.add_edge(0, 1);
        g.add_edge(1, 0);
        g.add_edge(2, 0); // chained onto the cycle, not in it
        let members = members_of(&mut g);
        let verdict: Vec<u32> = t.stuck(3).filter(|i| members.contains(i)).collect();
        assert_eq!(verdict, [0, 1]);
        // No cycle at all: nobody is deadlocked, however stuck.
        assert!(members_of(&mut WaitGraph::new()).is_empty());
    }

    const FIG4: [&str; 6] = ["T0", "T1", "La", "Lb", "T9", "server42"];

    #[test]
    fn wait_graph_finds_the_fig4_cycle() {
        // The paper's cycle: T1 → La → T0 → Lb → T1, plus a harmless
        // dangling wait (a slow receiver).
        let edges = [
            ("La", "T1"),
            ("T0", "La"),
            ("Lb", "T0"),
            ("T1", "Lb"),
            ("T9", "server42"),
        ];
        let mut g = named(&FIG4, &edges);
        let cycle = cycle_of(&mut g, &FIG4).expect("cycle exists");
        assert_eq!(cycle, ["T1", "Lb", "T0", "La"]);
        assert_eq!(members_of(&mut g), [0, 1, 2, 3]);
    }

    #[test]
    fn wait_graph_acyclic_is_clean() {
        // A pause *chain* (storm propagation) is not a deadlock.
        let mut g = WaitGraph::new();
        g.add_edge(7, 5);
        g.add_edge(5, 3);
        g.add_edge(3, 900);
        assert_eq!(g.edge_count(), 3);
        assert!(!g.find_cycle(|v| v, &mut Vec::new()));
        assert!(members_of(&mut g).is_empty());
    }

    #[test]
    fn wait_graph_self_loop() {
        let mut g = WaitGraph::new();
        g.add_edge(4, 4);
        let mut cycle = Vec::new();
        assert!(g.find_cycle(|v| v, &mut cycle));
        assert_eq!(cycle, [4]);
        assert_eq!(members_of(&mut g), [4]);
    }

    /// `cycle_members` returns exactly the union of cyclic components:
    /// the Figure-4 cycle, not the chains hanging off it.
    #[test]
    fn cycle_members_excludes_chains() {
        let names = ["La", "Lb", "T0", "T1", "victim", "T9", "server42"];
        let edges = [
            ("La", "T1"),
            ("T0", "La"),
            ("Lb", "T0"),
            ("T1", "Lb"),
            ("victim", "La"),   // waits on the cycle, not in it
            ("T9", "server42"), // disconnected chain
        ];
        assert_eq!(members_of(&mut named(&names, &edges)), [0, 1, 2, 3]);
    }

    /// A graph cleared and refilled searches only its new edges.
    #[test]
    fn a_cleared_graph_forgets_its_edges() {
        let mut g = named(&FIG4, &[("T0", "T1"), ("T1", "T0")]);
        assert_eq!(members_of(&mut g), [0, 1]);
        g.clear();
        assert_eq!(g.edge_count(), 0);
        g.add_edge(2, 3);
        assert_eq!(cycle_of(&mut g, &FIG4), None);
        assert!(members_of(&mut g).is_empty());
    }

    // ---- the name-keyed search, kept as the oracle for the one above ----

    /// The name-keyed DFS `find_cycle` replaced: starts from every vertex
    /// with a successor in name order, follows edges in insertion order.
    fn oracle_find_cycle(edges: &[(String, String)]) -> Option<Vec<String>> {
        use std::collections::HashMap;
        let mut adj: HashMap<&str, Vec<&str>> = HashMap::new();
        for (a, b) in edges {
            adj.entry(a).or_default().push(b);
        }
        let mut nodes: Vec<&str> = adj.keys().copied().collect();
        nodes.sort_unstable();
        #[derive(Clone, Copy, PartialEq)]
        enum Color {
            White,
            Gray,
            Black,
        }
        let mut color: HashMap<&str, Color> = HashMap::new();
        let mut parent: HashMap<&str, &str> = HashMap::new();
        for start in nodes {
            if *color.get(start).unwrap_or(&Color::White) != Color::White {
                continue;
            }
            let mut stack = vec![(start, 0usize)];
            color.insert(start, Color::Gray);
            while let Some((node, idx)) = stack.pop() {
                match adj.get(node).and_then(|v| v.get(idx)).copied() {
                    Some(succ) => {
                        stack.push((node, idx + 1));
                        match *color.get(succ).unwrap_or(&Color::White) {
                            Color::White => {
                                color.insert(succ, Color::Gray);
                                parent.insert(succ, node);
                                stack.push((succ, 0));
                            }
                            Color::Gray => {
                                let mut cycle = vec![succ.to_string()];
                                let mut cur = node;
                                while cur != succ {
                                    cycle.push(cur.to_string());
                                    cur = parent.get(cur).copied().unwrap_or(succ);
                                }
                                cycle.reverse();
                                return Some(cycle);
                            }
                            Color::Black => {}
                        }
                    }
                    None => {
                        color.insert(node, Color::Black);
                    }
                }
            }
        }
        None
    }

    /// The name-keyed Tarjan `cycle_members` replaced: sorted names of
    /// every vertex in a cyclic component.
    fn oracle_cycle_members(edges: &[(String, String)]) -> Vec<String> {
        use std::collections::HashMap;
        let mut nodes: Vec<&str> = edges.iter().flat_map(|(a, b)| [&**a, &**b]).collect();
        nodes.sort_unstable();
        nodes.dedup();
        let idx_of: HashMap<&str, usize> = nodes.iter().enumerate().map(|(i, n)| (*n, i)).collect();
        let mut succs: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
        for (a, b) in edges {
            succs[idx_of[&**a]].push(idx_of[&**b]);
        }
        #[derive(Default, Clone, Copy)]
        struct NodeState {
            index: u32,
            lowlink: u32,
            on_stack: bool,
            visited: bool,
        }
        let mut state = vec![NodeState::default(); nodes.len()];
        let mut next_index = 0u32;
        let mut stack: Vec<usize> = Vec::new();
        let mut members: Vec<String> = Vec::new();
        for root in 0..nodes.len() {
            if state[root].visited {
                continue;
            }
            let mut call: Vec<(usize, usize)> = vec![(root, 0)];
            while let Some(frame) = call.last_mut() {
                let (v, cursor) = (frame.0, frame.1);
                frame.1 += 1;
                if cursor == 0 {
                    state[v] = NodeState {
                        index: next_index,
                        lowlink: next_index,
                        on_stack: true,
                        visited: true,
                    };
                    next_index += 1;
                    stack.push(v);
                }
                if let Some(&w) = succs[v].get(cursor) {
                    if !state[w].visited {
                        call.push((w, 0));
                    } else if state[w].on_stack {
                        state[v].lowlink = state[v].lowlink.min(state[w].index);
                    }
                } else {
                    call.pop();
                    if let Some(&(p, _)) = call.last() {
                        state[p].lowlink = state[p].lowlink.min(state[v].lowlink);
                    }
                    if state[v].lowlink == state[v].index {
                        let mut scc = Vec::new();
                        loop {
                            let w = stack.pop().unwrap();
                            state[w].on_stack = false;
                            scc.push(w);
                            if w == v {
                                break;
                            }
                        }
                        if scc.len() >= 2 || succs[v].contains(&v) {
                            members.extend(scc.iter().map(|i| nodes[*i].to_string()));
                        }
                    }
                }
            }
        }
        members.sort();
        members
    }

    /// Seeded random graphs — self-loops, chains off cycles, several
    /// components, duplicate edges, names whose order is not the ids' —
    /// give the id-keyed searches exactly the oracle's cycle and members,
    /// through one graph cleared and refilled for every case.
    #[test]
    fn id_searches_match_the_name_keyed_oracle() {
        let mut rng = SimRng::from_seed(43);
        let mut g = WaitGraph::new();
        let (mut cycles, mut loops, mut multi) = (0, 0, 0);
        for case in 0..400 {
            let n = 1 + rng.gen_index(24);
            // Vertex `v` is named by a shuffled number, so name order
            // and id order disagree.
            let mut labels: Vec<usize> = (0..n).collect();
            for i in (1..n).rev() {
                labels.swap(i, rng.gen_index(i + 1));
            }
            let names: Vec<String> = labels.iter().map(|l| format!("sw{l}")).collect();
            // Sparse to dense, so both acyclic and cyclic graphs occur;
            // ids are spread out so the graph numbers them itself.
            let m = rng.gen_index(2 * n + 1);
            let edges: Vec<(u32, u32)> = (0..m)
                .map(|_| (rng.gen_index(n) as u32, rng.gen_index(n) as u32))
                .collect();
            let id = |v: u32| v * 1000 + 7;
            g.clear();
            for &(a, b) in &edges {
                g.add_edge(id(a), id(b));
            }
            let by_name: Vec<(String, String)> = edges
                .iter()
                .map(|&(a, b)| (names[a as usize].clone(), names[b as usize].clone()))
                .collect();
            let name = |v: &u32| names[((v - 7) / 1000) as usize].clone();
            let mut cycle = Vec::new();
            let found = g.find_cycle(|v| &names[((v - 7) / 1000) as usize], &mut cycle);
            let expect = oracle_find_cycle(&by_name);
            assert_eq!(
                found.then(|| cycle.iter().map(name).collect()),
                expect,
                "case {case}"
            );
            let mut members: Vec<String> = members_of(&mut g).iter().map(name).collect();
            members.sort();
            let oracle = oracle_cycle_members(&by_name);
            assert_eq!(members, oracle, "case {case}");
            cycles += expect.is_some() as u32;
            loops += edges.iter().any(|(a, b)| a == b) as u32;
            multi += (oracle.len() >= 4 && oracle.len() < n) as u32;
        }
        // The cases cover what they claim to.
        assert!(
            cycles > 100 && cycles < 390 && loops > 50 && multi > 20,
            "{cycles} {loops} {multi}"
        );
    }
}
