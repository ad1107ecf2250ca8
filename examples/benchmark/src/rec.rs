//! Recording: in-memory spans, per-phase marks with allocator
//! snapshots, and the procfs readings the end-to-end metrics need.
//!
//! A repetition is a contiguous sequence of phases; each `mark` closes
//! the phase that ran since the previous mark, so the phases of a
//! repetition sum to its wall time by construction. Finer spans (run
//! chunks, per-tick monitor calls, kernels) nest under the open phase and
//! exist only in the traced repetition.

use std::time::Instant;

use crate::alloc;

/// The phases of one repetition, in execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Inputs generated from the seed.
    Gen,
    /// `build()` / `build_sharded()`.
    Build,
    /// QPs, connections and apps installed.
    Connect,
    /// Fixed simulated warm-up interval.
    Warmup,
    /// The timed simulated window.
    Run,
    /// Results read out of the cluster.
    Report,
    /// The cluster dropped.
    Teardown,
}

impl Phase {
    fn name(self) -> &'static str {
        match self {
            Phase::Gen => "gen",
            Phase::Build => "build",
            Phase::Connect => "connect",
            Phase::Warmup => "warmup",
            Phase::Run => "run",
            Phase::Report => "report",
            Phase::Teardown => "teardown",
        }
    }
}

/// One recorded span: name, start, end, and the span that caused it.
#[derive(Debug, Clone)]
pub struct Span {
    /// What ran.
    pub name: &'static str,
    /// Nanoseconds since the log's origin.
    pub start_ns: u64,
    /// Nanoseconds since the log's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
}

/// Per-phase totals of one repetition.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseTotals {
    /// Seconds per phase, indexed by `Phase as usize`.
    secs: [f64; 7],
    /// Allocation events per phase.
    allocs: [u64; 7],
    /// Bytes requested per phase.
    bytes: [u64; 7],
    /// Whole-repetition wall time, seconds.
    pub wall_s: f64,
}

impl PhaseTotals {
    /// Seconds spent in `p`.
    pub fn secs(&self, p: Phase) -> f64 {
        self.secs[p as usize]
    }

    /// Allocation events in `p`.
    pub fn allocs(&self, p: Phase) -> u64 {
        self.allocs[p as usize]
    }

    /// Bytes requested in `p`.
    pub fn bytes(&self, p: Phase) -> u64 {
        self.bytes[p as usize]
    }

    /// Everything before the timed window.
    pub fn setup_s(&self) -> f64 {
        self.secs(Phase::Gen)
            + self.secs(Phase::Build)
            + self.secs(Phase::Connect)
            + self.secs(Phase::Warmup)
    }

    /// Allocation events over the whole repetition.
    pub fn total_allocs(&self) -> u64 {
        self.allocs.iter().sum()
    }

    /// Sum of the phase durations (equals `wall_s` up to clock reads).
    pub fn phase_sum_s(&self) -> f64 {
        self.secs.iter().sum()
    }
}

/// Span log plus the phase cursor of the repetition in progress.
pub struct Rec {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    rep_span: u32,
    last_mark: (u64, alloc::Snapshot),
    rep_start_ns: u64,
    totals: PhaseTotals,
}

impl Rec {
    /// An empty log whose clock starts now.
    pub fn new() -> Rec {
        Rec {
            origin: Instant::now(),
            // Reserved up front so the log itself never allocates inside
            // a repetition: `alloc_count` must repeat exactly.
            spans: Vec::with_capacity(1 << 16),
            stack: Vec::with_capacity(16),
            rep_span: 0,
            last_mark: (0, alloc::Snapshot::default()),
            rep_start_ns: 0,
            totals: PhaseTotals::default(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn open(&mut self, name: &'static str) -> u32 {
        let id = self.spans.len() as u32;
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().copied(),
        });
        self.stack.push(id);
        id
    }

    /// Close span `id` (must be the innermost open one); returns its
    /// duration in seconds.
    pub fn close(&mut self, id: u32) -> f64 {
        assert_eq!(self.stack.pop(), Some(id), "spans close innermost-first");
        let now = self.now_ns();
        let s = &mut self.spans[id as usize];
        s.end_ns = now;
        (s.end_ns - s.start_ns) as f64 / 1e9
    }

    /// Time `f` as a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let id = self.open(name);
        let out = f();
        (out, self.close(id))
    }

    /// Start a repetition: opens its root span and the first phase.
    pub fn begin_rep(&mut self, name: &'static str) {
        assert!(self.stack.is_empty(), "previous repetition still open");
        self.rep_span = self.open(name);
        self.rep_start_ns = self.spans[self.rep_span as usize].start_ns;
        self.last_mark = (self.rep_start_ns, alloc::snapshot());
        self.totals = PhaseTotals::default();
        // The phase in progress is a span whose name is set when `mark`
        // says which phase it was, so finer spans nest under it.
        let first = self.open("phase");
        self.spans[first as usize].start_ns = self.rep_start_ns;
    }

    /// Close the phase that ran since the previous mark (or since
    /// `begin_rep`), attributing its time and allocations to `phase`.
    pub fn mark(&mut self, phase: Phase) {
        assert_eq!(self.stack.len(), 2, "a finer span is still open");
        let snap = alloc::snapshot();
        let id = self.stack[1];
        self.close(id);
        let span = &mut self.spans[id as usize];
        span.name = phase.name();
        let now = span.end_ns;
        let (t0, a0) = self.last_mark;
        let i = phase as usize;
        self.totals.secs[i] += (now - t0) as f64 / 1e9;
        self.totals.allocs[i] += snap.allocs_since(&a0);
        self.totals.bytes[i] += snap.bytes_since(&a0);
        self.last_mark = (now, snap);
        let next = self.open("phase");
        // Phases abut: the next one starts where this one ended.
        self.spans[next as usize].start_ns = now;
    }

    /// End the repetition; call right after the final `mark`.
    pub fn end_rep(&mut self) -> PhaseTotals {
        // Discard the empty phase `mark` opened last.
        let tail = self.stack.pop().expect("phase cursor open");
        assert_eq!(
            tail as usize,
            self.spans.len() - 1,
            "work after the final mark"
        );
        self.spans.pop();
        let id = self.rep_span;
        self.close(id);
        // Mark-to-mark, so the phases sum to the wall exactly.
        self.spans[id as usize].end_ns = self.last_mark.0;
        self.totals.wall_s = (self.last_mark.0 - self.rep_start_ns) as f64 / 1e9;
        self.totals
    }

    /// Total seconds of every span named `name` recorded since span
    /// index `from`.
    pub fn total_since(&self, from: usize, name: &str) -> f64 {
        self.spans[from..]
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .fold(0.0, |a, b| a + b)
    }

    /// Number of spans recorded so far (a cursor for `total_since`).
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// The spans as a JSON document (`--trace-out`).
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = format!("{{\"workload\":\"{workload}\",\"seed\":{seed},\"spans\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}{}\n",
                s.name,
                s.start_ns,
                s.end_ns,
                if i + 1 == self.spans.len() { "" } else { "," }
            ));
        }
        out.push_str("]}\n");
        out
    }
}

/// `VmHWM` of this process in MB (peak resident set), from procfs.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// User + system CPU seconds consumed by this process so far.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields 14 and 15 (1-based) after the parenthesised command name.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return 0.0;
    };
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    // `rest` starts at field 3, so fields 14/15 are indices 11/12. The
    // kernel reports clock ticks; USER_HZ is 100 on every Linux ABI.
    (ticks(11) + ticks(12)) / 100.0
}
