//! What the hub keeps grows with what changes, not with how many
//! instruments exist or how many passes sample them; registering grows
//! its tables, not an allocation per instrument; and its JSON export
//! allocates nothing but its output buffer. These tests own the
//! process's allocator to show it — counting, per thread, allocation
//! events and live bytes; the hub does all of this work on the calling
//! thread, and the test harness starts one test while another measures
//! — so they live alone in their own test binary. The series and the
//! export are also checked, byte for byte, against the model they
//! replaced: a vector of steps per instrument.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::Arc;

use rocescale_monitor::{
    CounterId, GaugeId, Group, HistogramId, Json, MetricsHub, Path, Percentiles, TelemetryConfig,
    TimeSeries, TraceEvent,
};

thread_local! {
    /// Allocation events (alloc, alloc_zeroed, realloc) on this thread.
    /// Const-initialised and drop-free, so reading it inside the
    /// allocator never allocates.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread allocated minus bytes it freed (wrapping: only
    /// differences are read).
    static LIVE: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn note(events: u64, bytes: u64) {
    // `try_with`: a thread being torn down may allocate after its TLS
    // is gone; those events are not ours.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + events));
    let _ = LIVE.try_with(|c| c.set(c.get().wrapping_add(bytes)));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are
// thread-local `Cell`s and do not allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        note(1, l.size() as u64);
        System.alloc(l)
    }
    unsafe fn alloc_zeroed(&self, l: Layout) -> *mut u8 {
        note(1, l.size() as u64);
        System.alloc_zeroed(l)
    }
    unsafe fn realloc(&self, p: *mut u8, l: Layout, new: usize) -> *mut u8 {
        note(1, (new as u64).wrapping_sub(l.size() as u64));
        System.realloc(p, l, new)
    }
    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        note(0, (l.size() as u64).wrapping_neg());
        System.dealloc(p, l)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

fn live() -> u64 {
    LIVE.with(Cell::get)
}

/// ⌈log₂ n⌉ + 1: an upper bound on the times a vector that doubles from
/// empty grows to hold `n` elements.
fn doublings(n: u64) -> u64 {
    (u64::BITS - n.leading_zeros()) as u64 + 1
}

#[test]
fn series_keep_only_changes_and_the_export_builds_only_its_output() {
    const COUNTERS: u64 = 2048;
    const GAUGES: u64 = 512;
    const MOVING: u64 = 16;
    const PASSES: u64 = 200;
    let hub = MetricsHub::with_config(TelemetryConfig { sample_every_ps: 1 });
    let counters: Vec<_> = (0..COUNTERS)
        .map(|i| hub.counter(&format!("nic.s{i:04}.qp.0.retransmits")))
        .collect();
    let gauges: Vec<_> = (0..GAUGES)
        .map(|i| hub.gauge(&format!("switch.t{i:03}.lossless_backlog")))
        .collect();
    let rtt = hub.histogram("nic.s0000.rtt_ps");
    let scope = hub.scope("switch.t000");
    // The first pass gives every series its first step.
    hub.maybe_sample(0);

    let (allocs0, live0) = (allocs(), live());
    for pass in 1..=PASSES {
        for &c in &counters[..MOVING as usize] {
            hub.incr(c);
        }
        // Set, but to the value it had: not a change.
        hub.set_gauge(gauges[0], 0.0);
        hub.set_gauge(gauges[1], pass as f64);
        hub.maybe_sample(pass);
    }
    let moving = MOVING + 1;
    let events = allocs() - allocs0;
    assert!(
        events <= (moving + 1) * doublings(PASSES),
        "{PASSES} passes over {} instruments, {moving} of them moving, allocated {events} times",
        COUNTERS + GAUGES
    );
    // Change-log entries are 16 B and the pass times 8 B, each vector at
    // most twice its length; a point per pass for every instrument held
    // 16 B × {COUNTERS + GAUGES} × {PASSES} = 8.2 MB.
    let grown = live().wrapping_sub(live0);
    let budget = 2 * (moving * PASSES * 16 + PASSES * 8);
    assert!(
        grown <= budget,
        "series grew by {grown} B over {PASSES} passes, budget {budget} B"
    );

    for v in 0..1000 {
        hub.observe(rtt, v * 7919 % 1000);
    }
    for t in 0..40 {
        hub.trace(t, scope, TraceEvent::PauseTx { port: 1, prio: 3 });
    }
    // The first read after the registrations sorts the names (a one-off
    // merge sort with a buffer of its own); the export after it builds
    // nothing but its output: a buffer that doubles as it fills.
    hub.counters_snapshot();
    let before = allocs();
    let text = hub.render_json().render();
    let events = allocs() - before;
    assert!(
        events <= doublings(text.len() as u64),
        "a {} B export allocated {events} times",
        text.len()
    );
    assert!(text.contains(r#""nic.s0000.qp.0.retransmits":[[0,0.0],[1,1.0],[2,2.0],"#));
    // The counter does count: the guards above are not vacuous.
    let v = std::hint::black_box(vec![0u8; 64]);
    assert!(allocs() > before, "{}", v.len());
}

/// Instruments registered by [`register_fleet`]: per kind and scopes.
const COUNTERS: usize = 10_000;
const GAUGES: usize = 1_000;
const HISTOGRAMS: usize = 100;
const SCOPES: usize = 1_000;

/// Register [`COUNTERS`] counters, [`GAUGES`] gauges, [`HISTOGRAMS`]
/// histograms and [`SCOPES`] scopes, through the string API or as
/// blocks, with every name or host name built beforehand: (allocation
/// events, live bytes) the registrations cost.
fn register_fleet(blocks: bool) -> (u64, u64) {
    let hub = MetricsHub::enabled();
    let hosts: Vec<Arc<str>> = (0..SCOPES).map(|i| Arc::from(format!("s{i:04}"))).collect();
    let names = |kind: &str, n: usize| -> Vec<String> {
        (0..n)
            .map(|i| format!("{kind}.s{:04}.{i}", i % SCOPES))
            .collect()
    };
    let (counters, gauges, histograms) = (
        names("c", COUNTERS),
        names("g", GAUGES),
        names("h", HISTOGRAMS),
    );
    let (allocs0, live0) = (allocs(), live());
    if blocks {
        // Each host: a block of ten counters (two groups, one indexed),
        // one gauge, and a histogram on every tenth.
        const LEAVES: &[&str] = &["pfc.xoff_tx", "pfc.xoff_rx", "rx.overflow", "cnp_tx"];
        let groups = [
            Group::counters(LEAVES),
            Group::counters(&["retransmits", "rate_changes"]).over("qp", 0..3),
            Group::gauges(&["backlog"]),
            Group::histograms(&["rtt_ps"]),
        ];
        for (i, host) in hosts.iter().enumerate() {
            let groups = if i % 10 == 0 {
                &groups[..]
            } else {
                &groups[..3]
            };
            hub.register(Path::of("nic", host.clone()), groups);
        }
    } else {
        for name in &counters {
            hub.counter(name);
        }
        for name in &gauges {
            hub.gauge(name);
        }
        for name in &histograms {
            hub.histogram(name);
        }
        for host in &hosts {
            hub.scope(host);
        }
    }
    let cost = (allocs() - allocs0, live().wrapping_sub(live0));
    assert_eq!(hub.counters_snapshot().len(), COUNTERS);
    assert_eq!(hub.gauges_snapshot().len(), GAUGES);
    cost
}

/// Registration grows the hub's tables — rows, paths, the string API's
/// name text and lookup index, the values — each by
/// doubling, and allocates nothing per instrument: 12 100 instruments
/// and 1 000 scopes cost a few doublings of a handful of tables, where
/// a `format!`, a map key and a name copy per instrument cost three
/// allocations each. Names through the string API cost more bytes than
/// blocks do: their text, a path row each and two lookup tables.
#[test]
fn registration_grows_tables_not_an_allocation_per_instrument() {
    let instruments = (COUNTERS + GAUGES + HISTOGRAMS) as u64;
    for blocks in [false, true] {
        let (events, bytes) = register_fleet(blocks);
        let (path, bytes_each) = if blocks {
            ("block", 32)
        } else {
            ("string", 160)
        };
        println!(
            "{path} path: {events} allocations, {} bytes per instrument",
            bytes / instruments
        );
        assert!(
            events <= 8 * doublings(instruments),
            "the {path} path allocated {events} times for {instruments} instruments"
        );
        assert!(
            bytes <= bytes_each * instruments,
            "the {path} path keeps {bytes} B for {instruments} instruments"
        );
    }
}

/// The model the change log replaced, kept as this test's oracle: per
/// instrument, a step `(pass, raw)` at the first pass it took part in
/// and at every later pass whose raw value differs from the one before.
#[derive(Default)]
struct Steps(Vec<(u32, u64)>);

impl Steps {
    fn sample(&mut self, at: u32, raw: u64) {
        if self.0.last().is_none_or(|&(_, last)| last != raw) {
            self.0.push((at, raw));
        }
    }

    fn points(&self, times: &[u64]) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        for (k, &(at, raw)) in self.0.iter().enumerate() {
            let until = self
                .0
                .get(k + 1)
                .map_or(times.len(), |&(next, _)| next as usize);
            out.extend(times[at as usize..until].iter().map(|&t| (t, raw)));
        }
        out
    }
}

/// An instrument's id on the hub.
#[derive(Clone, Copy)]
enum Id {
    Counter(CounterId),
    Gauge(GaugeId),
    Histogram(HistogramId),
}

impl Id {
    /// The kind's rank in the hub's name order: 0 counter, 1 gauge, 2
    /// histogram.
    fn kind(self) -> u8 {
        match self {
            Id::Counter(_) => 0,
            Id::Gauge(_) => 1,
            Id::Histogram(_) => 2,
        }
    }
}

/// One instrument of the oracle: its id on the hub, its raw value, its
/// steps and (a histogram's) samples.
struct Model {
    id: Id,
    raw: u64,
    steps: Steps,
    samples: Percentiles,
}

/// The oracle: instruments by (name, kind) — the hub's name order.
type Oracle = BTreeMap<(String, u8), Model>;

/// The export the oracle's state renders to, as a `Json` tree.
fn oracle_json(oracle: &Oracle, every: u64, times: &[u64]) -> String {
    let of = |kind: u8| oracle.iter().filter(move |((_, k), _)| *k == kind);
    let value = |kind: u8, raw: u64| match kind {
        0 => Json::U64(raw),
        _ => Json::F64(f64::from_bits(raw)),
    };
    let values = |kind: u8| {
        let members = of(kind).map(|((name, _), m)| (name.clone(), value(kind, m.raw)));
        Json::Obj(members.collect())
    };
    let opt = |v: Option<u64>| v.map_or(Json::Null, Json::U64);
    let histograms = of(2).map(|((name, _), m)| {
        let mut p = m.samples.clone();
        let summary = Json::obj(vec![
            ("count", Json::U64(p.count() as u64)),
            ("p50", opt(p.p50())),
            ("p99", opt(p.p99())),
            ("p999", opt(p.p999())),
            ("max", opt(p.max())),
            ("mean", p.mean().map_or(Json::Null, Json::F64)),
        ]);
        (name.clone(), summary)
    });
    let series = oracle
        .iter()
        .filter(|((_, kind), m)| *kind < 2 && !m.steps.0.is_empty())
        .map(|((name, kind), m)| {
            let points = m.steps.points(times).into_iter().map(|(t, raw)| {
                let v = if *kind == 0 {
                    raw as f64
                } else {
                    f64::from_bits(raw)
                };
                Json::Arr(vec![Json::U64(t), Json::F64(v)])
            });
            (name.clone(), Json::Arr(points.collect()))
        });
    Json::obj(vec![
        ("enabled", Json::Bool(true)),
        ("sample_every_ps", Json::U64(every)),
        ("samples_taken", Json::U64(times.len() as u64)),
        ("counters", values(0)),
        ("gauges", values(1)),
        ("histograms", Json::Obj(histograms.collect())),
        ("series", Json::Obj(series.collect())),
        (
            "flight_recorder",
            Json::obj(vec![
                ("dropped", Json::U64(0)),
                ("total_recorded", Json::U64(0)),
                ("records", Json::Arr(Vec::new())),
            ]),
        ),
    ])
    .render()
}

/// `(t, raw bits)` of a hub series, comparable through NaN.
fn bits(series: TimeSeries, counter: bool) -> Vec<(u64, u64)> {
    let raw = |v: f64| if counter { v as u64 } else { v.to_bits() };
    series.points().iter().map(|&(t, v)| (t, raw(v))).collect()
}

/// A seeded run checked against the step model, byte for byte: blocks
/// and string-API names registered before the first pass and between
/// passes (some bumped before their first pass), counters set to growing
/// counts,
/// gauges set — to NaN, −0.0, and back to a value they had before —
/// histograms observed, passes that skip boundaries, and exports in
/// mid-run (which sort the change log in place) as well as at the end.
#[test]
fn series_and_export_match_the_step_model() {
    const EVERY: u64 = 10;
    let hub = MetricsHub::with_config(TelemetryConfig {
        sample_every_ps: EVERY,
    });
    let mut seed = 0xC0FF_EE00_u64;
    let mut rand = move |n: u64| {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        seed % n
    };
    let gauge_values = [0.0, -0.0, f64::NAN, 1.5, 3.0, 1e20, 0.25];
    let mut oracle = Oracle::new();
    let mut times: Vec<u64> = Vec::new();
    let add = |oracle: &mut Oracle, name: String, id: Id| {
        let model = Model {
            id,
            raw: 0,
            steps: Steps::default(),
            samples: Percentiles::new(),
        };
        let prev = oracle.insert((name, id.kind()), model);
        assert!(prev.is_none(), "names are unique per kind");
    };
    let hosts: Vec<Arc<str>> = (0..40).map(|i| Arc::from(format!("h{i:02}"))).collect();
    const NIC: &[&str] = &["pfc.xoff_rx", "rx.overflow"];
    let mut next_host = 0;
    for pass in 0..80u64 {
        // Registrations: a host block or a few string-API names.
        if pass % 5 == 0 || pass < 2 {
            let host = &hosts[next_host];
            next_host += 1;
            let qps = rand(3) as u32 + 1;
            let block = hub.register(
                Path::of("nic", host.clone()),
                &[
                    Group::counters(NIC),
                    Group::counters(&["retransmits"]).over("qp", 0..qps),
                    Group::gauges(&["rate"]),
                    Group::histograms(&["rtt_ps"]),
                ],
            );
            let mut k = 0;
            let mut next = || {
                k += 1;
                k - 1
            };
            let b = block.base;
            for leaf in NIC {
                let name = format!("nic.{host}.{leaf}");
                add(&mut oracle, name, Id::Counter(b.counter(next())));
            }
            for q in 0..qps {
                let name = format!("nic.{host}.qp.{q}.retransmits");
                add(&mut oracle, name, Id::Counter(b.counter(next())));
            }
            add(
                &mut oracle,
                format!("nic.{host}.rate"),
                Id::Gauge(b.gauge(next())),
            );
            let rtt = Id::Histogram(b.histogram(next()));
            add(&mut oracle, format!("nic.{host}.rtt_ps"), rtt);
            // The string API finds a block's instrument by its name.
            assert_eq!(
                hub.counter(&format!("nic.{host}.rx.overflow")),
                block.base.counter(1)
            );
            assert_eq!(hub.scope(&format!("nic.{host}")), block.scope);
        }
        if pass % 7 == 3 {
            let k = pass / 7;
            for (name, kind) in [
                (format!("adhoc.{}", (k * 37) % 10), 0u8),
                (format!("adhoc.\"{k}\"\n"), 1),
                ("dup".to_string(), (k % 2) as u8),
                (format!("lat.{k}"), 2),
            ] {
                if oracle.contains_key(&(name.clone(), kind)) {
                    continue;
                }
                let id = match kind {
                    0 => Id::Counter(hub.counter(&name)),
                    1 => Id::Gauge(hub.gauge(&name)),
                    _ => Id::Histogram(hub.histogram(&name)),
                };
                add(&mut oracle, name, id);
            }
        }
        // Updates, to some of the instruments — fresh ones included, so
        // some move before their first pass.
        for m in oracle.values_mut() {
            if rand(3) == 0 {
                continue;
            }
            match m.id {
                Id::Counter(id) => {
                    m.raw += rand(1 << 40);
                    hub.set_counter(id, m.raw);
                }
                Id::Gauge(id) => {
                    let v = gauge_values[rand(gauge_values.len() as u64) as usize];
                    hub.set_gauge(id, v);
                    m.raw = v.to_bits();
                }
                Id::Histogram(id) => {
                    let v = rand(1_000_000);
                    hub.observe(id, v);
                    m.samples.add(v);
                }
            }
        }
        // A pass, now and then skipping boundaries.
        let t = pass * EVERY + rand(5) + if rand(4) == 0 { 2 * EVERY } else { 0 };
        let t = t.max(times.last().map_or(0, |&l| l + 1));
        if t >= hub.next_sample_ps().unwrap() {
            hub.maybe_sample(t);
            times.push(t);
            let at = times.len() as u32 - 1;
            for ((_, kind), m) in oracle.iter_mut() {
                if *kind < 2 {
                    m.steps.sample(at, m.raw);
                }
            }
        }
        if pass % 25 == 24 {
            assert_eq!(
                hub.render_json().render(),
                oracle_json(&oracle, EVERY, &times)
            );
        }
    }
    assert_eq!(
        hub.render_json().render(),
        oracle_json(&oracle, EVERY, &times)
    );
    for ((name, kind), m) in &oracle {
        let expect = m.steps.points(&times);
        match kind {
            0 => assert_eq!(
                bits(hub.counter_series(name).unwrap(), true),
                expect,
                "{name}"
            ),
            1 => assert_eq!(
                bits(hub.gauge_series(name).unwrap(), false),
                expect,
                "{name}"
            ),
            _ => assert!(hub.gauge_series(name).is_none()),
        }
    }
}
