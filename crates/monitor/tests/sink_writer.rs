//! The attached sink's writer thread at its edges: a sink that panics, a
//! sink slower than emission, and every way a sink leaves the hub
//! (detach, re-attach, the last handle's drop). Emission never calls a
//! sink itself, so each of these is a hand-off the hub must get right
//! without hanging the run or losing a record.

use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::sync::Arc;
use std::time::Duration;

use rocescale_monitor::{
    HopRecord, JsonlSink, MemorySink, MetricsHub, RecordBody, ScopeId, StreamRecord, TraceFilter,
    TraceSink, SINK_BATCH_RECORDS, SINK_POOL_BATCHES,
};

const BATCH: u64 = SINK_BATCH_RECORDS as u64;

fn hop_record(n: u64) -> HopRecord {
    HopRecord {
        port: (n % 32) as u16,
        prio: 3,
        bytes: 1086,
        src_ip: n as u32,
        dst_ip: 0x0a00_0102,
        queue_bytes: n,
    }
}

/// Stream hop record `n`, stamped `n` ns.
fn hop(hub: &MetricsHub, scope: ScopeId, n: u64) {
    hub.stream_hop(n * 1_000, scope, hop_record(n));
}

/// Run `f` under a watchdog that aborts the test process if `f` has not
/// returned or panicked within 10 s: a hang must fail the suite, not
/// stall it.
fn within_10s(f: impl FnOnce()) {
    let (done, watchdog) = std::sync::mpsc::channel::<()>();
    std::thread::spawn(move || {
        use std::sync::mpsc::RecvTimeoutError::Timeout;
        if watchdog.recv_timeout(Duration::from_secs(10)) == Err(Timeout) {
            eprintln!("the trace sink's writer hung");
            std::process::abort();
        }
    });
    f();
    drop(done);
}

/// A sink that panics on its third record.
struct PanicsOnThird(u32);

impl TraceSink for PanicsOnThird {
    fn write(&mut self, _: &StreamRecord<'_>) {
        self.0 += 1;
        if self.0 == 3 {
            panic!("sink refused record 3");
        }
    }
}

fn hub_with(sink: impl TraceSink + 'static) -> (MetricsHub, ScopeId) {
    let hub = MetricsHub::enabled();
    let scope = hub.scope("switch.t0");
    hub.attach_sink(Box::new(sink), TraceFilter::all());
    (hub, scope)
}

/// A sink's panic reaches the emitting thread at the next drain, with
/// the sink's message; the hub, dropped while that panic unwinds, does
/// not panic a second time (which would abort the test binary).
#[test]
#[should_panic(expected = "trace sink panicked: sink refused record 3")]
fn a_sink_panic_surfaces_at_flush_sink() {
    within_10s(|| {
        let (hub, sw) = hub_with(PanicsOnThird(0));
        for n in 0..5 {
            hop(&hub, sw, n);
        }
        hub.flush_sink();
    });
}

/// Without a drain the panic surfaces at a hand-off: at the latest when
/// the pool has run dry and the emitting thread, instead of waiting for
/// a writer that has stopped, learns why.
#[test]
#[should_panic(expected = "trace sink panicked: sink refused record 3")]
fn a_sink_panic_surfaces_at_the_next_hand_off() {
    within_10s(|| {
        let (hub, sw) = hub_with(PanicsOnThird(0));
        for n in 0..(SINK_POOL_BATCHES as u64 + 2) * BATCH {
            hop(&hub, sw, n);
        }
        unreachable!("the pool ran dry without the sink's panic");
    });
}

/// Sleeps on every record, then counts it.
struct Slow(Arc<AtomicU64>);

impl TraceSink for Slow {
    fn write(&mut self, _: &StreamRecord<'_>) {
        std::thread::sleep(Duration::from_micros(10));
        self.0.fetch_add(1, SeqCst);
    }
}

/// A sink slower than emission holds the emitting thread at the pool
/// bound: no more than `SINK_POOL_BATCHES` batches of records are ever
/// emitted but unwritten — and the bound is reached, so the emitting
/// thread really was held back rather than the sink keeping up.
#[test]
fn a_slow_sink_holds_the_emitting_thread_at_the_pool_bound() {
    within_10s(|| {
        let pool = SINK_POOL_BATCHES as u64 * BATCH;
        let written = Arc::new(AtomicU64::new(0));
        let (hub, sw) = hub_with(Slow(written.clone()));
        let total = pool + 2 * BATCH;
        let mut most = 0;
        for n in 0..total {
            hop(&hub, sw, n);
            let in_flight = n + 1 - written.load(SeqCst);
            assert!(
                in_flight <= pool,
                "{in_flight} records in flight, pool {pool}"
            );
            most = most.max(in_flight);
        }
        assert!(
            most > pool - BATCH,
            "the emitting thread never filled the pool: at most {most} in flight"
        );
        hub.detach_sink();
        assert_eq!(written.load(SeqCst), total);
    });
}

/// Every record — the full batches and the partial one alike — reaches
/// a sink, in emission order, before re-attaching or detaching returns
/// it.
#[test]
fn detach_returns_a_sink_that_has_every_record() {
    let n = 3 * BATCH + 17;
    let times = |r: std::ops::Range<u64>| r.map(|i| i * 1_000).collect::<Vec<_>>();
    let first = MemorySink::new();
    let (hub, sw) = hub_with(first.clone());
    for i in 0..n {
        hop(&hub, sw, i);
    }
    let second = MemorySink::new();
    let back = hub.attach_sink(Box::new(second.clone()), TraceFilter::all());
    assert!(back.is_some(), "re-attaching returns the previous sink");
    assert_eq!(
        first.records().iter().map(|r| r.t_ps).collect::<Vec<_>>(),
        times(0..n)
    );
    for i in n..2 * n {
        hop(&hub, sw, i);
    }
    assert!(hub.detach_sink().is_some());
    let recs = second.records();
    assert_eq!(
        recs.iter().map(|r| r.t_ps).collect::<Vec<_>>(),
        times(n..2 * n)
    );
    assert!(recs.iter().all(|r| r.scope == "switch.t0"));
    assert_eq!(
        first.len() as u64,
        n,
        "a detached sink receives nothing more"
    );
}

/// Dropping the last hub handle, with no flush before it, leaves a
/// `JsonlSink` file complete: every line, in order, on disk.
#[test]
fn dropping_the_hub_leaves_a_jsonl_file_complete() {
    let path = std::env::temp_dir().join(format!(
        "rocescale_sink_writer_{}.jsonl",
        std::process::id()
    ));
    let n = 2 * BATCH + 5;
    let (hub, sw) = hub_with(JsonlSink::create(path.to_str().unwrap()).unwrap());
    for i in 0..n {
        hop(&hub, sw, i);
    }
    drop(hub);
    let text = std::fs::read(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    let mut want = Vec::new();
    for i in 0..n {
        StreamRecord {
            t_ps: i * 1_000,
            scope: "switch.t0",
            shard: None,
            body: RecordBody::Hop(hop_record(i)),
        }
        .write_json(&mut want);
        want.push(b'\n');
    }
    assert_eq!(text.len(), want.len());
    assert!(text == want, "the file differs from the records emitted");
}
