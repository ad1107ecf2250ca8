//! End-to-end trace export round trip: the JSONL file a real run streams
//! to disk parses back into exactly the records an in-memory sink saw on
//! the identical run, and every line survives render → parse → render
//! byte-identically — the property `trace_analyze` relies on.

use rocescale_core::{Cluster, ClusterBuilder, InstrumentationProfile, ServerId};
use rocescale_monitor::{
    parse_jsonl, JsonlSink, MemorySink, MetricsHub, RecordBody, TraceEvent, TraceFilter,
};
use rocescale_nic::{QpApp, QpHandle};
use rocescale_sim::SimTime;

/// 64-bit FNV-1a over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A short single-ToR incast with DCQCN on: produces every record class
/// (hops, queue samples, flight events with DCQCN's rate changes).
fn run_incast(instr: InstrumentationProfile) -> Cluster {
    let mut cl = ClusterBuilder::single_tor(5)
        .seed(11)
        .instrumentation(instr)
        .build();
    for i in 1..5usize {
        cl.connect_qp(
            ServerId(i),
            ServerId(0),
            9000 + i as u16,
            QpApp::Saturate {
                msg_len: 1 << 20,
                inflight: 4,
            },
            QpApp::None,
        );
    }
    cl.run_until(SimTime::from_millis(2));
    cl
}

fn temp_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "rocescale_trace_{tag}_{}.jsonl",
        std::process::id()
    ))
}

/// The deterministic simulator makes two identical runs emit identical
/// record streams, so a file-backed run can be checked record-for-record
/// against a memory-backed one: same count, and every parsed line
/// re-renders to the same canonical JSON the memory sink produces.
#[test]
fn exported_file_round_trips_to_the_memory_sinks_records() {
    let mem = MemorySink::new();
    run_incast(InstrumentationProfile::paper_default().trace_sink(mem.clone()));

    let path = temp_path("roundtrip");
    let sink = JsonlSink::create(path.to_str().unwrap()).unwrap();
    run_incast(InstrumentationProfile::paper_default().trace_sink(sink));

    let text = std::fs::read_to_string(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    let parsed = parse_jsonl(&text).unwrap();
    let reference = mem.records();
    assert!(
        parsed.len() > 1000,
        "a 2 ms incast must stream a substantial trace: {}",
        parsed.len()
    );
    assert_eq!(
        parsed.len(),
        reference.len(),
        "identical runs, same records"
    );

    // Byte-level round trip, record by record, against both the file
    // line and the reference record's canonical rendering.
    for ((line, p), r) in text.lines().zip(&parsed).zip(&reference) {
        let rendered = p.to_json().render();
        assert_eq!(rendered, line, "parse must reach the render fixpoint");
        assert_eq!(rendered, r.to_json().render(), "file and memory agree");
    }

    // The run exercised every record class the analyzer handles: hops,
    // queue samples and teed flight events (DCQCN's `rate_change` — a
    // 2 ms slow-started incast never reaches XOFF, so pauses are covered
    // by the scenario-level exports instead).
    for kind in ["hop", "queue", "rate_change"] {
        assert!(
            parsed.iter().any(|p| p.kind == kind),
            "trace is missing {kind:?} records"
        );
    }
}

/// Every move of a DCQCN rate is traced once: per QP, the `rate_change`
/// records under its host's scope that name it number what its
/// controller counts (`RdmaHost::qp_rate_changes`) — the cuts a CNP
/// makes and the timer and byte-counter increases alike.
#[test]
fn every_dcqcn_rate_move_is_traced() {
    let mem = MemorySink::new();
    let cl = run_incast(InstrumentationProfile::paper_default().trace_sink(mem.clone()));
    let records = mem.records();
    let mut moves = 0;
    for i in 1..5usize {
        let host = cl.rdma(ServerId(i));
        let scope = format!("nic.{}", host.config().name);
        assert_eq!(host.qp_count(), 1);
        let traced = records
            .iter()
            .filter(|r| r.scope == scope)
            .filter(|r| {
                matches!(
                    r.body,
                    RecordBody::Event(TraceEvent::RateChange { qp: 0, .. })
                )
            })
            .count() as u64;
        assert_eq!(traced, host.qp_rate_changes(QpHandle(0)), "{scope}");
        moves += traced;
    }
    assert_eq!(moves, 184);
    assert_eq!(mem.count_kind("rate_change") as u64, moves);
    // A rate move is one record: the run streams no kind besides these.
    let kinds: std::collections::BTreeSet<_> = records.iter().map(|r| r.body.kind()).collect();
    assert_eq!(kinds, ["hop", "queue", "rate_change"].into());
}

/// The exported bytes themselves are pinned — line count, byte length
/// and a 64-bit FNV-1a digest of the whole file — so where and when the
/// records are encoded (which thread, which batch, which drain point)
/// can never change a byte of the export. Re-pinned once, when ECN
/// marking became a keyed draw: the ramp marks other packets, so the
/// export went from 5 005 lines (4 849 hops, 60 queue samples, 48 rate
/// points, 48 rate changes; 732 613 B) to 4 997 (44 rate points and
/// rate changes, the rest equal). Re-pinned once more when DCQCN's
/// increases began to be traced: 184 rate points and 184 rate changes
/// (44 CNP cuts, 140 timer increases), the 4 849 hops and 60 queue
/// samples unchanged — 5 277 lines (from 731 222 B, FNV-1a
/// 5 875 742 969 836 194 538). Re-pinned when a rate move became one
/// record: the 184 rate-point lines went and each `rate_change` line now
/// carries their fields in their order (`qp`, `rate_mbps`, `cc`,
/// `cause`), so the export is the old one with the old `rate_change`
/// lines removed and the rate points' kind renamed `rate_change` —
/// 5 093 lines (from 764 002 B, FNV-1a 15 530 529 633 463 037 178).
#[test]
fn exported_bytes_are_pinned() {
    let path = temp_path("pinned");
    let sink = JsonlSink::create(path.to_str().unwrap()).unwrap();
    run_incast(InstrumentationProfile::paper_default().trace_sink(sink));
    let bytes = std::fs::read(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    let lines = bytes.iter().filter(|&&b| b == b'\n').count();
    assert_eq!(
        (lines, bytes.len(), fnv1a(&bytes)),
        (5_093, 743_586, 11_708_710_830_650_097_574)
    );
}

/// The hub's JSON export of the same incast — every counter, gauge,
/// histogram, sampled series and flight record — is pinned the same
/// way, so how the hub stores its series and how it writes the export
/// can never change a byte of it. Re-pinned with the JSONL export above
/// (from 58 425 B, FNV-1a 13 918 432 773 278 566 827), and once more
/// when the hub began reading device counters instead of keeping its
/// own: each QP's `dcqcn.rate_changes` reads `SenderCc::rate_changes`,
/// which counts DCQCN's timer increases as well as its cuts, so the four
/// counters went from 11 to 46 each (44 → 184 in all) and their series
/// moved with them; every other byte is unchanged (from 57 937 B, FNV-1a
/// 12 170 321 948 484 211 905). Re-pinned with the JSONL export when
/// DCQCN's increases began to be traced: the flight recorder holds and
/// counts 184 `rate_change` records where it held 44 (its only records),
/// every other byte unchanged
/// (from 57 945 B, FNV-1a 1 281 369 649 921 412 353). Re-pinned when a
/// rate move became one record: each of the 184 flight records gained
/// `"qp":0,` (7 B) and lists its fields as `qp`, `rate_mbps`, `cc`,
/// `cause`; every other field and section is equal (from 75 470 B, FNV-1a
/// 9 137 442 130 623 906 926).
#[test]
fn hub_export_bytes_are_pinned() {
    let cl = run_incast(InstrumentationProfile::paper_default().telemetry(MetricsHub::enabled()));
    let text = cl.telemetry().render_json().render();
    assert_eq!(
        (text.len(), fnv1a(text.as_bytes())),
        (76_758, 9_821_464_603_921_423_846)
    );
    // The pin covers every section with content in it.
    let doc = rocescale_monitor::json::parse(&text).unwrap();
    let nonempty = |key: &str| match doc.get(key) {
        Some(rocescale_monitor::Json::Obj(pairs)) => !pairs.is_empty(),
        _ => false,
    };
    for key in ["counters", "gauges", "histograms", "series"] {
        assert!(nonempty(key), "{key} is empty");
    }
    let flight = doc.get("flight_recorder").unwrap().get("records").unwrap();
    assert!(!flight.as_arr().unwrap().is_empty(), "no flight record");
}

/// The export filter drops classes at the source: a no-hops sink sees
/// trajectories but not a single per-packet record.
#[test]
fn no_hops_filter_is_respected_end_to_end() {
    let mem = MemorySink::new();
    run_incast(
        InstrumentationProfile::paper_default()
            .trace_sink_filtered(mem.clone(), TraceFilter::no_hops()),
    );
    assert_eq!(mem.count_kind("hop"), 0, "hops must be filtered");
    assert!(mem.count_kind("queue") > 0, "queue samples still flow");
    assert!(mem.count_kind("rate_change") > 0, "rate changes still flow");
}
