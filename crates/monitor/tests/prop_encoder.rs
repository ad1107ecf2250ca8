//! Property test on the trace-record encoder: for generated records of
//! every kind, the three encodings of one [`StreamRecord::visit`] walk
//! agree byte for byte —
//!
//! * the text written in place (`write_json`, what `JsonlSink` emits),
//! * the rendered tree (`to_json().render()`),
//! * the re-rendered parse of the line (`parse_line(..).to_json()`),
//!
//! including shard-tagged records and scope names and string fields that
//! need every escape the renderer knows.

use rocescale_monitor::{
    parse_line, HopRecord, JsonlSink, MemorySink, QueueSample, RecordBody, StreamRecord,
    TraceEvent, TraceSink,
};
use rocescale_sim::SimRng;

/// `&'static str` payloads (reasons, causes, controller names): plain,
/// empty, quoted, backslashed, control bytes, non-ASCII.
const WORDS: [&str; 8] = [
    "dcqcn",
    "",
    "Buffer\"Overflow\"",
    "back\\slash\\",
    "tab\there\nnewline\rreturn",
    "ctl\u{1}\u{1f}\u{0}",
    "π→λ",
    "rtt-high",
];

/// Characters scope names are drawn from: the plain ones real scopes
/// use, plus everything `write_str` must escape or pass through.
const SCOPE_CHARS: [char; 16] = [
    's', 'w', '.', '-', '0', '7', '"', '\\', '\n', '\r', '\t', '\u{0}', '\u{1b}', '\u{7f}', 'é',
    '→',
];

fn word(rng: &mut SimRng) -> &'static str {
    WORDS[rng.gen_index(WORDS.len())]
}

/// Mostly small values, sometimes the extremes (0, MAX, digit-count
/// boundaries) the integer writer has to get right.
fn int(rng: &mut SimRng, max: u64) -> u64 {
    match rng.gen_below(8) {
        0 => 0,
        1 => max,
        2 => 10u64.pow(rng.gen_below(20) as u32).min(max),
        3 => (10u64.pow(rng.gen_below(20) as u32) - 1).min(max),
        _ => rng.next_u64() % max.max(1),
    }
}

fn event(rng: &mut SimRng, variant: u64) -> TraceEvent {
    let port = int(rng, u16::MAX as u64) as u16;
    let prio = int(rng, u8::MAX as u64) as u8;
    match variant {
        0 => TraceEvent::Drop { reason: word(rng) },
        1 => TraceEvent::PauseTx { port, prio },
        2 => TraceEvent::PauseRx { port, prio },
        3 => TraceEvent::ResumeTx { port, prio },
        4 => TraceEvent::WatchdogDisabled { port },
        5 => TraceEvent::WatchdogReenabled { port },
        6 => TraceEvent::NicWatchdogFired,
        7 => TraceEvent::Rollback {
            cause: word(rng),
            to_psn: int(rng, u32::MAX as u64) as u32,
            pkts: int(rng, u32::MAX as u64) as u32,
        },
        8 => TraceEvent::RateChange {
            qp: int(rng, u32::MAX as u64) as u32,
            rate_mbps: int(rng, u32::MAX as u64) as u32,
            cc: word(rng),
            cause: word(rng),
        },
        9 => TraceEvent::StormStart,
        10 => TraceEvent::StormStop,
        _ => TraceEvent::DeadlockSuspected {
            cycle_len: int(rng, u16::MAX as u64) as u16,
        },
    }
}
const EVENT_VARIANTS: u64 = 12;

fn body(rng: &mut SimRng, case: u64) -> RecordBody {
    match case {
        0 => RecordBody::Hop(HopRecord {
            port: int(rng, u16::MAX as u64) as u16,
            prio: int(rng, u8::MAX as u64) as u8,
            bytes: int(rng, u32::MAX as u64) as u32,
            src_ip: int(rng, u32::MAX as u64) as u32,
            dst_ip: int(rng, u32::MAX as u64) as u32,
            queue_bytes: int(rng, u64::MAX),
        }),
        1 => RecordBody::Queue(QueueSample {
            backlog_bytes: int(rng, u64::MAX),
            max_port_bytes: int(rng, u64::MAX),
            tx_pkts: int(rng, u64::MAX),
        }),
        n => RecordBody::Event(event(rng, n - 2)),
    }
}

fn scope(rng: &mut SimRng) -> String {
    (0..rng.gen_below(12))
        .map(|_| SCOPE_CHARS[rng.gen_index(SCOPE_CHARS.len())])
        .collect()
}

#[test]
fn text_tree_and_reparse_agree_on_every_kind() {
    let mut rng = SimRng::from_seed(0x7ace);
    let mut kinds = std::collections::BTreeSet::new();
    let mut text = Vec::new();
    for i in 0..6_000u64 {
        // Cycle through every body case so each variant is covered many
        // times whatever the seed; everything else is drawn.
        let scope = scope(&mut rng);
        let rec = StreamRecord {
            t_ps: int(&mut rng, u64::MAX),
            scope: &scope,
            shard: rng
                .gen_bool(0.5)
                .then(|| int(&mut rng, u32::MAX as u64) as u32),
            body: body(&mut rng, i % (2 + EVENT_VARIANTS)),
        };
        kinds.insert(rec.body.kind());

        text.clear();
        rec.write_json(&mut text);
        let line = std::str::from_utf8(&text).expect("the encoder writes UTF-8");
        assert_eq!(line, rec.to_json().render(), "text ≡ tree for {rec:?}");
        let back = parse_line(line).unwrap_or_else(|e| panic!("{e}: {line}"));
        assert_eq!(back.to_json().render(), line, "parse fix-point");
        assert_eq!(back.t_ps, rec.t_ps);
        assert_eq!(back.scope, rec.scope);
        assert_eq!(back.kind, rec.body.kind());
        assert_eq!(
            back.u64_field("shard"),
            rec.shard.map(u64::from),
            "shard tag present exactly when stamped"
        );
    }
    assert_eq!(kinds.len() as u64, 2 + EVENT_VARIANTS, "{kinds:?}");
}

/// What `JsonlSink` hands its writer is the same text, one line per
/// record, and a `MemorySink` copy re-renders to it.
#[test]
fn jsonl_sink_emits_the_visitor_text() {
    use std::sync::{Arc, Mutex};
    #[derive(Clone, Default)]
    struct Shared(Arc<Mutex<Vec<u8>>>);
    impl std::io::Write for Shared {
        fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(b);
            Ok(b.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }
    let out = Shared::default();
    let mem = MemorySink::new();
    let (mut jsonl, mut copy) = (JsonlSink::to_writer(out.clone()), mem.clone());
    let mut rng = SimRng::from_seed(11);
    let mut want = Vec::new();
    for i in 0..500u64 {
        let scope = scope(&mut rng);
        let rec = StreamRecord {
            t_ps: i,
            scope: &scope,
            shard: (i % 3 == 0).then_some(i as u32),
            body: body(&mut rng, i % (2 + EVENT_VARIANTS)),
        };
        jsonl.write(&rec);
        copy.write(&rec);
        rec.write_json(&mut want);
        want.push(b'\n');
    }
    jsonl.flush();
    assert!(jsonl.io_error().is_none());
    assert_eq!(jsonl.records_written(), 500);
    assert_eq!(*out.0.lock().unwrap(), want);
    let want = String::from_utf8(want).unwrap();
    let rerendered: String = mem
        .records()
        .iter()
        .map(|r| r.to_json().render() + "\n")
        .collect();
    assert_eq!(rerendered, want);
}
