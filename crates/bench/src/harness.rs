//! The registry of `--trace-out` exports that lets `main` fail on an
//! incomplete file.

use std::sync::{Arc, Mutex};

use rocescale_monitor::{IoErrorLatch, JsonlSink};

/// The `--trace-out` files a run opened, each with the latch that says
/// whether it was written completely. A scenario hands its sink to the
/// cluster and both are gone by the time the run returns; this is what
/// lets `main` still find out that the disk filled up, and fail.
#[derive(Debug, Clone, Default)]
pub struct TraceExports(Arc<Mutex<Vec<(String, IoErrorLatch)>>>);

impl TraceExports {
    /// Create the JSONL sink streaming to `path` and keep its error
    /// latch.
    pub fn create(&self, path: &str) -> std::io::Result<JsonlSink> {
        let sink = JsonlSink::create(path)?;
        self.0
            .lock()
            .expect("no panic while registering an export")
            .push((path.to_string(), sink.error_latch()));
        Ok(sink)
    }

    /// Whether any export was opened.
    pub fn opened(&self) -> bool {
        !self
            .0
            .lock()
            .expect("no panic while registering an export")
            .is_empty()
    }

    /// `"path: error"` for the first export that met an I/O error.
    pub fn failure(&self) -> Option<String> {
        let exports = self.0.lock().expect("no panic while registering an export");
        exports
            .iter()
            .find_map(|(path, latch)| latch.get().map(|e| format!("{path}: {e}")))
    }

    /// For `main`, after its runs: report an incomplete
    /// export on stderr and exit non-zero.
    pub fn exit_on_failure(&self) {
        if let Some(msg) = self.failure() {
            eprintln!("trace export incomplete, I/O error on {msg}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An export whose device fills up mid-run is reported by path; one
    /// that was written completely is not. (`/dev/full` accepts the open
    /// and fails every write with ENOSPC.)
    #[test]
    fn trace_exports_report_the_failed_file() {
        use rocescale_monitor::{QueueSample, RecordBody, StreamRecord, TraceSink};
        let exports = TraceExports::default();
        let ok_path = std::env::temp_dir().join(format!("rocescale-ok-{}", std::process::id()));
        let mut ok = exports.create(ok_path.to_str().unwrap()).unwrap();
        let mut full = exports.create("/dev/full").unwrap();
        let rec = StreamRecord {
            t_ps: 1,
            scope: "switch.t0",
            shard: None,
            body: RecordBody::Queue(QueueSample {
                backlog_bytes: 0,
                max_port_bytes: 0,
                tx_pkts: 0,
            }),
        };
        ok.write(&rec);
        ok.flush();
        assert_eq!(exports.failure(), None);
        // The file's BufWriter holds the line until the flush.
        full.write(&rec);
        full.flush();
        let msg = exports.failure().expect("ENOSPC must surface");
        assert!(msg.starts_with("/dev/full: "), "{msg}");
        let _ = std::fs::remove_file(ok_path);
    }
}
