//! The attached sink's writer thread.
//!
//! Encoding a record for a sink — JSON text for a [`JsonlSink`], an owned
//! copy for a [`MemorySink`] — costs several times what producing it
//! does, so the hub never calls a sink on the thread that emits. The
//! emitting side appends the raw `Copy` record (time, [`ScopeId`],
//! [`RecordBody`]) to a batch; a full batch goes to a thread spawned for
//! the sink, which resolves scope names and calls [`TraceSink::write`]
//! for each record in emission order.
//!
//! Batches come from a pool of [`SINK_POOL_BATCHES`] allocated when the
//! sink is attached: the emitting side fills one, the others are queued
//! for the writer, being written, or free. When none is free the emitting
//! side waits, so a slow sink holds the simulation back instead of
//! growing a queue, and memory stays fixed.
//!
//! A panic in the sink is caught on the writer thread, which then stops;
//! the emitting side re-raises it, with the sink's message, at its next
//! hand-off or drain.
//!
//! [`JsonlSink`]: crate::JsonlSink
//! [`MemorySink`]: crate::MemorySink

use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::{self, JoinHandle};

use crate::sink::{RecordBody, StreamRecord, TraceSink};
use crate::telemetry::{Paths, ScopeId};

/// Records per batch handed from the emitting thread to the writer.
pub const SINK_BATCH_RECORDS: usize = 2048;

/// Batches in a writer's pool: at most `SINK_POOL_BATCHES ×
/// SINK_BATCH_RECORDS` records are emitted but not yet written.
pub const SINK_POOL_BATCHES: usize = 4;

/// The writer's stack. Set explicitly so that spawning never reads
/// `RUST_MIN_STACK`, whose first read allocates once per process.
const WRITER_STACK: usize = 256 << 10;

/// One record as emitted: nothing resolved, nothing encoded.
#[derive(Clone, Copy)]
struct RawRecord {
    t_ps: u64,
    scope: ScopeId,
    body: RecordBody,
}

// The emitter copies one record per call under the emission lock, and the
// pool preallocates `SINK_POOL_BATCHES × SINK_BATCH_RECORDS` of them.
const _: () = assert!(std::mem::size_of::<RawRecord>() == 64);

type Batch = Vec<RawRecord>;

/// What the two sides share, under the lane's mutex.
struct LaneState {
    /// Full batches in emission order, waiting for the writer.
    queued: VecDeque<Batch>,
    /// Empty batches.
    free: Vec<Batch>,
    /// Flushes the emitting side asked for.
    flushes_asked: u64,
    /// Flushes the writer finished: each covers every batch queued
    /// before it was asked for.
    flushes_done: u64,
    /// No more work will come: the writer exits once the queue is empty.
    closed: bool,
    /// The message the sink panicked with; the writer has stopped.
    panicked: Option<String>,
}

struct Lane {
    state: Mutex<LaneState>,
    /// Wakes the writer: a batch was queued, a flush asked for, or the
    /// lane closed.
    work: Condvar,
    /// Wakes the emitting side: a batch came back, a flush finished, or
    /// the sink panicked.
    done: Condvar,
}

impl Lane {
    /// No code panics while holding the lane's lock: sink calls run
    /// outside it.
    fn lock(&self) -> MutexGuard<'_, LaneState> {
        self.state.lock().expect("the lane is never poisoned")
    }

    fn wait<'a>(&self, cv: &Condvar, st: MutexGuard<'a, LaneState>) -> MutexGuard<'a, LaneState> {
        cv.wait(st).expect("the lane is never poisoned")
    }
}

/// The emitting side of an attached sink: the batch being filled and the
/// writer thread, which owns the sink until [`SinkWriter::close`]
/// returns it. Only one thread at a time uses it (the hub keeps it under
/// its emission mutex), so every wake-up has one waiter.
pub(crate) struct SinkWriter {
    batch: Batch,
    lane: Arc<Lane>,
    thread: JoinHandle<Box<dyn TraceSink>>,
}

impl SinkWriter {
    /// Allocate the pool and spawn the writer for `sink`; it resolves
    /// scopes through `names`, the hub's scope table.
    pub(crate) fn spawn(sink: Box<dyn TraceSink>, names: Arc<Mutex<Paths>>) -> SinkWriter {
        let batch = || Vec::with_capacity(SINK_BATCH_RECORDS);
        let lane = Arc::new(Lane {
            state: Mutex::new(LaneState {
                queued: VecDeque::with_capacity(SINK_POOL_BATCHES),
                free: (1..SINK_POOL_BATCHES).map(|_| batch()).collect(),
                flushes_asked: 0,
                flushes_done: 0,
                closed: false,
                panicked: None,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
        });
        let theirs = lane.clone();
        let thread = thread::Builder::new()
            .name("trace-sink".to_string())
            .stack_size(WRITER_STACK)
            .spawn(move || write_loop(sink, &theirs, &names))
            .expect("spawn the trace sink's writer thread");
        SinkWriter {
            batch: batch(),
            lane,
            thread,
        }
    }

    /// Append one record, handing the batch over when it is full. `Err`
    /// carries the sink's panic message.
    #[inline]
    pub(crate) fn push(
        &mut self,
        t_ps: u64,
        scope: ScopeId,
        body: RecordBody,
    ) -> Result<(), String> {
        self.batch.push(RawRecord { t_ps, scope, body });
        if self.batch.len() == SINK_BATCH_RECORDS {
            self.hand_off()
        } else {
            Ok(())
        }
    }

    /// Queue the batch being filled for the writer and take an empty one,
    /// waiting while the pool has none.
    fn hand_off(&mut self) -> Result<(), String> {
        let mut st = self.lane.lock();
        loop {
            if let Some(msg) = &st.panicked {
                return Err(msg.clone());
            }
            if let Some(empty) = st.free.pop() {
                st.queued
                    .push_back(std::mem::replace(&mut self.batch, empty));
                self.lane.work.notify_one();
                return Ok(());
            }
            st = self.lane.wait(&self.lane.done, st);
        }
    }

    /// Have the writer write every record pushed so far and flush the
    /// sink; returns once it has.
    pub(crate) fn flush(&mut self) -> Result<(), String> {
        if !self.batch.is_empty() {
            self.hand_off()?;
        }
        let mut st = self.lane.lock();
        st.flushes_asked += 1;
        let ticket = st.flushes_asked;
        self.lane.work.notify_one();
        while st.flushes_done < ticket {
            if let Some(msg) = &st.panicked {
                return Err(msg.clone());
            }
            st = self.lane.wait(&self.lane.done, st);
        }
        Ok(())
    }

    /// Flush, stop the writer thread and take the sink back.
    pub(crate) fn close(mut self) -> Result<Box<dyn TraceSink>, String> {
        let flushed = self.flush();
        self.lane.lock().closed = true;
        self.lane.work.notify_one();
        let sink = self
            .thread
            .join()
            .expect("the writer thread catches the sink's panics");
        flushed.map(|()| sink)
    }
}

/// The writer thread: write queued batches in order and run flushes
/// until the lane closes, then give the sink back. Of the hub's locks it
/// takes only the scope table's, once per batch. A scope's name is
/// rendered into one buffer, again only when the scope changes from one
/// record to the next.
fn write_loop(
    mut sink: Box<dyn TraceSink>,
    lane: &Lane,
    names: &Mutex<Paths>,
) -> Box<dyn TraceSink> {
    let mut scope = (ScopeId::sentinel(), Vec::new());
    let mut st = lane.lock();
    loop {
        let asked = st.flushes_asked;
        let next = st.queued.pop_front();
        let outcome = if let Some(mut batch) = next {
            drop(st);
            let names = names.lock().expect("no panic while registering a scope");
            let outcome = catch(|| {
                for r in &batch {
                    if r.scope != scope.0 || scope.1.is_empty() {
                        scope.0 = r.scope;
                        scope.1.clear();
                        names.write(r.scope, &mut scope.1);
                    }
                    sink.write(&StreamRecord {
                        t_ps: r.t_ps,
                        scope: std::str::from_utf8(&scope.1).expect("scope names are strs"),
                        // Direct emission never knows its shard; the
                        // sharded merge stamps the tag when moving bank
                        // records into the final sink.
                        shard: None,
                        body: r.body,
                    });
                }
            });
            drop(names);
            batch.clear();
            st = lane.lock();
            st.free.push(batch);
            outcome
        } else if st.flushes_done < asked {
            drop(st);
            let outcome = catch(|| sink.flush());
            st = lane.lock();
            st.flushes_done = asked;
            outcome
        } else if st.closed {
            return sink;
        } else {
            st = lane.wait(&lane.work, st);
            continue;
        };
        let stop = outcome.is_err();
        st.panicked = outcome.err();
        lane.done.notify_one();
        if stop {
            return sink;
        }
    }
}

/// Run `f`, turning a panic into its message. The unwind stops here, so
/// a lock held around the call is not poisoned.
fn catch(f: impl FnOnce()) -> Result<(), String> {
    panic::catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
        match (
            payload.downcast_ref::<&str>(),
            payload.downcast_ref::<String>(),
        ) {
            (Some(s), _) => s.to_string(),
            (_, Some(s)) => s.clone(),
            _ => "a non-string panic payload".to_string(),
        }
    })
}
