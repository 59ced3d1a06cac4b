//! Chrome-trace event collection behind the [`span!`](crate::span)/
//! [`ScopedTimer`](crate::ScopedTimer) API.
//!
//! When tracing is enabled ([`start`]), every span records a *complete*
//! (`"ph": "X"`) event into a per-thread ring buffer on drop — including
//! drops that happen while a panic unwinds, so a trace always shows the
//! work that ran, not just the work that finished. [`to_chrome_json`]
//! exports the buffers as a Chrome `trace_event` document that loads
//! directly in [perfetto](https://ui.perfetto.dev) or `chrome://tracing`.
//!
//! `qjo-exec` integrates at two points:
//!
//! * each `par_map` worker runs under a [`worker_scope`], which places its
//!   slices on a stable **virtual thread track** (`worker-1`, `worker-2`,
//!   …) keyed by worker slot rather than by short-lived OS thread, and
//! * each work unit runs under a [`unit_scope`], which both emits a named
//!   slice (`{caller span path} · unit i`) and maintains the per-thread
//!   **unit path** ([`unit_path`]) that the convergence recorder uses to
//!   key series deterministically.
//!
//! Buffers are rings: when a thread's buffer is full the oldest events are
//! overwritten and counted in [`TraceStats::dropped`], so tracing is
//! bounded-memory no matter how long the run is. All bookkeeping is
//! dependency-free and costs one relaxed atomic load per span when
//! tracing is disabled.

use std::cell::{Cell, RefCell};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::json::Json;

/// Default ring capacity per thread (events), used by the experiments
/// driver: ~64k events × ~100 bytes ≈ 6 MiB per active thread worst-case.
pub const DEFAULT_THREAD_CAPACITY: usize = 1 << 16;

/// Virtual thread-id base for `par_map` worker tracks: worker slot `w`
/// records on tid `WORKER_TID_BASE + w`. Raw threads get small ids
/// allocated from 1, so the bands cannot collide in practice.
pub const WORKER_TID_BASE: u32 = 1000;

/// One completed slice.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Slice name (span path, unit label, or stage label).
    pub name: String,
    /// Start, in nanoseconds since the trace epoch.
    pub ts_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Track id (virtual for `par_map` workers).
    pub tid: u32,
    /// Work-unit index, when the slice is a `par_map` unit.
    pub unit: Option<u64>,
}

#[derive(Debug, Default)]
struct ThreadLog {
    events: Vec<TraceEvent>,
    /// Next overwrite position once `events` reached capacity.
    write_head: usize,
    dropped: u64,
}

struct Shared {
    enabled: AtomicBool,
    capacity: AtomicUsize,
    /// Events currently held across all rings.
    stored: AtomicU64,
    /// High-water mark of `stored`.
    peak: AtomicU64,
    /// Every thread log ever registered; kept alive after thread death so
    /// short-lived worker threads still appear in the export.
    logs: Mutex<Vec<Arc<Mutex<ThreadLog>>>>,
}

fn shared() -> &'static Shared {
    static SHARED: OnceLock<Shared> = OnceLock::new();
    SHARED.get_or_init(|| Shared {
        enabled: AtomicBool::new(false),
        capacity: AtomicUsize::new(DEFAULT_THREAD_CAPACITY),
        stored: AtomicU64::new(0),
        peak: AtomicU64::new(0),
        logs: Mutex::new(Vec::new()),
    })
}

/// The process-wide trace epoch: all timestamps are relative to the first
/// time anyone asked for it (pinned by [`start`]).
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

static NEXT_RAW_TID: AtomicU32 = AtomicU32::new(1);

thread_local! {
    static LOCAL_LOG: RefCell<Option<Arc<Mutex<ThreadLog>>>> = const { RefCell::new(None) };
    /// 0 = not yet assigned; workers override via [`worker_scope`].
    static TID: Cell<u32> = const { Cell::new(0) };
    static UNIT_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

fn current_tid() -> u32 {
    TID.with(|t| {
        if t.get() == 0 {
            t.set(NEXT_RAW_TID.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

/// Enables collection with the given per-thread ring capacity (clamped to
/// at least 1), clearing any previously buffered events.
pub fn start(capacity_per_thread: usize) {
    let s = shared();
    let _ = epoch();
    s.capacity.store(capacity_per_thread.max(1), Ordering::Relaxed);
    for log in s.logs.lock().expect("no panic while holding the trace log list").iter() {
        let mut log = log.lock().expect("no panic while holding a thread log");
        log.events.clear();
        log.write_head = 0;
        log.dropped = 0;
    }
    s.stored.store(0, Ordering::Relaxed);
    s.peak.store(0, Ordering::Relaxed);
    s.enabled.store(true, Ordering::SeqCst);
}

/// Disables collection; buffered events stay available for export.
pub fn stop() {
    shared().enabled.store(false, Ordering::SeqCst);
}

/// Whether spans are currently being collected.
#[inline]
pub fn is_enabled() -> bool {
    shared().enabled.load(Ordering::Relaxed)
}

/// Records one completed slice (no-op while disabled). Called by
/// [`ScopedTimer`](crate::ScopedTimer), [`unit_scope`], and
/// [`slice_scope`] guards on drop.
pub fn record(name: String, start: Instant, end: Instant, unit: Option<u64>) {
    if !is_enabled() {
        return;
    }
    let ep = epoch();
    let ts_ns = saturating_ns(start.checked_duration_since(ep).unwrap_or_default().as_nanos());
    let dur_ns = saturating_ns(end.checked_duration_since(start).unwrap_or_default().as_nanos());
    let event = TraceEvent { name, ts_ns, dur_ns, tid: current_tid(), unit };

    let s = shared();
    let log = LOCAL_LOG.with(|slot| {
        let mut slot = slot.borrow_mut();
        if slot.is_none() {
            let log = Arc::new(Mutex::new(ThreadLog::default()));
            s.logs
                .lock()
                .expect("no panic while holding the trace log list")
                .push(Arc::clone(&log));
            *slot = Some(log);
        }
        Arc::clone(slot.as_ref().expect("just initialised"))
    });
    let mut log = log.lock().expect("no panic while holding a thread log");
    let capacity = s.capacity.load(Ordering::Relaxed);
    if log.events.len() < capacity {
        log.events.push(event);
        let now = s.stored.fetch_add(1, Ordering::Relaxed) + 1;
        s.peak.fetch_max(now, Ordering::Relaxed);
    } else {
        // Ring is full: overwrite the oldest slot.
        if log.write_head >= log.events.len() {
            log.write_head = 0;
        }
        let head = log.write_head;
        log.events[head] = event;
        log.write_head += 1;
        log.dropped += 1;
    }
}

fn saturating_ns(ns: u128) -> u64 {
    u64::try_from(ns).unwrap_or(u64::MAX)
}

/// Collection statistics, for the run manifest's `run.trace` and capacity
/// tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceStats {
    /// Events offered since [`start`] (stored + dropped).
    pub recorded: u64,
    /// Events still buffered.
    pub stored: u64,
    /// Events overwritten by ring wrap-around.
    pub dropped: u64,
    /// High-water mark of buffered events across all threads.
    pub peak_occupancy: u64,
}

/// Current collection statistics.
pub fn stats() -> TraceStats {
    let s = shared();
    let dropped: u64 = s
        .logs
        .lock()
        .expect("no panic while holding the trace log list")
        .iter()
        .map(|log| log.lock().expect("no panic while holding a thread log").dropped)
        .sum();
    let stored = s.stored.load(Ordering::Relaxed);
    TraceStats {
        recorded: stored + dropped,
        stored,
        dropped,
        peak_occupancy: s.peak.load(Ordering::Relaxed),
    }
}

/// Copies out every buffered event, ordered by `(tid, ts, dur desc)` so
/// parents precede children on each track.
pub fn snapshot_events() -> Vec<TraceEvent> {
    let s = shared();
    let logs: Vec<Arc<Mutex<ThreadLog>>> =
        s.logs.lock().expect("no panic while holding the trace log list").clone();
    let mut events = Vec::new();
    for log in logs {
        let log = log.lock().expect("no panic while holding a thread log");
        if log.dropped > 0 {
            // Ring has wrapped: logical order starts at the write head.
            events.extend_from_slice(&log.events[log.write_head..]);
            events.extend_from_slice(&log.events[..log.write_head]);
        } else {
            events.extend_from_slice(&log.events);
        }
    }
    events.sort_by(|a, b| {
        (a.tid, a.ts_ns, std::cmp::Reverse(a.dur_ns), &a.name).cmp(&(
            b.tid,
            b.ts_ns,
            std::cmp::Reverse(b.dur_ns),
            &b.name,
        ))
    });
    events
}

fn track_name(tid: u32) -> String {
    if tid > WORKER_TID_BASE {
        format!("worker-{}", tid - WORKER_TID_BASE)
    } else {
        format!("thread-{tid}")
    }
}

/// Exports all buffered events as a Chrome `trace_event` document
/// (`{"traceEvents": [...]}` with `"ph": "X"` complete events and
/// `thread_name` metadata, timestamps in microseconds).
pub fn to_chrome_json() -> Json {
    let events = snapshot_events();
    let tids: BTreeSet<u32> = events.iter().map(|e| e.tid).collect();
    let mut arr = Vec::with_capacity(events.len() + tids.len());
    for tid in tids {
        let mut args = std::collections::BTreeMap::new();
        args.insert("name".to_string(), Json::from(track_name(tid)));
        let mut meta = std::collections::BTreeMap::new();
        meta.insert("ph".to_string(), Json::from("M"));
        meta.insert("name".to_string(), Json::from("thread_name"));
        meta.insert("pid".to_string(), Json::from(0u64));
        meta.insert("tid".to_string(), Json::from(u64::from(tid)));
        meta.insert("args".to_string(), Json::Obj(args));
        arr.push(Json::Obj(meta));
    }
    for e in events {
        let mut obj = std::collections::BTreeMap::new();
        obj.insert("ph".to_string(), Json::from("X"));
        obj.insert("cat".to_string(), Json::from("qjo"));
        obj.insert("name".to_string(), Json::from(e.name));
        obj.insert("pid".to_string(), Json::from(0u64));
        obj.insert("tid".to_string(), Json::from(u64::from(e.tid)));
        obj.insert("ts".to_string(), Json::from(e.ts_ns as f64 / 1000.0));
        obj.insert("dur".to_string(), Json::from(e.dur_ns as f64 / 1000.0));
        if let Some(unit) = e.unit {
            let mut args = std::collections::BTreeMap::new();
            args.insert("unit".to_string(), Json::from(unit));
            obj.insert("args".to_string(), Json::Obj(args));
        }
        arr.push(Json::Obj(obj));
    }
    let mut doc = std::collections::BTreeMap::new();
    doc.insert("displayTimeUnit".to_string(), Json::from("ms"));
    doc.insert("traceEvents".to_string(), Json::Arr(arr));
    Json::Obj(doc)
}

/// Summary returned by [`validate_chrome_trace`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceCheck {
    /// Slices checked (`X` events plus matched `B`/`E` pairs).
    pub events: usize,
    /// Distinct thread tracks.
    pub threads: usize,
    /// Deepest slice nesting seen on any track.
    pub max_depth: usize,
}

/// Validates that `doc` is a well-formed Chrome trace whose slices nest
/// properly per track: every `X` event lies fully inside any enclosing
/// `X` event on the same tid, and `B`/`E` events pair up with matching
/// names. Metadata (`M`) events are ignored.
pub fn validate_chrome_trace(doc: &Json) -> Result<TraceCheck, String> {
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or_else(|| "document has no traceEvents array".to_string())?;

    // (tid, ts, neg_dur, kind, name); sorting puts longer slices first at
    // equal start times so parents are visited before their children, and
    // `End` before `Begin` so adjacent B/E pairs sharing a timestamp close
    // before the next slice opens.
    #[derive(PartialEq, PartialOrd)]
    enum Kind {
        Complete(f64), // end timestamp
        End,
        Begin,
    }
    let mut by_tid: std::collections::BTreeMap<u64, Vec<(f64, f64, Kind, String)>> =
        std::collections::BTreeMap::new();

    for (i, event) in events.iter().enumerate() {
        let obj = event.as_obj().ok_or_else(|| format!("event {i} is not an object"))?;
        let ph = obj
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i} has no \"ph\" phase field"))?;
        if ph == "M" {
            continue;
        }
        let name = obj
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i} has no name"))?
            .to_string();
        let ts = obj
            .get("ts")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("event {i} ({name}) has no numeric ts"))?;
        let tid = obj.get("tid").and_then(Json::as_u64).unwrap_or(0);
        match ph {
            "X" => {
                let dur = obj
                    .get("dur")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("X event {i} ({name}) has no numeric dur"))?;
                if dur < 0.0 {
                    return Err(format!("X event {i} ({name}) has negative dur {dur}"));
                }
                by_tid.entry(tid).or_default().push((ts, -dur, Kind::Complete(ts + dur), name));
            }
            "B" => by_tid.entry(tid).or_default().push((ts, 0.0, Kind::Begin, name)),
            "E" => by_tid.entry(tid).or_default().push((ts, 0.0, Kind::End, name)),
            other => return Err(format!("event {i} ({name}) has unsupported phase {other:?}")),
        }
    }

    let mut check = TraceCheck { threads: by_tid.len(), ..TraceCheck::default() };
    for (tid, mut track) in by_tid {
        track.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        // Complete-event containment stack and begin/end pairing stack.
        let mut open_x: Vec<(f64, String)> = Vec::new(); // (end, name)
        let mut open_be: Vec<String> = Vec::new();
        for (ts, _, kind, name) in track {
            match kind {
                Kind::Complete(end) => {
                    while open_x.last().is_some_and(|(top_end, _)| *top_end <= ts) {
                        open_x.pop();
                    }
                    if let Some((top_end, top_name)) = open_x.last() {
                        if end > *top_end {
                            return Err(format!(
                                "tid {tid}: slice {name:?} [{ts}, {end}] overlaps enclosing \
                                 {top_name:?} ending at {top_end}"
                            ));
                        }
                    }
                    open_x.push((end, name));
                    check.events += 1;
                    check.max_depth = check.max_depth.max(open_x.len() + open_be.len());
                }
                Kind::Begin => {
                    open_be.push(name);
                    check.max_depth = check.max_depth.max(open_x.len() + open_be.len());
                }
                Kind::End => match open_be.pop() {
                    Some(opened) if opened == name => check.events += 1,
                    Some(opened) => {
                        return Err(format!(
                            "tid {tid}: E event {name:?} closes B event {opened:?}"
                        ))
                    }
                    None => return Err(format!("tid {tid}: E event {name:?} has no open B")),
                },
            }
        }
        if let Some(unclosed) = open_be.last() {
            return Err(format!("tid {tid}: B event {unclosed:?} is never closed"));
        }
    }
    Ok(check)
}

// ---------------------------------------------------------------------------
// Scopes: virtual worker tracks, unit paths, and ad-hoc slices.
// ---------------------------------------------------------------------------

/// Pins this thread's events to the virtual track of `par_map` worker
/// slot `worker` (1-based) until the guard drops.
pub struct WorkerScope {
    prev: u32,
}

/// Enters worker slot `worker`'s virtual thread track.
pub fn worker_scope(worker: u32) -> WorkerScope {
    WorkerScope { prev: TID.replace(WORKER_TID_BASE + worker) }
}

impl Drop for WorkerScope {
    fn drop(&mut self) {
        TID.set(self.prev);
    }
}

/// Replaces this thread's unit path with `prefix` until the guard drops —
/// used by `par_map` workers to inherit the caller's position in nested
/// parallel maps.
pub struct UnitPrefixScope {
    prev: Vec<u64>,
}

/// The current unit path: one index per enclosing `par_map` unit, empty on
/// the main thread outside any unit.
pub fn unit_path() -> Vec<u64> {
    UNIT_STACK.with(|s| s.borrow().clone())
}

/// Installs `prefix` as this thread's unit path.
pub fn unit_prefix_scope(prefix: &[u64]) -> UnitPrefixScope {
    UnitPrefixScope { prev: UNIT_STACK.with(|s| s.replace(prefix.to_vec())) }
}

impl Drop for UnitPrefixScope {
    fn drop(&mut self) {
        UNIT_STACK.with(|s| {
            *s.borrow_mut() = std::mem::take(&mut self.prev);
        });
    }
}

/// One `par_map` work unit: pushes `index` onto the unit path and, when
/// tracing, emits a named slice on drop (surviving unwinds).
pub struct UnitScope {
    label: Option<String>,
    start: Instant,
    index: u64,
}

/// Enters work unit `index` of the map labelled `label` (typically the
/// caller's span path).
pub fn unit_scope(label: &str, index: u64) -> UnitScope {
    UNIT_STACK.with(|s| s.borrow_mut().push(index));
    UnitScope {
        label: is_enabled().then(|| format!("{label} · unit {index}")),
        start: Instant::now(),
        index,
    }
}

impl Drop for UnitScope {
    fn drop(&mut self) {
        if let Some(label) = self.label.take() {
            record(label, self.start, Instant::now(), Some(self.index));
        }
        UNIT_STACK.with(|s| {
            s.borrow_mut().pop();
        });
    }
}

/// An ad-hoc named slice (no histogram, no span stack) — used by the
/// experiments driver for per-stage slices with runtime-built names.
pub struct SliceScope {
    name: String,
    start: Instant,
}

/// Starts a slice named `name`; recorded on drop if tracing is enabled.
pub fn slice_scope(name: impl Into<String>) -> SliceScope {
    SliceScope { name: name.into(), start: Instant::now() }
}

impl Drop for SliceScope {
    fn drop(&mut self) {
        record(std::mem::take(&mut self.name), self.start, Instant::now(), None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let _serial = crate::test_serial();
        start(4);
        // A dedicated thread owns its ring exclusively.
        let tid = std::thread::spawn(|| {
            let t0 = Instant::now();
            for i in 0..10 {
                record(format!("trace-test-ring-{i}"), t0, t0, None);
            }
            current_tid()
        })
        .join()
        .unwrap();
        stop();
        let ours: Vec<TraceEvent> = snapshot_events()
            .into_iter()
            .filter(|e| e.tid == tid && e.name.starts_with("trace-test-ring-"))
            .collect();
        assert_eq!(ours.len(), 4, "{ours:?}");
        // Oldest-first logical order: the last four recorded survive.
        let names: Vec<&str> = ours.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(
            names,
            ["trace-test-ring-6", "trace-test-ring-7", "trace-test-ring-8", "trace-test-ring-9"]
        );
        assert!(stats().dropped >= 6, "{:?}", stats());
    }

    #[test]
    fn disabled_collector_records_nothing() {
        let _serial = crate::test_serial();
        start(16);
        stop();
        record("trace-test-disabled".into(), Instant::now(), Instant::now(), None);
        assert!(snapshot_events().iter().all(|e| e.name != "trace-test-disabled"));
    }

    #[test]
    fn spans_survive_unwinding() {
        let _serial = crate::test_serial();
        start(1 << 10);
        let caught = std::panic::catch_unwind(|| {
            let _span = crate::span!("trace-test-panicking-span");
            panic!("trace-test boom");
        });
        stop();
        assert!(caught.is_err());
        assert!(
            snapshot_events().iter().any(|e| e.name == "trace-test-panicking-span"),
            "span dropped during unwind must still be recorded"
        );
    }

    #[test]
    fn export_roundtrips_and_validates() {
        let _serial = crate::test_serial();
        start(1 << 10);
        {
            let _outer = crate::span!("trace-test-outer");
            std::thread::sleep(std::time::Duration::from_micros(50));
            {
                let _inner = crate::span!("trace-test-inner");
                std::thread::sleep(std::time::Duration::from_micros(50));
            }
            let _w = worker_scope(7);
            let _p = unit_prefix_scope(&[3]);
            let _unit = unit_scope("trace-test-map", 2);
            assert_eq!(unit_path(), vec![3, 2]);
        }
        stop();
        let rendered = to_chrome_json().render();
        let parsed = Json::parse(&rendered).expect("exported trace re-parses");
        let check = validate_chrome_trace(&parsed).expect("exported trace nests");
        assert!(check.events >= 3, "{check:?}");
        assert!(check.threads >= 2, "{check:?}");
        assert!(check.max_depth >= 2, "{check:?}");
        let events = snapshot_events();
        let unit = events
            .iter()
            .find(|e| e.name == "trace-test-map · unit 2")
            .expect("unit slice recorded");
        assert_eq!(unit.tid, WORKER_TID_BASE + 7);
        assert_eq!(unit.unit, Some(2));
        // The inner span nests inside the outer one on the same track.
        let outer = events.iter().find(|e| e.name == "trace-test-outer").unwrap();
        let inner = events.iter().find(|e| e.name == "trace-test-outer/trace-test-inner").unwrap();
        assert_eq!(outer.tid, inner.tid);
        assert!(inner.ts_ns >= outer.ts_ns);
        assert!(inner.ts_ns + inner.dur_ns <= outer.ts_ns + outer.dur_ns);
    }

    #[test]
    fn unit_and_prefix_scopes_restore_state() {
        let prev = unit_path();
        {
            let _p = unit_prefix_scope(&[5]);
            {
                let _u = unit_scope("trace-test-nest", 1);
                assert_eq!(unit_path(), vec![5, 1]);
            }
            assert_eq!(unit_path(), vec![5]);
        }
        assert_eq!(unit_path(), prev);
        assert!(prev.is_empty(), "a test thread starts outside any unit");
    }

    #[test]
    fn validator_rejects_overlapping_slices() {
        let doc = Json::parse(
            r#"{"traceEvents": [
                {"ph": "X", "name": "a", "pid": 0, "tid": 1, "ts": 0, "dur": 10},
                {"ph": "X", "name": "b", "pid": 0, "tid": 1, "ts": 5, "dur": 10}
            ]}"#,
        )
        .unwrap();
        let err = validate_chrome_trace(&doc).expect_err("overlap must be rejected");
        assert!(err.contains("overlaps"), "{err}");
    }

    #[test]
    fn validator_accepts_nested_and_adjacent_slices() {
        let doc = Json::parse(
            r#"{"traceEvents": [
                {"ph": "M", "name": "thread_name", "pid": 0, "tid": 1,
                 "args": {"name": "main"}},
                {"ph": "X", "name": "a", "pid": 0, "tid": 1, "ts": 0, "dur": 10},
                {"ph": "X", "name": "b", "pid": 0, "tid": 1, "ts": 0, "dur": 4},
                {"ph": "X", "name": "c", "pid": 0, "tid": 1, "ts": 4, "dur": 6},
                {"ph": "X", "name": "d", "pid": 0, "tid": 2, "ts": 5, "dur": 10}
            ]}"#,
        )
        .unwrap();
        let check = validate_chrome_trace(&doc).expect("clean trace validates");
        assert_eq!(check.events, 4);
        assert_eq!(check.threads, 2);
        assert_eq!(check.max_depth, 2);
    }

    #[test]
    fn validator_pairs_begin_end_events() {
        let ok = Json::parse(
            r#"{"traceEvents": [
                {"ph": "B", "name": "a", "tid": 1, "ts": 0},
                {"ph": "B", "name": "b", "tid": 1, "ts": 1},
                {"ph": "E", "name": "b", "tid": 1, "ts": 2},
                {"ph": "E", "name": "a", "tid": 1, "ts": 3}
            ]}"#,
        )
        .unwrap();
        assert_eq!(validate_chrome_trace(&ok).unwrap().events, 2);

        for bad in [
            // Crossed pair.
            r#"{"traceEvents": [
                {"ph": "B", "name": "a", "tid": 1, "ts": 0},
                {"ph": "B", "name": "b", "tid": 1, "ts": 1},
                {"ph": "E", "name": "a", "tid": 1, "ts": 2},
                {"ph": "E", "name": "b", "tid": 1, "ts": 3}
            ]}"#,
            // Unclosed begin.
            r#"{"traceEvents": [{"ph": "B", "name": "a", "tid": 1, "ts": 0}]}"#,
            // End with no begin.
            r#"{"traceEvents": [{"ph": "E", "name": "a", "tid": 1, "ts": 0}]}"#,
            // Unsupported phase.
            r#"{"traceEvents": [{"ph": "Q", "name": "a", "tid": 1, "ts": 0}]}"#,
            // Not an object.
            r#"{"traceEvents": [42]}"#,
            // No traceEvents at all.
            r#"{"other": []}"#,
        ] {
            let doc = Json::parse(bad).unwrap();
            assert!(validate_chrome_trace(&doc).is_err(), "accepted {bad}");
        }
    }

    #[test]
    fn stats_track_stored_and_peak() {
        let _serial = crate::test_serial();
        start(1 << 10);
        let t0 = Instant::now();
        record("trace-test-stats-1".into(), t0, t0, None);
        record("trace-test-stats-2".into(), t0, t0, None);
        stop();
        let s = stats();
        assert!(s.stored >= 2, "{s:?}");
        assert!(s.peak_occupancy >= 2, "{s:?}");
        assert_eq!(s.recorded, s.stored + s.dropped);
    }
}
