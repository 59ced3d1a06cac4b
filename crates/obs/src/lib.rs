//! Observability for the qjo workspace.
//!
//! The pipeline (formulate → QUBO → transpile/anneal → sample → decode) is
//! instrumented with three metric kinds, all held in a process-global,
//! thread-safe [`Registry`]:
//!
//! * **Counters** — monotonically increasing `u64`s (restarts run, reads
//!   taken, trajectories simulated, SWAPs inserted, …).
//! * **Gauges** — last-written `f64`s for quantities that are levels, not
//!   totals (chain-break fraction of the most recent job, …).
//! * **Histograms** — log-linear duration distributions (four buckets per
//!   decade of nanoseconds), fed by [`ScopedTimer`]/[`span!`].
//!
//! # Determinism
//!
//! All instrumented code in this workspace runs its Monte-Carlo work units
//! through `qjo-exec`'s order-preserving `par_map`, and every counter is
//! incremented with a **commutative** merge (an atomic add of a per-unit
//! total). The final counter values therefore depend only on the set of
//! work units executed — never on thread count or scheduling — so a run
//! manifest built from a [`Snapshot`] is identical at any `Parallelism`
//! setting, apart from wall-clock duration fields. Gauges are only written
//! at deterministic reduction points (after a `par_map` returns), which
//! preserves the same property.
//!
//! # Overhead
//!
//! Instrumentation is deliberately coarse-grained: one span per pipeline
//! pass and one counter add per restart/read/trajectory (bulk-added, e.g.
//! `sweeps × 1` per restart rather than `1 × sweeps`). The [`counter!`]
//! macro caches the registry handle in a `static`, so a hot call site
//! costs one relaxed atomic add. Measured overhead on the full
//! `experiments all` sweep is well under the 2% budget.
//!
//! ```
//! use qjo_obs::counter;
//!
//! {
//!     let _span = qjo_obs::span!("example.outer");
//!     counter!("example.widgets").add(3);
//! }
//! let snap = qjo_obs::global().snapshot();
//! assert!(snap.counters["example.widgets"] >= 3);
//! assert!(snap.histograms["example.outer"].count >= 1);
//! ```

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

pub mod convergence;
pub mod json;
pub mod log;
pub mod manifest;
pub mod trace;

/// Upper bounds (inclusive, nanoseconds) of the duration-histogram
/// buckets: quarter-decade (log-linear), four per decade, `round(10^(k/4))`
/// — 1, 2, 3, 6, 10, 18, 32, 56, 100, … — so a percentile resolved to a
/// bucket's upper bound over-estimates by at most about 1.78×.
///
/// Built from exact `f64` constants and IEEE multiplies only, so the table
/// is identical on every platform. Index 0 is the exact-zero bucket; the
/// last entry is a `u64::MAX` catch-all.
fn bucket_bounds() -> &'static [u64] {
    static BOUNDS: OnceLock<Vec<u64>> = OnceLock::new();
    BOUNDS.get_or_init(|| {
        // 10^(k/4) for k = 0..4: the within-decade multipliers.
        const FRACS: [f64; 4] =
            [1.0, 1.778_279_410_038_922_8, 3.162_277_660_168_379_5, 5.623_413_251_903_491];
        let mut bounds = vec![0u64];
        'decades: for decade in 0..20i32 {
            let scale = 10f64.powi(decade);
            for frac in FRACS {
                let bound = (frac * scale).round();
                if bound >= u64::MAX as f64 {
                    break 'decades;
                }
                // Small decades collide after rounding (1.778 → 2 vs
                // 3.162 → 3 is fine, but 10^0 rounds into itself): keep
                // the bounds strictly increasing.
                if bound as u64 > *bounds.last().expect("non-empty") {
                    bounds.push(bound as u64);
                }
            }
        }
        bounds.push(u64::MAX);
        bounds
    })
}

/// Index of the bucket a duration of `ns` nanoseconds falls into.
#[inline]
fn bucket_index(ns: u64) -> usize {
    bucket_bounds().partition_point(|&b| b < ns)
}

/// A monotonically increasing counter handle.
///
/// Cheap to clone; all clones share the underlying atomic.
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-writer-wins `f64` gauge handle.
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Lock-free quarter-decade-bucketed duration histogram.
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    sum_ns: AtomicU64,
    buckets: Vec<AtomicU64>,
}

impl Histogram {
    /// Creates an empty histogram (prefer the registry's
    /// [`Registry::histogram`] for named metrics).
    pub fn new() -> Self {
        Histogram {
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            buckets: bucket_bounds().iter().map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Records one observation of `ns` nanoseconds.
    #[inline]
    pub fn record_ns(&self, ns: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.buckets[bucket_index(ns)].fetch_add(1, Ordering::Relaxed);
    }

    fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum_ns: self.sum_ns.load(Ordering::Relaxed),
            buckets: self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
        }
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

/// A point-in-time copy of one histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Observations recorded.
    pub count: u64,
    /// Total nanoseconds across all observations.
    pub sum_ns: u64,
    /// Per-bucket observation counts, one per quarter-decade bucket.
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Mean observation in milliseconds (0 when empty).
    pub fn mean_ms(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.count as f64 / 1e6
        }
    }

    /// The `q`-quantile (`0 < q <= 1`) in nanoseconds, resolved to the
    /// **upper bound** of the bucket holding that observation — an
    /// over-estimate by at most the bucket resolution, about 1.78×.
    /// Returns 0 when the histogram is empty.
    pub fn percentile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cumulative = 0u64;
        for (bucket, &observations) in self.buckets.iter().enumerate() {
            cumulative += observations;
            if cumulative >= target {
                return bucket_bounds().get(bucket).copied().unwrap_or(u64::MAX);
            }
        }
        u64::MAX
    }

    /// [`Self::percentile_ns`] in milliseconds.
    pub fn percentile_ms(&self, q: f64) -> f64 {
        self.percentile_ns(q) as f64 / 1e6
    }
}

/// A thread-safe metrics registry.
///
/// Use [`global`] for the process-wide instance the [`counter!`],
/// [`gauge!`], and [`span!`] macros feed; constructing private instances
/// is mainly useful in tests.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Counter>>,
    gauges: Mutex<BTreeMap<String, Gauge>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Returns (registering on first use) the counter `name`.
    pub fn counter(&self, name: &str) -> Counter {
        let mut map = self.counters.lock().expect("no panic while holding the counter map");
        if let Some(c) = map.get(name) {
            return c.clone();
        }
        let c = Counter(Arc::new(AtomicU64::new(0)));
        map.insert(name.to_string(), c.clone());
        c
    }

    /// Returns (registering on first use) the gauge `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut map = self.gauges.lock().expect("no panic while holding the gauge map");
        if let Some(g) = map.get(name) {
            return g.clone();
        }
        let g = Gauge(Arc::new(AtomicU64::new(0f64.to_bits())));
        map.insert(name.to_string(), g.clone());
        g
    }

    /// Returns (registering on first use) the histogram `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut map = self.histograms.lock().expect("no panic while holding the histogram map");
        if let Some(h) = map.get(name) {
            return Arc::clone(h);
        }
        let h = Arc::new(Histogram::new());
        map.insert(name.to_string(), Arc::clone(&h));
        h
    }

    /// A consistent point-in-time copy of every metric.
    pub fn snapshot(&self) -> Snapshot {
        let counters = self
            .counters
            .lock()
            .expect("no panic while holding the counter map")
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let gauges = self
            .gauges
            .lock()
            .expect("no panic while holding the gauge map")
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let histograms = self
            .histograms
            .lock()
            .expect("no panic while holding the histogram map")
            .iter()
            .map(|(k, v)| (k.clone(), v.snapshot()))
            .collect();
        Snapshot { counters, gauges, histograms }
    }
}

/// A point-in-time copy of a [`Registry`].
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram snapshots by span path.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl Snapshot {
    /// Counter increments since `earlier` (names absent from `earlier`
    /// count from zero; zero deltas are omitted).
    pub fn counter_deltas_since(&self, earlier: &Snapshot) -> BTreeMap<String, u64> {
        self.counters
            .iter()
            .filter_map(|(name, &now)| {
                let before = earlier.counters.get(name).copied().unwrap_or(0);
                (now > before).then(|| (name.clone(), now - before))
            })
            .collect()
    }
}

/// The process-global registry.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// Shorthand for [`global`]`().counter(name)`. Prefer the [`counter!`]
/// macro on hot paths — it caches the handle in a `static`.
pub fn counter(name: &str) -> Counter {
    global().counter(name)
}

/// Shorthand for [`global`]`().gauge(name)`.
pub fn gauge(name: &str) -> Gauge {
    global().gauge(name)
}

thread_local! {
    static SPAN_STACK: std::cell::RefCell<Vec<&'static str>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// This thread's current `outer/inner` span path (empty outside any
/// span). `qjo-exec` uses it to label `par_map` unit slices after the
/// span that launched the map.
pub fn current_span_path() -> String {
    SPAN_STACK.with(|stack| stack.borrow().join("/"))
}

/// RAII wall-clock timer: records the elapsed time into the global
/// registry's histogram for this span's path when dropped.
///
/// Spans nest per thread: a `ScopedTimer` created while another is alive
/// on the same thread records under `"outer/inner"`. Worker threads (e.g.
/// inside `par_map`) start at the root — cross-thread parenting is
/// intentionally not tracked, so instrument at the call site that owns the
/// wall-clock story.
#[derive(Debug)]
pub struct ScopedTimer {
    path: String,
    start: Instant,
}

impl ScopedTimer {
    /// Starts a span named `name` (a `'static` name keeps the per-thread
    /// stack allocation-free).
    pub fn new(name: &'static str) -> Self {
        let path = SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            stack.push(name);
            stack.join("/")
        });
        ScopedTimer { path, start: Instant::now() }
    }

    /// The full `outer/inner` path this span records under.
    pub fn path(&self) -> &str {
        &self.path
    }
}

impl Drop for ScopedTimer {
    fn drop(&mut self) {
        let end = Instant::now();
        let ns = u64::try_from((end - self.start).as_nanos()).unwrap_or(u64::MAX);
        global().histogram(&self.path).record_ns(ns);
        // Record-on-drop: this also runs while a panic unwinds, so traces
        // show spans that died, not just spans that finished.
        if trace::is_enabled() {
            trace::record(std::mem::take(&mut self.path), self.start, end, None);
        }
        SPAN_STACK.with(|stack| {
            stack.borrow_mut().pop();
        });
    }
}

/// Starts a [`ScopedTimer`]; bind it to keep the span open:
/// `let _span = qjo_obs::span!("transpile.route");`.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::ScopedTimer::new($name)
    };
}

/// Returns the global counter `$name`, caching the handle in a `static`
/// so repeated calls cost one relaxed atomic add.
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<$crate::Counter> = ::std::sync::OnceLock::new();
        HANDLE.get_or_init(|| $crate::counter($name))
    }};
}

/// Returns the global gauge `$name`, caching the handle in a `static`.
#[macro_export]
macro_rules! gauge {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<$crate::Gauge> = ::std::sync::OnceLock::new();
        HANDLE.get_or_init(|| $crate::gauge($name))
    }};
}

/// 64-bit FNV-1a hash of `bytes` — the workspace's dependency-free content
/// hash for run-manifest artifact fingerprints.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// [`fnv1a64`] as the fixed-width hex string stored in manifests.
pub fn fnv1a64_hex(bytes: &[u8]) -> String {
    format!("{:016x}", fnv1a64(bytes))
}

/// Serialises tests that mutate process-global telemetry state (trace
/// collector, convergence recorder, log level): the test binary runs
/// tests on concurrent threads.
#[cfg(test)]
pub(crate) fn test_serial() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_share_state() {
        let reg = Registry::new();
        let a = reg.counter("x");
        let b = reg.counter("x");
        a.add(2);
        b.incr();
        assert_eq!(reg.counter("x").get(), 3);
        assert_eq!(reg.snapshot().counters["x"], 3);
    }

    #[test]
    fn gauges_keep_the_last_write() {
        let reg = Registry::new();
        reg.gauge("g").set(0.25);
        reg.gauge("g").set(0.75);
        assert_eq!(reg.snapshot().gauges["g"], 0.75);
    }

    #[test]
    fn histogram_buckets_are_quarter_decades() {
        // Zero bucket, then round(10^(k/4)): 1, 2, 3, 6, 10, 18, 32, 56, …
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 3);
        assert_eq!(bucket_index(4), 4);
        assert_eq!(bucket_index(6), 4);
        assert_eq!(bucket_index(7), 5);
        assert_eq!(bucket_index(10), 5);
        // The table covers the full u64 range with a MAX catch-all, and its
        // bounds strictly increase (no empty or overlapping buckets).
        let bounds = bucket_bounds();
        assert_eq!(bounds.last(), Some(&u64::MAX));
        assert_eq!(bucket_index(u64::MAX), bounds.len() - 1);
        assert!(bounds.windows(2).all(|w| w[0] < w[1]), "{bounds:?}");
        // Resolution: each decade is cut four ways, so below the catch-all
        // no bucket's upper bound exceeds its smallest member by 1.78×.
        for w in bounds[..bounds.len() - 1].windows(2) {
            let overstatement = w[1] as f64 / (w[0] + 1) as f64;
            assert!(overstatement < 1.78, "bucket ({}, {}]", w[0], w[1]);
        }
        let h = Histogram::new();
        h.record_ns(0);
        h.record_ns(3);
        h.record_ns(3);
        let snap = h.snapshot();
        assert_eq!(snap.count, 3);
        assert_eq!(snap.sum_ns, 6);
        assert_eq!(snap.buckets.len(), bounds.len());
        assert_eq!(snap.buckets[0], 1);
        assert_eq!(snap.buckets[3], 2);
        assert_eq!(snap.mean_ms(), 6.0 / 3.0 / 1e6);
    }

    #[test]
    fn percentiles_resolve_to_bucket_upper_bounds() {
        let h = Histogram::new();
        // Buckets: 1 → [1,1]; 4,6 → [4,6]; 7 → [7,10].
        for ns in [1, 4, 6, 7] {
            h.record_ns(ns);
        }
        let snap = h.snapshot();
        // Rank ceil(0.25·4) = 1 lands in bucket [1,1].
        assert_eq!(snap.percentile_ns(0.25), 1);
        // Ranks 2 and 3 land in bucket [4,6].
        assert_eq!(snap.percentile_ns(0.5), 6);
        assert_eq!(snap.percentile_ns(0.75), 6);
        // Ranks beyond land in bucket [7,10].
        assert_eq!(snap.percentile_ns(0.9), 10);
        assert_eq!(snap.percentile_ns(1.0), 10);
        assert_eq!(snap.percentile_ms(1.0), 10.0 / 1e6);
        // A sub-millisecond latency: 0.45 ms resolves to 10^5.75 ns.
        let h = Histogram::new();
        h.record_ns(450_000);
        assert_eq!(h.snapshot().percentile_ns(0.5), 562_341);
    }

    #[test]
    fn percentile_edge_cases() {
        let h = Histogram::new();
        assert_eq!(h.snapshot().percentile_ns(0.5), 0, "empty histogram");
        h.record_ns(0);
        assert_eq!(h.snapshot().percentile_ns(0.5), 0, "zero bucket");
        h.record_ns(u64::MAX);
        assert_eq!(h.snapshot().percentile_ns(1.0), u64::MAX, "top bucket");
        // A tiny q still resolves to the first occupied bucket.
        assert_eq!(h.snapshot().percentile_ns(1e-9), 0);
    }

    #[test]
    fn current_span_path_tracks_the_stack() {
        assert_eq!(current_span_path(), "");
        let _outer = ScopedTimer::new("obs-test-path-outer");
        assert_eq!(current_span_path(), "obs-test-path-outer");
        {
            let _inner = ScopedTimer::new("obs-test-path-inner");
            assert_eq!(current_span_path(), "obs-test-path-outer/obs-test-path-inner");
        }
        assert_eq!(current_span_path(), "obs-test-path-outer");
    }

    #[test]
    fn counter_totals_are_thread_order_independent() {
        // The determinism contract: concurrent commutative adds reach the
        // same total as any sequential interleaving.
        let reg = Registry::new();
        std::thread::scope(|scope| {
            for t in 0..8 {
                let c = reg.counter("total");
                scope.spawn(move || {
                    for _ in 0..1000 {
                        c.add(t + 1);
                    }
                });
            }
        });
        assert_eq!(reg.counter("total").get(), 1000 * (1..=8).sum::<u64>());
    }

    #[test]
    fn snapshot_deltas_subtract_earlier_values() {
        let reg = Registry::new();
        reg.counter("a").add(5);
        let before = reg.snapshot();
        reg.counter("a").add(2);
        reg.counter("b").incr();
        let deltas = reg.snapshot().counter_deltas_since(&before);
        assert_eq!(deltas["a"], 2);
        assert_eq!(deltas["b"], 1);
        assert!(!deltas.contains_key("c"));
    }

    #[test]
    fn spans_nest_into_slash_paths() {
        {
            let outer = ScopedTimer::new("obs-test-outer");
            assert_eq!(outer.path(), "obs-test-outer");
            {
                let inner = ScopedTimer::new("obs-test-inner");
                assert_eq!(inner.path(), "obs-test-outer/obs-test-inner");
            }
        }
        let snap = global().snapshot();
        assert!(snap.histograms["obs-test-outer"].count >= 1);
        assert!(snap.histograms["obs-test-outer/obs-test-inner"].count >= 1);
    }

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(fnv1a64_hex(b""), "cbf29ce484222325");
    }

    #[test]
    fn macros_feed_the_global_registry() {
        counter!("obs-test-macro-counter").add(4);
        gauge!("obs-test-macro-gauge").set(1.5);
        let snap = global().snapshot();
        assert!(snap.counters["obs-test-macro-counter"] >= 4);
        assert_eq!(snap.gauges["obs-test-macro-gauge"], 1.5);
    }
}
