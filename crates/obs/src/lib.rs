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
//! * **Histograms** — log-bucketed (powers of two of nanoseconds) duration
//!   distributions, fed by [`ScopedTimer`]/[`span!`].
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

/// Number of log2 buckets in a duration histogram: bucket `b` counts
/// durations with `floor(log2(ns)) + 1 == b` (bucket 0 holds exact zeros),
/// so the full `u64` nanosecond range is covered.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// How a [`Histogram`] buckets nanosecond durations.
///
/// [`BucketMode::Log2`] is the default everywhere (and what the committed
/// BENCH.json percentiles were baselined against); its resolution is a
/// factor of 2. [`BucketMode::QuarterDecade`] is log-linear — four buckets
/// per decade, upper bounds `round(10^(k/4))` — for a ~1.33× resolution on
/// sub-millisecond serving latencies without re-baselining anything that
/// stays log2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BucketMode {
    /// Powers-of-two buckets (bucket `b` holds `[2^(b-1), 2^b - 1]`).
    #[default]
    Log2,
    /// Quarter-decade (log-linear) buckets: `round(10^(k/4))` upper bounds.
    QuarterDecade,
}

/// Upper bounds (inclusive, nanoseconds) of the quarter-decade buckets.
///
/// Built from exact `f64` constants and IEEE multiplies only, so the table
/// is identical on every platform. Index 0 is the exact-zero bucket; the
/// last entry is a `u64::MAX` catch-all.
fn quarter_decade_bounds() -> &'static [u64] {
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

impl BucketMode {
    /// Number of buckets a histogram in this mode carries.
    pub fn bucket_count(self) -> usize {
        match self {
            BucketMode::Log2 => HISTOGRAM_BUCKETS,
            BucketMode::QuarterDecade => quarter_decade_bounds().len(),
        }
    }

    /// Index of the bucket a duration of `ns` nanoseconds falls into.
    #[inline]
    pub fn bucket_index(self, ns: u64) -> usize {
        match self {
            BucketMode::Log2 => (64 - ns.leading_zeros()) as usize,
            BucketMode::QuarterDecade => quarter_decade_bounds().partition_point(|&b| b < ns),
        }
    }

    /// Inclusive upper bound of bucket `bucket`, in nanoseconds — what
    /// [`HistogramSnapshot::percentile_ns`] resolves quantiles to.
    pub fn bucket_upper_bound_ns(self, bucket: usize) -> u64 {
        match self {
            BucketMode::Log2 => match bucket {
                0 => 0,
                64.. => u64::MAX,
                b => (1u64 << b) - 1,
            },
            BucketMode::QuarterDecade => {
                quarter_decade_bounds().get(bucket).copied().unwrap_or(u64::MAX)
            }
        }
    }

    /// Lower-case name used in snapshots and docs.
    pub fn name(self) -> &'static str {
        match self {
            BucketMode::Log2 => "log2",
            BucketMode::QuarterDecade => "quarter_decade",
        }
    }
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

/// Lock-free log-bucketed duration histogram.
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    sum_ns: AtomicU64,
    mode: BucketMode,
    buckets: Vec<AtomicU64>,
}

impl Histogram {
    /// Creates an empty log2-bucketed histogram (prefer the registry's
    /// [`Registry::histogram`] for named metrics).
    pub fn new() -> Self {
        Histogram::with_mode(BucketMode::Log2)
    }

    /// Creates an empty histogram bucketed by `mode`.
    pub fn with_mode(mode: BucketMode) -> Self {
        Histogram {
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            mode,
            buckets: (0..mode.bucket_count()).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Index of the **log2** bucket a duration of `ns` nanoseconds falls
    /// into (see [`BucketMode::bucket_index`] for mode-aware indexing).
    #[inline]
    pub fn bucket_index(ns: u64) -> usize {
        BucketMode::Log2.bucket_index(ns)
    }

    /// This histogram's bucketing mode.
    pub fn mode(&self) -> BucketMode {
        self.mode
    }

    /// Records one observation of `ns` nanoseconds.
    #[inline]
    pub fn record_ns(&self, ns: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.buckets[self.mode.bucket_index(ns)].fetch_add(1, Ordering::Relaxed);
    }

    fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum_ns: self.sum_ns.load(Ordering::Relaxed),
            mode: self.mode,
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
    /// How [`buckets`](Self::buckets) are bounded.
    pub mode: BucketMode,
    /// Per-bucket observation counts ([`BucketMode::bucket_count`] long).
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
    /// over-estimate by at most the mode's resolution (2× for log2, ~1.78×
    /// for quarter-decade). Returns 0 when the histogram is empty.
    pub fn percentile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cumulative = 0u64;
        for (bucket, &observations) in self.buckets.iter().enumerate() {
            cumulative += observations;
            if cumulative >= target {
                return self.mode.bucket_upper_bound_ns(bucket);
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

    /// Returns (registering on first use) the histogram `name`, bucketed
    /// log2.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        self.histogram_with_mode(name, BucketMode::Log2)
    }

    /// Returns (registering on first use) the histogram `name`, created
    /// with `mode` on first use. The first registration wins: a histogram
    /// that already exists keeps its mode, so declare non-default modes
    /// before the first observation (e.g. at service construction).
    pub fn histogram_with_mode(&self, name: &str, mode: BucketMode) -> Arc<Histogram> {
        let mut map = self.histograms.lock().expect("no panic while holding the histogram map");
        if let Some(h) = map.get(name) {
            return Arc::clone(h);
        }
        let h = Arc::new(Histogram::with_mode(mode));
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
    fn histogram_buckets_are_log2() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(u64::MAX), 64);
        let h = Histogram::new();
        h.record_ns(0);
        h.record_ns(3);
        h.record_ns(3);
        let snap = h.snapshot();
        assert_eq!(snap.count, 3);
        assert_eq!(snap.sum_ns, 6);
        assert_eq!(snap.buckets[0], 1);
        assert_eq!(snap.buckets[2], 2);
        assert_eq!(snap.mean_ms(), 6.0 / 3.0 / 1e6);
    }

    #[test]
    fn percentiles_resolve_to_bucket_upper_bounds() {
        let h = Histogram::new();
        // Buckets: 1 → [1,1]; 2,3 → [2,3]; 4 → [4,7].
        for ns in [1, 2, 3, 4] {
            h.record_ns(ns);
        }
        let snap = h.snapshot();
        // Rank ceil(0.25·4) = 1 lands in bucket 1 (upper bound 1).
        assert_eq!(snap.percentile_ns(0.25), 1);
        // Rank 2 and 3 land in bucket 2 (upper bound 3).
        assert_eq!(snap.percentile_ns(0.5), 3);
        assert_eq!(snap.percentile_ns(0.75), 3);
        // Ranks beyond land in bucket 3 (upper bound 7).
        assert_eq!(snap.percentile_ns(0.9), 7);
        assert_eq!(snap.percentile_ns(1.0), 7);
        assert_eq!(snap.percentile_ms(1.0), 7.0 / 1e6);
    }

    #[test]
    fn quarter_decade_buckets_are_log_linear() {
        let qd = BucketMode::QuarterDecade;
        // Zero bucket, then round(10^(k/4)): 1, 2, 3, 6, 10, 18, 32, 56, …
        assert_eq!(qd.bucket_index(0), 0);
        assert_eq!(qd.bucket_index(1), 1);
        assert_eq!(qd.bucket_index(2), 2);
        assert_eq!(qd.bucket_index(3), 3);
        assert_eq!(qd.bucket_index(4), 4);
        assert_eq!(qd.bucket_index(6), 4);
        assert_eq!(qd.bucket_index(7), 5);
        assert_eq!(qd.bucket_index(10), 5);
        assert_eq!(qd.bucket_upper_bound_ns(4), 6);
        assert_eq!(qd.bucket_upper_bound_ns(5), 10);
        // The table covers the full u64 range with a MAX catch-all.
        let last = qd.bucket_count() - 1;
        assert_eq!(qd.bucket_upper_bound_ns(last), u64::MAX);
        assert_eq!(qd.bucket_index(u64::MAX), last);
        // Bounds are strictly increasing (no empty or overlapping buckets).
        for b in 1..qd.bucket_count() {
            assert!(qd.bucket_upper_bound_ns(b) > qd.bucket_upper_bound_ns(b - 1), "bucket {b}");
        }
        // Resolution: each decade is cut four ways, so a quarter-decade
        // percentile over-estimates by < 1.8x where log2 allows 2x.
        let h = Histogram::with_mode(BucketMode::QuarterDecade);
        h.record_ns(450_000); // 0.45 ms → bucket with upper bound 562_341
        let snap = h.snapshot();
        assert_eq!(snap.mode, BucketMode::QuarterDecade);
        assert_eq!(snap.percentile_ns(0.5), 562_341);
        let log2 = Histogram::new();
        log2.record_ns(450_000); // log2 resolves to 2^19 - 1 = 524_287
        assert_eq!(log2.snapshot().percentile_ns(0.5), (1 << 19) - 1);
    }

    #[test]
    fn histogram_with_mode_first_registration_wins() {
        let reg = Registry::new();
        let qd = reg.histogram_with_mode("h", BucketMode::QuarterDecade);
        assert_eq!(qd.mode(), BucketMode::QuarterDecade);
        // Plain lookups and repeat registrations see the original mode.
        assert_eq!(reg.histogram("h").mode(), BucketMode::QuarterDecade);
        assert_eq!(
            reg.histogram_with_mode("h", BucketMode::Log2).mode(),
            BucketMode::QuarterDecade
        );
        assert_eq!(reg.histogram("h2").mode(), BucketMode::Log2);
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
