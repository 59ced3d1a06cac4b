//! Deterministic convergence telemetry for solvers and optimisers.
//!
//! Solvers emit per-iteration series (energy vs. sweep, acceptance rates,
//! chain-break fractions, optimiser objective trajectories, …) into a
//! process-global recorder. Everything about a drained series is a pure
//! function of the work performed — *never* of wall clock or thread
//! scheduling — so the exported `convergence_*.csv` artifacts are
//! byte-identical at any `QJO_THREADS` setting and can sit behind the run
//! manifest's drift gate:
//!
//! * series are keyed by `(group, phase, name, unit path, instance)`,
//!   where the unit path comes from [`trace::unit_path`] (the enclosing
//!   `par_map` unit indices) and `instance` counts same-key creations,
//!   which happen in program order within a unit;
//! * downsampling is a fixed stride on the producer's *step* number
//!   (`step % stride == 0`), not on time or buffer pressure;
//! * values are recorded as `f64` and rendered with Rust's shortest
//!   round-trip `Display`, which is deterministic.
//!
//! When the recorder is inactive (the default), [`series`] returns an
//! inert handle and the producer pays one relaxed atomic load.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::trace;

/// Default downsampling stride used by the experiments driver.
pub const DEFAULT_STRIDE: u64 = 4;

#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct SeriesKey {
    group: String,
    phase: String,
    name: String,
    unit: Vec<u64>,
    instance: u64,
}

#[derive(Debug, Default)]
struct SeriesData {
    points: Vec<(u64, f64)>,
}

#[derive(Debug, Default)]
struct RecorderState {
    default_stride: u64,
    phase: String,
    /// Next instance number per `(group, phase, name, unit)`.
    instances: BTreeMap<(String, String, String, Vec<u64>), u64>,
    series: BTreeMap<SeriesKey, Arc<Mutex<SeriesData>>>,
}

static ENABLED: AtomicBool = AtomicBool::new(false);

fn state() -> &'static Mutex<RecorderState> {
    static STATE: OnceLock<Mutex<RecorderState>> = OnceLock::new();
    STATE.get_or_init(|| Mutex::new(RecorderState::default()))
}

/// Enables recording with the given default stride (clamped to at least
/// 1), discarding any previously recorded series.
pub fn start(default_stride: u64) {
    let mut s = state().lock().expect("no panic while holding the recorder state");
    s.default_stride = default_stride.max(1);
    s.phase.clear();
    s.instances.clear();
    s.series.clear();
    ENABLED.store(true, Ordering::SeqCst);
}

/// Disables recording; already-created handles become inert on their next
/// stride check only if re-created, so stop between runs, not mid-solver.
pub fn stop() {
    ENABLED.store(false, Ordering::SeqCst);
}

/// Whether the recorder is accepting new series.
#[inline]
pub fn is_active() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Names the current phase (experiment stage); stamped into every series
/// created afterwards.
pub fn set_phase(phase: &str) {
    let mut s = state().lock().expect("no panic while holding the recorder state");
    s.phase = phase.to_string();
}

/// A handle producers record into. Inert (all methods no-ops) when the
/// recorder was inactive at creation or the exemplar filter rejected it.
#[derive(Debug, Clone)]
pub struct Series {
    inner: Option<SeriesInner>,
}

#[derive(Debug, Clone)]
struct SeriesInner {
    stride: u64,
    data: Arc<Mutex<SeriesData>>,
}

impl Series {
    const INERT: Series = Series { inner: None };

    /// Whether records will actually be kept.
    pub fn is_active(&self) -> bool {
        self.inner.is_some()
    }

    /// Whether `step` passes the stride filter — use to skip computing
    /// expensive values (see also [`Series::record_with`]).
    pub fn wants(&self, step: u64) -> bool {
        self.inner.as_ref().is_some_and(|inner| step.is_multiple_of(inner.stride))
    }

    /// Records `(step, value)` if `step` passes the stride filter.
    pub fn record(&self, step: u64, value: f64) {
        if let Some(inner) = &self.inner {
            if step.is_multiple_of(inner.stride) {
                inner
                    .data
                    .lock()
                    .expect("no panic while holding series data")
                    .points
                    .push((step, value));
            }
        }
    }

    /// Like [`Series::record`], but only computes the value for kept
    /// steps.
    pub fn record_with(&self, step: u64, value: impl FnOnce() -> f64) {
        if self.wants(step) {
            self.record(step, value());
        }
    }
}

/// Opens a series under the recorder's default stride. Inert when the
/// recorder is inactive.
pub fn series(group: &str, name: &str) -> Series {
    open(group, name, 0, false)
}

/// Opens a series with an explicit stride (use stride 1 for series whose
/// steps are category indices rather than long iteration counts).
pub fn series_with_stride(group: &str, name: &str, stride: u64) -> Series {
    open(group, name, stride, false)
}

/// Opens a series only on *exemplar* units: the recorder keeps unit 0 of
/// each enclosing `par_map` (and the main thread) and drops the rest.
/// Bounds the data volume of expensive high-fan-out producers (e.g.
/// per-sweep SQA replica energies across hundreds of reads).
pub fn exemplar_series(group: &str, name: &str) -> Series {
    open(group, name, 0, true)
}

fn open(group: &str, name: &str, stride: u64, exemplar_only: bool) -> Series {
    if !is_active() {
        return Series::INERT;
    }
    let unit = trace::unit_path();
    if exemplar_only && unit.iter().any(|&i| i != 0) {
        return Series::INERT;
    }
    let mut s = state().lock().expect("no panic while holding the recorder state");
    let stride = if stride == 0 { s.default_stride } else { stride };
    let phase = s.phase.clone();
    let counter_key = (group.to_string(), phase.clone(), name.to_string(), unit.clone());
    let instance = {
        let next = s.instances.entry(counter_key).or_insert(0);
        let instance = *next;
        *next += 1;
        instance
    };
    let key = SeriesKey { group: group.to_string(), phase, name: name.to_string(), unit, instance };
    let data = Arc::new(Mutex::new(SeriesData::default()));
    s.series.insert(key, Arc::clone(&data));
    Series { inner: Some(SeriesInner { stride, data }) }
}

/// Stops the recorder and drains everything recorded into one CSV per
/// group, sorted by group name. Each CSV has the header
/// `phase,series,unit,instance,step,value` with rows sorted by
/// `(phase, series, unit, instance, step)`; the unit column is the
/// `/`-joined unit path (`-` outside any `par_map`).
pub fn drain_csv() -> Vec<(String, String)> {
    stop();
    let series = {
        let mut s = state().lock().expect("no panic while holding the recorder state");
        s.instances.clear();
        std::mem::take(&mut s.series)
    };
    let mut groups: BTreeMap<String, String> = BTreeMap::new();
    for (key, data) in series {
        let csv = groups
            .entry(key.group)
            .or_insert_with(|| "phase,series,unit,instance,step,value\n".to_string());
        let unit = if key.unit.is_empty() {
            "-".to_string()
        } else {
            key.unit.iter().map(u64::to_string).collect::<Vec<_>>().join("/")
        };
        let data = data.lock().expect("no panic while holding series data");
        for &(step, value) in &data.points {
            let _ =
                writeln!(csv, "{},{},{unit},{},{step},{value}", key.phase, key.name, key.instance);
        }
    }
    groups.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inactive_recorder_hands_out_inert_handles() {
        let _serial = crate::test_serial();
        stop();
        let s = series("conv-test", "inert");
        assert!(!s.is_active());
        assert!(!s.wants(0));
        s.record(0, 1.0);
        s.record_with(0, || panic!("must not be evaluated"));
    }

    #[test]
    fn records_stride_filtered_points_into_group_csv() {
        let _serial = crate::test_serial();
        start(2);
        set_phase("t1");
        let s = series("conv-test", "energy");
        for step in 0..6 {
            s.record(step, -(step as f64 + 1.0));
        }
        let drained = drain_csv();
        let (group, csv) = drained.iter().find(|(g, _)| g == "conv-test").expect("group drained");
        assert_eq!(group, "conv-test");
        assert_eq!(
            csv,
            "phase,series,unit,instance,step,value\n\
             t1,energy,-,0,0,-1\n\
             t1,energy,-,0,2,-3\n\
             t1,energy,-,0,4,-5\n"
        );
    }

    #[test]
    fn instances_disambiguate_same_key_series() {
        let _serial = crate::test_serial();
        start(1);
        set_phase("p");
        let a = series("conv-test", "e");
        let b = series("conv-test", "e");
        a.record(0, 1.0);
        b.record(0, 2.0);
        let drained = drain_csv();
        let csv = &drained.iter().find(|(g, _)| g == "conv-test").unwrap().1;
        assert!(csv.contains("p,e,-,0,0,1\n"), "{csv}");
        assert!(csv.contains("p,e,-,1,0,2\n"), "{csv}");
    }

    #[test]
    fn unit_path_keys_series_and_gates_exemplars() {
        let _serial = crate::test_serial();
        start(1);
        set_phase("p");
        {
            let _prefix = crate::trace::unit_prefix_scope(&[0]);
            let ex = exemplar_series("conv-test", "replica");
            assert!(ex.is_active(), "unit 0 is the exemplar");
            ex.record(0, 5.0);
        }
        {
            let _prefix = crate::trace::unit_prefix_scope(&[3]);
            let ex = exemplar_series("conv-test", "replica");
            assert!(!ex.is_active(), "non-zero units are dropped");
            ex.record(0, 9.0);
            let all = series("conv-test", "all-units");
            all.record(0, 7.0);
        }
        let drained = drain_csv();
        let csv = &drained.iter().find(|(g, _)| g == "conv-test").unwrap().1;
        assert!(csv.contains("p,replica,0,0,0,5\n"), "{csv}");
        assert!(!csv.contains(",9\n"), "{csv}");
        assert!(csv.contains("p,all-units,3,0,0,7\n"), "{csv}");
    }

    #[test]
    fn explicit_stride_overrides_default() {
        let _serial = crate::test_serial();
        start(10);
        let s = series_with_stride("conv-test", "passes", 1);
        for step in 0..3 {
            assert!(s.wants(step));
            s.record(step, step as f64);
        }
        let lazy = series("conv-test", "lazy");
        let mut evaluated = 0;
        for step in 0..20 {
            lazy.record_with(step, || {
                evaluated += 1;
                0.0
            });
        }
        assert_eq!(evaluated, 2, "steps 0 and 10 pass a stride of 10");
        let drained = drain_csv();
        let csv = &drained.iter().find(|(g, _)| g == "conv-test").unwrap().1;
        assert_eq!(csv.matches("passes").count(), 3, "{csv}");
    }

    #[test]
    fn drain_sorts_rows_and_resets_state() {
        let _serial = crate::test_serial();
        start(1);
        set_phase("zz");
        series("conv-test", "late").record(0, 1.0);
        set_phase("aa");
        series("conv-test", "early").record(0, 2.0);
        let drained = drain_csv();
        let csv = &drained.iter().find(|(g, _)| g == "conv-test").unwrap().1;
        let aa = csv.find("aa,early").expect("aa row present");
        let zz = csv.find("zz,late").expect("zz row present");
        assert!(aa < zz, "rows sort by phase: {csv}");
        assert!(!is_active(), "drain stops the recorder");
        assert!(drain_csv().is_empty(), "drain clears recorded series");
    }
}
