//! Seeded, deterministic fault injection.
//!
//! A [`FaultPlan`] assigns an injection probability to each *site* — a
//! named failure point in the pipeline (see [`SITES`]). Whether a given
//! operation fails is decided by hashing `(plan seed, site, salt, unit)`
//! SplitMix64-style into a uniform draw in `[0, 1)` and comparing it to
//! the site's probability. The decision depends on nothing else: no
//! wall-clock, no thread count, no global event order, no mutable
//! counters — so a chaos run is exactly reproducible, and bit-identical
//! under any `QJO_THREADS`.
//!
//! `salt` is chosen by the call site to separate independent streams
//! (typically the component's own seed); `unit` indexes the work unit or
//! attempt within that stream.
//!
//! # Spec grammar
//!
//! Plans are parsed from the `--faults` flag of the `experiments` driver:
//!
//! ```text
//! seed=7;anneal.embed=0.25;transpile.route=0.2;io.write=0.15
//! ```
//!
//! Clauses are separated by `;` (or `,`); each is `key=value`. The
//! optional `seed` clause sets the plan seed (default 0); every other
//! key must be a known site name from [`SITES`] with a probability in
//! `[0, 1]`. Sites not named in the spec never fire.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, RwLock};

/// Every fault-injection site in the workspace.
///
/// | site | failure simulated |
/// |------|-------------------|
/// | `anneal.embed` | minor-embedding attempt fails |
/// | `anneal.job` | QPU scheduler rejects the annealing job |
/// | `anneal.chain_storm` | a read batch comes back with broken chains |
/// | `gatesim.trajectory` | a noisy-simulator trajectory is lost |
/// | `transpile.route` | a routing pass fails on the device |
/// | `qaoa.step` | an optimiser objective evaluation returns NaN |
/// | `io.write` | an artifact write dies before the atomic rename |
pub const SITES: &[&str] = &[
    "anneal.embed",
    "anneal.job",
    "anneal.chain_storm",
    "gatesim.trajectory",
    "transpile.route",
    "qaoa.step",
    "io.write",
];

/// A malformed fault spec.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultSpecError {
    /// A clause was not of the form `key=value`.
    BadClause(String),
    /// The clause named a site that does not exist (see [`SITES`]).
    UnknownSite(String),
    /// The `seed=` value did not parse as a `u64`.
    BadSeed(String),
    /// A site probability did not parse, or fell outside `[0, 1]`.
    BadProbability {
        /// The site whose probability was rejected.
        site: String,
        /// The literal value text.
        value: String,
    },
}

impl fmt::Display for FaultSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultSpecError::BadClause(c) => write!(f, "clause `{c}` is not of the form key=value"),
            FaultSpecError::UnknownSite(s) => {
                write!(f, "unknown fault site `{s}` (known: {})", SITES.join(", "))
            }
            FaultSpecError::BadSeed(v) => write!(f, "seed `{v}` is not a u64"),
            FaultSpecError::BadProbability { site, value } => {
                write!(f, "probability `{value}` for site `{site}` is not a number in [0, 1]")
            }
        }
    }
}

impl std::error::Error for FaultSpecError {}

/// A seeded assignment of injection probabilities to sites.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// The plan seed every fault decision is derived from.
    pub seed: u64,
    rates: BTreeMap<String, f64>,
}

impl FaultPlan {
    /// An empty plan (no site ever fires) with the given seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan { seed, rates: BTreeMap::new() }
    }

    /// Builder: sets `site`'s injection probability.
    ///
    /// # Panics
    /// If `site` is not in [`SITES`] or `p` is outside `[0, 1]` — the
    /// programmatic builder is for tests, where a typo should be loud.
    pub fn with_rate(mut self, site: &str, p: f64) -> Self {
        assert!(SITES.contains(&site), "unknown fault site `{site}`");
        assert!((0.0..=1.0).contains(&p), "probability {p} outside [0, 1]");
        self.rates.insert(site.to_string(), p);
        self
    }

    /// The injection probability of `site` (0 when unlisted).
    pub fn rate(&self, site: &str) -> f64 {
        self.rates.get(site).copied().unwrap_or(0.0)
    }

    /// Parses the spec grammar described in the [module docs](self).
    pub fn parse(spec: &str) -> Result<FaultPlan, FaultSpecError> {
        let mut plan = FaultPlan::new(0);
        for clause in spec.split([';', ',']) {
            let clause = clause.trim();
            if clause.is_empty() {
                continue;
            }
            let Some((key, value)) = clause.split_once('=') else {
                return Err(FaultSpecError::BadClause(clause.to_string()));
            };
            let (key, value) = (key.trim(), value.trim());
            if key == "seed" {
                plan.seed =
                    value.parse().map_err(|_| FaultSpecError::BadSeed(value.to_string()))?;
                continue;
            }
            if !SITES.contains(&key) {
                return Err(FaultSpecError::UnknownSite(key.to_string()));
            }
            let p: f64 = value.parse().map_err(|_| FaultSpecError::BadProbability {
                site: key.to_string(),
                value: value.to_string(),
            })?;
            if !(0.0..=1.0).contains(&p) {
                return Err(FaultSpecError::BadProbability {
                    site: key.to_string(),
                    value: value.to_string(),
                });
            }
            plan.rates.insert(key.to_string(), p);
        }
        Ok(plan)
    }

    /// Renders back to the spec grammar (sites in sorted order).
    pub fn render(&self) -> String {
        let mut out = format!("seed={}", self.seed);
        for (site, p) in &self.rates {
            out.push_str(&format!(";{site}={p}"));
        }
        out
    }
}

/// Process-wide plan. The `ACTIVE` flag keeps the no-plan fast path at
/// one relaxed atomic load.
fn plan_slot() -> &'static RwLock<Option<Arc<FaultPlan>>> {
    static SLOT: OnceLock<RwLock<Option<Arc<FaultPlan>>>> = OnceLock::new();
    SLOT.get_or_init(|| RwLock::new(None))
}

static ACTIVE: AtomicBool = AtomicBool::new(false);

/// Installs `plan` process-wide; all subsequent [`should_inject`] calls
/// consult it until [`clear`] replaces it.
pub fn install(plan: FaultPlan) {
    *plan_slot().write().unwrap_or_else(|p| p.into_inner()) = Some(Arc::new(plan));
    ACTIVE.store(true, Ordering::Release);
}

/// Removes the installed plan; injection becomes a no-op again.
pub fn clear() {
    ACTIVE.store(false, Ordering::Release);
    *plan_slot().write().unwrap_or_else(|p| p.into_inner()) = None;
}

/// The installed plan, if any.
pub fn active() -> Option<Arc<FaultPlan>> {
    if !ACTIVE.load(Ordering::Acquire) {
        return None;
    }
    plan_slot().read().unwrap_or_else(|p| p.into_inner()).clone()
}

/// Serialises tests (and other scoped users) that install a plan: the
/// plan slot is process-global, so concurrent tests in one binary must
/// not interleave installs.
fn scope_mutex() -> &'static Mutex<()> {
    static M: OnceLock<Mutex<()>> = OnceLock::new();
    M.get_or_init(|| Mutex::new(()))
}

/// A guard that holds `plan` installed; dropping it clears the plan.
///
/// Holding the guard also holds a process-wide mutex, so scoped plans
/// in concurrent tests serialise instead of trampling each other.
pub struct ScopedFaults {
    _lock: MutexGuard<'static, ()>,
}

/// Installs `plan` for the lifetime of the returned guard (test aid).
pub fn scoped(plan: FaultPlan) -> ScopedFaults {
    let lock = scope_mutex().lock().unwrap_or_else(|p| p.into_inner());
    install(plan);
    ScopedFaults { _lock: lock }
}

/// Runs `f` with *no* plan installed, under the same scope mutex —
/// lets deterministic baseline tests coexist with chaos tests in one
/// test binary.
pub fn without_faults<T>(f: impl FnOnce() -> T) -> T {
    let _lock = scope_mutex().lock().unwrap_or_else(|p| p.into_inner());
    clear();
    f()
}

impl Drop for ScopedFaults {
    fn drop(&mut self) {
        clear();
    }
}

/// Decides whether the fault at `site` fires for work unit `unit` of
/// stream `salt`, and counts it under `fault.injected.<site>` if so.
///
/// Pure in `(plan seed, site, salt, unit)`; always `false` with no plan
/// installed (one relaxed atomic load on that path).
pub fn should_inject(site: &str, salt: u64, unit: u64) -> bool {
    let Some(plan) = active() else {
        return false;
    };
    let p = plan.rate(site);
    if p <= 0.0 {
        return false;
    }
    let base = plan.seed ^ qjo_obs::fnv1a64(site.as_bytes()) ^ salt.rotate_left(17);
    let draw = qjo_exec::stream_seed(base, unit);
    // Top 53 bits → uniform in [0, 1), the usual f64 construction.
    let uniform = (draw >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
    let hit = uniform < p;
    if hit {
        qjo_obs::counter(&format!("fault.injected.{site}")).incr();
    }
    hit
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_spec() {
        let plan = FaultPlan::parse("seed=7; anneal.embed=0.25;io.write=0.5,qaoa.step=1").unwrap();
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.rate("anneal.embed"), 0.25);
        assert_eq!(plan.rate("io.write"), 0.5);
        assert_eq!(plan.rate("qaoa.step"), 1.0);
        assert_eq!(plan.rate("transpile.route"), 0.0);
    }

    #[test]
    fn empty_spec_is_an_empty_plan() {
        assert_eq!(FaultPlan::parse("").unwrap(), FaultPlan::new(0));
        assert_eq!(FaultPlan::parse(" ; , ").unwrap(), FaultPlan::new(0));
    }

    #[test]
    fn round_trips_through_render() {
        let plan = FaultPlan::parse("seed=42;anneal.job=0.125;io.write=0.25").unwrap();
        assert_eq!(FaultPlan::parse(&plan.render()).unwrap(), plan);
    }

    #[test]
    fn rejects_malformed_clause() {
        assert_eq!(
            FaultPlan::parse("anneal.embed").unwrap_err(),
            FaultSpecError::BadClause("anneal.embed".into())
        );
    }

    #[test]
    fn rejects_unknown_site() {
        assert_eq!(
            FaultPlan::parse("anneal.embd=0.5").unwrap_err(),
            FaultSpecError::UnknownSite("anneal.embd".into())
        );
    }

    #[test]
    fn rejects_bad_seed() {
        assert_eq!(FaultPlan::parse("seed=-3").unwrap_err(), FaultSpecError::BadSeed("-3".into()));
    }

    #[test]
    fn rejects_out_of_range_or_unparsable_probability() {
        for spec in ["io.write=1.5", "io.write=-0.1", "io.write=lots", "io.write=NaN"] {
            match FaultPlan::parse(spec).unwrap_err() {
                FaultSpecError::BadProbability { site, .. } => assert_eq!(site, "io.write"),
                other => panic!("unexpected error {other:?} for {spec}"),
            }
        }
    }

    #[test]
    fn spec_errors_render() {
        let msg = FaultSpecError::UnknownSite("nope".into()).to_string();
        assert!(msg.contains("nope") && msg.contains("anneal.embed"), "{msg}");
        assert!(FaultSpecError::BadClause("x".into()).to_string().contains("key=value"));
        assert!(FaultSpecError::BadSeed("z".into()).to_string().contains("u64"));
        let msg = FaultSpecError::BadProbability { site: "io.write".into(), value: "2".into() }
            .to_string();
        assert!(msg.contains("io.write") && msg.contains("[0, 1]"), "{msg}");
    }

    #[test]
    fn decisions_are_deterministic_and_rate_shaped() {
        let _guard = scoped(FaultPlan::parse("seed=9;gatesim.trajectory=0.3").unwrap());
        let draws: Vec<bool> =
            (0..2000).map(|u| should_inject("gatesim.trajectory", 5, u)).collect();
        let again: Vec<bool> =
            (0..2000).map(|u| should_inject("gatesim.trajectory", 5, u)).collect();
        assert_eq!(draws, again, "same (site, salt, unit) must decide identically");
        let hits = draws.iter().filter(|&&h| h).count();
        assert!((400..800).contains(&hits), "p=0.3 over 2000 draws gave {hits} hits");
        // Unlisted sites and different salts are independent streams.
        assert!((0..2000).all(|u| !should_inject("anneal.embed", 5, u)));
        let other_salt: Vec<bool> =
            (0..2000).map(|u| should_inject("gatesim.trajectory", 6, u)).collect();
        assert_ne!(draws, other_salt);
    }

    #[test]
    fn extreme_rates_always_and_never_fire() {
        let plan = FaultPlan::new(1).with_rate("io.write", 1.0).with_rate("qaoa.step", 0.0);
        let _guard = scoped(plan);
        assert!((0..100).all(|u| should_inject("io.write", 0, u)));
        assert!((0..100).all(|u| !should_inject("qaoa.step", 0, u)));
    }

    #[test]
    fn no_plan_means_no_faults() {
        without_faults(|| {
            assert!(!should_inject("io.write", 0, 0));
        });
    }

    #[test]
    fn injections_are_counted_per_site() {
        let _guard = scoped(FaultPlan::new(3).with_rate("transpile.route", 1.0));
        let before = qjo_obs::global().snapshot();
        for u in 0..5 {
            should_inject("transpile.route", 0, u);
        }
        let deltas = qjo_obs::global().snapshot().counter_deltas_since(&before);
        assert_eq!(deltas.get("fault.injected.transpile.route"), Some(&5));
    }
}
