//! The content-addressed serving cache.
//!
//! Entries are keyed by the canonical [`fingerprint`](crate::fingerprint)
//! of a request's join graph and hold everything expensive the pipeline
//! derives from it: the MILP→BILP→QUBO formulation (built from the
//! *canonical bucketed* query, so it is byte-identical across the whole
//! fingerprint class) and, on demand, the minor-embedding of that QUBO
//! onto the annealer topology — the dominant serving cost (`anneal.embed`
//! p90 ≈ 2.1 s in smoke BENCH vs ~0.07 ms to formulate).
//!
//! Eviction is LRU with a fixed capacity. Every lookup lands in the
//! `serve.cache.{hit,miss,evict}` counters, which flow into the run
//! manifest like any other metric.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use qjo_anneal::Embedding;
use qjo_core::{JoEncoder, JoQubo, Query};

use crate::fingerprint::{canonicalize, CanonicalQuery, FingerprintConfig};

/// Point-in-time counter values for one cache instance.
///
/// The global `serve.cache.*` counters aggregate every cache in the
/// process (tests included); these tallies belong to a single
/// [`FormulationCache`], so per-request deltas taken around a solve are
/// attributable even when other services share the process.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Formulation lookups answered from the cache.
    pub hits: u64,
    /// Formulation lookups that built a fresh entry.
    pub misses: u64,
    /// Entries dropped to make room (LRU victims).
    pub evictions: u64,
    /// Embedding requests answered from a resident embedding.
    pub embed_hits: u64,
    /// Embedding requests that computed a fresh embedding.
    pub embed_misses: u64,
}

/// Shared atomic tallies behind [`CacheCounters`]; one per cache, with a
/// handle cloned into every entry so embedding traffic lands in the
/// owning cache's tallies.
#[derive(Debug, Default)]
struct CacheTallies {
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    embed_hits: AtomicU64,
    embed_misses: AtomicU64,
}

impl CacheTallies {
    fn snapshot(&self) -> CacheCounters {
        CacheCounters {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            embed_hits: self.embed_hits.load(Ordering::Relaxed),
            embed_misses: self.embed_misses.load(Ordering::Relaxed),
        }
    }
}

/// A cached formulation class: the canonical query, its formulation, and
/// (if an annealer request materialised one) its minor-embedding.
pub struct CacheEntry {
    /// The canonical bucketed query the formulation was built from.
    pub canonical_query: Query,
    /// The full formulation bundle (QUBO + registry + intermediates).
    pub formulation: JoQubo,
    /// Lazily-populated minor-embedding of `formulation.qubo`.
    embedding: Mutex<Option<Embedding>>,
    /// The owning cache's tallies (embed hits/misses count there).
    tallies: Arc<CacheTallies>,
}

impl CacheEntry {
    /// Returns the cached embedding, or computes and caches it via
    /// `embed`. The hit/miss counters are embedding-specific so the
    /// latency win of an embedding reuse is separately attributable.
    pub fn embedding_or_insert(
        &self,
        embed: impl FnOnce(&JoQubo) -> Result<Embedding, qjo_anneal::AnnealError>,
    ) -> Result<Embedding, qjo_anneal::AnnealError> {
        self.embedding_with_status(embed).map(|(e, _)| e)
    }

    /// Like [`embedding_or_insert`](Self::embedding_or_insert), but also
    /// reports what *actually* happened under the lock (`"hit"` reused,
    /// `"cold"` built fresh) — the status the caller should attribute
    /// telemetry to, which can differ from any earlier prediction when
    /// concurrent traffic or an eviction changed the cache in between.
    pub fn embedding_with_status(
        &self,
        embed: impl FnOnce(&JoQubo) -> Result<Embedding, qjo_anneal::AnnealError>,
    ) -> Result<(Embedding, &'static str), qjo_anneal::AnnealError> {
        let mut slot = self.embedding.lock().expect("embedding lock");
        if let Some(e) = slot.as_ref() {
            qjo_obs::counter!("serve.cache.embed_hit").incr();
            self.tallies.embed_hits.fetch_add(1, Ordering::Relaxed);
            return Ok((e.clone(), "hit"));
        }
        qjo_obs::counter!("serve.cache.embed_miss").incr();
        self.tallies.embed_misses.fetch_add(1, Ordering::Relaxed);
        let e = embed(&self.formulation)?;
        *slot = Some(e.clone());
        Ok((e, "cold"))
    }

    /// True when an embedding is already cached (used by pre-checks to
    /// predict the cost of an annealer request deterministically).
    pub fn has_embedding(&self) -> bool {
        self.embedding.lock().expect("embedding lock").is_some()
    }
}

/// Whether a lookup was answered from the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheStatus {
    /// Formulation reused.
    Hit,
    /// Formulation built fresh on this lookup.
    Miss,
}

impl CacheStatus {
    /// Stable lowercase name for reports.
    pub fn name(self) -> &'static str {
        match self {
            CacheStatus::Hit => "hit",
            CacheStatus::Miss => "miss",
        }
    }
}

/// LRU formulation cache keyed by canonical fingerprint.
pub struct FormulationCache {
    encoder: JoEncoder,
    fingerprint: FingerprintConfig,
    capacity: usize,
    state: Mutex<CacheState>,
    tallies: Arc<CacheTallies>,
}

struct CacheState {
    entries: HashMap<String, (Arc<CacheEntry>, u64)>,
    /// Monotonic access clock for LRU ordering.
    clock: u64,
}

impl FormulationCache {
    /// A cache that formulates with `encoder` and canonicalises with the
    /// given fingerprint config. Capacity is in fingerprint classes.
    pub fn new(encoder: JoEncoder, fingerprint: FingerprintConfig, capacity: usize) -> Self {
        assert!(capacity >= 1, "a zero-capacity cache cannot serve");
        FormulationCache {
            encoder,
            fingerprint,
            capacity,
            state: Mutex::new(CacheState { entries: HashMap::new(), clock: 0 }),
            tallies: Arc::new(CacheTallies::default()),
        }
    }

    /// The encoder formulations are built with.
    pub fn encoder(&self) -> &JoEncoder {
        &self.encoder
    }

    /// Capacity in fingerprint classes.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// This cache's own counters (a consistent point-in-time copy).
    pub fn stats(&self) -> CacheCounters {
        self.tallies.snapshot()
    }

    /// Canonicalises a request without touching the cache.
    pub fn canonicalize(&self, query: &Query) -> CanonicalQuery {
        canonicalize(query, &self.fingerprint)
    }

    /// Looks up (or builds) the formulation class for a request. Returns
    /// the canonicalisation, the shared entry, and the hit/miss status.
    pub fn lookup(&self, query: &Query) -> (CanonicalQuery, Arc<CacheEntry>, CacheStatus) {
        let canon = self.canonicalize(query);
        let mut state = self.state.lock().expect("cache lock");
        state.clock += 1;
        let now = state.clock;
        if let Some((entry, stamp)) = state.entries.get_mut(&canon.fingerprint) {
            *stamp = now;
            qjo_obs::counter!("serve.cache.hit").incr();
            self.tallies.hits.fetch_add(1, Ordering::Relaxed);
            let entry = entry.clone();
            return (canon, entry, CacheStatus::Hit);
        }
        qjo_obs::counter!("serve.cache.miss").incr();
        self.tallies.misses.fetch_add(1, Ordering::Relaxed);
        // Build outside the map borrow but inside the lock: a concurrent
        // builder for the same class would duplicate work, and the serve
        // loop is request-ordered anyway.
        let formulation = {
            let _span = qjo_obs::span!("serve.formulate");
            self.encoder.encode(&canon.query)
        };
        let entry = Arc::new(CacheEntry {
            canonical_query: canon.query.clone(),
            formulation,
            embedding: Mutex::new(None),
            tallies: self.tallies.clone(),
        });
        if state.entries.len() >= self.capacity {
            let victim = state
                .entries
                .iter()
                .min_by_key(|(fp, (_, stamp))| (*stamp, (*fp).clone()))
                .map(|(fp, _)| fp.clone())
                .expect("capacity >= 1 and the map is full");
            state.entries.remove(&victim);
            qjo_obs::counter!("serve.cache.evict").incr();
            self.tallies.evictions.fetch_add(1, Ordering::Relaxed);
        }
        state.entries.insert(canon.fingerprint.clone(), (entry.clone(), now));
        (canon, entry, CacheStatus::Miss)
    }

    /// Checks residency without inserting, counting, or refreshing LRU
    /// order. Pre-checks use this to predict request cost (a resident
    /// embedding turns a multi-second annealer request into milliseconds)
    /// without perturbing cache behaviour.
    pub fn peek(&self, query: &Query) -> (CanonicalQuery, Option<Arc<CacheEntry>>) {
        let canon = self.canonicalize(query);
        let state = self.state.lock().expect("cache lock");
        let entry = state.entries.get(&canon.fingerprint).map(|(e, _)| e.clone());
        (canon, entry)
    }

    /// Number of resident classes.
    pub fn len(&self) -> usize {
        self.state.lock().expect("cache lock").entries.len()
    }

    /// True when nothing is cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qjo_core::{QueryGenerator, QueryGraph};

    fn cache(capacity: usize) -> FormulationCache {
        FormulationCache::new(JoEncoder::default(), FingerprintConfig::default(), capacity)
    }

    #[test]
    fn second_lookup_hits_and_shares_the_entry() {
        let c = cache(8);
        let q = QueryGenerator::paper_defaults(QueryGraph::Chain, 4).generate(0);
        // A peek neither formulates nor counts.
        assert!(c.peek(&q).1.is_none() && c.is_empty());
        let (_, first, s1) = c.lookup(&q);
        let (_, second, s2) = c.lookup(&q);
        assert_eq!((s1, s2), (CacheStatus::Miss, CacheStatus::Hit));
        assert!(Arc::ptr_eq(&first, &second));
        assert!(Arc::ptr_eq(&c.peek(&q).1.expect("resident"), &first));
        let stats = c.stats();
        assert_eq!((stats.hits, stats.misses, stats.evictions), (1, 1, 0));
    }

    #[test]
    fn lru_eviction_drops_the_stalest_class() {
        let c = cache(2);
        let gen = QueryGenerator::paper_defaults(QueryGraph::Chain, 3);
        // Three queries with distinct cardinality profiles -> 3 classes.
        let queries: Vec<Query> =
            (0..20).map(|s| gen.generate(s)).collect::<Vec<_>>().into_iter().collect();
        let mut distinct = Vec::new();
        let mut seen = std::collections::BTreeSet::new();
        for q in queries {
            if seen.insert(c.canonicalize(&q).fingerprint) {
                distinct.push(q);
            }
            if distinct.len() == 3 {
                break;
            }
        }
        assert_eq!(distinct.len(), 3, "generator produced too few classes");
        c.lookup(&distinct[0]);
        c.lookup(&distinct[1]);
        c.lookup(&distinct[0]); // refresh 0; 1 is now stalest
        c.lookup(&distinct[2]); // evicts 1
        assert_eq!(c.len(), 2);
        let (_, _, s0) = c.lookup(&distinct[0]);
        assert_eq!(s0, CacheStatus::Hit);
        // Re-requesting 1 must rebuild (it was evicted).
        let (_, _, s1) = c.lookup(&distinct[1]);
        assert_eq!(s1, CacheStatus::Miss);
        assert_eq!(c.stats().evictions, 2); // 1 evicted, then 2 or 0
    }

    #[test]
    fn embedding_is_computed_once_per_entry() {
        let c = cache(4);
        let q = QueryGenerator::paper_defaults(QueryGraph::Chain, 3).generate(1);
        let (_, entry, _) = c.lookup(&q);
        let topology = qjo_anneal::hardware::pegasus_like(4);
        let sampler = qjo_anneal::AnnealerSampler::new(topology);
        let mut builds = 0;
        for _ in 0..3 {
            let e = entry
                .embedding_or_insert(|f| {
                    builds += 1;
                    sampler.embed(&f.qubo)
                })
                .expect("embeds");
            assert!(e.num_physical_qubits() > 0);
        }
        assert_eq!(builds, 1);
        assert!(entry.has_embedding());
    }

    #[test]
    fn local_counters_track_only_this_cache() {
        let c = cache(4);
        let other = cache(4);
        let q = QueryGenerator::paper_defaults(QueryGraph::Chain, 3).generate(1);
        c.lookup(&q);
        c.lookup(&q);
        other.lookup(&q); // a different cache must not pollute `c`
        let (_, entry, _) = c.lookup(&q);
        let topology = qjo_anneal::hardware::pegasus_like(4);
        let sampler = qjo_anneal::AnnealerSampler::new(topology);
        entry.embedding_or_insert(|f| sampler.embed(&f.qubo)).expect("embeds");
        entry.embedding_or_insert(|f| sampler.embed(&f.qubo)).expect("embeds");
        let stats = c.stats();
        assert_eq!(
            stats,
            CacheCounters { hits: 2, misses: 1, evictions: 0, embed_hits: 1, embed_misses: 1 }
        );
        assert_eq!(other.stats(), CacheCounters { misses: 1, ..CacheCounters::default() });
        assert_eq!(c.capacity(), 4);
    }

    #[test]
    fn formulation_matches_a_fresh_build_byte_for_byte() {
        let c = cache(4);
        let q = QueryGenerator::paper_defaults(QueryGraph::Cycle, 4).generate(3);
        let (canon, entry, _) = c.lookup(&q);
        let fresh = JoEncoder::default().encode(&canon.query);
        assert_eq!(
            qjo_qubo::io::to_text(&entry.formulation.qubo),
            qjo_qubo::io::to_text(&fresh.qubo)
        );
        assert_eq!(entry.formulation.log_thresholds, fresh.log_thresholds);
        assert_eq!(entry.formulation.penalty_a, fresh.penalty_a);
    }
}
