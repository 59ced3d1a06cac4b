//! Heuristic minor embedding of QUBO graphs into hardware graphs.
//!
//! Annealers can only couple physically adjacent qubits. A QUBO whose
//! interaction graph does not match the hardware graph is *minor-embedded*:
//! each logical variable becomes a *chain* of physical qubits that behaves
//! as one spin (held together by a strong ferromagnetic coupling), and each
//! logical interaction must be realised by at least one physical coupler
//! between the two chains.
//!
//! The embedder follows the minorminer recipe (Cai, Macready, Roy 2014):
//! variables are placed one at a time; each new variable runs a
//! usage-penalised multi-source Dijkstra from every already-placed
//! neighbour's chain, picks the root vertex minimising the total path cost,
//! and claims the union of the paths. Overlaps are allowed during
//! construction but penalised exponentially; improvement passes then rip up
//! and re-route the contended chains until the embedding is overlap-free
//! (or attempts are exhausted). Three refinements keep the loop from
//! cycling: chains are trimmed to leaf-free cores after every pass, a
//! best-state snapshot is restored when a pass runs away, and a
//! large-neighbourhood "kick" (tearing out *all* contended chains at once,
//! with a grace period before snap-back) breaks multi-chain contention
//! cycles that single-chain moves reproduce.
//!
//! The Dijkstra searches are nearly all of the embedder's time. A placement
//! runs its searches, one per placed neighbour, in lockstep on one private
//! monotone radix queue keyed by the bit pattern of the tentative `f64`
//! distance. Each search pops exactly a prefix of the `(distance, qubit)`
//! sequence a binary min-heap of such pairs would pop:
//!
//! - distances start at `+0.0` and grow by costs `penalty_base^usage >= 0`,
//!   so keys are never negative or NaN, and their unsigned bit order is
//!   their numeric order ([`Embedder::embed`] rejects any other base);
//! - every push is `d + cost >= d` for the popped `d`, so keys never fall
//!   below the last popped key, which is all a radix queue needs;
//! - the entries equal to the last popped key drain in ascending qubit
//!   order, and a push that rounding makes equal to it (`d + cost == d`)
//!   is inserted at its place in that order, just where the heap pops it.
//!
//! A placement reads only the root, the qubit with the smallest total
//! `cost[q] + Σ dist_r[q]`, and the paths back from it, so the searches
//! stop once no qubit can beat the best root found so far:
//!
//! - a qubit's total is computed, exactly as a full scan would, once every
//!   search has settled it; the smallest total wins, and the smallest
//!   index among equal totals;
//! - every distance a search has not settled is at least `next`, the
//!   smallest key still queued, so a qubit's total is at least its cost
//!   plus its settled distances plus `next` per search that has not
//!   settled it, and at least `min(cost) + next + … + next` if no search
//!   has settled it;
//! - the searches stop once the best total is strictly below every such
//!   bound, so no unsettled qubit can win or tie. Rounding is monotone, so
//!   a bound added in search order, as a total is, holds as computed; one
//!   built from a partial sum, which adds in settle order, is scaled down
//!   by a margin larger than the rounding error of the reordering. A qubit
//!   whose bound held once cannot win later either (its total is fixed,
//!   and the best total only falls), so it is not checked again.
//!
//! A settled qubit's distance and predecessor are final, and every path
//! back from the root runs through settled qubits. So every chain, and
//! therefore every embedding, is the one full heap-based searches found.

use std::cmp::Reverse;

use rand::rngs::StdRng;
use rand::seq::{IndexedRandom, SliceRandom};
use rand::SeedableRng;

use qjo_transpile::Topology;

/// A minor embedding: `chains[v]` lists the physical qubits representing
/// logical variable `v`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Embedding {
    /// Physical qubit chains, one per logical variable.
    pub chains: Vec<Vec<usize>>,
}

/// Why an embedding is invalid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EmbeddingError {
    /// A variable's chain is empty.
    EmptyChain(usize),
    /// Two chains share physical qubit `qubit`.
    Overlap {
        /// First chain.
        a: usize,
        /// Second chain.
        b: usize,
        /// The shared physical qubit.
        qubit: usize,
    },
    /// A chain is not connected in the hardware graph.
    DisconnectedChain(usize),
    /// A source edge has no physical coupler between its chains.
    MissingCoupler(usize, usize),
}

impl std::fmt::Display for EmbeddingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EmbeddingError::EmptyChain(v) => write!(f, "variable {v} has an empty chain"),
            EmbeddingError::Overlap { a, b, qubit } => {
                write!(f, "chains {a} and {b} overlap at physical qubit {qubit}")
            }
            EmbeddingError::DisconnectedChain(v) => {
                write!(f, "chain of variable {v} is disconnected")
            }
            EmbeddingError::MissingCoupler(a, b) => {
                write!(f, "no physical coupler between chains {a} and {b}")
            }
        }
    }
}

impl std::error::Error for EmbeddingError {}

impl Embedding {
    /// Total physical qubits used (the quantity Fig. 3 reports).
    pub fn num_physical_qubits(&self) -> usize {
        self.chains.iter().map(Vec::len).sum()
    }

    /// Length of the longest chain.
    pub fn max_chain_length(&self) -> usize {
        self.chains.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Verifies minor-embedding validity: non-empty, pairwise-disjoint,
    /// connected chains, and a physical coupler for every source edge.
    pub fn validate(
        &self,
        source_edges: &[(usize, usize)],
        target: &Topology,
    ) -> Result<(), EmbeddingError> {
        let mut owner = vec![usize::MAX; target.num_qubits()];
        for (v, chain) in self.chains.iter().enumerate() {
            if chain.is_empty() {
                return Err(EmbeddingError::EmptyChain(v));
            }
            for &q in chain {
                if owner[q] != usize::MAX {
                    return Err(EmbeddingError::Overlap { a: owner[q], b: v, qubit: q });
                }
                owner[q] = v;
            }
        }
        // Connectivity of each chain (BFS within the chain set).
        for (v, chain) in self.chains.iter().enumerate() {
            let inside: std::collections::HashSet<usize> = chain.iter().copied().collect();
            let mut seen = std::collections::HashSet::from([chain[0]]);
            let mut stack = vec![chain[0]];
            while let Some(q) = stack.pop() {
                for &w in target.neighbors(q) {
                    if inside.contains(&w) && seen.insert(w) {
                        stack.push(w);
                    }
                }
            }
            if seen.len() != chain.len() {
                return Err(EmbeddingError::DisconnectedChain(v));
            }
        }
        // Edge coverage.
        for &(a, b) in source_edges {
            let covered = self.chains[a]
                .iter()
                .any(|&qa| target.neighbors(qa).iter().any(|&w| self.chains[b].contains(&w)));
            if !covered {
                return Err(EmbeddingError::MissingCoupler(a, b));
            }
        }
        Ok(())
    }
}

/// Configuration of the embedding heuristic.
#[derive(Debug, Clone)]
pub struct Embedder {
    /// Independent restarts with different variable orders.
    pub max_tries: usize,
    /// Rip-up-and-re-route passes per try.
    pub improvement_passes: usize,
    /// Base of the exponential overlap penalty; must be finite and > 0.
    pub penalty_base: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Embedder {
    fn default() -> Self {
        Embedder { max_tries: 8, improvement_passes: 64, penalty_base: 8.0, seed: 0 }
    }
}

/// The neighbour searches of one [`State::place`] call: one usage-weighted
/// multi-source Dijkstra per placed neighbour chain, run in lockstep on one
/// monotone radix queue (the exactness argument is in the module docs).
///
/// A key is the bit pattern of a non-negative, non-NaN distance, and no
/// push is below the last popped key `last`, which all searches share. A
/// queued entry is an id `search << qubit_bits | qubit` without its key:
/// the key is that search's `dist` of the qubit. The costs sit on qubits,
/// so a qubit's first relaxation comes from the smallest popped distance
/// and sets its final distance: each search pushes a qubit at most once,
/// and no id goes stale. `buckets[i]` holds the ids whose key first
/// differs from `last` at bit `i`, so a lower bucket holds only smaller
/// keys. Each search's ids whose key equals `last` are the set bits of its
/// tie bitset and pop in ascending qubit order.
struct Searches {
    /// Qubits in the target.
    n: usize,
    /// `u64` words in one per-search bitset.
    words: usize,
    /// Low bits of an id that hold the qubit.
    qubit_bits: u32,
    /// `dist[r * n + q]` and `pred[r * n + q]`: search `r`'s distance to
    /// `q` and the qubit it came from, final once set.
    dist: Vec<f64>,
    pred: Vec<usize>,
    /// Per search, a bitset of the qubits queued at key `last`.
    ties: Vec<u64>,
    /// Per search, the set bits in its tie bitset, and a word before which
    /// none is set (`usize::MAX` while there is none).
    num_ties: Vec<usize>,
    first_tie_word: Vec<usize>,
    last: u64,
    buckets: [Vec<u32>; 64],
    /// Bit `i` set iff `buckets[i]` is non-empty.
    occupied: u64,
    /// Per qubit, the searches that settled it, and its cost plus the
    /// distances they settled it at (added in settle order); `partial` is
    /// set for the qubits in `touched`, those some search settled, in
    /// first-settle order.
    count: Vec<usize>,
    partial: Vec<f64>,
    touched: Vec<usize>,
}

impl Searches {
    fn new(num_qubits: usize) -> Self {
        Searches {
            n: num_qubits,
            words: num_qubits.div_ceil(64),
            qubit_bits: usize::BITS - num_qubits.saturating_sub(1).leading_zeros(),
            dist: Vec::new(),
            pred: Vec::new(),
            ties: Vec::new(),
            num_ties: Vec::new(),
            first_tie_word: Vec::new(),
            last: 0,
            buckets: std::array::from_fn(|_| Vec::new()),
            occupied: 0,
            count: vec![0; num_qubits],
            partial: vec![0.0; num_qubits],
            touched: Vec::new(),
        }
    }

    /// Starts `deg` searches, search `r` from every qubit of
    /// `sources(r)` at distance `+0.0`, keeping the allocations.
    fn reset<'s>(&mut self, deg: usize, sources: impl Fn(usize) -> &'s [usize]) {
        assert!(
            deg <= (u32::MAX >> self.qubit_bits) as usize + 1,
            "search ids must fit u32: {deg} searches over {} qubits",
            self.n
        );
        let (n, words) = (self.n, self.words);
        self.dist.clear();
        self.dist.resize(deg * n, f64::INFINITY);
        self.pred.clear();
        self.pred.resize(deg * n, usize::MAX);
        self.ties.clear();
        self.ties.resize(deg * words, 0);
        self.num_ties.clear();
        self.num_ties.resize(deg, 0);
        self.first_tie_word.clear();
        self.first_tie_word.resize(deg, usize::MAX);
        self.last = 0;
        while self.occupied != 0 {
            let b = self.occupied.trailing_zeros() as usize;
            self.buckets[b].clear();
            self.occupied &= self.occupied - 1;
        }
        for q in self.touched.drain(..) {
            self.count[q] = 0;
        }
        for r in 0..deg {
            for &s in sources(r) {
                self.dist[r * n + s] = 0.0;
                self.push_tie(r, s);
            }
        }
    }

    fn push(&mut self, r: usize, key: u64, q: usize) {
        debug_assert!(key >= self.last, "radix queue keys must never fall below the last pop");
        if key == self.last {
            self.push_tie(r, q);
        } else {
            self.push_bucket(key, (r << self.qubit_bits | q) as u32);
        }
    }

    fn push_tie(&mut self, r: usize, q: usize) {
        let (word, bit) = (q / 64, 1u64 << (q % 64));
        let ties = &mut self.ties[r * self.words + word];
        if *ties & bit == 0 {
            *ties |= bit;
            self.num_ties[r] += 1;
        }
        self.first_tie_word[r] = self.first_tie_word[r].min(word);
    }

    fn push_bucket(&mut self, key: u64, id: u32) {
        let b = 63 - (key ^ self.last).leading_zeros() as usize;
        self.buckets[b].push(id);
        self.occupied |= 1 << b;
    }

    /// Pops search `r`'s smallest qubit at key `last`.
    fn pop_tie(&mut self, r: usize) -> Option<usize> {
        if self.num_ties[r] == 0 {
            return None;
        }
        let ties = &mut self.ties[r * self.words..(r + 1) * self.words];
        let mut w = self.first_tie_word[r];
        while ties[w] == 0 {
            w += 1;
        }
        let q = w * 64 + ties[w].trailing_zeros() as usize;
        ties[w] &= ties[w] - 1;
        self.num_ties[r] -= 1;
        self.first_tie_word[r] = if self.num_ties[r] == 0 { usize::MAX } else { w };
        Some(q)
    }

    /// Moves `last` up to the smallest key still queued and files that
    /// key's ids as ties; `false` once every search has run dry. Call it
    /// only when no search has a tie left.
    fn advance(&mut self) -> bool {
        if self.occupied == 0 {
            return false;
        }
        // The lowest non-empty bucket holds the smallest keys. Its minimum
        // becomes `last`; the rest of the bucket moves to strictly lower
        // buckets relative to the new `last`.
        let b = self.occupied.trailing_zeros() as usize;
        self.occupied &= !(1 << b);
        let mut bucket = std::mem::take(&mut self.buckets[b]);
        self.last = bucket.iter().map(|&id| self.key(id)).min().expect("occupied bucket");
        for &id in &bucket {
            let key = self.key(id);
            if key == self.last {
                let (r, q) = self.split(id);
                self.push_tie(r, q);
            } else {
                self.push_bucket(key, id);
            }
        }
        bucket.clear();
        self.buckets[b] = bucket;
        true
    }

    /// An id's search and qubit.
    fn split(&self, id: u32) -> (usize, usize) {
        let id = id as usize;
        (id >> self.qubit_bits, id & ((1 << self.qubit_bits) - 1))
    }

    /// An id's key.
    fn key(&self, id: u32) -> u64 {
        let (r, q) = self.split(id);
        self.dist[r * self.n + q].to_bits()
    }
}

/// The target's adjacency in compressed sparse rows of `u32`: the
/// neighbours of `q` are `targets[offsets[q]..offsets[q + 1]]`, in
/// [`Topology::neighbors`] order, so the searches relax edges in the same
/// order as on the topology itself.
struct Csr {
    offsets: Vec<u32>,
    targets: Vec<u32>,
}

impl Csr {
    fn new(target: &Topology) -> Self {
        let n = target.num_qubits();
        let as_u32 = |x: usize| u32::try_from(x).expect("target adjacency fits u32 indices");
        let mut offsets = Vec::with_capacity(n + 1);
        let mut targets = Vec::new();
        offsets.push(0);
        for q in 0..n {
            targets.extend(target.neighbors(q).iter().map(|&w| as_u32(w)));
            offsets.push(as_u32(targets.len()));
        }
        Csr { offsets, targets }
    }

    fn neighbors(&self, q: usize) -> &[u32] {
        &self.targets[self.offsets[q] as usize..self.offsets[q + 1] as usize]
    }
}

/// The embedder's working state. One `State` serves every try of an
/// [`Embedder::embed`] call, so its buffers are allocated once per call.
struct State<'a> {
    target: &'a Topology,
    chains: Vec<Vec<usize>>,
    usage: Vec<u32>,
    /// Cached `penalty_base^usage[q]`, kept in sync by claim/release.
    cost: Vec<f64>,
    adjacency: Vec<Vec<usize>>, // source graph
    penalty_base: f64,
    /// The latest placement's neighbour searches; their buffers are reused.
    searches: Searches,
    /// `target`'s adjacency, laid out for the searches.
    csr: Csr,
    /// `owner[q] == v` marks q as inside the neighbour chain a path walk is
    /// currently targeting (epoch-stamped via `owner_epoch`).
    owner_epoch: Vec<u32>,
    epoch: u32,
    /// Neighbour searches run and qubits they settled, summed over every
    /// placement (the `embed.searches` and `embed.settles` counters).
    num_searches: u64,
    num_settles: u64,
}

impl<'a> State<'a> {
    fn new(target: &'a Topology, adjacency: Vec<Vec<usize>>, penalty_base: f64) -> Self {
        let n = target.num_qubits();
        State {
            target,
            chains: vec![Vec::new(); adjacency.len()],
            usage: vec![0; n],
            cost: vec![1.0; n],
            adjacency,
            penalty_base,
            searches: Searches::new(n),
            csr: Csr::new(target),
            owner_epoch: vec![0; n],
            epoch: 0,
            num_searches: 0,
            num_settles: 0,
        }
    }

    /// Clears every chain for a fresh try at the given penalty base. The
    /// epoch keeps counting, so stale `owner_epoch` stamps never match.
    fn reset(&mut self, penalty_base: f64) {
        self.chains = vec![Vec::new(); self.adjacency.len()];
        self.usage.fill(0);
        self.cost.fill(1.0);
        self.penalty_base = penalty_base;
    }

    fn set_penalty_base(&mut self, base: f64) {
        self.penalty_base = base;
        for (q, c) in self.cost.iter_mut().enumerate() {
            *c = base.powi(self.usage[q] as i32);
        }
    }

    fn claim(&mut self, v: usize, chain: Vec<usize>) {
        for &q in &chain {
            self.usage[q] += 1;
            self.cost[q] = self.penalty_base.powi(self.usage[q] as i32);
        }
        self.chains[v] = chain;
    }

    fn release(&mut self, v: usize) {
        let chain = std::mem::take(&mut self.chains[v]);
        for &q in &chain {
            self.usage[q] -= 1;
            self.cost[q] = self.penalty_base.powi(self.usage[q] as i32);
        }
    }

    /// Runs one search from each chain in `neighbors` and returns the
    /// root: the qubit with the smallest `cost[q] + Σ dist_r[q]`, summed in
    /// search order, and the smallest such qubit among equal totals.
    /// `None` when no total is finite.
    fn find_root(&mut self, neighbors: &[usize]) -> Option<usize> {
        let deg = neighbors.len();
        let s = &mut self.searches;
        let (n, cost) = (s.n, &self.cost);
        s.reset(deg, |r| &self.chains[neighbors[r]]);
        self.num_searches += deg as u64;
        // A partial sum adds in settle order, not search order, so its bound
        // is scaled down by more than the rounding error that can make.
        let margin = 1.0 - 8.0 * (deg + 2) as f64 * f64::EPSILON;
        let bound = |partial: f64, unsettled: usize, next: f64| {
            (partial + unsettled as f64 * next).min(f64::MAX) * margin
        };
        let min_cost = cost.iter().copied().fold(f64::INFINITY, f64::min);
        let (mut best, mut best_root) = (f64::INFINITY, None);
        // A qubit once shown unable to win stays so: its total is fixed and
        // `best` only falls. `touched[..cleared]` are such qubits, and so
        // are `touched[safe..]` once the bound on untouched qubits held.
        let (mut cleared, mut safe) = (0, None);
        loop {
            let d = f64::from_bits(s.last);
            for r in 0..deg {
                while let Some(q) = s.pop_tie(r) {
                    self.num_settles += 1;
                    debug_assert_eq!(s.dist[r * n + q].to_bits(), s.last);
                    for &w in self.csr.neighbors(q) {
                        let w = w as usize;
                        let nd = d + cost[w];
                        if nd < s.dist[r * n + w] {
                            debug_assert_eq!(s.dist[r * n + w], f64::INFINITY, "pushed twice");
                            s.dist[r * n + w] = nd;
                            s.pred[r * n + w] = q;
                            s.push(r, nd.to_bits(), w);
                        }
                    }
                    s.count[q] += 1;
                    if s.count[q] == 1 {
                        s.touched.push(q);
                        s.partial[q] = cost[q];
                    }
                    if s.count[q] < deg {
                        s.partial[q] += d;
                        continue;
                    }
                    let total = (0..deg).fold(cost[q], |total, r| total + s.dist[r * n + q]);
                    if total < best || (total == best && best_root.is_some_and(|root| q < root)) {
                        (best, best_root) = (total, Some(q));
                    }
                }
            }
            if !s.advance() {
                return best_root;
            }
            if best_root.is_none() {
                continue;
            }
            let next = f64::from_bits(s.last);
            // Added in search order, as a total is, and rounding is
            // monotone, so this bounds an untouched qubit without a margin.
            let end = match safe {
                Some(end) => end,
                None if s.touched.len() < n
                    && best >= (0..deg).fold(min_cost, |bound, _| bound + next) =>
                {
                    continue
                }
                None => *safe.insert(s.touched.len()),
            };
            while cleared < end {
                let q = s.touched[cleared];
                let c = s.count[q];
                if c != deg && best >= bound(s.partial[q], deg - c, next) {
                    break;
                }
                cleared += 1;
            }
            if cleared == end {
                return best_root;
            }
        }
    }

    /// (Re-)places variable `v`, allowing overlaps (penalised).
    fn place(&mut self, v: usize, rng: &mut StdRng) {
        let placed_neighbors: Vec<usize> =
            self.adjacency[v].iter().copied().filter(|&u| !self.chains[u].is_empty()).collect();
        if placed_neighbors.is_empty() {
            // Isolated (so far): take the least-used qubit, random tie-break.
            let min_use = *self.usage.iter().min().expect("non-empty target");
            let candidates: Vec<usize> =
                (0..self.usage.len()).filter(|&q| self.usage[q] == min_use).collect();
            let q = *candidates.choose(rng).expect("non-empty");
            self.claim(v, vec![q]);
            return;
        }

        // Root minimising total path cost (the root's own usage cost is
        // counted once per search — a harmless bias toward unused roots).
        let best_root = self.find_root(&placed_neighbors).expect("target graph has no vertices");

        // Chain = root plus interior of each path back to the neighbour
        // chains (path endpoints inside neighbour chains are excluded).
        let n = self.target.num_qubits();
        let mut chain_set = std::collections::BTreeSet::from([best_root]);
        for (run_idx, &u) in placed_neighbors.iter().enumerate() {
            // Epoch-stamp the neighbour chain for O(1) membership checks.
            self.epoch += 1;
            for &q in &self.chains[u] {
                self.owner_epoch[q] = self.epoch;
            }
            let pred = &self.searches.pred[run_idx * n..(run_idx + 1) * n];
            let mut cur = best_root;
            while self.owner_epoch[cur] != self.epoch {
                chain_set.insert(cur);
                cur = pred[cur];
                if cur == usize::MAX {
                    // Neighbour unreachable; leave partial (validation will
                    // reject, and the next try may fare better).
                    break;
                }
            }
        }
        self.claim(v, chain_set.into_iter().collect());
    }

    /// Removes unnecessary leaf qubits from `v`'s chain while keeping the
    /// chain connected and every placed-neighbour adjacency covered.
    /// Run between improvement passes to keep chains lean, and once more
    /// on every chain of an overlap-free result.
    fn trim(&mut self, v: usize) {
        loop {
            let chain = &self.chains[v];
            if chain.len() <= 1 {
                return;
            }
            self.epoch += 1;
            for &q in chain {
                self.owner_epoch[q] = self.epoch;
            }
            let chain_epoch = self.epoch;
            let mut removed = None;
            'candidates: for (idx, &q) in chain.iter().enumerate() {
                let internal_degree = self
                    .target
                    .neighbors(q)
                    .iter()
                    .filter(|&&w| self.owner_epoch[w] == chain_epoch)
                    .count();
                if internal_degree != 1 {
                    continue;
                }
                for &u in &self.adjacency[v] {
                    let other = &self.chains[u];
                    if other.is_empty() {
                        continue;
                    }
                    let covered = chain.iter().enumerate().any(|(j, &qa)| {
                        j != idx && self.target.neighbors(qa).iter().any(|w| other.contains(w))
                    });
                    if !covered {
                        continue 'candidates;
                    }
                }
                removed = Some((idx, q));
                break;
            }
            match removed {
                Some((idx, q)) => {
                    self.chains[v].remove(idx);
                    self.usage[q] -= 1;
                    self.cost[q] = self.penalty_base.powi(self.usage[q] as i32);
                }
                None => return,
            }
        }
    }

    /// Adds this call's search work to the `embed.searches` and
    /// `embed.settles` counters; tallied per call, so the searches touch
    /// no shared counter.
    fn flush_counters(&self) {
        qjo_obs::counter!("embed.searches").add(self.num_searches);
        qjo_obs::counter!("embed.settles").add(self.num_settles);
    }

    fn max_usage(&self) -> u32 {
        self.usage.iter().copied().max().unwrap_or(0)
    }

    /// Replaces all chains with a snapshot, rebuilding usage and costs.
    fn restore(&mut self, chains: &[Vec<usize>]) {
        self.chains = chains.to_vec();
        self.usage.fill(0);
        for chain in &self.chains {
            for &q in chain {
                self.usage[q] += 1;
            }
        }
        let base = self.penalty_base;
        for (q, c) in self.cost.iter_mut().enumerate() {
            *c = base.powi(self.usage[q] as i32);
        }
    }
}

impl Embedder {
    /// Attempts to embed the source graph (given as `num_vars` and an edge
    /// list) into `target`. Returns a validated embedding or `None`.
    ///
    /// # Panics
    /// Panics if `penalty_base` is not finite and > 0, or if a source edge
    /// names a variable `>= num_vars`.
    pub fn embed(
        &self,
        num_vars: usize,
        source_edges: &[(usize, usize)],
        target: &Topology,
    ) -> Option<Embedding> {
        assert!(
            self.penalty_base.is_finite() && self.penalty_base > 0.0,
            "Embedder::penalty_base must be finite and > 0, got {}",
            self.penalty_base
        );
        if num_vars == 0 {
            return Some(Embedding { chains: Vec::new() });
        }
        if target.num_qubits() == 0 {
            return None;
        }
        let mut adjacency = vec![Vec::new(); num_vars];
        for &(a, b) in source_edges {
            assert!(a < num_vars && b < num_vars, "source edge out of range");
            if a != b {
                adjacency[a].push(b);
                adjacency[b].push(a);
            }
        }
        for list in &mut adjacency {
            list.sort_unstable();
            list.dedup();
        }

        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut state = State::new(target, adjacency, self.penalty_base);
        for _try in 0..self.max_tries {
            qjo_obs::counter!("embed.tries").incr();
            state.reset(self.penalty_base);
            // Place in BFS order from a max-degree variable (random
            // tie-breaking), so every new variable lands next to already
            // placed neighbours instead of a random spot.
            let mut order: Vec<usize> = (0..num_vars).collect();
            order.shuffle(&mut rng);
            order.sort_by_key(|&v| Reverse(state.adjacency[v].len()));
            let order = {
                let mut bfs = Vec::with_capacity(num_vars);
                let mut seen = vec![false; num_vars];
                for &start in &order {
                    if seen[start] {
                        continue;
                    }
                    seen[start] = true;
                    let mut queue = std::collections::VecDeque::from([start]);
                    while let Some(v) = queue.pop_front() {
                        bfs.push(v);
                        for &u in &state.adjacency[v] {
                            if !seen[u] {
                                seen[u] = true;
                                queue.push_back(u);
                            }
                        }
                    }
                }
                bfs
            };
            for &v in &order {
                state.place(v, &mut rng);
            }
            // Rip up and re-route every variable until overlap-free
            // (minorminer's improvement loop), ramping the overlap penalty
            // so persistent contention gets increasingly expensive. When
            // one-at-a-time re-routing stalls, a large-neighbourhood kick
            // tears out *all* contended chains at once and re-places them,
            // which breaks the A↔B↔C contention cycles single-variable
            // moves keep reproducing.
            for v in 0..num_vars {
                state.trim(v);
            }
            let overfill_of =
                |state: &State| -> u32 { state.usage.iter().map(|&u| u.saturating_sub(1)).sum() };
            let mut best_chains = state.chains.clone();
            let mut best_overfill = overfill_of(&state);
            let mut stalled = 0usize;
            // Passes after a kick during which the (worse) perturbed state
            // is allowed to re-optimise without being snapped back.
            let mut grace = 0usize;
            let mut epoch_start = 0usize;
            for pass in 0..self.improvement_passes {
                if state.max_usage() <= 1 {
                    break;
                }
                // Escalate the overlap penalty steadily (×2 every few
                // passes, capped) so early passes can still share qubits
                // while late passes strongly repel contention. The schedule
                // restarts after each kick.
                state.set_penalty_base(
                    self.penalty_base
                        * (1u64 << ((pass - epoch_start) / 3 + stalled).min(9)) as f64,
                );
                // Re-route only the chains involved in contention; touching
                // settled chains mostly re-introduces churn. Every tenth
                // pass re-routes everything once, which lets a locally
                // congested blob of chains spread into free regions that
                // contended-only moves never reach.
                let mut contended: Vec<usize> = if pass % 10 == 9 {
                    (0..num_vars).collect()
                } else {
                    (0..num_vars)
                        .filter(|&v| state.chains[v].iter().any(|&q| state.usage[q] > 1))
                        .collect()
                };
                contended.shuffle(&mut rng);
                if stalled >= 4 {
                    // Large-neighbourhood kick: tear out all contended
                    // chains — plus a random half of their source-graph
                    // neighbours for diversity — to break contention cycles
                    // that one-at-a-time re-routing keeps reproducing.
                    // Re-place most-connected-first so no variable starts
                    // from a random orphan spot.
                    use rand::RngExt;
                    let mut widened: Vec<usize> = contended.clone();
                    for &v in &contended {
                        for &u in &state.adjacency[v] {
                            if rng.random_bool(0.5) {
                                widened.push(u);
                            }
                        }
                    }
                    widened.sort_unstable();
                    widened.dedup();
                    contended = widened;
                    for &v in &contended {
                        state.release(v);
                    }
                    contended.sort_by_key(|&v| {
                        Reverse(
                            state.adjacency[v]
                                .iter()
                                .filter(|&&u| !state.chains[u].is_empty())
                                .count(),
                        )
                    });
                    stalled = 0;
                    grace = 8;
                    epoch_start = pass;
                }
                for &v in &contended {
                    state.release(v);
                    state.place(v, &mut rng);
                }
                for &v in &contended {
                    state.trim(v);
                }
                let overfill = overfill_of(&state);
                if overfill < best_overfill {
                    best_overfill = overfill;
                    best_chains = state.chains.clone();
                    stalled = 0;
                } else if grace > 0 {
                    grace -= 1; // let a kick's perturbation settle
                } else {
                    stalled += 1;
                    // Runaway pass: restore the best snapshot rather than
                    // digging deeper into a worse configuration.
                    if overfill > best_overfill.saturating_mul(3) / 2 + 4 {
                        state.restore(&best_chains);
                    }
                }
                if qjo_obs::log::enabled(qjo_obs::log::Level::Debug) {
                    let chain_total: usize = state.chains.iter().map(Vec::len).sum();
                    qjo_obs::debug!(
                        "embed try {_try} pass {pass}: max_usage={} overfill={overfill} best={best_overfill} chain_qubits={chain_total}",
                        state.max_usage()
                    );
                }
            }
            if state.max_usage() > 1 && best_overfill < overfill_of(&state) {
                state.restore(&best_chains);
            }
            if state.max_usage() <= 1 {
                for v in 0..num_vars {
                    state.trim(v);
                }
                let embedding = Embedding { chains: std::mem::take(&mut state.chains) };
                if embedding.validate(source_edges, target).is_ok() {
                    state.flush_counters();
                    return Some(embedding);
                }
            }
        }
        state.flush_counters();
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hardware::{chimera, pegasus_like};

    fn complete_edges(n: usize) -> Vec<(usize, usize)> {
        let mut e = Vec::new();
        for a in 0..n {
            for b in a + 1..n {
                e.push((a, b));
            }
        }
        e
    }

    #[test]
    fn identity_embedding_on_matching_graph() {
        // Source = line of 4; target = line of 4 (plus slack).
        let target = Topology::line(8);
        let edges = vec![(0, 1), (1, 2), (2, 3)];
        // The embedder is randomised and not guaranteed minimal: some seeds
        // leave a redundant length-2 chain on this instance. Seed 1 is
        // pinned to one that finds the all-singleton embedding, which is
        // what this test is about.
        let e = (Embedder { seed: 1, ..Default::default() })
            .embed(4, &edges, &target)
            .expect("line into line");
        assert!(e.validate(&edges, &target).is_ok());
        // A path embeds with all chains length 1 after trimming.
        assert_eq!(e.max_chain_length(), 1, "chains: {:?}", e.chains);
    }

    #[test]
    fn triangle_into_line_is_impossible() {
        // K3 is not a minor of a path graph.
        let target = Topology::line(10);
        let edges = complete_edges(3);
        assert!(Embedder::default().embed(3, &edges, &target).is_none());
    }

    #[test]
    fn triangle_into_grid_uses_chains() {
        let target = Topology::grid(4, 4);
        let edges = complete_edges(3);
        let e = Embedder::default().embed(3, &edges, &target).expect("K3 into grid");
        assert!(e.validate(&edges, &target).is_ok());
    }

    #[test]
    fn k6_embeds_into_chimera_with_chains() {
        // Chimera has no K6 subgraph (max degree 6, bipartite cells), so
        // chains are mandatory; minorminer-class heuristics find this easily.
        let target = chimera(4);
        let edges = complete_edges(6);
        let e = Embedder::default().embed(6, &edges, &target).expect("K6 into C4");
        assert!(e.validate(&edges, &target).is_ok());
        assert!(e.max_chain_length() >= 2, "K6 needs chains on Chimera");
    }

    #[test]
    fn larger_cliques_fit_pegasus_like() {
        let target = pegasus_like(6);
        let edges = complete_edges(10);
        let e = Embedder { seed: 1, ..Default::default() }
            .embed(10, &edges, &target)
            .expect("K10 into Pegasus-like(6)");
        assert!(e.validate(&edges, &target).is_ok());
        // Clique embeddings on Pegasus need roughly n²/12-ish qubits; just
        // sanity-bound the overhead.
        assert!(e.num_physical_qubits() >= 10);
        assert!(e.num_physical_qubits() < 200);
    }

    #[test]
    fn pegasus_beats_chimera_on_clique_size() {
        // Same physical-qubit budget: the denser graph needs fewer qubits
        // for the same clique.
        let n = 8;
        let edges = complete_edges(n);
        let ce = Embedder::default().embed(n, &edges, &chimera(5)).expect("K8 on chimera");
        let pe = Embedder::default().embed(n, &edges, &pegasus_like(5)).expect("K8 on pegasus");
        assert!(
            pe.num_physical_qubits() <= ce.num_physical_qubits(),
            "pegasus {} vs chimera {}",
            pe.num_physical_qubits(),
            ce.num_physical_qubits()
        );
    }

    #[test]
    fn validation_rejects_broken_embeddings() {
        let target = Topology::line(6);
        let edges = vec![(0, 1)];
        // Empty chain.
        let e = Embedding { chains: vec![vec![], vec![0]] };
        assert!(matches!(e.validate(&edges, &target), Err(EmbeddingError::EmptyChain(0))));
        // Overlap.
        let e = Embedding { chains: vec![vec![2], vec![2]] };
        assert!(matches!(
            e.validate(&edges, &target),
            Err(EmbeddingError::Overlap { qubit: 2, .. })
        ));
        // Disconnected chain.
        let e = Embedding { chains: vec![vec![0, 3], vec![1]] };
        assert!(matches!(e.validate(&edges, &target), Err(EmbeddingError::DisconnectedChain(0))));
        // Missing coupler.
        let e = Embedding { chains: vec![vec![0], vec![4]] };
        assert!(matches!(e.validate(&edges, &target), Err(EmbeddingError::MissingCoupler(0, 1))));
        // And a correct one passes.
        let e = Embedding { chains: vec![vec![0], vec![1]] };
        assert!(e.validate(&edges, &target).is_ok());
    }

    #[test]
    fn deterministic_per_seed() {
        let target = chimera(4);
        let edges = complete_edges(5);
        let a = Embedder { seed: 9, ..Default::default() }.embed(5, &edges, &target);
        let b = Embedder { seed: 9, ..Default::default() }.embed(5, &edges, &target);
        assert_eq!(a, b);
    }

    #[test]
    fn empty_and_trivial_sources() {
        let target = Topology::line(4);
        let e = Embedder::default().embed(0, &[], &target).expect("empty source");
        assert_eq!(e.chains.len(), 0);
        let e = Embedder::default().embed(2, &[], &target).expect("two isolated vars");
        assert_eq!(e.chains.len(), 2);
        assert!(e.validate(&[], &target).is_ok());
    }

    #[test]
    #[should_panic(expected = "penalty_base must be finite and > 0")]
    fn nan_penalty_base_is_rejected() {
        let embedder = Embedder { penalty_base: f64::NAN, ..Default::default() };
        embedder.embed(3, &complete_edges(3), &Topology::grid(4, 4));
    }

    #[test]
    #[should_panic(expected = "penalty_base must be finite and > 0")]
    fn negative_penalty_base_is_rejected() {
        let embedder = Embedder { penalty_base: -8.0, ..Default::default() };
        embedder.embed(3, &complete_edges(3), &Topology::grid(4, 4));
    }

    /// Total-order wrapper for the reference heap's f64 keys.
    #[derive(PartialEq)]
    struct OrderedF64(f64);
    impl Eq for OrderedF64 {}
    impl Ord for OrderedF64 {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            self.0.partial_cmp(&other.0).expect("costs are never NaN")
        }
    }
    impl PartialOrd for OrderedF64 {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }

    /// A full binary-heap Dijkstra: each early-stopped search of
    /// `State::place` must match it bit for bit on the qubits it settled.
    fn heap_dijkstra(target: &Topology, cost: &[f64], sources: &[usize]) -> (Vec<f64>, Vec<usize>) {
        use std::collections::BinaryHeap;
        let n = target.num_qubits();
        let mut dist = vec![f64::INFINITY; n];
        let mut pred = vec![usize::MAX; n];
        let mut heap: BinaryHeap<Reverse<(OrderedF64, usize)>> = BinaryHeap::new();
        for &s in sources {
            dist[s] = 0.0;
            heap.push(Reverse((OrderedF64(0.0), s)));
        }
        while let Some(Reverse((OrderedF64(d), q))) = heap.pop() {
            if d > dist[q] {
                continue;
            }
            for &w in target.neighbors(q) {
                let nd = d + cost[w];
                if nd < dist[w] {
                    dist[w] = nd;
                    pred[w] = q;
                    heap.push(Reverse((OrderedF64(nd), w)));
                }
            }
        }
        (dist, pred)
    }

    /// The chain a placement takes from full searches: the first qubit
    /// with the smallest finite `cost[q] + Σ dist_r[q]`, plus the paths
    /// back to each neighbour chain. `None` when no total is finite.
    fn full_placement(
        cost: &[f64],
        chains: &[Vec<usize>],
        searches: &[(Vec<f64>, Vec<usize>)],
    ) -> Option<Vec<usize>> {
        let mut best = (f64::INFINITY, None);
        for q in 0..cost.len() {
            let total = searches.iter().fold(cost[q], |total, (dist, _)| total + dist[q]);
            if total < best.0 {
                best = (total, Some(q));
            }
        }
        let root = best.1?;
        let mut chain = std::collections::BTreeSet::from([root]);
        for (sources, (_, pred)) in chains.iter().zip(searches) {
            let mut cur = root;
            while cur != usize::MAX && !sources.contains(&cur) {
                chain.insert(cur);
                cur = pred[cur];
            }
        }
        Some(chain.into_iter().collect())
    }

    /// What the placement checks saw.
    #[derive(Default)]
    struct Seen {
        /// Reached qubits whose distance equals their predecessor's: a
        /// relaxation that rounding absorbed took the tie path.
        absorbed: usize,
        /// Placements that settled fewer qubits than full searches do.
        stopped: usize,
    }

    /// Places `v` and checks the early-stopped searches against full heap
    /// searches from the same chains at the same costs: the same chain,
    /// and the same distance and predecessor on every qubit a search
    /// reached, settled or not, since a qubit's first distance is final.
    fn place_checked(state: &mut State, v: usize, rng: &mut StdRng, seen: &mut Seen) {
        let (target, n) = (state.target, state.target.num_qubits());
        let chains: Vec<Vec<usize>> = state.adjacency[v]
            .iter()
            .map(|&u| state.chains[u].clone())
            .filter(|chain| !chain.is_empty())
            .collect();
        if chains.is_empty() {
            // No search runs: `v` takes a random least-used qubit.
            state.place(v, rng);
            return;
        }
        let want: Vec<_> = chains.iter().map(|c| heap_dijkstra(target, &state.cost, c)).collect();
        // With every total infinite, `place` panics as a full scan always
        // has.
        let Some(want_chain) = full_placement(&state.cost, &chains, &want) else {
            return;
        };
        let settles = state.num_settles;
        state.place(v, rng);
        let base = state.penalty_base;
        assert_eq!(state.chains[v], want_chain, "chain, base {base}");
        let s = &state.searches;
        let mut reached = 0;
        for (r, (want_dist, want_pred)) in want.iter().enumerate() {
            for q in (0..n).filter(|&q| s.dist[r * n + q].is_finite()) {
                let (dist, pred) = (s.dist[r * n + q], s.pred[r * n + q]);
                assert_eq!(dist.to_bits(), want_dist[q].to_bits(), "dist, base {base}");
                assert_eq!(pred, want_pred[q], "pred, base {base}");
                seen.absorbed += usize::from(pred != usize::MAX && dist == want_dist[pred]);
                reached += 1;
            }
        }
        let settled = (state.num_settles - settles) as usize;
        assert!(settled <= reached, "a search settled a qubit twice");
        let full = want.iter().flat_map(|(d, _)| d).filter(|d| d.is_finite()).count();
        seen.stopped += usize::from(settled < full);
    }

    #[test]
    fn early_stopped_placement_matches_full_heap_searches() {
        use rand::RngExt;
        const MAX_DEG: usize = 24;
        let targets = [pegasus_like(4), pegasus_like(8), chimera(3), Topology::grid(7, 5)];
        // 2^40 and 1e200 make `d + cost` round back to `d` (the tie path);
        // 1e200 also overflows some costs to infinity.
        let bases = [8.0, 4096.0, 1.5, 0.5, 2f64.powi(40), 1e200];
        let mut rng = StdRng::seed_from_u64(14);
        let mut seen = Seen::default();
        for target in &targets {
            let n = target.num_qubits();
            // Variable 0 is placed beside variables 1..=MAX_DEG, whose
            // chains are 1-5 random qubits. One state per target, so the
            // buffers are reused as within an `embed` call.
            let mut adjacency = vec![(1..=MAX_DEG).collect::<Vec<_>>()];
            adjacency.extend((0..MAX_DEG).map(|_| vec![0]));
            let mut state = State::new(target, adjacency, 8.0);
            for &base in &bases {
                for trial in 0..24 {
                    // Usage on ~30% of qubits, as during placement; every
                    // other trial on ~70%, which walls regions off behind
                    // costly qubits so that more relaxations tie.
                    let used = if trial % 2 == 0 { 0.3 } else { 0.7 };
                    for q in 0..n {
                        state.usage[q] =
                            if rng.random_bool(used) { rng.random_range(0..=4u32) } else { 0 };
                    }
                    state.set_penalty_base(base);
                    let deg = rng.random_range(1..=MAX_DEG);
                    for u in 1..=MAX_DEG {
                        let mut chain: Vec<usize> = (0..n).collect();
                        chain.shuffle(&mut rng);
                        chain.truncate(if u <= deg { rng.random_range(1..=5usize) } else { 0 });
                        state.chains[u] = chain;
                    }
                    state.chains[0].clear();
                    place_checked(&mut state, 0, &mut rng, &mut seen);
                }
            }
            // The embedder's own moves: place a K8 variable by variable,
            // then rip up and re-place every chain under a rising penalty.
            // Paths of unused qubits tie often here.
            let adjacency = (0..8).map(|v| (0..8).filter(|&u| u != v).collect()).collect();
            let mut state = State::new(target, adjacency, 8.0);
            for v in 0..8 {
                place_checked(&mut state, v, &mut rng, &mut seen);
            }
            for pass in 0..12 {
                state.set_penalty_base(8.0 * f64::from(1 << (pass / 3)));
                for v in 0..8 {
                    state.release(v);
                    place_checked(&mut state, v, &mut rng, &mut seen);
                }
            }
        }
        assert!(seen.absorbed > 0, "no relaxation hit the tie-insertion path");
        assert!(seen.stopped > 0, "no placement stopped its searches early");
    }

    #[test]
    fn early_stop_keeps_near_ties_exact_on_small_graphs() {
        // Tiny random graphs with costs set directly: small integers, where
        // totals tie exactly, and inexact decimals, where the settle-order
        // partial sums round apart from the search-order totals. Without
        // the rounding margin, or with a stop on an equal bound, some of
        // these placements take the wrong root.
        use rand::RngExt;
        let mut rng = StdRng::seed_from_u64(28);
        let mut seen = Seen::default();
        for trial in 0..40_000 {
            let n = rng.random_range(3..=9usize);
            let mut edges = Vec::new();
            for a in 0..n {
                for b in a + 1..n {
                    if rng.random_bool(0.35) {
                        edges.push((a, b));
                    }
                }
            }
            let target = Topology::new(n, &edges);
            let deg = rng.random_range(1..=3usize);
            let mut adjacency = vec![(1..=deg).collect::<Vec<_>>()];
            adjacency.extend((0..deg).map(|_| vec![0]));
            let mut state = State::new(&target, adjacency, 8.0);
            for q in 0..n {
                state.cost[q] = if trial % 2 == 0 {
                    f64::from(rng.random_range(1..=4u32))
                } else {
                    *[0.1, 0.2, 0.3, 0.7, 1.1, 1.3].choose(&mut rng).expect("non-empty")
                };
            }
            for u in 1..=deg {
                let mut chain: Vec<usize> = (0..n).collect();
                chain.shuffle(&mut rng);
                chain.truncate(rng.random_range(1..=2usize));
                state.chains[u] = chain;
            }
            place_checked(&mut state, 0, &mut rng, &mut seen);
        }
        assert!(seen.stopped > 0, "no placement stopped its searches early");
    }

    #[test]
    fn chain_statistics() {
        let e = Embedding { chains: vec![vec![0, 1, 2], vec![3]] };
        assert_eq!(e.num_physical_qubits(), 4);
        assert_eq!(e.max_chain_length(), 3);
    }
}
