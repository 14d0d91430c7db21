//! Markov-blanket inference: Gibbs sampling and ICM.
//!
//! C2MN's learning and decoding both operate on *local conditionals*: the
//! probability of one target node's label given its Markov blanket
//! (§IV-A). This module abstracts that interface as [`ConditionalModel`]
//! and provides the two sweep strategies the pipeline uses:
//!
//! * [`gibbs_sweep`] — stochastic resampling (the MCMC inference of
//!   Algorithm 1), run at the temperatures of an [`AnnealSchedule`] for
//!   annealed decoding,
//! * [`icm_sweep`] — iterated conditional modes for greedy decoding.
//!
//! The memoized [`gibbs_sweep_cached`] / [`icm_sweep_cached`] are what the
//! pipeline runs; the naive sweeps stay as their byte-identity reference.

use crate::util::sample_from_log_weights;
use rand::Rng;
use std::sync::atomic::{AtomicU64, Ordering};

/// A model exposing per-site conditional log-potentials.
///
/// A *site* is one target node (e.g. the region label of record `i`); its
/// candidates are a dense `0..num_candidates(site)` relabelling of the
/// admissible labels. `local_log_potential` must return the unnormalised
/// log-probability of assigning `candidate` at `site` **given the current
/// assignment of every other site** (i.e. the sum of the log-potentials of
/// all cliques touching the site).
pub trait ConditionalModel {
    /// Number of sites in the model.
    fn num_sites(&self) -> usize;

    /// Number of candidate labels at `site`.
    fn num_candidates(&self, site: usize) -> usize;

    /// Unnormalised conditional log-potential of `candidate` at `site`
    /// under the current `state` (dense candidate indices per site).
    fn local_log_potential(&self, site: usize, candidate: usize, state: &[usize]) -> f64;

    /// The sites whose conditional could change when `site`'s label moves
    /// from `prev_candidate` to `state[site]` — the *Markov blanket* of
    /// `site`, viewed from the invalidation side.
    ///
    /// The memoized sweeps ([`gibbs_sweep_cached`] / [`icm_sweep_cached`])
    /// call this after every accepted label change (with `state` already
    /// holding the new label) and refill exactly the returned rows of the
    /// [`SweepCache`]. Soundness contract: the result must contain every
    /// site `j ≠ site` whose `local_log_potential(j, ·, ·)` *value*
    /// changes between the pre-flip and post-flip state. Knowing the
    /// previous label lets a model prove value-equality semantically (for
    /// example a feature that only counts distinct labels is unchanged
    /// when both the old and new label still occur elsewhere in its
    /// window) rather than falling back to everything that syntactically
    /// reads `state[site]`. Over-approximating only costs refills;
    /// under-approximating silently corrupts sampling. `site` itself never
    /// needs to be returned: a site's own row substitutes the candidate
    /// and must not read its own state entry.
    ///
    /// The default returns every site, which is always sound and reduces
    /// the cached sweeps to the naive ones.
    fn dependents(
        &self,
        site: usize,
        prev_candidate: usize,
        state: &[usize],
    ) -> impl Iterator<Item = usize> {
        let _ = (site, prev_candidate, state);
        0..self.num_sites()
    }

    /// Writes `site`'s full candidate row —
    /// `local_log_potential(site, c, state)` for `c` in
    /// `0..num_candidates(site)` — into `out`.
    ///
    /// The memoized sweeps refill whole rows through this hook, so a model
    /// can hoist work shared by every candidate of one site (segment
    /// bounds, label-independent feature terms) out of the per-candidate
    /// loop. Overrides must stay **bitwise identical** to the
    /// per-candidate path: evaluate the same floating-point expressions,
    /// only factored — the dual-kernel oracle suites compare the two.
    fn fill_row(&self, site: usize, state: &[usize], out: &mut [f64]) {
        for (c, slot) in out.iter_mut().enumerate() {
            *slot = self.local_log_potential(site, c, state);
        }
    }
}

// Process-wide kernel counters (PoolStats-style: accumulate from process
// start, never reset). `SweepCache` counts locally with plain integers and
// publishes via `flush_stats`, so the hot loop never touches an atomic.
static ROWS_FILLED: AtomicU64 = AtomicU64::new(0);
static ROWS_REUSED: AtomicU64 = AtomicU64::new(0);
static INVALIDATIONS: AtomicU64 = AtomicU64::new(0);
static PAIRWISE_TABLE_BYTES: AtomicU64 = AtomicU64::new(0);

/// Counters of the memoized sweep kernel.
///
/// Returned per cache by [`SweepCache::stats`] (local, unflushed) and
/// process-wide by [`kernel_stats`] (everything flushed so far). A *row*
/// is one site's full vector of candidate log-potentials; the reuse rate
/// is the fraction of visited rows served from cache instead of being
/// recomputed.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct KernelStats {
    /// Rows recomputed because they were dirty (or never filled).
    pub rows_filled: u64,
    /// Rows served from cache without recomputation.
    pub rows_reused: u64,
    /// Rows newly marked dirty by a label change (own-chain blanket
    /// marks plus any external [`SweepCache::invalidate`] calls).
    pub invalidations: u64,
    /// Cumulative bytes of precomputed pairwise feature tables built by
    /// model layers (see `note_pairwise_table_bytes`); only meaningful in
    /// the process-wide snapshot.
    pub pairwise_table_bytes: u64,
}

impl KernelStats {
    /// Adds another snapshot's counters into this one.
    pub fn merge(&mut self, other: &KernelStats) {
        self.rows_filled += other.rows_filled;
        self.rows_reused += other.rows_reused;
        self.invalidations += other.invalidations;
        self.pairwise_table_bytes += other.pairwise_table_bytes;
    }
}

/// Process-wide snapshot of every counter flushed so far (all caches, all
/// threads) — the kernel-side counterpart of a worker pool's `PoolStats`.
pub fn kernel_stats() -> KernelStats {
    KernelStats {
        rows_filled: ROWS_FILLED.load(Ordering::Relaxed),
        rows_reused: ROWS_REUSED.load(Ordering::Relaxed),
        invalidations: INVALIDATIONS.load(Ordering::Relaxed),
        pairwise_table_bytes: PAIRWISE_TABLE_BYTES.load(Ordering::Relaxed),
    }
}

/// Records `bytes` of freshly built pairwise feature tables into the
/// process-wide [`kernel_stats`] counter. Called by model layers (e.g.
/// `ism-c2mn`'s per-sequence context) when they precompute edge tables;
/// the counter is cumulative across the process lifetime.
pub fn note_pairwise_table_bytes(bytes: u64) {
    PAIRWISE_TABLE_BYTES.fetch_add(bytes, Ordering::Relaxed);
}

/// Memoized per-site rows of candidate log-potentials with dirty bits —
/// the state behind [`gibbs_sweep_cached`] and [`icm_sweep_cached`].
///
/// A row holds the **raw** (untempered) log-potential of every candidate
/// at one site. A row is refilled only when dirty; a label change marks
/// exactly the flipped site's [`ConditionalModel::dependents`] dirty.
/// Temperature is applied at sample time (`row[c] * inv_t` — the very
/// expression the naive sweep evaluates), so the cached sweeps are
/// *bitwise identical* to the naive ones: pure memoization, and raw rows
/// stay valid across temperature changes (annealing) and across the
/// Gibbs → ICM hand-off.
///
/// One cache serves one site model over one state vector; call
/// [`reset`](SweepCache::reset) when either changes (e.g. per sequence).
/// Cross-model couplings (another chain's labels feeding this model's
/// potentials) are invalidated externally via
/// [`invalidate`](SweepCache::invalidate).
#[derive(Debug, Default)]
pub struct SweepCache {
    /// Row offset per site into `rows` (`num_sites + 1` entries).
    offsets: Vec<usize>,
    /// Raw log-potential rows, flat.
    rows: Vec<f64>,
    /// Per-site dirty bit.
    dirty: Vec<bool>,
    /// Tempered sampling buffer (reused across sites).
    tempered: Vec<f64>,
    /// Local counters, published by [`flush_stats`](SweepCache::flush_stats).
    stats: KernelStats,
}

impl SweepCache {
    /// Creates an empty cache; buffers grow on first [`reset`](Self::reset).
    pub fn new() -> Self {
        SweepCache::default()
    }

    /// Re-targets the cache at `model`: sizes the row arena and marks every
    /// site dirty. Counters are preserved (they accumulate across resets).
    pub fn reset<M: ConditionalModel + ?Sized>(&mut self, model: &M) {
        let n = model.num_sites();
        self.offsets.clear();
        self.offsets.reserve(n + 1);
        let mut off = 0usize;
        for site in 0..n {
            self.offsets.push(off);
            off += model.num_candidates(site);
        }
        self.offsets.push(off);
        self.rows.clear();
        self.rows.resize(off, 0.0);
        self.dirty.clear();
        self.dirty.resize(n, true);
    }

    /// Marks one site's row dirty (idempotent). External couplings use
    /// this when something *outside* the model's own state — e.g. the
    /// other chain of a coupled network — changes under a row.
    #[inline]
    pub fn invalidate(&mut self, site: usize) {
        if let Some(d) = self.dirty.get_mut(site) {
            if !*d {
                *d = true;
                self.stats.invalidations += 1;
            }
        }
    }

    /// Whether `site`'s row is currently marked dirty (out of sync with
    /// the model state). Diagnostic accessor for tests and tooling.
    pub fn is_dirty(&self, site: usize) -> bool {
        self.dirty[site]
    }

    /// Refreshes every row against `state`, leaving the whole cache clean.
    ///
    /// Used by the blanket-soundness suites: after `fill_all`, the only
    /// dirty rows are those something explicitly invalidates.
    pub fn fill_all<M: ConditionalModel + ?Sized>(&mut self, model: &M, state: &[usize]) {
        for site in 0..model.num_sites() {
            let k = model.num_candidates(site);
            self.refresh_row(model, site, k, state);
        }
    }

    /// Local (unflushed) counters of this cache.
    pub fn stats(&self) -> KernelStats {
        self.stats
    }

    /// Publishes the local counters into the process-wide [`kernel_stats`]
    /// totals and zeroes them.
    pub fn flush_stats(&mut self) {
        let s = std::mem::take(&mut self.stats);
        if s.rows_filled > 0 {
            ROWS_FILLED.fetch_add(s.rows_filled, Ordering::Relaxed);
        }
        if s.rows_reused > 0 {
            ROWS_REUSED.fetch_add(s.rows_reused, Ordering::Relaxed);
        }
        if s.invalidations > 0 {
            INVALIDATIONS.fetch_add(s.invalidations, Ordering::Relaxed);
        }
    }

    /// Ensures `site`'s row holds current raw log-potentials, refilling it
    /// from the model when dirty; returns the row's offset.
    #[inline]
    fn refresh_row<M: ConditionalModel + ?Sized>(
        &mut self,
        model: &M,
        site: usize,
        k: usize,
        state: &[usize],
    ) -> usize {
        let off = self.offsets[site];
        if self.dirty[site] {
            model.fill_row(site, state, &mut self.rows[off..off + k]);
            self.dirty[site] = false;
            self.stats.rows_filled += 1;
        } else {
            self.stats.rows_reused += 1;
        }
        off
    }

    /// Marks the flipped site's dependents dirty after a label change.
    #[inline]
    fn mark_dependents<M: ConditionalModel + ?Sized>(
        &mut self,
        model: &M,
        site: usize,
        prev_candidate: usize,
        state: &[usize],
    ) {
        for j in model.dependents(site, prev_candidate, state) {
            self.invalidate(j);
        }
    }
}

/// One Gibbs sweep routed through a [`SweepCache`]: byte-identical to
/// [`gibbs_sweep`] (same RNG stream, same states, same change counts)
/// for any sound [`ConditionalModel::dependents`], but a site's candidate
/// row is recomputed only when something in its Markov blanket changed
/// since it was last filled.
///
/// The caller owns invalidation across sweeps: reset the cache per state
/// vector, and [`SweepCache::invalidate`] rows whose *external* inputs
/// (anything the model reads besides `state`) changed between sweeps.
pub fn gibbs_sweep_cached<M: ConditionalModel + ?Sized, R: Rng + ?Sized>(
    model: &M,
    state: &mut [usize],
    temperature: f64,
    rng: &mut R,
    cache: &mut SweepCache,
) -> usize {
    debug_assert_eq!(state.len(), model.num_sites());
    debug_assert_eq!(cache.dirty.len(), model.num_sites(), "cache not reset");
    let inv_t = 1.0 / temperature.max(1e-9);
    let mut changed = 0;
    for site in 0..model.num_sites() {
        let k = model.num_candidates(site);
        if k <= 1 {
            continue;
        }
        let off = cache.refresh_row(model, site, k, state);
        let weights = &mut cache.tempered;
        weights.clear();
        weights.extend(cache.rows[off..off + k].iter().map(|&v| v * inv_t));
        let new = sample_from_log_weights(weights, rng);
        if new != state[site] {
            changed += 1;
            let prev = state[site];
            state[site] = new;
            cache.mark_dependents(model, site, prev, state);
        }
    }
    changed
}

/// One ICM sweep routed through a [`SweepCache`]: byte-identical to
/// [`icm_sweep`] (argmax over the same raw log-potentials, same
/// first-strictly-greater tie-break) with the same memoization as
/// [`gibbs_sweep_cached`] — and since both cache *raw* values, one cache
/// carries over from the annealed Gibbs phase into ICM polishing with no
/// invalidation in between.
pub fn icm_sweep_cached<M: ConditionalModel + ?Sized>(
    model: &M,
    state: &mut [usize],
    cache: &mut SweepCache,
) -> usize {
    debug_assert_eq!(state.len(), model.num_sites());
    debug_assert_eq!(cache.dirty.len(), model.num_sites(), "cache not reset");
    let mut changed = 0;
    for site in 0..model.num_sites() {
        let k = model.num_candidates(site);
        if k <= 1 {
            continue;
        }
        let off = cache.refresh_row(model, site, k, state);
        let mut best = f64::NEG_INFINITY;
        let mut arg = state[site];
        for c in 0..k {
            let v = cache.rows[off + c];
            if v > best {
                best = v;
                arg = c;
            }
        }
        if arg != state[site] {
            changed += 1;
            let prev = state[site];
            state[site] = arg;
            cache.mark_dependents(model, site, prev, state);
        }
    }
    changed
}

/// One Gibbs sweep: resamples every site in order from its conditional at
/// temperature `temperature` (1.0 = the model distribution), recomputing
/// every candidate's log-potential.
///
/// Returns the number of sites whose label changed.
pub fn gibbs_sweep<M: ConditionalModel + ?Sized, R: Rng + ?Sized>(
    model: &M,
    state: &mut [usize],
    temperature: f64,
    rng: &mut R,
) -> usize {
    debug_assert_eq!(state.len(), model.num_sites());
    let inv_t = 1.0 / temperature.max(1e-9);
    let mut changed = 0;
    let mut weights = Vec::new();
    for site in 0..model.num_sites() {
        let k = model.num_candidates(site);
        if k <= 1 {
            continue;
        }
        weights.clear();
        weights.extend((0..k).map(|c| model.local_log_potential(site, c, state) * inv_t));
        let new = sample_from_log_weights(&weights, rng);
        if new != state[site] {
            changed += 1;
        }
        state[site] = new;
    }
    changed
}

/// One ICM sweep: sets every site to its conditional argmax.
///
/// Returns the number of sites whose label changed.
pub fn icm_sweep<M: ConditionalModel + ?Sized>(model: &M, state: &mut [usize]) -> usize {
    debug_assert_eq!(state.len(), model.num_sites());
    let mut changed = 0;
    for site in 0..model.num_sites() {
        let k = model.num_candidates(site);
        if k <= 1 {
            continue;
        }
        let mut best = f64::NEG_INFINITY;
        let mut arg = state[site];
        for c in 0..k {
            let v = model.local_log_potential(site, c, state);
            if v > best {
                best = v;
                arg = c;
            }
        }
        if arg != state[site] {
            changed += 1;
            state[site] = arg;
        }
    }
    changed
}

/// Geometric annealing schedule from `t_start` down to `t_end`.
#[derive(Debug, Clone, Copy)]
pub struct AnnealSchedule {
    /// Initial temperature (> t_end).
    pub t_start: f64,
    /// Final temperature (> 0).
    pub t_end: f64,
    /// Number of Gibbs sweeps across the schedule.
    pub sweeps: usize,
}

impl Default for AnnealSchedule {
    fn default() -> Self {
        AnnealSchedule {
            t_start: 2.0,
            t_end: 0.2,
            sweeps: 20,
        }
    }
}

impl AnnealSchedule {
    /// Temperature of sweep `i` (`0 ≤ i < sweeps`): geometric interpolation
    /// with `temperature(0) = t_start` and
    /// `temperature(sweeps − 1) = t_end`.
    ///
    /// The denominator is `sweeps − 1`, not `sweeps`: dividing by `sweeps`
    /// would leave the final sweep at `t_start·ratio^((sweeps−1)/sweeps)`,
    /// never reaching the configured `t_end` (and a 1-sweep schedule would
    /// run entirely at `t_start`).
    pub fn temperature(&self, i: usize) -> f64 {
        debug_assert!(i < self.sweeps.max(1));
        if self.sweeps <= 1 {
            // A single sweep runs at the coldest configured temperature.
            return self.t_end;
        }
        let ratio = (self.t_end / self.t_start).max(1e-12);
        let frac = i as f64 / (self.sweeps - 1) as f64;
        self.t_start * ratio.powf(frac)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A 1-D Ising-style chain: K labels, unary preference for label
    /// `prefs[i]`, pairwise coupling rewarding equal neighbours.
    struct Chain {
        prefs: Vec<usize>,
        k: usize,
        unary: f64,
        coupling: f64,
    }

    impl ConditionalModel for Chain {
        fn num_sites(&self) -> usize {
            self.prefs.len()
        }
        fn num_candidates(&self, _site: usize) -> usize {
            self.k
        }
        fn local_log_potential(&self, site: usize, candidate: usize, state: &[usize]) -> f64 {
            let mut v = if candidate == self.prefs[site] {
                self.unary
            } else {
                0.0
            };
            if site > 0 && state[site - 1] == candidate {
                v += self.coupling;
            }
            if site + 1 < state.len() && state[site + 1] == candidate {
                v += self.coupling;
            }
            v
        }
    }

    #[test]
    fn icm_reaches_unary_optimum_without_coupling() {
        let model = Chain {
            prefs: vec![2, 0, 1, 1, 0],
            k: 3,
            unary: 1.0,
            coupling: 0.0,
        };
        let mut state = vec![0; 5];
        icm_sweep(&model, &mut state);
        assert_eq!(state, vec![2, 0, 1, 1, 0]);
        // A second sweep changes nothing.
        assert_eq!(icm_sweep(&model, &mut state), 0);
    }

    #[test]
    fn coupling_smooths_isolated_dissent() {
        // Strong coupling: starting from the all-zero labelling, the middle
        // site's unary preference for label 1 is overruled by both
        // neighbours (coupling 2+2 beats unary 0.5), so ICM keeps it 0.
        let model = Chain {
            prefs: vec![0, 1, 0, 0, 0],
            k: 2,
            unary: 0.5,
            coupling: 2.0,
        };
        let mut state = vec![0, 0, 0, 0, 0];
        let changed = icm_sweep(&model, &mut state);
        assert_eq!(changed, 0);
        assert_eq!(state, vec![0, 0, 0, 0, 0]);

        // With weak coupling the unary preference wins instead.
        let weak = Chain {
            prefs: vec![0, 1, 0, 0, 0],
            k: 2,
            unary: 0.5,
            coupling: 0.1,
        };
        let mut state = vec![0, 0, 0, 0, 0];
        icm_sweep(&weak, &mut state);
        assert_eq!(state, vec![0, 1, 0, 0, 0]);
    }

    #[test]
    fn gibbs_mixes_toward_mode() {
        let model = Chain {
            prefs: vec![1; 12],
            k: 2,
            unary: 2.0,
            coupling: 1.0,
        };
        let mut rng = StdRng::seed_from_u64(5);
        let mut state = vec![0; 12];
        for _ in 0..50 {
            gibbs_sweep(&model, &mut state, 1.0, &mut rng);
        }
        let ones = state.iter().filter(|&&s| s == 1).count();
        assert!(ones >= 10, "state {state:?}");
    }

    #[test]
    fn low_temperature_gibbs_is_greedy() {
        let model = Chain {
            prefs: vec![1, 1, 1, 1],
            k: 2,
            unary: 1.0,
            coupling: 0.5,
        };
        let mut rng = StdRng::seed_from_u64(6);
        let mut state = vec![0; 4];
        gibbs_sweep(&model, &mut state, 1e-6, &mut rng);
        assert_eq!(state, vec![1, 1, 1, 1]);
    }

    #[test]
    fn schedule_reaches_configured_endpoints() {
        // Regression: `frac = i / sweeps` left the final sweep at
        // t_start·ratio^((sweeps−1)/sweeps) > t_end.
        for sweeps in [2usize, 3, 7, 20, 100] {
            let s = AnnealSchedule {
                t_start: 2.0,
                t_end: 0.2,
                sweeps,
            };
            assert!(
                (s.temperature(0) - 2.0).abs() < 1e-12,
                "sweeps={sweeps}: first sweep at {}",
                s.temperature(0)
            );
            assert!(
                (s.temperature(sweeps - 1) - 0.2).abs() < 1e-12,
                "sweeps={sweeps}: final sweep at {}",
                s.temperature(sweeps - 1)
            );
        }
    }

    #[test]
    fn schedule_is_monotonically_cooling() {
        let s = AnnealSchedule::default();
        for i in 1..s.sweeps {
            assert!(s.temperature(i) < s.temperature(i - 1));
        }
    }

    #[test]
    fn one_sweep_schedule_runs_cold() {
        // Regression: with sweeps = 1 the whole anneal used to run at
        // t_start; a single sweep should use the coldest temperature.
        let s = AnnealSchedule {
            t_start: 2.0,
            t_end: 0.2,
            sweeps: 1,
        };
        assert_eq!(s.temperature(0), 0.2);
    }

    /// The [`Chain`] model with a tight (exact) Markov blanket: a site's
    /// conditional reads only its ±1 neighbours.
    struct BlanketChain(Chain);

    impl ConditionalModel for BlanketChain {
        fn num_sites(&self) -> usize {
            self.0.num_sites()
        }
        fn num_candidates(&self, site: usize) -> usize {
            self.0.num_candidates(site)
        }
        fn local_log_potential(&self, site: usize, candidate: usize, state: &[usize]) -> f64 {
            self.0.local_log_potential(site, candidate, state)
        }
        fn dependents(
            &self,
            site: usize,
            _prev_candidate: usize,
            _state: &[usize],
        ) -> impl Iterator<Item = usize> {
            let n = self.num_sites();
            (site.saturating_sub(1)..=(site + 1).min(n - 1)).filter(move |&j| j != site)
        }
    }

    fn test_chain() -> Chain {
        Chain {
            prefs: vec![1, 0, 2, 1, 1, 0, 2, 2, 0, 1],
            k: 3,
            unary: 1.0,
            coupling: 0.7,
        }
    }

    #[test]
    fn cached_gibbs_is_byte_identical_to_naive() {
        // Dual-kernel oracle at the pgm layer: the cached sweep must draw
        // the same RNG stream and land in the same states as the naive
        // sweep, with both the default (all-sites) blanket and the tight
        // ±1 blanket, across the annealing temperature range.
        let naive = test_chain();
        let tight = BlanketChain(test_chain());
        for seed in 0..20u64 {
            let mut rng_a = StdRng::seed_from_u64(seed);
            let mut rng_b = StdRng::seed_from_u64(seed);
            let mut rng_c = StdRng::seed_from_u64(seed);
            let mut s_naive = vec![0usize; 10];
            let mut s_default = vec![0usize; 10];
            let mut s_tight = vec![0usize; 10];
            let mut cache_default = SweepCache::new();
            cache_default.reset(&naive);
            let mut cache_tight = SweepCache::new();
            cache_tight.reset(&tight);
            for sweep in 0..30 {
                let t = 2.0 * 0.85f64.powi(sweep);
                let ca = gibbs_sweep(&naive, &mut s_naive, t, &mut rng_a);
                let cb =
                    gibbs_sweep_cached(&naive, &mut s_default, t, &mut rng_b, &mut cache_default);
                let cc = gibbs_sweep_cached(&tight, &mut s_tight, t, &mut rng_c, &mut cache_tight);
                assert_eq!(ca, cb, "seed {seed} sweep {sweep}");
                assert_eq!(ca, cc, "seed {seed} sweep {sweep}");
                assert_eq!(s_naive, s_default, "seed {seed} sweep {sweep}");
                assert_eq!(s_naive, s_tight, "seed {seed} sweep {sweep}");
            }
            // ICM polish through the same caches stays identical too.
            loop {
                let ca = icm_sweep(&naive, &mut s_naive);
                let cb = icm_sweep_cached(&naive, &mut s_default, &mut cache_default);
                let cc = icm_sweep_cached(&tight, &mut s_tight, &mut cache_tight);
                assert_eq!(ca, cb);
                assert_eq!(ca, cc);
                assert_eq!(s_naive, s_default);
                assert_eq!(s_naive, s_tight);
                if ca == 0 {
                    break;
                }
            }
            // The tight blanket must actually reuse rows (the default
            // blanket invalidates everything whenever anything flips).
            let stats = cache_tight.stats();
            assert!(stats.rows_filled > 0);
            assert!(
                stats.rows_reused > 0,
                "tight blanket never reused a row: {stats:?}"
            );
        }
    }

    #[test]
    fn blanket_soundness_of_tight_chain() {
        // Flipping any site outside dependents(s) must not change site s's
        // conditional row — the contract the cached sweeps rely on.
        let model = BlanketChain(test_chain());
        let n = model.num_sites();
        let mut rng = StdRng::seed_from_u64(3);
        let mut state: Vec<usize> = (0..n).map(|_| rng.random_range(0..3)).collect();
        for _ in 0..200 {
            let i = rng.random_range(0..n);
            let new = rng.random_range(0..3);
            let prev = state[i];
            let deps: Vec<usize> = model.dependents(i, prev, &state).collect();
            let before: Vec<Vec<f64>> = (0..n)
                .map(|s| {
                    (0..3)
                        .map(|c| model.local_log_potential(s, c, &state))
                        .collect()
                })
                .collect();
            state[i] = new;
            for (s, row) in before.iter().enumerate() {
                if s == i || deps.contains(&s) {
                    continue;
                }
                for (c, old) in row.iter().enumerate() {
                    let after = model.local_log_potential(s, c, &state);
                    assert_eq!(
                        old.to_bits(),
                        after.to_bits(),
                        "site {s} changed after flipping {i} outside its blanket"
                    );
                }
            }
        }
    }

    #[test]
    fn cache_reset_preserves_counters_and_redirties() {
        let model = BlanketChain(test_chain());
        let mut cache = SweepCache::new();
        cache.reset(&model);
        let mut rng = StdRng::seed_from_u64(9);
        let mut state = vec![0usize; model.num_sites()];
        gibbs_sweep_cached(&model, &mut state, 1.0, &mut rng, &mut cache);
        gibbs_sweep_cached(&model, &mut state, 1.0, &mut rng, &mut cache);
        let before = cache.stats();
        assert!(before.rows_filled >= model.num_sites() as u64);
        cache.reset(&model);
        // Counters survive the reset; every row is dirty again.
        assert_eq!(cache.stats(), before);
        gibbs_sweep_cached(&model, &mut state, 1.0, &mut rng, &mut cache);
        assert!(cache.stats().rows_filled >= before.rows_filled + model.num_sites() as u64);
        // Flushing publishes and zeroes the local counters.
        let global_before = kernel_stats();
        cache.flush_stats();
        assert_eq!(cache.stats(), KernelStats::default());
        let global_after = kernel_stats();
        assert!(global_after.rows_filled >= global_before.rows_filled);
    }

    #[test]
    fn single_candidate_sites_are_skipped() {
        struct Fixed;
        impl ConditionalModel for Fixed {
            fn num_sites(&self) -> usize {
                3
            }
            fn num_candidates(&self, _s: usize) -> usize {
                1
            }
            fn local_log_potential(&self, _s: usize, _c: usize, _st: &[usize]) -> f64 {
                0.0
            }
        }
        let mut state = vec![0; 3];
        let mut rng = StdRng::seed_from_u64(8);
        assert_eq!(gibbs_sweep(&Fixed, &mut state, 1.0, &mut rng), 0);
        assert_eq!(icm_sweep(&Fixed, &mut state), 0);
    }
}
