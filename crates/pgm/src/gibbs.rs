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
//! Both visit the sites in order and fill each multi-candidate site's row
//! through [`ConditionalModel::fill_row`]; no row is kept from one site or
//! sweep to the next.

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

    /// Writes `site`'s full candidate row —
    /// `local_log_potential(site, c, state)` for `c` in
    /// `0..num_candidates(site)` — into `out`.
    ///
    /// The sweeps compute every row through this hook, so a model can
    /// hoist work shared by every candidate of one site (segment bounds,
    /// label-independent feature terms) out of the per-candidate loop.
    /// Overrides must stay **bitwise identical** to this per-candidate
    /// default: evaluate the same floating-point expressions, only
    /// factored — the dual-kernel oracle suites compare the two.
    fn fill_row(&self, site: usize, state: &[usize], out: &mut [f64]) {
        for (c, slot) in out.iter_mut().enumerate() {
            *slot = self.local_log_potential(site, c, state);
        }
    }
}

// Process-wide kernel counters (PoolStats-style: accumulate from process
// start, never reset). A sweep counts its rows in a local and publishes
// them once, so the per-site loop never touches an atomic.
static ROWS_FILLED: AtomicU64 = AtomicU64::new(0);
static PAIRWISE_TABLE_BYTES: AtomicU64 = AtomicU64::new(0);

/// Process-wide counters of the sweep kernel, returned by
/// [`kernel_stats`]. A *row* is one site's full vector of candidate
/// log-potentials.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct KernelStats {
    /// Rows filled by [`gibbs_sweep`] and [`icm_sweep`]: one per
    /// multi-candidate site per sweep.
    pub rows_filled: u64,
    /// Always 0: every sweep fills every row, so none is reused.
    pub rows_reused: u64,
    /// Always 0: no row is cached, so none is invalidated.
    pub invalidations: u64,
    /// Cumulative bytes of precomputed pairwise feature tables built by
    /// model layers (see `note_pairwise_table_bytes`).
    pub pairwise_table_bytes: u64,
}

/// Process-wide snapshot of every counter so far (all sweeps, all
/// threads) — the kernel-side counterpart of a worker pool's `PoolStats`.
pub fn kernel_stats() -> KernelStats {
    KernelStats {
        rows_filled: ROWS_FILLED.load(Ordering::Relaxed),
        pairwise_table_bytes: PAIRWISE_TABLE_BYTES.load(Ordering::Relaxed),
        ..KernelStats::default()
    }
}

/// Records `bytes` of freshly built pairwise feature tables into the
/// process-wide [`kernel_stats`] counter. Called by model layers (e.g.
/// `ism-c2mn`'s per-sequence context) when they precompute edge tables;
/// the counter is cumulative across the process lifetime.
pub fn note_pairwise_table_bytes(bytes: u64) {
    PAIRWISE_TABLE_BYTES.fetch_add(bytes, Ordering::Relaxed);
}

/// The loop both sweeps share: fills each multi-candidate site's row in
/// site order into one buffer, sets the site to the label `pick` chooses
/// from that row and the current label, and adds the rows filled to
/// [`kernel_stats`]. Returns the number of sites whose label changed.
fn sweep<M: ConditionalModel + ?Sized>(
    model: &M,
    state: &mut [usize],
    mut pick: impl FnMut(&mut [f64], usize) -> usize,
) -> usize {
    debug_assert_eq!(state.len(), model.num_sites());
    let mut row = Vec::new();
    let (mut filled, mut changed) = (0, 0);
    for site in 0..model.num_sites() {
        let k = model.num_candidates(site);
        if k <= 1 {
            continue;
        }
        row.clear();
        row.resize(k, 0.0);
        model.fill_row(site, state, &mut row);
        filled += 1;
        let new = pick(&mut row, state[site]);
        if new != state[site] {
            changed += 1;
            state[site] = new;
        }
    }
    ROWS_FILLED.fetch_add(filled, Ordering::Relaxed);
    changed
}

/// One Gibbs sweep: resamples every site in order from its conditional at
/// temperature `temperature` (1.0 = the model distribution).
///
/// Returns the number of sites whose label changed.
pub fn gibbs_sweep<M: ConditionalModel + ?Sized, R: Rng + ?Sized>(
    model: &M,
    state: &mut [usize],
    temperature: f64,
    rng: &mut R,
) -> usize {
    let inv_t = 1.0 / temperature.max(1e-9);
    sweep(model, state, |row, _| {
        for v in row.iter_mut() {
            *v *= inv_t;
        }
        sample_from_log_weights(row, rng)
    })
}

/// One ICM sweep: sets every site to its conditional argmax.
///
/// Returns the number of sites whose label changed.
pub fn icm_sweep<M: ConditionalModel + ?Sized>(model: &M, state: &mut [usize]) -> usize {
    sweep(model, state, |row, current| {
        let mut best = f64::NEG_INFINITY;
        let mut arg = current;
        for (c, &v) in row.iter().enumerate() {
            if v > best {
                best = v;
                arg = c;
            }
        }
        arg
    })
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
