//! The unrolled coupled network: global energy and exact Markov-blanket
//! local features.
//!
//! The central invariant, exercised by the tests below, is that for any
//! single-site relabelling the difference of the *local* feature vectors
//! equals the difference of the *global* energy — i.e. the conditionals
//! used by Gibbs sampling and ICM are exactly those of the joint model.

use crate::structure::idx;
use crate::{SequenceContext, Weights, NUM_FEATURES};
use ism_indoor::RegionId;
use ism_mobility::MobilityEvent;
use ism_pgm::{ConditionalModel, SweepCache};

/// A C2MN instantiated over one positioning sequence.
pub struct CoupledNetwork<'c> {
    /// The preprocessed sequence.
    pub ctx: &'c SequenceContext<'c>,
    /// The shared template weights.
    pub weights: &'c Weights,
}

impl<'c> CoupledNetwork<'c> {
    /// Creates the network.
    pub fn new(ctx: &'c SequenceContext<'c>, weights: &'c Weights) -> Self {
        CoupledNetwork { ctx, weights }
    }

    /// `fsm` for an arbitrary region at record `i` (candidate cache first,
    /// direct geometry as fallback).
    fn fsm_value(&self, i: usize, region: RegionId) -> f64 {
        if let Some(c) = self.ctx.candidate_index(i, region) {
            return self.ctx.fsm[i][c];
        }
        let rec = &self.ctx.records[i];
        let circle = ism_geometry::Circle::new(rec.location.xy, self.ctx.config.uncertainty_radius);
        self.ctx
            .space
            .region_circle_overlap(region, rec.location.floor, circle)
            / circle.area().max(f64::EPSILON)
    }

    /// Maximal run `a..=b` around `i` where `same(k)` holds relative to `i`.
    #[inline]
    fn run_around<F: Fn(usize, usize) -> bool>(&self, i: usize, same: F) -> (usize, usize) {
        let n = self.ctx.len();
        let mut a = i;
        while a > 0 && same(a - 1, i) {
            a -= 1;
        }
        let mut b = i;
        while b + 1 < n && same(b + 1, i) {
            b += 1;
        }
        (a, b)
    }

    /// Global energy `Σ_ct w_ct · f_ct` of a full labelling.
    pub fn total_energy(&self, regions: &[RegionId], events: &[MobilityEvent]) -> f64 {
        let ctx = self.ctx;
        let s = &ctx.config.structure;
        let w = &self.weights.0;
        let n = ctx.len();
        debug_assert_eq!(regions.len(), n);
        debug_assert_eq!(events.len(), n);
        let mut energy = 0.0;
        for i in 0..n {
            energy += w[idx::SM] * self.fsm_value(i, regions[i]);
            energy += w[idx::EM] * ctx.fem[i][events[i].index()];
        }
        for g in 0..n.saturating_sub(1) {
            if s.transitions {
                energy += w[idx::ST] * ctx.fst(g, regions[g], regions[g + 1]);
                energy += w[idx::ET] * ctx.fet(events[g], events[g + 1]);
            }
            if s.synchronizations {
                energy += w[idx::SC] * ctx.fsc(g, regions[g], regions[g + 1]);
                energy += w[idx::EC] * ctx.fec(g, events[g], events[g + 1]);
            }
        }
        if s.event_segmentation && n > 0 {
            let mut a = 0;
            while a < n {
                let mut b = a;
                while b + 1 < n && events[b + 1] == events[a] {
                    b += 1;
                }
                let f = ctx.fes(a, b, events[a], |k| regions[k]);
                for k in 0..3 {
                    energy += w[idx::ES + k] * f[k];
                }
                a = b + 1;
            }
        }
        if s.space_segmentation && n > 0 {
            let mut a = 0;
            while a < n {
                let mut b = a;
                while b + 1 < n && regions[b + 1] == regions[a] {
                    b += 1;
                }
                let f = ctx.fss(a, b, |k| events[k]);
                for k in 0..3 {
                    energy += w[idx::SS + k] * f[k];
                }
                a = b + 1;
            }
        }
        energy
    }

    /// Local feature vector of assigning `cand` to region site `i`: the sum
    /// of the features of every clique containing `r_i`, with all other
    /// sites read through the accessors.
    pub fn region_local_features<R, E>(
        &self,
        i: usize,
        cand: RegionId,
        region_at: R,
        event_at: E,
        out: &mut [f64; NUM_FEATURES],
    ) where
        R: Fn(usize) -> RegionId,
        E: Fn(usize) -> MobilityEvent,
    {
        let ctx = self.ctx;
        let s = &ctx.config.structure;
        let n = ctx.len();
        out.fill(0.0);
        let eff = |k: usize| if k == i { cand } else { region_at(k) };

        out[idx::SM] = self.fsm_value(i, cand);
        if s.transitions {
            if i > 0 {
                out[idx::ST] += ctx.fst(i - 1, region_at(i - 1), cand);
            }
            if i + 1 < n {
                out[idx::ST] += ctx.fst(i, cand, region_at(i + 1));
            }
        }
        if s.synchronizations {
            if i > 0 {
                out[idx::SC] += ctx.fsc(i - 1, region_at(i - 1), cand);
            }
            if i + 1 < n {
                out[idx::SC] += ctx.fsc(i, cand, region_at(i + 1));
            }
        }
        if s.event_segmentation {
            // The event run containing i is unaffected by region labels;
            // only its fes features change through DISTNUM.
            let (a, b) = self.run_around(i, |k, j| event_at(k) == event_at(j));
            let f = ctx.fes(a, b, event_at(i), eff);
            out[idx::ES..idx::ES + 3].copy_from_slice(&f);
        }
        if s.space_segmentation {
            // Changing r_i can split or merge region runs: recompute fss
            // over the window spanned by the runs of i−1 and i+1 (their
            // outer boundaries cannot move).
            let lo = if i == 0 {
                0
            } else {
                self.run_around(i - 1, |k, j| region_at(k) == region_at(j))
                    .0
            };
            let hi = if i + 1 >= n {
                n - 1
            } else {
                self.run_around(i + 1, |k, j| region_at(k) == region_at(j))
                    .1
            };
            let mut a = lo;
            while a <= hi {
                let mut b = a;
                while b < hi && eff(b + 1) == eff(a) {
                    b += 1;
                }
                let f = ctx.fss(a, b, &event_at);
                for k in 0..3 {
                    out[idx::SS + k] += f[k];
                }
                a = b + 1;
            }
        }
    }

    /// [`region_local_features`](Self::region_local_features) addressed by
    /// dense *candidate indices*: `cand_idx` indexes
    /// `ctx.candidates[i]` and `r_state[k]` indexes `ctx.candidates[k]`.
    ///
    /// The pairwise terms read the precomputed `fst`/`fsc` arenas instead
    /// of recomputing `region_expected_miwd` per call; every arena entry
    /// was produced by the same expression, so the result is bitwise
    /// identical to the `RegionId` path (the test below pins this).
    pub fn region_local_features_indexed<E>(
        &self,
        i: usize,
        cand_idx: usize,
        r_state: &[usize],
        event_at: E,
        out: &mut [f64; NUM_FEATURES],
    ) where
        E: Fn(usize) -> MobilityEvent,
    {
        let ctx = self.ctx;
        let s = &ctx.config.structure;
        let n = ctx.len();
        out.fill(0.0);
        let cand = ctx.candidates[i][cand_idx];
        let region_at = |k: usize| ctx.candidates[k][r_state[k]];
        let eff = |k: usize| if k == i { cand } else { region_at(k) };

        out[idx::SM] = ctx.fsm[i][cand_idx];
        if s.transitions {
            if i > 0 {
                out[idx::ST] += ctx.fst_at(i - 1, r_state[i - 1], cand_idx);
            }
            if i + 1 < n {
                out[idx::ST] += ctx.fst_at(i, cand_idx, r_state[i + 1]);
            }
        }
        if s.synchronizations {
            if i > 0 {
                out[idx::SC] += ctx.fsc_at(i - 1, r_state[i - 1], cand_idx);
            }
            if i + 1 < n {
                out[idx::SC] += ctx.fsc_at(i, cand_idx, r_state[i + 1]);
            }
        }
        if s.event_segmentation {
            let (a, b) = self.run_around(i, |k, j| event_at(k) == event_at(j));
            let f = ctx.fes(a, b, event_at(i), eff);
            out[idx::ES..idx::ES + 3].copy_from_slice(&f);
        }
        if s.space_segmentation {
            let lo = if i == 0 {
                0
            } else {
                self.run_around(i - 1, |k, j| region_at(k) == region_at(j))
                    .0
            };
            let hi = if i + 1 >= n {
                n - 1
            } else {
                self.run_around(i + 1, |k, j| region_at(k) == region_at(j))
                    .1
            };
            let mut a = lo;
            while a <= hi {
                let mut b = a;
                while b < hi && eff(b + 1) == eff(a) {
                    b += 1;
                }
                let f = ctx.fss(a, b, &event_at);
                for k in 0..3 {
                    out[idx::SS + k] += f[k];
                }
                a = b + 1;
            }
        }
    }

    /// Local feature vector of assigning `cand` to event site `i`.
    pub fn event_local_features<R, E>(
        &self,
        i: usize,
        cand: MobilityEvent,
        region_at: R,
        event_at: E,
        out: &mut [f64; NUM_FEATURES],
    ) where
        R: Fn(usize) -> RegionId,
        E: Fn(usize) -> MobilityEvent,
    {
        let ctx = self.ctx;
        let s = &ctx.config.structure;
        let n = ctx.len();
        out.fill(0.0);
        let eff = |k: usize| if k == i { cand } else { event_at(k) };

        out[idx::EM] = ctx.fem[i][cand.index()];
        if s.transitions {
            if i > 0 {
                out[idx::ET] += ctx.fet(event_at(i - 1), cand);
            }
            if i + 1 < n {
                out[idx::ET] += ctx.fet(cand, event_at(i + 1));
            }
        }
        if s.synchronizations {
            if i > 0 {
                out[idx::EC] += ctx.fec(i - 1, event_at(i - 1), cand);
            }
            if i + 1 < n {
                out[idx::EC] += ctx.fec(i, cand, event_at(i + 1));
            }
        }
        if s.event_segmentation {
            // Changing e_i can split or merge event runs.
            let lo = if i == 0 {
                0
            } else {
                self.run_around(i - 1, |k, j| event_at(k) == event_at(j)).0
            };
            let hi = if i + 1 >= n {
                n - 1
            } else {
                self.run_around(i + 1, |k, j| event_at(k) == event_at(j)).1
            };
            let mut a = lo;
            while a <= hi {
                let mut b = a;
                while b < hi && eff(b + 1) == eff(a) {
                    b += 1;
                }
                let f = ctx.fes(a, b, eff(a), &region_at);
                for k in 0..3 {
                    out[idx::ES + k] += f[k];
                }
                a = b + 1;
            }
        }
        if s.space_segmentation {
            // The region run containing i is fixed; its fss features change
            // through the event-run counts and boundary indicators.
            let (a, b) = self.run_around(i, |k, j| region_at(k) == region_at(j));
            let f = ctx.fss(a, b, eff);
            out[idx::SS..idx::SS + 3].copy_from_slice(&f);
        }
    }
}

/// Runs of the label chain a half-sweep holds fixed: the bounds of the
/// maximal run containing each site and a prefix count of label changes.
///
/// [`RegionSites`] index the event chain and [`EventSites`] the region
/// chain when they are built, so their row fills read segment bounds and
/// `fss` change counts instead of walking records. The buffers are reused
/// from one half-sweep to the next (one pair lives in
/// [`DecodeScratch`](crate::DecodeScratch)).
#[derive(Debug, Default)]
pub struct RunIndex {
    /// First site of the run containing each site.
    start: Vec<usize>,
    /// Last site of the run containing each site.
    end: Vec<usize>,
    /// `changes[k]`: sites `j ∈ 1..=k` whose label differs from `j − 1`'s.
    changes: Vec<u32>,
}

impl RunIndex {
    /// Creates an empty index; buffers grow on first use.
    pub fn new() -> Self {
        RunIndex::default()
    }

    fn rebuild<T: PartialEq>(&mut self, labels: &[T]) {
        let n = labels.len();
        self.start.clear();
        self.changes.clear();
        for k in 0..n {
            if k > 0 && labels[k] == labels[k - 1] {
                self.start.push(self.start[k - 1]);
                self.changes.push(self.changes[k - 1]);
            } else {
                self.start.push(k);
                self.changes.push(self.changes.last().map_or(0, |&c| c + 1));
            }
        }
        self.end.clear();
        self.end.resize(n, 0);
        for k in (0..n).rev() {
            self.end[k] = if k + 1 < n && labels[k] == labels[k + 1] {
                self.end[k + 1]
            } else {
                k
            };
        }
    }

    /// Bounds `a..=b` of the run containing site `k`.
    #[inline]
    fn run(&self, k: usize) -> (usize, usize) {
        (self.start[k], self.end[k])
    }

    /// Label changes inside `a..=b` — `fss`'s transition count.
    #[inline]
    fn transitions(&self, a: usize, b: usize) -> u32 {
        self.changes[b] - self.changes[a]
    }
}

/// Distinct region labels of a record range: a stack buffer that spills
/// to the heap only past 16 labels.
struct LabelSet {
    inline: [RegionId; 16],
    len: usize,
    spill: Vec<RegionId>,
}

impl LabelSet {
    fn new() -> Self {
        LabelSet {
            inline: [RegionId(0); 16],
            len: 0,
            spill: Vec::new(),
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    fn iter(&self) -> impl Iterator<Item = RegionId> + '_ {
        let inline = &self.inline[..self.len.min(self.inline.len())];
        inline.iter().chain(&self.spill).copied()
    }

    fn contains(&self, r: RegionId) -> bool {
        self.iter().any(|x| x == r)
    }

    fn insert(&mut self, r: RegionId) {
        if self.contains(r) {
            return;
        }
        if self.len < self.inline.len() {
            self.inline[self.len] = r;
        } else {
            self.spill.push(r);
        }
        self.len += 1;
    }
}

/// Feature triples of up to three consecutive runs, summed left to right
/// from zero as the per-candidate window walks sum them.
#[inline]
fn sum_runs<T>(runs: [Option<T>; 3], features: impl Fn(T) -> [f64; 3]) -> [f64; 3] {
    let mut sum = [0.0; 3];
    for run in runs.into_iter().flatten() {
        for (s, g) in sum.iter_mut().zip(features(run)) {
            *s += g;
        }
    }
    sum
}

/// Region-chain sites as a [`ConditionalModel`]: state entries are dense
/// candidate indices into `ctx.candidates[site]`, the event chain is fixed.
pub struct RegionSites<'c> {
    net: &'c CoupledNetwork<'c>,
    events: &'c [MobilityEvent],
    /// Runs of `events`.
    runs: &'c RunIndex,
}

impl<'c> RegionSites<'c> {
    /// Region sites of `net` under the fixed event labelling `events`,
    /// whose runs are indexed into `runs` (previous contents are
    /// overwritten; the buffers are reused).
    pub fn new(
        net: &'c CoupledNetwork<'c>,
        events: &'c [MobilityEvent],
        runs: &'c mut RunIndex,
    ) -> Self {
        debug_assert_eq!(events.len(), net.ctx.len());
        runs.rebuild(events);
        RegionSites { net, events, runs }
    }

    /// `fss` summed over runs of the window under one candidate; each
    /// run's event-change count is a prefix difference.
    fn fss_runs(&self, runs: [Option<(usize, usize)>; 3]) -> [f64; 3] {
        sum_runs(runs, |(a, b)| {
            let t = self.runs.transitions(a, b);
            self.net
                .ctx
                .fss_counted(a, b, t, self.events[a], self.events[b])
        })
    }
}

impl ConditionalModel for RegionSites<'_> {
    fn num_sites(&self) -> usize {
        self.net.ctx.len()
    }

    fn num_candidates(&self, site: usize) -> usize {
        self.net.ctx.candidates[site].len()
    }

    fn local_log_potential(&self, site: usize, candidate: usize, state: &[usize]) -> f64 {
        let mut f = [0.0; NUM_FEATURES];
        self.net
            .region_local_features_indexed(site, candidate, state, |k| self.events[k], &mut f);
        self.net.weights.dot(&f)
    }

    /// Fills the whole candidate row at once from the event chain's
    /// [`RunIndex`]: a row costs one pass over the region labels of the
    /// event run and the `fss` window around `site`, plus O(1) per
    /// candidate.
    ///
    /// * `fss` — the window spanned by the region runs around `site − 1`
    ///   and `site + 1` (found by one outward scan each; neither reads
    ///   `site`'s own label) splits under a candidate into at most three
    ///   runs, decided by whether the candidate equals either neighbour's
    ///   label. Each run's event-change count is a prefix difference.
    /// * `fes` — the event run comes from the index. Its distinct-region
    ///   count is the rest-of-run label set plus one membership probe per
    ///   candidate, so each candidate picks one of two precomputed
    ///   triples. The set is built by one pass that skips the stretches
    ///   the `fss` scans already proved to carry a single label.
    ///
    /// Every feature is the expression [`Self::local_log_potential`]
    /// evaluates, over the same integer counts and summed in the same
    /// order, so the row is bitwise identical to the per-candidate path;
    /// the kernel oracle suite pins this.
    fn fill_row(&self, site: usize, state: &[usize], out: &mut [f64]) {
        let net = self.net;
        let ctx = net.ctx;
        let s = &ctx.config.structure;
        let n = ctx.len();
        let i = site;
        let cands = &ctx.candidates[i];
        debug_assert_eq!(out.len(), cands.len());
        let region_at = |k: usize| ctx.candidates[k][state[k]];
        let left = (i > 0).then(|| region_at(i - 1));
        let right = (i + 1 < n).then(|| region_at(i + 1));

        // `lo..i` carries `left` and `i + 1..=hi` carries `right`.
        let (mut lo, mut hi) = (i, i);
        let mut apart = [0.0; 3];
        if s.space_segmentation {
            if let Some(r) = left {
                lo = i - 1;
                while lo > 0 && region_at(lo - 1) == r {
                    lo -= 1;
                }
            }
            if let Some(r) = right {
                hi = i + 1;
                while hi + 1 < n && region_at(hi + 1) == r {
                    hi += 1;
                }
            }
            apart = self.fss_runs([
                left.map(|_| (lo, i - 1)),
                Some((i, i)),
                right.map(|_| (i + 1, hi)),
            ]);
        }
        // `fes` of the event run with the candidate already present in the
        // rest of the run, and with it new there.
        let es = s.event_segmentation.then(|| {
            let (a, b) = self.runs.run(i);
            let mut rest = LabelSet::new();
            let mut scan = |range: std::ops::Range<usize>| {
                let mut prev = None;
                for (cands, &c) in ctx.candidates[range.clone()].iter().zip(&state[range]) {
                    let r = cands[c];
                    if prev != Some(r) {
                        rest.insert(r);
                        prev = Some(r);
                    }
                }
            };
            let (l0, r0) = (lo.max(a), hi.min(b));
            scan(a..l0);
            scan(r0 + 1..b + 1);
            if let Some(r) = left.filter(|_| l0 < i) {
                rest.insert(r);
            }
            if let Some(r) = right.filter(|_| r0 > i) {
                rest.insert(r);
            }
            let event = self.events[i];
            let known = ctx.fes_counted(a, b, rest.len(), event);
            let new = ctx.fes_counted(a, b, rest.len() + 1, event);
            (rest, known, new)
        });

        for (c_idx, slot) in out.iter_mut().enumerate() {
            let cand = cands[c_idx];
            let mut f = [0.0; NUM_FEATURES];
            f[idx::SM] = ctx.fsm[i][c_idx];
            if s.transitions {
                if i > 0 {
                    f[idx::ST] += ctx.fst_at(i - 1, state[i - 1], c_idx);
                }
                if i + 1 < n {
                    f[idx::ST] += ctx.fst_at(i, c_idx, state[i + 1]);
                }
            }
            if s.synchronizations {
                if i > 0 {
                    f[idx::SC] += ctx.fsc_at(i - 1, state[i - 1], c_idx);
                }
                if i + 1 < n {
                    f[idx::SC] += ctx.fsc_at(i, c_idx, state[i + 1]);
                }
            }
            if let Some((rest, known, new)) = &es {
                let g = if rest.contains(cand) { known } else { new };
                f[idx::ES..idx::ES + 3].copy_from_slice(g);
            }
            if s.space_segmentation {
                let left_run = left.map(|_| (lo, i - 1));
                let right_run = right.map(|_| (i + 1, hi));
                let g = match (left == Some(cand), right == Some(cand)) {
                    (false, false) => apart,
                    (true, false) => self.fss_runs([Some((lo, i)), right_run, None]),
                    (false, true) => self.fss_runs([left_run, Some((i, hi)), None]),
                    (true, true) => self.fss_runs([Some((lo, hi)), None, None]),
                };
                f[idx::SS..idx::SS + 3].copy_from_slice(&g);
            }
            *slot = net.weights.dot(&f);
        }
    }

    /// Markov blanket of region site `site` under the fixed event chain,
    /// for the accepted flip `prev_candidate → state[site]`.
    ///
    /// Every feature reading `r_site` touches a contiguous window around
    /// `site`, so the blanket is the hull of the per-feature windows:
    ///
    /// * transitions / synchronizations — the chain neighbours `site ± 1`;
    /// * event segmentation — region labels enter `fes` only through the
    ///   *distinct-label count* of the (fixed) event run containing
    ///   `site`. If the old and the new label each still occur at some
    ///   other site of that run, every other row's distinct set is
    ///   provably unchanged (the multiset swaps one `old` for one `new`,
    ///   both already present), except the exact margin cases: when the
    ///   old (new) label survives at only *one* other site `j`, row `j`'s
    ///   own substitution `j → c` can remove that last copy, so `j` alone
    ///   is dirtied. When either label does not occur elsewhere in the
    ///   run, the distinct count genuinely changes for every row in it —
    ///   fall back to the whole run;
    /// * space segmentation — a row `j` re-segments the window spanned by
    ///   the region runs around `j − 1` / `j + 1`; that window (and the
    ///   run scans feeding it) can reach `site` only from within
    ///   `[A − 1, B + 1]`, where `A`/`B` are the outer ends of the runs
    ///   containing `site − 1` / `site + 1`. Neither run reads the label
    ///   at `site`, so the bound is stable across the flip itself.
    fn dependents(
        &self,
        site: usize,
        prev_candidate: usize,
        state: &[usize],
    ) -> impl Iterator<Item = usize> {
        let ctx = self.net.ctx;
        let s = &ctx.config.structure;
        let n = ctx.len();
        let region = |k: usize| ctx.candidates[k][state[k]];
        let mut lo = site;
        let mut hi = site;
        let mut margins = [None::<usize>; 2];
        if s.transitions || s.synchronizations {
            lo = lo.min(site.saturating_sub(1));
            hi = hi.max((site + 1).min(n - 1));
        }
        if s.event_segmentation {
            let (a, b) = self.runs.run(site);
            let old_r = ctx.candidates[site][prev_candidate];
            let new_r = region(site);
            let (mut cnt_old, mut pos_old) = (0usize, 0usize);
            let (mut cnt_new, mut pos_new) = (0usize, 0usize);
            for k in a..=b {
                if k == site {
                    continue;
                }
                let r = region(k);
                if r == old_r {
                    cnt_old += 1;
                    pos_old = k;
                }
                if r == new_r {
                    cnt_new += 1;
                    pos_new = k;
                }
            }
            if cnt_old >= 1 && cnt_new >= 1 {
                if cnt_old == 1 {
                    margins[0] = Some(pos_old);
                }
                if cnt_new == 1 {
                    margins[1] = Some(pos_new);
                }
            } else {
                lo = lo.min(a);
                hi = hi.max(b);
            }
        }
        if s.space_segmentation {
            if site > 0 {
                let mut a = site - 1;
                while a > 0 && region(a - 1) == region(site - 1) {
                    a -= 1;
                }
                lo = lo.min(a.saturating_sub(1));
            }
            if site + 1 < n {
                let mut b = site + 1;
                while b + 1 < n && region(b + 1) == region(site + 1) {
                    b += 1;
                }
                hi = hi.max((b + 1).min(n - 1));
            }
        }
        (lo..=hi).filter(move |&j| j != site).chain(
            margins
                .into_iter()
                .flatten()
                .filter(move |&j| j < lo || j > hi),
        )
    }
}

/// Event-chain sites as a [`ConditionalModel`]: state entries index
/// [`MobilityEvent::ALL`], the region chain is fixed.
pub struct EventSites<'c> {
    net: &'c CoupledNetwork<'c>,
    regions: &'c [RegionId],
    /// Runs of `regions`.
    runs: &'c RunIndex,
}

impl<'c> EventSites<'c> {
    /// Event sites of `net` under the fixed region labelling `regions`,
    /// whose runs are indexed into `runs` (previous contents are
    /// overwritten; the buffers are reused).
    pub fn new(
        net: &'c CoupledNetwork<'c>,
        regions: &'c [RegionId],
        runs: &'c mut RunIndex,
    ) -> Self {
        debug_assert_eq!(regions.len(), net.ctx.len());
        runs.rebuild(regions);
        EventSites { net, regions, runs }
    }

    /// Distinct region labels of the sites in `range`, one probe per
    /// region run.
    fn labels(&self, range: std::ops::Range<usize>) -> LabelSet {
        let mut set = LabelSet::new();
        let mut k = range.start;
        while k < range.end {
            set.insert(self.regions[k]);
            k = self.runs.end[k] + 1;
        }
        set
    }
}

impl ConditionalModel for EventSites<'_> {
    fn num_sites(&self) -> usize {
        self.net.ctx.len()
    }

    fn num_candidates(&self, _site: usize) -> usize {
        2
    }

    fn local_log_potential(&self, site: usize, candidate: usize, state: &[usize]) -> f64 {
        let mut f = [0.0; NUM_FEATURES];
        self.net.event_local_features(
            site,
            MobilityEvent::ALL[candidate],
            |k| self.regions[k],
            |k| MobilityEvent::ALL[state[k]],
            &mut f,
        );
        self.net.weights.dot(&f)
    }

    /// Fills both candidates' row at once from the region chain's
    /// [`RunIndex`]:
    ///
    /// * `fes` — one outward scan from `site − 1` and one from `site + 1`
    ///   find the event runs around the site (neither reads its own
    ///   label). Under a candidate the hull splits into at most three
    ///   runs, decided by whether the candidate equals either neighbour's
    ///   label. Their distinct-region counts all follow from the region
    ///   label sets of the two side runs, each collected by stepping over
    ///   region runs rather than records, and from the site's own region.
    /// * `fss` — the region run containing the site comes from the index;
    ///   its event changes are counted once per row, without the two
    ///   pairs that touch the site, which each candidate then adds back.
    ///
    /// As in [`RegionSites`]' row, every feature is the expression
    /// [`Self::local_log_potential`] evaluates, over the same integer
    /// counts and summed in the same order, so the row is bitwise
    /// identical to the per-candidate path.
    fn fill_row(&self, site: usize, state: &[usize], out: &mut [f64]) {
        let net = self.net;
        let ctx = net.ctx;
        let s = &ctx.config.structure;
        let n = ctx.len();
        let i = site;
        debug_assert_eq!(out.len(), MobilityEvent::ALL.len());
        let left = (i > 0).then(|| state[i - 1]);
        let right = (i + 1 < n).then(|| state[i + 1]);

        // `lo..i` carries `left` and `i + 1..=hi` carries `right`; their
        // region label sets.
        let (mut lo, mut hi) = (i, i);
        let mut sides = None;
        if s.event_segmentation {
            if let Some(e) = left {
                lo = i - 1;
                while lo > 0 && state[lo - 1] == e {
                    lo -= 1;
                }
            }
            if let Some(e) = right {
                hi = i + 1;
                while hi + 1 < n && state[hi + 1] == e {
                    hi += 1;
                }
            }
            sides = Some((self.labels(lo..i), self.labels(i + 1..hi + 1)));
        }
        let (ra, rb) = self.runs.run(i);
        let mut base = 0u32;
        if s.space_segmentation {
            // Pairs `(k − 1, k)` inside `lo..i` or `i + 1..=hi` carry no
            // change; the two that touch `i` are added per candidate.
            let before = ra + 1..(lo + 1).min(i).min(rb + 1);
            let after = (hi + 1).max(i + 2)..rb + 1;
            for k in before.chain(after) {
                base += u32::from(state[k] != state[k - 1]);
            }
        }

        for (c, slot) in out.iter_mut().enumerate() {
            let cand = MobilityEvent::ALL[c];
            let mut f = [0.0; NUM_FEATURES];
            f[idx::EM] = ctx.fem[i][c];
            if s.transitions {
                if let Some(e) = left {
                    f[idx::ET] += ctx.fet(MobilityEvent::ALL[e], cand);
                }
                if let Some(e) = right {
                    f[idx::ET] += ctx.fet(cand, MobilityEvent::ALL[e]);
                }
            }
            if s.synchronizations {
                if let Some(e) = left {
                    f[idx::EC] += ctx.fec(i - 1, MobilityEvent::ALL[e], cand);
                }
                if let Some(e) = right {
                    f[idx::EC] += ctx.fec(i, cand, MobilityEvent::ALL[e]);
                }
            }
            if let Some((l_set, r_set)) = &sides {
                let own = self.regions[i];
                // (a, b, event, distinct regions) per run of the hull.
                let left_run = left.map(|e| (lo, i - 1, MobilityEvent::ALL[e], l_set.len()));
                let right_run = right.map(|e| (i + 1, hi, MobilityEvent::ALL[e], r_set.len()));
                let runs = match (left == Some(c), right == Some(c)) {
                    (false, false) => [left_run, Some((i, i, cand, 1)), right_run],
                    (true, false) => {
                        let d = l_set.len() + usize::from(!l_set.contains(own));
                        [Some((lo, i, cand, d)), right_run, None]
                    }
                    (false, true) => {
                        let d = r_set.len() + usize::from(!r_set.contains(own));
                        [left_run, Some((i, hi, cand, d)), None]
                    }
                    (true, true) => {
                        let d = l_set.len()
                            + r_set.iter().filter(|&r| !l_set.contains(r)).count()
                            + usize::from(!l_set.contains(own) && !r_set.contains(own));
                        [Some((lo, hi, cand, d)), None, None]
                    }
                };
                let g = sum_runs(runs, |(a, b, e, d)| ctx.fes_counted(a, b, d, e));
                f[idx::ES..idx::ES + 3].copy_from_slice(&g);
            }
            if s.space_segmentation {
                let t = base
                    + u32::from(ra < i && left != Some(c))
                    + u32::from(i < rb && right != Some(c));
                let at = |k: usize| {
                    if k == i {
                        cand
                    } else {
                        MobilityEvent::ALL[state[k]]
                    }
                };
                let g = ctx.fss_counted(ra, rb, t, at(ra), at(rb));
                f[idx::SS..idx::SS + 3].copy_from_slice(&g);
            }
            *slot = net.weights.dot(&f);
        }
    }

    /// Markov blanket of event site `site` under the fixed region chain —
    /// the mirror image of [`RegionSites::dependents`]: chain neighbours
    /// from transitions / synchronizations, the `[A − 1, B + 1]` hull of
    /// the event runs around `site ∓ 1` for event segmentation (the
    /// self-segmented chain), and the exact (fixed) region run containing
    /// `site` for space segmentation.
    fn dependents(
        &self,
        site: usize,
        _prev_candidate: usize,
        state: &[usize],
    ) -> impl Iterator<Item = usize> {
        let ctx = self.net.ctx;
        let s = &ctx.config.structure;
        let n = ctx.len();
        let mut lo = site;
        let mut hi = site;
        if s.transitions || s.synchronizations {
            lo = lo.min(site.saturating_sub(1));
            hi = hi.max((site + 1).min(n - 1));
        }
        if s.event_segmentation {
            if site > 0 {
                let mut a = site - 1;
                while a > 0 && state[a - 1] == state[site - 1] {
                    a -= 1;
                }
                lo = lo.min(a.saturating_sub(1));
            }
            if site + 1 < n {
                let mut b = site + 1;
                while b + 1 < n && state[b + 1] == state[site + 1] {
                    b += 1;
                }
                hi = hi.max((b + 1).min(n - 1));
            }
        }
        if s.space_segmentation {
            let (a, b) = self.runs.run(site);
            lo = lo.min(a);
            hi = hi.max(b);
        }
        (lo..=hi).filter(move |&j| j != site)
    }
}

/// Dirties the *event* cache rows whose potentials may have changed after a
/// region half-sweep moved `old_regions` to `new_regions`.
///
/// Event rows read region labels only through the segmentation features:
///
/// * event segmentation — row `j` reads region `i` (via `fes`'s DISTNUM)
///   iff `i` falls in one of `j`'s event segments, which are the event
///   runs of the (unchanged) event chain with at most one split or merge
///   at `j` itself. Region labels enter only through each segment's
///   distinct-label count, so a flip `A → B` at `i` leaves a segment's
///   count unchanged whenever both `A` and `B` occur at some *stable*
///   site (same label in the old and new snapshot — robust when one
///   sweep flips many sites; each flip's own rule covers its labels) of
///   that segment besides `i`. Concretely, with `R = eventrun(i)`:
///   when `A` and `B` each have a stable copy somewhere in `R ∖ {i}`,
///   the full-run segment is safe for every row and only rows `j` whose
///   *split* segment (`[start(R), j − 1]` or `[j + 1, end(R)]`) has not
///   yet met a stable copy of both labels are dirtied — a short prefix
///   scan outward from `i` on each side. When either label has no stable
///   copy in `R`, the count genuinely changes and the old hull
///   `R ± 1` is dirtied;
/// * space segmentation — row `j`'s `fss` segment is the region run
///   containing `j`; runs can only change inside the hull of the *old*
///   runs around each flipped site (a merge or split crosses a flipped
///   site, and the old-snapshot span of every flipped site covers its
///   side of the join), so dirtying `[A_old − 1, B_old + 1]` per flipped
///   site covers every membership or scan change even when one sweep
///   flips many sites.
pub fn invalidate_events_after_region_sweep(
    ctx: &SequenceContext<'_>,
    old_regions: &[RegionId],
    new_regions: &[RegionId],
    events: &[MobilityEvent],
    cache: &mut SweepCache,
) {
    let s = &ctx.config.structure;
    if !s.is_coupled() {
        return;
    }
    let n = ctx.len();
    for i in 0..n {
        if old_regions[i] == new_regions[i] {
            continue;
        }
        let mut lo = i;
        let mut hi = i;
        if s.event_segmentation {
            let mut a = i;
            while a > 0 && events[a - 1] == events[i] {
                a -= 1;
            }
            let mut b = i;
            while b + 1 < n && events[b + 1] == events[i] {
                b += 1;
            }
            let la = old_regions[i];
            let lb = new_regions[i];
            let stable = |k: usize, l: RegionId| old_regions[k] == l && new_regions[k] == l;
            let mut cnt_a = 0usize;
            let mut cnt_b = 0usize;
            for k in a..=b {
                if k == i {
                    continue;
                }
                if stable(k, la) {
                    cnt_a += 1;
                }
                if stable(k, lb) {
                    cnt_b += 1;
                }
            }
            if cnt_a == 0 || cnt_b == 0 {
                lo = lo.min(a.saturating_sub(1));
                hi = hi.max((b + 1).min(n - 1));
            } else {
                // Split segments: walk outward from `i` until a stable
                // copy of both labels has entered the prefix; rows before
                // that point can lose one side's only copy to the split.
                let mut pa = (a..i).any(|k| stable(k, la));
                let mut pb = (a..i).any(|k| stable(k, lb));
                for j in i + 1..=b {
                    if pa && pb {
                        break;
                    }
                    cache.invalidate(j);
                    pa |= stable(j, la);
                    pb |= stable(j, lb);
                }
                let mut pa = (i + 1..=b).any(|k| stable(k, la));
                let mut pb = (i + 1..=b).any(|k| stable(k, lb));
                for j in (a..i).rev() {
                    if pa && pb {
                        break;
                    }
                    cache.invalidate(j);
                    pa |= stable(j, la);
                    pb |= stable(j, lb);
                }
            }
        }
        if s.space_segmentation {
            if i > 0 {
                let mut a = i - 1;
                while a > 0 && old_regions[a - 1] == old_regions[i - 1] {
                    a -= 1;
                }
                lo = lo.min(a.saturating_sub(1));
            }
            if i + 1 < n {
                let mut b = i + 1;
                while b + 1 < n && old_regions[b + 1] == old_regions[i + 1] {
                    b += 1;
                }
                hi = hi.max((b + 1).min(n - 1));
            }
        }
        for j in lo..=hi {
            cache.invalidate(j);
        }
    }
}

/// Dirties the *region* cache rows affected by an event half-sweep moving
/// `old_events` to `new_events` — the mirror image of
/// [`invalidate_events_after_region_sweep`]: the old-event-run hull
/// `[A_old − 1, B_old + 1]` per flipped site for event segmentation, and
/// `regionrun(i) ± 1` under the (unchanged) region chain for space
/// segmentation.
pub fn invalidate_regions_after_event_sweep(
    ctx: &SequenceContext<'_>,
    old_events: &[MobilityEvent],
    new_events: &[MobilityEvent],
    regions: &[RegionId],
    cache: &mut SweepCache,
) {
    let s = &ctx.config.structure;
    if !s.is_coupled() {
        return;
    }
    let n = ctx.len();
    for i in 0..n {
        if old_events[i] == new_events[i] {
            continue;
        }
        let mut lo = i;
        let mut hi = i;
        if s.event_segmentation {
            if i > 0 {
                let mut a = i - 1;
                while a > 0 && old_events[a - 1] == old_events[i - 1] {
                    a -= 1;
                }
                lo = lo.min(a.saturating_sub(1));
            }
            if i + 1 < n {
                let mut b = i + 1;
                while b + 1 < n && old_events[b + 1] == old_events[i + 1] {
                    b += 1;
                }
                hi = hi.max((b + 1).min(n - 1));
            }
        }
        if s.space_segmentation {
            let mut a = i;
            while a > 0 && regions[a - 1] == regions[i] {
                a -= 1;
            }
            let mut b = i;
            while b + 1 < n && regions[b + 1] == regions[i] {
                b += 1;
            }
            lo = lo.min(a.saturating_sub(1));
            hi = hi.max((b + 1).min(n - 1));
        }
        for j in lo..=hi {
            cache.invalidate(j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::C2mnConfig;
    use ism_geometry::Point2;
    use ism_indoor::{BuildingGenerator, IndoorPoint, IndoorSpace};
    use ism_mobility::PositioningRecord;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn setup() -> (IndoorSpace, C2mnConfig) {
        let space = BuildingGenerator::small_office()
            .generate(&mut StdRng::seed_from_u64(1))
            .unwrap();
        (space, C2mnConfig::quick_test())
    }

    fn random_walk(space: &IndoorSpace, n: usize, seed: u64) -> Vec<PositioningRecord> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut xy = space.partitions()[4].rect.center();
        (0..n)
            .map(|i| {
                xy = Point2::new(
                    xy.x + rng.random_range(-4.0..4.0),
                    xy.y + rng.random_range(-2.0..2.0),
                );
                PositioningRecord::new(IndoorPoint::new(0, xy), 8.0 * i as f64)
            })
            .collect()
    }

    /// The key invariant: single-site local-feature differences match
    /// global-energy differences, for both chains and every structure.
    #[test]
    fn local_conditionals_match_global_energy() {
        let (space, base) = setup();
        for structure in [
            crate::ModelStructure::full(),
            crate::ModelStructure::cmn(),
            crate::ModelStructure::no_transitions(),
            crate::ModelStructure::no_synchronizations(),
            crate::ModelStructure::no_event_segmentation(),
            crate::ModelStructure::no_space_segmentation(),
        ] {
            let config = base.clone().with_structure(structure);
            let recs = random_walk(&space, 14, 42);
            let ctx = SequenceContext::build(&space, &config, &recs, &[]);
            let weights = Weights::uniform(1.3);
            let net = CoupledNetwork::new(&ctx, &weights);
            let mut rng = StdRng::seed_from_u64(7);

            // Random initial labelling from candidates.
            let mut regions: Vec<RegionId> = (0..ctx.len())
                .map(|i| ctx.candidates[i][rng.random_range(0..ctx.candidates[i].len())])
                .collect();
            let mut events: Vec<MobilityEvent> = (0..ctx.len())
                .map(|_| MobilityEvent::ALL[rng.random_range(0..MobilityEvent::ALL.len())])
                .collect();

            for _trial in 0..40 {
                let i = rng.random_range(0..ctx.len());
                // --- Region flip -------------------------------------
                let old_r = regions[i];
                let new_r = ctx.candidates[i][rng.random_range(0..ctx.candidates[i].len())];
                let mut f_old = [0.0; NUM_FEATURES];
                let mut f_new = [0.0; NUM_FEATURES];
                net.region_local_features(i, old_r, |k| regions[k], |k| events[k], &mut f_old);
                net.region_local_features(i, new_r, |k| regions[k], |k| events[k], &mut f_new);
                let local_delta = weights.dot(&f_new) - weights.dot(&f_old);
                let e_old = net.total_energy(&regions, &events);
                regions[i] = new_r;
                let e_new = net.total_energy(&regions, &events);
                assert!(
                    (e_new - e_old - local_delta).abs() < 1e-9,
                    "region flip mismatch ({structure:?}): global {} vs local {}",
                    e_new - e_old,
                    local_delta
                );
                regions[i] = old_r;

                // --- Event flip --------------------------------------
                let old_e = events[i];
                let new_e = MobilityEvent::ALL[rng.random_range(0..MobilityEvent::ALL.len())];
                net.event_local_features(i, old_e, |k| regions[k], |k| events[k], &mut f_old);
                net.event_local_features(i, new_e, |k| regions[k], |k| events[k], &mut f_new);
                let local_delta = weights.dot(&f_new) - weights.dot(&f_old);
                let e_old = net.total_energy(&regions, &events);
                events[i] = new_e;
                let e_new = net.total_energy(&regions, &events);
                assert!(
                    (e_new - e_old - local_delta).abs() < 1e-9,
                    "event flip mismatch ({structure:?}): global {} vs local {}",
                    e_new - e_old,
                    local_delta
                );
                events[i] = old_e;
            }
        }
    }

    /// The indexed fast path (candidate indices + precomputed pairwise
    /// arenas) must be *bitwise* equal to the `RegionId` path — it backs
    /// the byte-identical contract of the memoized kernel.
    #[test]
    fn indexed_features_are_bitwise_equal_to_region_id_path() {
        let (space, base) = setup();
        for structure in [
            crate::ModelStructure::full(),
            crate::ModelStructure::cmn(),
            crate::ModelStructure::no_transitions(),
            crate::ModelStructure::no_synchronizations(),
            crate::ModelStructure::no_event_segmentation(),
            crate::ModelStructure::no_space_segmentation(),
        ] {
            let config = base.clone().with_structure(structure);
            let recs = random_walk(&space, 12, 17);
            let ctx = SequenceContext::build(&space, &config, &recs, &[]);
            let weights = Weights::uniform(0.9);
            let net = CoupledNetwork::new(&ctx, &weights);
            let mut rng = StdRng::seed_from_u64(23);
            for _trial in 0..20 {
                let r_state: Vec<usize> = (0..ctx.len())
                    .map(|i| rng.random_range(0..ctx.candidates[i].len()))
                    .collect();
                let events: Vec<MobilityEvent> = (0..ctx.len())
                    .map(|_| MobilityEvent::ALL[rng.random_range(0..MobilityEvent::ALL.len())])
                    .collect();
                for i in 0..ctx.len() {
                    for c in 0..ctx.candidates[i].len() {
                        let mut by_id = [0.0; NUM_FEATURES];
                        let mut by_idx = [0.0; NUM_FEATURES];
                        net.region_local_features(
                            i,
                            ctx.candidates[i][c],
                            |k| ctx.candidates[k][r_state[k]],
                            |k| events[k],
                            &mut by_id,
                        );
                        net.region_local_features_indexed(
                            i,
                            c,
                            &r_state,
                            |k| events[k],
                            &mut by_idx,
                        );
                        for k in 0..NUM_FEATURES {
                            assert_eq!(
                                by_id[k].to_bits(),
                                by_idx[k].to_bits(),
                                "feature {k} differs at site {i} cand {c} ({structure:?})"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn adapters_expose_expected_shapes() {
        let (space, config) = setup();
        let recs = random_walk(&space, 10, 5);
        let ctx = SequenceContext::build(&space, &config, &recs, &[]);
        let weights = Weights::uniform(1.0);
        let net = CoupledNetwork::new(&ctx, &weights);
        let events = vec![MobilityEvent::Stay; ctx.len()];
        let mut event_runs = RunIndex::new();
        let rs = RegionSites::new(&net, &events, &mut event_runs);
        assert_eq!(rs.num_sites(), 10);
        for i in 0..10 {
            assert_eq!(rs.num_candidates(i), ctx.candidates[i].len());
        }
        let regions: Vec<RegionId> = (0..ctx.len()).map(|i| ctx.candidates[i][0]).collect();
        let mut region_runs = RunIndex::new();
        let es = EventSites::new(&net, &regions, &mut region_runs);
        assert_eq!(es.num_sites(), 10);
        assert_eq!(es.num_candidates(3), 2);
        // Potentials are finite.
        let state = vec![0usize; 10];
        for i in 0..10 {
            assert!(rs.local_log_potential(i, 0, &state).is_finite());
            assert!(es.local_log_potential(i, 1, &state).is_finite());
        }
    }

    #[test]
    fn zero_weights_make_all_labelings_equal() {
        let (space, config) = setup();
        let recs = random_walk(&space, 8, 9);
        let ctx = SequenceContext::build(&space, &config, &recs, &[]);
        let weights = Weights::zeros();
        let net = CoupledNetwork::new(&ctx, &weights);
        let regions: Vec<RegionId> = (0..ctx.len()).map(|i| ctx.candidates[i][0]).collect();
        let events = vec![MobilityEvent::Pass; ctx.len()];
        assert_eq!(net.total_energy(&regions, &events), 0.0);
    }
}
