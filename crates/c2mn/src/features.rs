//! The eight feature functions of Table II.
//!
//! `fsm` and `fem` are precomputed in [`SequenceContext`]; this module
//! implements the pairwise (transition, synchronization) and segment-level
//! (segmentation) features as methods on the context. All features are
//! *compatibilities*: larger values mean a more plausible labelling, and
//! the network's log-potential is the weighted sum of features.

use crate::SequenceContext;
use ism_indoor::RegionId;
use ism_mobility::MobilityEvent;

impl SequenceContext<'_> {
    /// (3) Space transition `fst(r_i, r_{i+1})` over gap `i` (Eq. 4):
    /// `exp(−γ_st · E[d_I(r_i, r_{i+1})])`, optionally damped by the
    /// time-decay extension `e^{−γ′ Δt}`.
    #[inline]
    pub fn fst(&self, gap: usize, a: RegionId, b: RegionId) -> f64 {
        let d = self.space.region_expected_miwd(a, b);
        if !d.is_finite() {
            return 0.0;
        }
        let mut cost = self.config.gamma_st * d;
        if let Some(gamma_t) = self.config.time_decay_transition {
            // The longer the elapsed time, the lower the impact of distance.
            cost *= (-gamma_t * self.dt[gap]).exp();
        }
        (-cost).exp()
    }

    /// Table lookup of [`fst`](Self::fst) by *candidate indices* into the
    /// flat arena built by `build_pairwise_tables`. Bitwise identical to
    /// recomputation; only valid when the structure enables transitions.
    #[inline]
    pub(crate) fn fst_at(&self, gap: usize, ca: usize, cb: usize) -> f64 {
        debug_assert!(!self.fst_table.is_empty(), "fst table not built");
        self.fst_table[self.pair_off[gap] + ca * self.candidates[gap + 1].len() + cb]
    }

    /// (4) Event transition `fet(e_i, e_{i+1})`: 1 when equal, else 0.
    #[inline]
    pub fn fet(&self, a: MobilityEvent, b: MobilityEvent) -> f64 {
        f64::from(a == b)
    }

    /// (5) Spatial consistency `fsc(θ_i, θ_{i+1}, r_i, r_{i+1})` (Eq. 5):
    /// `exp(−|E[d_I(r_i, r_{i+1})] − d_E(θ_i, θ_{i+1})|)`, optionally with
    /// the time-decay extension.
    #[inline]
    pub fn fsc(&self, gap: usize, a: RegionId, b: RegionId) -> f64 {
        let d = self.space.region_expected_miwd(a, b);
        if !d.is_finite() {
            return 0.0;
        }
        let mut diff = (d - self.de[gap]).abs();
        if let Some(gamma_t) = self.config.time_decay_consistency {
            diff *= (-gamma_t * self.dt[gap]).exp();
        }
        (-diff).exp()
    }

    /// Table lookup of [`fsc`](Self::fsc) by *candidate indices*; see
    /// [`fst_at`](Self::fst_at).
    #[inline]
    pub(crate) fn fsc_at(&self, gap: usize, ca: usize, cb: usize) -> f64 {
        debug_assert!(!self.fsc_table.is_empty(), "fsc table not built");
        self.fsc_table[self.pair_off[gap] + ca * self.candidates[gap + 1].len() + cb]
    }

    /// (6) Event consistency `fec(θ_i, θ_{i+1}, e_i, e_{i+1})`:
    /// `exp(−|min(1, γ_ec·speed) − (I(e_i)+I(e_{i+1}))/2|)`.
    #[inline]
    pub fn fec(&self, gap: usize, a: MobilityEvent, b: MobilityEvent) -> f64 {
        let pass_level = 0.5 * (a.pass_indicator() + b.pass_indicator());
        (-(self.speed_term[gap] - pass_level).abs()).exp()
    }

    /// (7) Event-based segmentation `fes` over the maximal run `a..=b` of
    /// records sharing event label `event`.
    ///
    /// Features (normalised to `[0, 1]`, then signed by `2·I(e) − 1`):
    /// fraction of distinct region labels, segment moving speed, and the
    /// *negated* fraction of turning points — a stay wants few regions, low
    /// speed and many turns; a pass the opposite.
    pub fn fes<R>(&self, a: usize, b: usize, event: MobilityEvent, region_at: R) -> [f64; 3]
    where
        R: Fn(usize) -> RegionId,
    {
        debug_assert!(b >= a && b < self.len());
        // Distinct region count via a stack-buffered scan, no heap
        // allocation. Runs rarely carry more than a handful of distinct
        // labels; the (exact) overflow fallback rescans first occurrences.
        let mut seen = [region_at(a); 16];
        let mut count = 0usize;
        'records: for k in a..=b {
            let r = region_at(k);
            for &s in &seen[..count.min(seen.len())] {
                if s == r {
                    continue 'records;
                }
            }
            if count >= seen.len() && (a..k).any(|j| region_at(j) == r) {
                continue;
            }
            if count < seen.len() {
                seen[count] = r;
            }
            count += 1;
        }
        self.fes_counted(a, b, count, event)
    }

    /// [`fes`](Self::fes) over `a..=b` from its number of distinct region
    /// labels. The decode rows count those through a run index instead of
    /// a label walk and then evaluate this same expression, so both paths
    /// agree bit for bit.
    pub(crate) fn fes_counted(
        &self,
        a: usize,
        b: usize,
        distinct: usize,
        event: MobilityEvent,
    ) -> [f64; 3] {
        let len = (b - a + 1) as f64;
        let distnum = distinct as f64 / len;
        let speed = if b > a {
            let dt = (self.records[b].t - self.records[a].t).max(1e-6);
            (self.path_length(a, b) / dt / self.config.speed_norm).min(1.0)
        } else {
            0.0
        };
        let turns = self.turns_in(a, b) as f64 / len;
        let sign = 2.0 * event.pass_indicator() - 1.0;
        [sign * distnum, sign * speed, sign * (-turns)]
    }

    /// (8) Space-based segmentation `fss` over the maximal run `a..=b` of
    /// records sharing one region label.
    ///
    /// Features: negated event-run rate, negated event-transition rate
    /// (states change rarely inside one region), and the pass indicator of
    /// the boundary records (entering/leaving a region is usually a pass).
    pub fn fss<E>(&self, a: usize, b: usize, event_at: E) -> [f64; 3]
    where
        E: Fn(usize) -> MobilityEvent,
    {
        debug_assert!(b >= a && b < self.len());
        let mut transitions = 0u32;
        let mut prev = event_at(a);
        for k in a + 1..=b {
            let e = event_at(k);
            if e != prev {
                transitions += 1;
            }
            prev = e;
        }
        self.fss_counted(a, b, transitions, event_at(a), event_at(b))
    }

    /// [`fss`](Self::fss) over `a..=b` from its number of event-label
    /// changes and its boundary labels (see [`fes_counted`](Self::fes_counted)).
    pub(crate) fn fss_counted(
        &self,
        a: usize,
        b: usize,
        transitions: u32,
        first: MobilityEvent,
        last: MobilityEvent,
    ) -> [f64; 3] {
        let runs = transitions as f64 + 1.0;
        let dt = (self.records[b].t - self.records[a].t) + 1.0;
        let boundary = 0.5 * (first.pass_indicator() + last.pass_indicator());
        [-runs / dt, -(transitions as f64) / dt, boundary]
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
    use rand::SeedableRng;
    use MobilityEvent::{Pass, Stay};

    fn setup() -> (IndoorSpace, C2mnConfig) {
        let space = BuildingGenerator::small_office()
            .generate(&mut StdRng::seed_from_u64(1))
            .unwrap();
        (space, C2mnConfig::quick_test())
    }

    fn walk_ctx<'a>(
        space: &'a IndoorSpace,
        config: &'a C2mnConfig,
        step: f64,
        dt: f64,
        n: usize,
    ) -> SequenceContext<'a> {
        let c = space.partitions()[3].rect.center();
        let recs: Vec<PositioningRecord> = (0..n)
            .map(|i| {
                PositioningRecord::new(
                    IndoorPoint::new(0, Point2::new(c.x - 10.0 + step * i as f64, c.y)),
                    dt * i as f64,
                )
            })
            .collect();
        SequenceContext::build(space, config, &recs, &[])
    }

    #[test]
    fn fst_prefers_same_region() {
        let (space, config) = setup();
        let ctx = walk_ctx(&space, &config, 2.0, 10.0, 4);
        let r0 = space.regions()[2].id;
        let far = space.regions().last().unwrap().id;
        assert_eq!(ctx.fst(0, r0, r0), 1.0); // zero distance
        assert!(ctx.fst(0, r0, far) < 1.0);
        assert!(ctx.fst(0, r0, far) > 0.0);
    }

    #[test]
    fn fet_indicator() {
        let (space, config) = setup();
        let ctx = walk_ctx(&space, &config, 2.0, 10.0, 3);
        assert_eq!(ctx.fet(Stay, Stay), 1.0);
        assert_eq!(ctx.fet(Stay, Pass), 0.0);
    }

    #[test]
    fn fsc_peaks_when_distances_agree() {
        let (space, config) = setup();
        let ctx = walk_ctx(&space, &config, 2.0, 10.0, 4);
        // Same region: expected MIWD 0; observed 2 m → |0−2| = 2.
        let r = space.regions()[2].id;
        let same = ctx.fsc(0, r, r);
        assert!(((-2.0f64).exp() - same).abs() < 1e-9);
        // A region whose expected distance is closest to 2 m scores higher.
        let best = space
            .regions()
            .iter()
            .map(|reg| ctx.fsc(0, r, reg.id))
            .fold(0.0f64, f64::max);
        assert!(best >= same);
    }

    #[test]
    fn fec_matches_speed_with_events() {
        let (space, config) = setup();
        // Fast walk: 4 m per 1 s → speed term min(1, 0.2·4) = 0.8, which
        // lies on the pass side of the 0.5 crossover.
        let ctx = walk_ctx(&space, &config, 4.0, 1.0, 4);
        let both_pass = ctx.fec(0, Pass, Pass);
        let both_stay = ctx.fec(0, Stay, Stay);
        assert!(both_pass > both_stay, "fast movement should favour pass");
        // Stationary: speed 0 → stay/stay maximal (= 1).
        let ctx = walk_ctx(&space, &config, 0.0, 10.0, 4);
        assert_eq!(ctx.fec(0, Stay, Stay), 1.0);
        assert!(ctx.fec(0, Pass, Pass) < 1.0);
    }

    #[test]
    fn fes_signs_follow_event() {
        let (space, config) = setup();
        let ctx = walk_ctx(&space, &config, 2.0, 5.0, 6);
        let r = space.regions()[2].id;
        let one_region = |_k: usize| r;
        let stay = ctx.fes(0, 5, Stay, one_region);
        let pass = ctx.fes(0, 5, Pass, one_region);
        for k in 0..3 {
            assert!((stay[k] + pass[k]).abs() < 1e-12, "antisymmetric");
        }
        // Moving with one region: a stay dislikes the speed (negative
        // second component), a pass likes it.
        assert!(stay[1] < 0.0 && pass[1] > 0.0);
    }

    #[test]
    fn fes_distinct_region_count() {
        let (space, config) = setup();
        let ctx = walk_ctx(&space, &config, 2.0, 5.0, 4);
        let a = space.regions()[0].id;
        let b = space.regions()[1].id;
        let alternating = |k: usize| if k.is_multiple_of(2) { a } else { b };
        let f = ctx.fes(0, 3, Pass, alternating);
        assert!((f[0] - 0.5).abs() < 1e-12, "2 distinct over 4 records");
        let single = ctx.fes(0, 3, Pass, |_| a);
        assert!((single[0] - 0.25).abs() < 1e-12, "1 distinct over 4");
    }

    #[test]
    fn fss_penalises_event_churn() {
        let (space, config) = setup();
        let ctx = walk_ctx(&space, &config, 2.0, 5.0, 6);
        let calm = ctx.fss(0, 5, |_| Stay);
        let churn = ctx.fss(0, 5, |k| if k % 2 == 0 { Stay } else { Pass });
        assert!(calm[0] > churn[0]);
        assert!(calm[1] > churn[1]);
        assert_eq!(calm[2], 0.0); // stay boundaries
        let pass_bound = ctx.fss(0, 5, |k| if k == 0 || k == 5 { Pass } else { Stay });
        assert_eq!(pass_bound[2], 1.0);
    }

    #[test]
    fn single_record_segments_are_degenerate_but_finite() {
        let (space, config) = setup();
        let ctx = walk_ctx(&space, &config, 2.0, 5.0, 3);
        let r = space.regions()[0].id;
        let f = ctx.fes(1, 1, Stay, |_| r);
        assert!(f.iter().all(|v| v.is_finite()));
        let g = ctx.fss(2, 2, |_| Pass);
        assert!(g.iter().all(|v| v.is_finite()));
        assert_eq!(g[2], 1.0);
    }
}
