//! The public C2MN model: training, labeling, annotation.

use crate::{
    C2mnConfig, CoupledNetwork, EventSites, RegionSites, RunIndex, SequenceContext, TrainError,
    TrainReport, Trainer, Weights,
};
use ism_indoor::{IndoorSpace, RegionId};
use ism_mobility::{
    merge_labels, LabeledSequence, MobilityEvent, MobilitySemantics, PositioningRecord,
};
use ism_pgm::{gibbs_sweep, icm_sweep, AnnealSchedule, ConditionalModel};
use rand::Rng;

/// Reusable decode buffers: the per-sequence state vectors and labels of
/// both chains, and the run indexes of the chain each half-sweep holds
/// fixed.
///
/// [`C2mn::label`] runs dozens of sweeps per sequence; batch workloads
/// decode thousands of sequences. Owning one `DecodeScratch` per worker
/// (see [`crate::BatchAnnotator`]) and routing decoding through
/// [`C2mn::label_with`] replaces those per-sequence/per-sweep allocations
/// with buffers that grow once and are reused. [`C2mn::label_with`] and
/// [`C2mn::label_with_naive`] may share one scratch in any order: every
/// decode re-initialises what it reads.
#[derive(Debug, Default)]
pub struct DecodeScratch {
    region_state: Vec<usize>,
    event_state: Vec<usize>,
    regions: Vec<RegionId>,
    events: Vec<MobilityEvent>,
    /// Runs of the event chain, rebuilt for every region half-sweep.
    event_runs: RunIndex,
    /// Runs of the region chain, rebuilt for every event half-sweep.
    region_runs: RunIndex,
}

impl DecodeScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        DecodeScratch::default()
    }
}

/// How a decode's sweeps fill their candidate rows; the decode loop
/// around them is shared.
#[derive(Debug, Clone, Copy)]
enum RowFill {
    /// The chains' own run-indexed [`ConditionalModel::fill_row`].
    Hoisted,
    /// One `local_log_potential` call per candidate, through
    /// [`PerCandidate`].
    PerCandidate,
}

impl RowFill {
    /// One half-sweep over `model`, its rows filled the way `self` says:
    /// Gibbs at `temperature`, or ICM when it is `None`. Returns the number
    /// of sites whose label changed.
    fn sweep<M: ConditionalModel, R: Rng + ?Sized>(
        self,
        model: &M,
        state: &mut [usize],
        temperature: Option<f64>,
        rng: &mut R,
    ) -> usize {
        match (self, temperature) {
            (RowFill::Hoisted, Some(t)) => gibbs_sweep(model, state, t, rng),
            (RowFill::Hoisted, None) => icm_sweep(model, state),
            (RowFill::PerCandidate, Some(t)) => gibbs_sweep(&PerCandidate(model), state, t, rng),
            (RowFill::PerCandidate, None) => icm_sweep(&PerCandidate(model), state),
        }
    }
}

/// A chain that forwards everything but `fill_row`, so its rows come from
/// the trait's per-candidate default.
struct PerCandidate<'m, M>(&'m M);

impl<M: ConditionalModel> ConditionalModel for PerCandidate<'_, M> {
    fn num_sites(&self) -> usize {
        self.0.num_sites()
    }

    fn num_candidates(&self, site: usize) -> usize {
        self.0.num_candidates(site)
    }

    fn local_log_potential(&self, site: usize, candidate: usize, state: &[usize]) -> f64 {
        self.0.local_log_potential(site, candidate, state)
    }
}

/// A trained coupled conditional Markov network bound to a venue.
///
/// `Clone` duplicates the learned parameters (weights, region frequencies,
/// training report) while sharing the borrowed venue — cheap relative to
/// training, and what lets an owning engine (`ism-engine`) take the model
/// while the caller keeps a copy.
#[derive(Debug, Clone)]
pub struct C2mn<'a> {
    space: &'a IndoorSpace,
    config: C2mnConfig,
    weights: Weights,
    region_freq: Vec<f64>,
    report: TrainReport,
}

impl<'a> C2mn<'a> {
    /// Trains a model on fully-labelled sequences using the alternate
    /// learning algorithm (Algorithm 1).
    ///
    /// A thin convenience wrapper over [`Trainer`]: the base seed is drawn
    /// from `rng` and the sampling runs sequentially. Use a [`Trainer`]
    /// directly for pool-parallel sampling, explicit seeds, warm starts,
    /// per-iteration observation, or checkpoint/resume.
    pub fn train<R: Rng + ?Sized>(
        space: &'a IndoorSpace,
        train: &[LabeledSequence],
        config: &C2mnConfig,
        rng: &mut R,
    ) -> Result<Self, TrainError> {
        Trainer::new(space, config.clone())
            .seed(rng.random::<u64>())
            .run(train)
            .map(|outcome| outcome.model)
    }

    /// Assembles a trained model from its parts (the [`Trainer`] output).
    pub(crate) fn from_parts(
        space: &'a IndoorSpace,
        config: C2mnConfig,
        weights: Weights,
        region_freq: Vec<f64>,
        report: TrainReport,
    ) -> Self {
        C2mn {
            space,
            config,
            weights,
            region_freq,
            report,
        }
    }

    /// Builds a model from explicit weights (tests, ablations, and loading
    /// previously trained parameters).
    pub fn from_weights(space: &'a IndoorSpace, config: C2mnConfig, weights: Weights) -> Self {
        C2mn {
            space,
            config,
            weights,
            region_freq: Vec::new(),
            report: TrainReport::default(),
        }
    }

    /// The learned template weights.
    pub fn weights(&self) -> &Weights {
        &self.weights
    }

    /// The model configuration.
    pub fn config(&self) -> &C2mnConfig {
        &self.config
    }

    /// Training diagnostics.
    pub fn report(&self) -> &TrainReport {
        &self.report
    }

    /// The venue this model is bound to.
    pub fn space(&self) -> &'a IndoorSpace {
        self.space
    }

    /// Normalised historical region frequency (empty unless trained with
    /// the frequency prior's statistics).
    pub(crate) fn region_freq_slice(&self) -> &[f64] {
        &self.region_freq
    }

    /// Labels every record of a p-sequence with a (region, event) pair by
    /// joint MAP inference: ST-DBSCAN / nearest-neighbour initialisation,
    /// annealed Gibbs sweeps alternating between the two chains, then ICM
    /// to a local optimum.
    pub fn label<R: Rng + ?Sized>(
        &self,
        records: &[PositioningRecord],
        rng: &mut R,
    ) -> Vec<(RegionId, MobilityEvent)> {
        self.label_with(records, rng, &mut DecodeScratch::new())
    }

    /// [`C2mn::label`] routed through caller-owned scratch buffers.
    ///
    /// Output is identical to [`C2mn::label`] for the same RNG state; only
    /// the allocation strategy differs. Batch workloads keep one
    /// [`DecodeScratch`] per worker and reuse it across sequences.
    ///
    /// Every sweep fills the candidate row of every multi-candidate site
    /// through the chains' run-indexed [`ConditionalModel::fill_row`].
    /// [`C2mn::label_with_naive`] runs the same decode loop with rows
    /// filled one candidate at a time, and its labels are byte-identical.
    pub fn label_with<R: Rng + ?Sized>(
        &self,
        records: &[PositioningRecord],
        rng: &mut R,
        scratch: &mut DecodeScratch,
    ) -> Vec<(RegionId, MobilityEvent)> {
        self.decode(records, rng, scratch, RowFill::Hoisted)
    }

    /// [`C2mn::label_with`]'s decode loop with per-candidate rows, kept
    /// compiled as the reference oracle: every row is filled by one
    /// `local_log_potential` call per candidate instead of the chains'
    /// run-indexed `fill_row`. That is the only difference.
    ///
    /// [`C2mn::label_with`] must produce byte-identical labels for the
    /// same RNG state; the `kernel_oracle` integration suite compares the
    /// two.
    pub fn label_with_naive<R: Rng + ?Sized>(
        &self,
        records: &[PositioningRecord],
        rng: &mut R,
        scratch: &mut DecodeScratch,
    ) -> Vec<(RegionId, MobilityEvent)> {
        self.decode(records, rng, scratch, RowFill::PerCandidate)
    }

    /// The shared decode loop: nearest-region / ST-DBSCAN initialisation,
    /// then joint sweeps (a region half-sweep, then an event half-sweep),
    /// first annealed Gibbs and then ICM. Only `fill` tells the two public
    /// decode paths apart.
    fn decode<R: Rng + ?Sized>(
        &self,
        records: &[PositioningRecord],
        rng: &mut R,
        scratch: &mut DecodeScratch,
        fill: RowFill,
    ) -> Vec<(RegionId, MobilityEvent)> {
        if records.is_empty() {
            return Vec::new();
        }
        let ctx = SequenceContext::build(self.space, &self.config, records, &self.region_freq);
        let net = CoupledNetwork::new(&ctx, &self.weights);
        let n = ctx.len();

        let DecodeScratch {
            region_state,
            event_state,
            regions,
            events,
            event_runs,
            region_runs,
        } = scratch;
        region_state.clear();
        region_state.extend_from_slice(&ctx.nearest_idx);
        event_state.clear();
        event_state.extend(ctx.dbscan_events.iter().map(|e| e.index()));
        regions.clear();
        regions.extend(
            ctx.nearest_idx
                .iter()
                .enumerate()
                .map(|(i, &c)| ctx.candidates[i][c]),
        );
        events.clear();
        events.extend_from_slice(&ctx.dbscan_events);

        // Annealed coupled Gibbs, cooling geometrically from `t_start` on
        // the first sweep to exactly `t_end` on the last; then ICM polish
        // (no temperature) until a joint fixed point, at most `2n + 4`
        // rounds.
        let schedule = AnnealSchedule {
            t_start: self.config.anneal_t_start,
            t_end: self.config.anneal_t_end,
            sweeps: self.config.anneal_sweeps.max(1),
        };
        for k in 0..schedule.sweeps + 2 * n + 4 {
            let temperature = (k < schedule.sweeps).then(|| schedule.temperature(k));
            let rs = RegionSites::new(&net, events, event_runs);
            let changed_r = fill.sweep(&rs, region_state, temperature, rng);
            for i in 0..n {
                regions[i] = ctx.candidates[i][region_state[i]];
            }
            let es = EventSites::new(&net, regions, region_runs);
            let changed_e = fill.sweep(&es, event_state, temperature, rng);
            for i in 0..n {
                events[i] = MobilityEvent::ALL[event_state[i]];
            }
            if temperature.is_none() && changed_r == 0 && changed_e == 0 {
                break;
            }
        }

        regions
            .iter()
            .copied()
            .zip(events.iter().copied())
            .collect()
    }

    /// Annotates a p-sequence with m-semantics: label every record, then
    /// merge consecutive records sharing both labels (label-and-merge).
    pub fn annotate<R: Rng + ?Sized>(
        &self,
        records: &[PositioningRecord],
        rng: &mut R,
    ) -> Vec<MobilitySemantics> {
        self.annotate_with(records, rng, &mut DecodeScratch::new())
    }

    /// [`C2mn::annotate`] routed through caller-owned scratch buffers.
    pub fn annotate_with<R: Rng + ?Sized>(
        &self,
        records: &[PositioningRecord],
        rng: &mut R,
        scratch: &mut DecodeScratch,
    ) -> Vec<MobilitySemantics> {
        let labels = self.label_with(records, rng, scratch);
        let times: Vec<f64> = records.iter().map(|r| r.t).collect();
        merge_labels(&times, &labels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ism_indoor::BuildingGenerator;
    use ism_mobility::{Dataset, PositioningConfig, SimulationConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn pipeline() -> (ism_indoor::IndoorSpace, Dataset) {
        let mut rng = StdRng::seed_from_u64(1);
        let space = BuildingGenerator::small_office()
            .generate(&mut rng)
            .unwrap();
        let dataset = Dataset::generate(
            "d",
            &space,
            SimulationConfig::quick(),
            PositioningConfig::synthetic(8.0, 1.5),
            None,
            8,
            &mut rng,
        );
        (space, dataset)
    }

    #[test]
    fn end_to_end_training_and_annotation() {
        let (space, dataset) = pipeline();
        let mut rng = StdRng::seed_from_u64(2);
        let (train, test) = dataset.split(0.7, &mut rng);
        let config = C2mnConfig::quick_test();
        let model = C2mn::train(&space, &train, &config, &mut rng).unwrap();

        let mut correct_r = 0usize;
        let mut correct_e = 0usize;
        let mut total = 0usize;
        for seq in &test {
            let records: Vec<_> = seq.positioning().collect();
            let labels = model.label(&records, &mut rng);
            assert_eq!(labels.len(), records.len());
            for (lab, truth) in labels.iter().zip(seq.truth_labels()) {
                total += 1;
                correct_r += usize::from(lab.0 == truth.0);
                correct_e += usize::from(lab.1 == truth.1);
            }
        }
        assert!(total > 0);
        let ra = correct_r as f64 / total as f64;
        let ea = correct_e as f64 / total as f64;
        // With low noise in a small venue the model should do well.
        assert!(ra > 0.5, "region accuracy {ra}");
        assert!(ea > 0.6, "event accuracy {ea}");
    }

    #[test]
    fn annotation_merges_runs() {
        let (space, dataset) = pipeline();
        let mut rng = StdRng::seed_from_u64(3);
        let config = C2mnConfig::quick_test();
        let model = C2mn::train(&space, &dataset.sequences, &config, &mut rng).unwrap();
        let records: Vec<_> = dataset.sequences[0].positioning().collect();
        let ms = model.annotate(&records, &mut rng);
        assert!(!ms.is_empty());
        assert!(ms.len() <= records.len());
        // Periods are ordered and disjoint.
        for w in ms.windows(2) {
            assert!(w[0].period.end < w[1].period.start);
        }
        // Adjacent m-semantics differ in at least one label.
        for w in ms.windows(2) {
            assert!(w[0].region != w[1].region || w[0].event != w[1].event);
        }
    }

    #[test]
    fn empty_inputs() {
        let (space, dataset) = pipeline();
        let mut rng = StdRng::seed_from_u64(4);
        let config = C2mnConfig::quick_test();
        assert_eq!(
            C2mn::train(&space, &[], &config, &mut rng).unwrap_err(),
            TrainError::EmptyTrainingSet
        );
        let model = C2mn::train(&space, &dataset.sequences, &config, &mut rng).unwrap();
        assert!(model.label(&[], &mut rng).is_empty());
        assert!(model.annotate(&[], &mut rng).is_empty());
    }

    #[test]
    fn scratch_reuse_matches_fresh_buffers() {
        let (space, dataset) = pipeline();
        let mut rng = StdRng::seed_from_u64(6);
        let config = C2mnConfig::quick_test();
        let model = C2mn::train(&space, &dataset.sequences, &config, &mut rng).unwrap();
        // One scratch reused across sequences, by the naive and the
        // memoized kernel in turn, must match per-call fresh buffers for
        // identical RNG streams.
        let mut scratch = DecodeScratch::new();
        for (i, seq) in dataset.sequences.iter().take(6).enumerate() {
            let records: Vec<_> = seq.positioning().collect();
            let mut rng_a = StdRng::seed_from_u64(100 + i as u64);
            let mut rng_b = StdRng::seed_from_u64(100 + i as u64);
            let fresh = model.label(&records, &mut rng_a);
            let reused = if i % 2 == 0 {
                model.label_with_naive(&records, &mut rng_b, &mut scratch)
            } else {
                model.label_with(&records, &mut rng_b, &mut scratch)
            };
            assert_eq!(fresh, reused, "sequence {i}");
        }
    }

    #[test]
    fn from_weights_skips_training() {
        let (space, dataset) = pipeline();
        let mut rng = StdRng::seed_from_u64(5);
        let model = C2mn::from_weights(&space, C2mnConfig::quick_test(), Weights::uniform(1.0));
        let records: Vec<_> = dataset.sequences[0].positioning().collect();
        let labels = model.label(&records, &mut rng);
        assert_eq!(labels.len(), records.len());
    }
}
