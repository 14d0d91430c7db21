//! The training session API: a first-class [`Trainer`] running Algorithm 1
//! with pool-parallel MCMC sampling, per-iteration observation, and exact
//! in-process resume.
//!
//! The alternate learning algorithm used to be a single 445-line function
//! hidden behind `C2mn::train(space, train, config, &mut R)`: the caller
//! threaded an RNG through it, the per-sequence sampling ran site-by-site
//! on one thread, and the only output was the final model. The [`Trainer`]
//! redesigns that surface:
//!
//! * **Pool-parallel** — the per-sequence pseudo-likelihood sampling
//!   (lines 5–8 of Algorithm 1) fans out over a
//!   [`WorkerPool::run_with`](ism_runtime::WorkerPool::run_with);
//!   sequence `seq` of iteration `iter` samples from an RNG seeded with
//!   [`train_seed`]`(base_seed, iter, seq)`, so the learned weights are
//!   **byte-identical for any thread count** and equal to the sequential
//!   reference.
//! * **Observable** — an [`observer`](Trainer::observer) hook sees a
//!   [`TrainProgress`] after every outer iteration (objective, step size,
//!   weights, wall-clock) and can stop training early.
//! * **Resumable** — [`TrainOutcome::checkpoint`] captures the full
//!   iteration state; [`Trainer::checkpoint`] resumes it byte-exactly.
//!   [`Trainer::initial_weights`] warm-starts a fresh run from previously
//!   learned weights.

use crate::prep::{prepare, TrainingData};
use crate::sample::{sample_sequence, SampleScratch};
use crate::step::optimize_step;
use crate::structure::NUM_FEATURES;
use crate::{train_seed, C2mn, C2mnConfig, FirstConfigured, TrainError, Weights};
use ism_codec::PersistError;
use ism_indoor::{IndoorSpace, RegionId};
use ism_mobility::{LabeledSequence, MobilityEvent};
use ism_runtime::WorkerPool;
use std::fmt;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Diagnostics of one training run.
#[derive(Debug, Clone, Default)]
pub struct TrainReport {
    /// Outer iterations performed over the run's lifetime. A resumed run
    /// continues the checkpoint's numbering, so this matches the
    /// uninterrupted run.
    pub iterations: usize,
    /// Whether both chains' weight groups converged (Chebyshev ≤ δ).
    pub converged: bool,
    /// Whether the region-chain weight group converged on its last step.
    pub region_converged: bool,
    /// Whether the event-chain weight group converged on its last step.
    pub event_converged: bool,
    /// Whether an [`observer`](Trainer::observer) stopped the run before
    /// convergence or the iteration cap.
    pub early_stopped: bool,
    /// Training sequences skipped for having fewer than 2 records (they
    /// cannot be labelled as sequences and used to be dropped silently).
    pub skipped_sequences: usize,
    /// Wall-clock training time in seconds (this run only).
    pub train_seconds: f64,
    /// Wall-clock seconds of each outer iteration of this run.
    pub iteration_seconds: Vec<f64>,
    /// Surrogate objective value after each outer iteration of this run.
    pub objective_trace: Vec<f64>,
}

/// Which target chain an outer iteration sampled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SampledChain {
    /// The semantic-region chain was free; events were configured.
    Regions,
    /// The mobility-event chain was free; regions were configured.
    Events,
}

/// Per-iteration progress handed to the [`Trainer::observer`] hook.
#[derive(Debug, Clone)]
pub struct TrainProgress {
    /// The outer iteration that just completed (1-based, counted over the
    /// run's lifetime — a resumed run continues the numbering).
    pub iteration: usize,
    /// The configured iteration cap.
    pub max_iter: usize,
    /// Which chain this iteration sampled.
    pub chain: SampledChain,
    /// Surrogate objective value at the step's solution.
    pub objective: f64,
    /// Chebyshev distance of the weight update on the active components.
    pub step: f64,
    /// The weights after the update.
    pub weights: Weights,
    /// Wall-clock seconds this iteration took.
    pub iteration_seconds: f64,
    /// Whether both chains have converged (training is about to stop).
    pub converged: bool,
}

/// What an [`observer`](Trainer::observer) tells the trainer to do next.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TrainControl {
    /// Keep iterating.
    #[default]
    Continue,
    /// Stop after this iteration; [`TrainReport::early_stopped`] is set
    /// and the returned [`TrainOutcome::checkpoint`] resumes exactly here.
    Stop,
}

/// Opaque snapshot of the full iteration state of a training run: the
/// weights, both configured chains, the convergence flags, and the next
/// iteration index.
///
/// Captured by every [`TrainOutcome`]; feed it to [`Trainer::checkpoint`]
/// (with the *same* base seed, configuration, and training set) to resume
/// a run byte-exactly: the resumed run's weights equal the uninterrupted
/// run's, because per-iteration seeds derive from the global iteration
/// index, which the checkpoint preserves.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainCheckpoint {
    pub(crate) weights: Weights,
    pub(crate) next_iteration: usize,
    pub(crate) events_cfg: Vec<Vec<MobilityEvent>>,
    pub(crate) regions_cfg: Vec<Vec<RegionId>>,
    pub(crate) region_converged: bool,
    pub(crate) event_converged: bool,
    pub(crate) did_region_step: bool,
    pub(crate) did_event_step: bool,
}

impl TrainCheckpoint {
    /// The weights at the checkpoint — usable on their own as a
    /// [`Trainer::initial_weights`] warm start for a *fresh* run (e.g.
    /// against new training data, where exact resume is meaningless).
    pub fn weights(&self) -> &Weights {
        &self.weights
    }

    /// The iteration the resumed run will execute next.
    pub fn next_iteration(&self) -> usize {
        self.next_iteration
    }
}

/// Everything a finished [`Trainer::run`] produces.
#[derive(Debug, Clone)]
pub struct TrainOutcome<'a> {
    /// The trained model (weights, region frequencies, report), bound to
    /// the venue the trainer was built over.
    pub model: C2mn<'a>,
    /// Training diagnostics (also available as `model.report()`).
    pub report: TrainReport,
    /// Snapshot of the final iteration state for exact resume.
    pub checkpoint: TrainCheckpoint,
}

type Observer<'ob> = Box<dyn FnMut(&TrainProgress) -> TrainControl + 'ob>;

/// A configurable training session over a venue: Algorithm 1 with
/// pool-parallel per-sequence sampling, deterministic derived seeds, an
/// observation hook, and checkpoint/resume.
///
/// ```
/// # use ism_c2mn::{C2mnConfig, Trainer};
/// # use ism_indoor::BuildingGenerator;
/// # use ism_mobility::{Dataset, PositioningConfig, SimulationConfig};
/// # use ism_runtime::WorkerPool;
/// # use rand::rngs::StdRng;
/// # use rand::SeedableRng;
/// # let mut rng = StdRng::seed_from_u64(1);
/// # let space = BuildingGenerator::small_office().generate(&mut rng).unwrap();
/// # let dataset = Dataset::generate(
/// #     "t", &space, SimulationConfig::quick(),
/// #     PositioningConfig::synthetic(8.0, 2.0), None, 4, &mut rng);
/// let pool = WorkerPool::new(4);
/// let outcome = Trainer::new(&space, C2mnConfig::quick_test())
///     .seed(42)
///     .pool(&pool)
///     .run(&dataset.sequences)
///     .unwrap();
/// assert!(outcome.report.iterations >= 1);
/// let model = outcome.model; // ready to label / annotate
/// # let _ = model;
/// ```
///
/// ## Determinism contract
///
/// Sequence `seq` of outer iteration `iter` draws its MCMC samples from an
/// RNG seeded with [`train_seed`]`(base_seed, iter, seq)` — a function of
/// the indices only, never of the worker that runs it — and the sampled
/// site summaries are folded into the optimizer step in sequence order.
/// The learned weights are therefore **byte-identical for any thread
/// count**, equal to the sequential reference spelled out at
/// [`train_seed`], and reproducible run-to-run.
#[must_use = "a Trainer does nothing until `run`"]
pub struct Trainer<'a, 'ob> {
    space: &'a IndoorSpace,
    config: C2mnConfig,
    seed: u64,
    pool: WorkerPool,
    initial_weights: Option<Weights>,
    checkpoint: Option<TrainCheckpoint>,
    checkpoint_path: Option<PathBuf>,
    observer: Option<Observer<'ob>>,
}

impl fmt::Debug for Trainer<'_, '_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Trainer")
            .field("seed", &self.seed)
            .field("threads", &self.pool.threads())
            .field("initial_weights", &self.initial_weights)
            .field("checkpoint", &self.checkpoint.is_some())
            .field("observer", &self.observer.is_some())
            .finish_non_exhaustive()
    }
}

impl<'a, 'ob> Trainer<'a, 'ob> {
    /// Creates a trainer for `space` with every knob at its default:
    /// base seed 0, a single-threaded pool, uniform initial weights, no
    /// checkpoint, no observer.
    pub fn new(space: &'a IndoorSpace, config: C2mnConfig) -> Self {
        Trainer {
            space,
            config,
            seed: 0,
            pool: WorkerPool::new(1),
            initial_weights: None,
            checkpoint: None,
            checkpoint_path: None,
            observer: None,
        }
    }

    /// The base seed of the [`train_seed`] derivation. Part of the
    /// determinism contract: two runs with equal seed, configuration, and
    /// training set learn byte-identical weights.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The worker pool the per-sequence sampling fans out over (a cloned
    /// handle shares the same persistent workers; an engine shares its
    /// serving pool this way). Thread count never changes the learned
    /// weights.
    pub fn pool(mut self, pool: &WorkerPool) -> Self {
        self.pool = pool.clone();
        self
    }

    /// Warm-starts the run from previously learned weights instead of the
    /// uniform 0.5 initialisation — e.g. retraining on fresh data from the
    /// last deployment's parameters. The run still starts at iteration 0
    /// with freshly configured chains; for byte-exact continuation of an
    /// interrupted run use [`Trainer::checkpoint`].
    pub fn initial_weights(mut self, weights: Weights) -> Self {
        self.initial_weights = Some(weights);
        self
    }

    /// Resumes a run byte-exactly from a [`TrainCheckpoint`] captured by a
    /// previous [`TrainOutcome`] over the same seed, configuration, and
    /// training set. Overrides [`Trainer::initial_weights`].
    pub fn checkpoint(mut self, checkpoint: TrainCheckpoint) -> Self {
        self.checkpoint = Some(checkpoint);
        self
    }

    /// Persists the full iteration state to `path` (atomically, via the
    /// `ism-codec` checkpoint artifact) after every outer iteration and
    /// once more when the run ends. A run killed at any point — including
    /// mid-iteration — leaves the last completed iteration on disk, and
    /// [`Trainer::resume_from`] in a *new process* continues it with the
    /// weights the uninterrupted run would have produced, byte for byte.
    /// A failed write surfaces as [`TrainError::Persist`].
    pub fn checkpoint_to(mut self, path: impl Into<PathBuf>) -> Self {
        self.checkpoint_path = Some(path.into());
        self
    }

    /// Loads a [`TrainCheckpoint`] artifact written by
    /// [`Trainer::checkpoint_to`] (or [`TrainCheckpoint::save_to`]) and
    /// resumes from it, exactly like [`Trainer::checkpoint`]. The same
    /// contract applies: seed, configuration, and training set must match
    /// the run that wrote the file.
    pub fn resume_from(self, path: impl AsRef<Path>) -> Result<Self, PersistError> {
        let cp = TrainCheckpoint::load_from(path.as_ref())?;
        Ok(self.checkpoint(cp))
    }

    /// Installs a per-iteration observer: called after every outer
    /// iteration with a [`TrainProgress`]; returning [`TrainControl::Stop`]
    /// ends the run early (the outcome's checkpoint resumes it exactly).
    pub fn observer<F>(mut self, observer: F) -> Self
    where
        F: FnMut(&TrainProgress) -> TrainControl + 'ob,
    {
        self.observer = Some(Box::new(observer));
        self
    }

    /// Runs Algorithm 1 over fully-labelled training sequences.
    ///
    /// Preprocesses the training set ([`TrainError::EmptyTrainingSet`] /
    /// [`TrainError::TruthNotInCandidates`] on malformed input), then
    /// alternates: sample the free chain's sites in parallel over the
    /// pool, fold the samples into an inner L-BFGS step, majority-vote the
    /// samples into the configured chain, until both chains' weight groups
    /// converge, `max_iter` is reached, or the observer stops the run.
    pub fn run(mut self, train: &[LabeledSequence]) -> Result<TrainOutcome<'a>, TrainError> {
        let start = Instant::now();
        let config = self.config.clone();
        let data = prepare(self.space, &config, train)?;
        let n_seqs = data.seqs.len();

        // Restore (or initialise) the full iteration state.
        let mut state = match self.checkpoint.take() {
            Some(cp) => {
                Self::validate_checkpoint(&cp, &data)?;
                cp
            }
            None => TrainCheckpoint {
                weights: self
                    .initial_weights
                    .take()
                    .unwrap_or_else(|| Weights::uniform(0.5)),
                next_iteration: 0,
                events_cfg: data.seqs.iter().map(|s| s.initial_events()).collect(),
                regions_cfg: data.seqs.iter().map(|s| s.initial_regions()).collect(),
                region_converged: false,
                event_converged: false,
                did_region_step: false,
                did_event_step: false,
            },
        };

        let mut report = TrainReport {
            iterations: state.next_iteration,
            skipped_sequences: data.skipped_sequences,
            ..TrainReport::default()
        };
        let region_mask = config.structure.region_step_mask();
        let event_mask = config.structure.event_step_mask();

        // A checkpoint captured at convergence resumes as a no-op: the
        // uninterrupted run stopped here, so training further would move
        // the weights past what it produced.
        let already_converged = state.did_region_step
            && state.did_event_step
            && state.region_converged
            && state.event_converged;
        let first_iteration = if already_converged {
            config.max_iter
        } else {
            state.next_iteration
        };

        for iter in first_iteration..config.max_iter {
            let iter_start = Instant::now();
            report.iterations = iter + 1;
            state.next_iteration = iter + 1;
            let sample_regions = match config.first_configured {
                FirstConfigured::Events => iter % 2 == 0,
                FirstConfigured::Regions => iter % 2 == 1,
            };
            let mask = if sample_regions {
                &region_mask
            } else {
                &event_mask
            };
            // Never empty: every region step mask contains SM and every
            // event step mask contains EM, whatever the structure variant.
            let active: Vec<usize> = (0..NUM_FEATURES).filter(|&k| mask[k]).collect();
            debug_assert!(!active.is_empty());

            // --- MCMC sampling of the free chain (lines 5–8), fanned out
            // over the pool. Each sequence's RNG depends only on its index,
            // and `run_with` returns samples in sequence order, so thread
            // count is unobservable.
            let weights_now = &state.weights;
            let events_cfg = &state.events_cfg;
            let regions_cfg = &state.regions_cfg;
            let samples = self
                .pool
                .run_with(n_seqs, SampleScratch::new, |scratch, s| {
                    sample_sequence(
                        &data.seqs[s],
                        &events_cfg[s],
                        &regions_cfg[s],
                        weights_now,
                        sample_regions,
                        config.mcmc_m,
                        train_seed(self.seed, iter, s),
                        scratch,
                    )
                });

            // --- Inner L-BFGS on the surrogate (lines 9–17) --------------
            let step = optimize_step(&samples, &state.weights, &active, &config);
            report.objective_trace.push(step.objective);

            // --- Convergence bookkeeping (lines 18–26) -------------------
            let step_size = step.weights.chebyshev(&state.weights, Some(mask));
            if sample_regions {
                state.did_region_step = true;
                state.region_converged = step_size <= config.delta;
            } else {
                state.did_event_step = true;
                state.event_converged = step_size <= config.delta;
            }
            state.weights = step.weights;

            // Update the configured value of the just-sampled chain by
            // averaging (majority-voting) the M samples (line 25).
            for (s, seq_samples) in samples.iter().enumerate() {
                let ctx = &data.seqs[s].ctx;
                for (i, votes) in seq_samples.votes.iter().enumerate() {
                    let argmax = votes
                        .iter()
                        .enumerate()
                        .max_by_key(|(_, c)| **c)
                        .map(|(j, _)| j)
                        .unwrap_or(0);
                    if sample_regions {
                        state.regions_cfg[s][i] = ctx.candidates[i][argmax];
                    } else {
                        state.events_cfg[s][i] = MobilityEvent::ALL[argmax];
                    }
                }
            }

            let converged = state.did_region_step
                && state.did_event_step
                && state.region_converged
                && state.event_converged;
            let iteration_seconds = iter_start.elapsed().as_secs_f64();
            report.iteration_seconds.push(iteration_seconds);

            // Durability point: the iteration's state is complete, so a
            // crash from here on resumes at `iter + 1`.
            if let Some(path) = self.checkpoint_path.as_deref() {
                state.save_to(path).map_err(|e| TrainError::Persist {
                    message: e.to_string(),
                })?;
            }

            if let Some(observer) = self.observer.as_mut() {
                let progress = TrainProgress {
                    iteration: iter + 1,
                    max_iter: config.max_iter,
                    chain: if sample_regions {
                        SampledChain::Regions
                    } else {
                        SampledChain::Events
                    },
                    objective: step.objective,
                    step: step_size,
                    weights: state.weights.clone(),
                    iteration_seconds,
                    converged,
                };
                if observer(&progress) == TrainControl::Stop {
                    report.early_stopped = true;
                    break;
                }
            }
            if converged {
                break;
            }
        }

        // Final write: also covers runs that execute zero iterations (a
        // resumed already-converged checkpoint) so the artifact exists.
        if let Some(path) = self.checkpoint_path.as_deref() {
            state.save_to(path).map_err(|e| TrainError::Persist {
                message: e.to_string(),
            })?;
        }

        report.region_converged = state.region_converged;
        report.event_converged = state.event_converged;
        report.converged = state.did_region_step
            && state.did_event_step
            && state.region_converged
            && state.event_converged;
        report.train_seconds = start.elapsed().as_secs_f64();

        let model = C2mn::from_parts(
            self.space,
            config.clone(),
            state.weights.clone(),
            data.region_freq.clone(),
            report.clone(),
        );
        Ok(TrainOutcome {
            model,
            report,
            checkpoint: state,
        })
    }

    fn validate_checkpoint(
        cp: &TrainCheckpoint,
        data: &TrainingData<'_>,
    ) -> Result<(), TrainError> {
        if cp.events_cfg.len() != data.seqs.len() || cp.regions_cfg.len() != data.seqs.len() {
            return Err(TrainError::CheckpointMismatch {
                sequence: None,
                expected: cp.events_cfg.len(),
                found: data.seqs.len(),
            });
        }
        for (s, seq) in data.seqs.iter().enumerate() {
            if cp.events_cfg[s].len() != seq.ctx.len() || cp.regions_cfg[s].len() != seq.ctx.len() {
                return Err(TrainError::CheckpointMismatch {
                    sequence: Some(s),
                    expected: cp.events_cfg[s].len(),
                    found: seq.ctx.len(),
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ModelStructure;
    use ism_indoor::BuildingGenerator;
    use ism_mobility::{Dataset, PositioningConfig, SimulationConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_training_data() -> (ism_indoor::IndoorSpace, Vec<LabeledSequence>) {
        let mut rng = StdRng::seed_from_u64(1);
        let space = BuildingGenerator::small_office()
            .generate(&mut rng)
            .unwrap();
        let dataset = Dataset::generate(
            "train",
            &space,
            SimulationConfig::quick(),
            PositioningConfig::synthetic(8.0, 2.0),
            None,
            5,
            &mut rng,
        );
        (space, dataset.sequences)
    }

    #[test]
    fn learning_runs_and_improves_weights() {
        let (space, seqs) = tiny_training_data();
        let out = Trainer::new(&space, C2mnConfig::quick_test())
            .seed(2)
            .run(&seqs)
            .unwrap();
        assert!(out.report.iterations >= 2);
        assert!(out.report.train_seconds > 0.0);
        assert_eq!(out.report.iteration_seconds.len(), out.report.iterations);
        assert_eq!(out.report.skipped_sequences, 0);
        // Weights moved away from the uniform init on active templates.
        let weights = out.model.weights();
        let moved = weights
            .0
            .iter()
            .filter(|w| (**w - 0.5).abs() > 1e-6)
            .count();
        assert!(moved >= 4, "weights barely moved: {:?}", weights.0);
        // All weights finite.
        assert!(weights.0.iter().all(|w| w.is_finite()));
    }

    #[test]
    fn cmn_structure_trains_without_segmentation() {
        let (space, seqs) = tiny_training_data();
        let config = C2mnConfig::quick_test().with_structure(ModelStructure::cmn());
        let out = Trainer::new(&space, config).seed(3).run(&seqs).unwrap();
        // Segmentation weights stay at their initial value.
        for k in 6..12 {
            assert!((out.model.weights().0[k] - 0.5).abs() < 1e-12);
        }
    }

    #[test]
    fn observer_sees_every_iteration_and_can_stop() {
        let (space, seqs) = tiny_training_data();
        let mut seen: Vec<(usize, SampledChain, f64)> = Vec::new();
        let out = Trainer::new(&space, C2mnConfig::quick_test())
            .seed(4)
            .observer(|p| {
                seen.push((p.iteration, p.chain, p.objective));
                if p.iteration == 3 {
                    TrainControl::Stop
                } else {
                    TrainControl::Continue
                }
            })
            .run(&seqs)
            .unwrap();
        assert_eq!(out.report.iterations, 3);
        assert!(out.report.early_stopped);
        assert_eq!(seen.len(), 3);
        assert_eq!(seen[0].0, 1);
        // Default FirstConfigured::Events ⇒ regions sampled first.
        assert_eq!(seen[0].1, SampledChain::Regions);
        assert_eq!(seen[1].1, SampledChain::Events);
        assert_eq!(out.checkpoint.next_iteration(), 3);
    }

    #[test]
    fn resuming_a_converged_checkpoint_is_a_no_op() {
        let (space, seqs) = tiny_training_data();
        // A huge δ converges as soon as both chains have stepped once.
        let mut config = C2mnConfig::quick_test();
        config.delta = 1e9;
        let done = Trainer::new(&space, config.clone())
            .seed(9)
            .run(&seqs)
            .unwrap();
        assert!(done.report.converged);
        assert!(done.report.iterations < config.max_iter);
        let resumed = Trainer::new(&space, config)
            .seed(9)
            .checkpoint(done.checkpoint)
            .run(&seqs)
            .unwrap();
        assert_eq!(
            resumed.model.weights().0.map(f64::to_bits),
            done.model.weights().0.map(f64::to_bits)
        );
        assert_eq!(resumed.report.iterations, done.report.iterations);
        assert!(resumed.report.converged);
        assert!(resumed.report.objective_trace.is_empty());
    }

    #[test]
    fn checkpoint_against_wrong_training_set_is_rejected() {
        let (space, seqs) = tiny_training_data();
        let config = C2mnConfig::quick_test();
        let out = Trainer::new(&space, config.clone())
            .seed(5)
            .run(&seqs)
            .unwrap();
        let err = Trainer::new(&space, config)
            .seed(5)
            .checkpoint(out.checkpoint)
            .run(&seqs[..seqs.len() - 1])
            .unwrap_err();
        assert!(matches!(err, TrainError::CheckpointMismatch { .. }));
    }

    #[test]
    fn empty_training_set_is_an_error() {
        let (space, _) = tiny_training_data();
        let err = Trainer::new(&space, C2mnConfig::quick_test())
            .run(&[])
            .unwrap_err();
        assert_eq!(err, TrainError::EmptyTrainingSet);
    }

    #[test]
    fn short_sequences_are_counted_not_silently_dropped() {
        let (space, mut seqs) = tiny_training_data();
        let mut short = seqs[0].clone();
        short.records.truncate(1);
        seqs.push(short);
        let out = Trainer::new(&space, C2mnConfig::quick_test())
            .seed(6)
            .run(&seqs)
            .unwrap();
        assert_eq!(out.report.skipped_sequences, 1);
        assert_eq!(out.model.report().skipped_sequences, 1);
    }
}
