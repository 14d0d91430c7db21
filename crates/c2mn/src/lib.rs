//! Coupled conditional Markov networks (C2MN) for indoor mobility
//! semantics annotation — the primary contribution of the reproduced paper.
//!
//! Given an indoor positioning sequence, a C2MN jointly infers the
//! sequences of **semantic regions** and **mobility events** (stay/pass) by
//! modelling four categories of probabilistic dependencies (matching,
//! transition, synchronization, segmentation — Fig. 3) with eight feature
//! functions tailored to indoor topology and mobility behaviour (Table II).
//!
//! * [`C2mnConfig`] — every hyper-parameter of §V, with the paper's real
//!   and synthetic presets;
//! * [`ModelStructure`] — which clique templates are active, yielding the
//!   paper's structural variants (CMN, C2MN/Tran, C2MN/Syn, C2MN/ES,
//!   C2MN/SS);
//! * [`SequenceContext`] / [`CoupledNetwork`] — the unrolled network over
//!   one p-sequence with cached features and exact Markov-blanket local
//!   potentials;
//! * [`Trainer`] — the training session API for the alternate learning
//!   algorithm (Algorithm 1): pseudo-likelihood with MCMC (Gibbs) sampling
//!   and L-BFGS steps, alternating which target chain is configured. The
//!   per-sequence sampling fans out over a worker pool with seeds derived
//!   from [`train_seed`]`(base_seed, iteration, sequence)`, so the learned
//!   weights are byte-identical for any thread count; an observer hook
//!   reports per-iteration progress and can stop early, and
//!   [`TrainCheckpoint`]s resume interrupted runs exactly.
//!   [`C2mn::train`] remains as a thin sequential convenience wrapper;
//! * [`C2mn::annotate`] — joint decoding (annealed Gibbs + ICM) followed by
//!   label-and-merge into m-semantics. One decode loop serves both decode
//!   paths, and every sweep fills the candidate row of every
//!   multi-candidate site. [`C2mn::label_with`] fills rows through the
//!   chains' run-indexed
//!   [`fill_row`](ism_pgm::ConditionalModel::fill_row) ([`RegionSites`] /
//!   [`EventSites`] over a [`RunIndex`]); [`C2mn::label_with_naive`], the
//!   reference oracle, fills them one candidate at a time. The labels are
//!   byte-identical;
//! * [`BatchAnnotator`] — the parallel batch engine: spreads a batch of
//!   p-sequences over the persistent workers of an
//!   [`ism_runtime::WorkerPool`] with per-worker [`DecodeScratch`] buffers
//!   and per-sequence seeds derived from `(base_seed, sequence_index)`,
//!   making output byte-identical for any thread count.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod batch;
mod config;
mod context;
mod error;
mod features;
mod model;
mod network;
mod persist;
mod prep;
mod sample;
mod step;
mod structure;
mod trainer;

pub use batch::{sequence_seed, BatchAnnotator};
pub use config::{C2mnConfig, FirstConfigured};
pub use context::SequenceContext;
pub use error::TrainError;
pub use model::{C2mn, DecodeScratch};
pub use network::{CoupledNetwork, EventSites, RegionSites, RunIndex};
pub use persist::ModelSnapshot;
pub use sample::train_seed;
pub use structure::{ModelStructure, Weights, NUM_FEATURES};
pub use trainer::{
    SampledChain, TrainCheckpoint, TrainControl, TrainOutcome, TrainProgress, TrainReport, Trainer,
};
