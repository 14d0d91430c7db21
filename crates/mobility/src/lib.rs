//! Indoor mobility data: core types, a random-waypoint simulator, a
//! positioning-error model, and p-sequence preprocessing.
//!
//! The C2MN paper evaluates on (a) a proprietary Wi-Fi positioning dataset
//! from a Hangzhou mall and (b) synthetic data produced by the (unreleased)
//! Vita simulator \[11\]. This crate supplies both:
//!
//! * [`Simulator`] — random-waypoint movement over an
//!   [`ism_indoor::IndoorSpace`]: objects repeatedly stay at a destination
//!   region (1 s – 30 min) and walk to the next destination along planned
//!   indoor routes at ≤ 1.7 m/s, with per-second ground-truth positions and
//!   (region, event) labels;
//! * [`PositioningSampler`] — converts ground truth into positioning
//!   sequences with a maximum reporting period `T`, a positioning error
//!   `μ`, false floor values and location outliers (the paper's synthetic
//!   noise model), plus a Wi-Fi-like profile matching the real dataset's
//!   statistics (2–25 m error, ≈1/15 Hz);
//! * [`preprocess`] — the paper's η-gap splitting and ψ-duration filtering;
//! * [`merge_labels`] — the *merge* half of label-and-merge, turning
//!   record-level (region, event) labels into m-semantics;
//! * [`Dataset`] and [`DatasetStats`] — labelled corpora and the Table III /
//!   Table V statistics.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod dataset;
mod merge;
mod observe;
mod persist;
mod preprocess;
mod simulate;
mod types;

pub use dataset::{Dataset, DatasetStats};
pub use merge::merge_labels;
pub use observe::{PositioningConfig, PositioningSampler};
pub use persist::{decode_semantics_run, encode_semantics_run};
pub use preprocess::{preprocess, split_by_gap, PreprocessConfig};
pub use simulate::{SimulationConfig, Simulator, Trajectory};
pub use types::{
    GroundTruthPoint, LabeledRecord, LabeledSequence, MobilityEvent, MobilitySemantics,
    PositioningRecord, TimePeriod,
};
