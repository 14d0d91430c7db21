//! Probabilistic graphical model toolkit.
//!
//! The C2MN paper builds on machinery that has no Rust OSS equivalent (the
//! authors used CRF++ as scaffolding). This crate provides it:
//!
//! * [`hmm`] — discrete hidden Markov models with counting-based estimation
//!   and Viterbi decoding (the paper's HMM+DC and SAP baselines),
//! * [`gibbs`] — Markov-blanket samplers over a [`ConditionalModel`]:
//!   Gibbs sweeps (annealed through an [`AnnealSchedule`]) and iterated
//!   conditional modes (ICM), the inference workhorses of C2MN's
//!   alternate learning and joint decoding. The memoized variants
//!   ([`gibbs_sweep_cached`] / [`icm_sweep_cached`] over a
//!   [`SweepCache`]) recompute a site's candidate row only when its
//!   Markov blanket ([`ConditionalModel::dependents`]) changed —
//!   byte-identical to the naive [`gibbs_sweep`] / [`icm_sweep`], which
//!   remain compiled as the reference they are pinned against,
//! * [`util`] — numerically stable log-space helpers.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod gibbs;
pub mod hmm;
pub mod util;

pub use gibbs::{
    gibbs_sweep, gibbs_sweep_cached, icm_sweep, icm_sweep_cached, kernel_stats,
    note_pairwise_table_bytes, AnnealSchedule, ConditionalModel, KernelStats, SweepCache,
};
pub use hmm::{Hmm, HmmConfig};
pub use util::{log_sum_exp, sample_from_log_weights};
