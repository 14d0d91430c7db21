//! The perfbench library: the three workloads and what they share. The
//! `perfbench` binary runs one workload per process; see `src/main.rs`
//! for its command line and `README.md` for the metrics.

pub mod bulk;
pub mod day;
pub mod harness;
pub mod sched;
pub mod serve;
pub mod stats;
pub mod trace;

/// The workloads the binary runs. `BENCHMARK.json` gates `bulk_vita` and
/// `query_day`; `serve_mall` runs on request (see `README.md`).
pub const WORKLOADS: [&str; 3] = ["bulk_vita", "query_day", "serve_mall"];
