//! # indoor-semantics
//!
//! A full reproduction of *"Indoor Mobility Semantics Annotation Using
//! Coupled Conditional Markov Networks"* (Li, Lu, Cheema, Shou, Chen —
//! ICDE 2020) as a Rust workspace.
//!
//! This façade crate re-exports the public API of every workspace member so
//! downstream users can depend on a single crate:
//!
//! * [`geometry`] — 2-D kernel (circle–rectangle intersection areas, turns).
//! * [`indoor`] — floorplans, partitions/doors, semantic regions,
//!   accessibility graph and minimum indoor walking distance (MIWD).
//! * [`mobility`] — random-waypoint indoor mobility simulator, positioning
//!   error models, p-sequence preprocessing.
//! * [`cluster`] — ST-DBSCAN spatio-temporal clustering.
//! * [`optim`] — L-BFGS with line search.
//! * [`pgm`] — probabilistic graphical model toolkit (HMM, linear-chain CRF,
//!   Gibbs/ICM inference with a memoized Markov-blanket sweep cache and
//!   `KernelStats` observability).
//! * [`runtime`] — deterministic **persistent** worker pool: long-lived
//!   threads created once, item-ordered `run` / `run_with`, commutative
//!   `map_reduce`, fire-and-forget `try_spawn` for pipelined ingest, and
//!   `PoolStats` observability — backing the batch annotation and query
//!   engines without ever spawning per call.
//! * [`c2mn`] — the paper's coupled conditional Markov network: feature
//!   functions, the `Trainer` session API for alternate learning
//!   (Algorithm 1, pool-parallel and resumable with per-iteration
//!   observation), joint decoding, label-and-merge, and all structural
//!   variants.
//! * [`baselines`] — SMoT, HMM+DC, SAPDV, SAPDA.
//! * [`queries`] — TkPRQ / TkFRPQ top-k semantic queries: flat sequential
//!   reference plus the sharded engine with delta+varint-compressed
//!   time-bucket indexes, batched fan-out (`QueryBatch`) and standing
//!   queries folded forward from seal summaries.
//! * [`engine`] — the unified streaming front-end: `SemanticsEngine` owns
//!   model, worker pool, and a live sharded store; `IngestSession` streams
//!   p-sequences in with deterministic output, handing each arrival to an
//!   idle worker immediately (pipelined ingest), with several sessions
//!   ingesting concurrently; queries are methods, with a seal-invalidated
//!   result cache and standing-query registration.
//! * [`eval`] — RA/EA/CA/PA metrics, splits, cross-validation.
//!
//! ## Quickstart
//!
//! The engine path: train once, stream p-sequences in as they arrive,
//! query everything sealed so far.
//!
//! ```
//! use indoor_semantics::prelude::*;
//! use rand::SeedableRng;
//!
//! // 1. Build a small synthetic venue and simulate labelled mobility data.
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let venue = BuildingGenerator::small_office().generate(&mut rng).unwrap();
//! let dataset = Dataset::generate(
//!     "demo",
//!     &venue,
//!     SimulationConfig::quick(),
//!     PositioningConfig::synthetic(8.0, 2.0),
//!     None,
//!     4,
//!     &mut rng,
//! );
//!
//! // 2. Train the coupled model and build the engine around it.
//! let engine = EngineBuilder::new()
//!     .threads(2)
//!     .shards(4)
//!     .base_seed(7)
//!     .train(&venue, &dataset.sequences, &C2mnConfig::quick_test(), &mut rng)
//!     .unwrap();
//!
//! // 3. Stream p-sequences in; sealing publishes them to the queries.
//! let mut session = engine.ingest();
//! for seq in &dataset.sequences {
//!     session.push(seq.object_id, seq.positioning().collect());
//! }
//! session.seal();
//!
//! // 4. Ask semantic questions over everything annotated so far.
//! let regions: Vec<RegionId> = venue.regions().iter().map(|r| r.id).collect();
//! let qt = indoor_semantics::mobility::TimePeriod::new(0.0, 1e6);
//! let popular = engine.tk_prq(&regions, 3, qt);
//! assert!(popular.len() <= 3);
//! let first_object = dataset.sequences[0].object_id;
//! assert!(engine.semantics_of(first_object).is_some());
//! ```
//!
//! The pieces remain available individually (`C2mn::annotate`,
//! `BatchAnnotator`, `ShardedStoreBuilder`, `tk_prq_sharded`, …) for
//! callers that want to wire them by hand.

#![deny(missing_docs)]

pub use ism_baselines as baselines;
pub use ism_c2mn as c2mn;
pub use ism_cluster as cluster;
pub use ism_codec as codec;
pub use ism_engine as engine;
pub use ism_eval as eval;
pub use ism_geometry as geometry;
pub use ism_indoor as indoor;
pub use ism_mobility as mobility;
pub use ism_optim as optim;
pub use ism_pgm as pgm;
pub use ism_queries as queries;
pub use ism_runtime as runtime;

/// Convenience prelude importing the most frequently used types.
pub mod prelude {
    pub use ism_baselines::{HmmDc, SapDa, SapDv, Smot};
    pub use ism_c2mn::{
        sequence_seed, train_seed, BatchAnnotator, C2mn, C2mnConfig, ModelSnapshot, ModelStructure,
        SampledChain, TrainCheckpoint, TrainControl, TrainError, TrainOutcome, TrainProgress,
        TrainReport, Trainer, Weights,
    };
    pub use ism_cluster::{DensityClass, StDbscan, StDbscanParams};
    pub use ism_codec::{ArtifactKind, CodecError, Decode, Encode, PersistError};
    pub use ism_engine::{
        CacheStats, EngineBuilder, EngineError, IngestSession, KernelStats, RecoveryReport,
        SemanticsEngine, StandingQueryId,
    };
    pub use ism_eval::{combined_accuracy, perfect_accuracy, LabelAccuracy};
    pub use ism_geometry::{Circle, Point2, Rect};
    pub use ism_indoor::{BuildingGenerator, IndoorSpace, PartitionId, RegionId};
    pub use ism_mobility::{
        Dataset, MobilityEvent, MobilitySemantics, PositioningConfig, PositioningRecord,
        SimulationConfig, Simulator,
    };
    pub use ism_queries::{
        shard_of, tk_frpq, tk_frpq_sharded, tk_prq, tk_prq_sharded, QueryAnswer, QueryBatch,
        QuerySet, SealSummary, SemanticsStore, ShardedSemanticsStore, ShardedStoreBuilder,
        StandingTkFrpq, StandingTkPrq, StoreError,
    };
    pub use ism_runtime::{PoolStats, WorkerPool};
}
