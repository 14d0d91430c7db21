//! Indoor space model: floorplans, partitions, doors, semantic regions,
//! indoor topology and distances.
//!
//! This crate implements the indoor substrate the C2MN paper depends on:
//!
//! * an indoor venue decomposed into rectangular **partitions** (rooms,
//!   hallway segments) connected by **doors** (following the decomposition
//!   of Xie et al. \[25\]),
//! * non-overlapping **semantic regions**, each a union of partitions
//!   (shops, corridor stretches, staircases),
//! * the **accessibility door graph** and the **minimum indoor walking
//!   distance** (MIWD, Lu et al. \[17\]) with precomputed door-to-door
//!   shortest paths,
//! * expected region-to-region MIWD (the `E[d_I(p,q)]` term used by the
//!   space-transition and spatial-consistency features),
//! * a per-floor grid index for point→partition lookup and candidate-region
//!   retrieval,
//! * synthetic **building generators** (an office preset for tests, a 7-floor
//!   mall preset standing in for the paper's real venue, and a 10-floor
//!   "Vita-like" preset matching the synthetic-data experiments).

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod error;
mod generator;
mod graph;
mod ids;
mod index;
mod model;
mod persist;
mod space;

pub use error::IndoorError;
pub use generator::{BuildingGenerator, GeneratorConfig};
pub use graph::{DoorGraph, PlannedPath};
pub use ids::{DoorId, PartitionId, RegionId};
pub use index::FloorGrid;
pub use model::{Door, DoorKind, IndoorPoint, Partition, Region, RegionKind};
pub use space::IndoorSpace;
