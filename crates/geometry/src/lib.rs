//! 2-D geometry kernel for indoor-space computations.
//!
//! This crate provides the exact geometric primitives the C2MN annotation
//! pipeline depends on:
//!
//! * [`Point2`] / vector arithmetic,
//! * axis-aligned rectangles ([`Rect`]) used to model indoor partitions,
//! * circles ([`Circle`]) used to model positioning uncertainty regions,
//! * the **exact** circle–rectangle intersection area (the spatial matching
//!   feature `fsm` of the paper integrates an uncertainty disk against a
//!   semantic region),
//! * polyline utilities (path length, average speed, turn counting per the
//!   paper's footnote 4).
//!
//! All routines are allocation-free and suitable for hot loops.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod circle;
mod point;
mod polyline;
mod rect;

pub use circle::{circle_polygon_area, circle_rect_intersection_area, Circle};
pub use point::Point2;
pub use polyline::{count_turns, is_turn, path_length};
pub use rect::Rect;
