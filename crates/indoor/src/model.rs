//! Core indoor entities: partitions, doors, regions, indoor points.

use crate::{DoorId, PartitionId, RegionId};
use ism_geometry::{Point2, Rect};
use serde::{Deserialize, Serialize};

/// A location inside a building: a 2-D point plus a floor number.
///
/// This mirrors the paper's positioning triple `(x, y, f)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IndoorPoint {
    /// Floor number (0-based).
    pub floor: u16,
    /// Planar coordinates on the floor, in metres.
    pub xy: Point2,
}

impl IndoorPoint {
    /// Creates an indoor point.
    #[inline]
    pub const fn new(floor: u16, xy: Point2) -> Self {
        IndoorPoint { floor, xy }
    }

    /// Planar Euclidean distance, ignoring floor difference.
    #[inline]
    pub fn planar_distance(&self, other: &IndoorPoint) -> f64 {
        self.xy.distance(other.xy)
    }
}

/// An indoor partition: a rectangular room or hallway segment on one floor.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Partition {
    /// Identifier (dense index into [`crate::IndoorSpace`] storage).
    pub id: PartitionId,
    /// Floor the partition lies on.
    pub floor: u16,
    /// Footprint of the partition.
    pub rect: Rect,
    /// The semantic region this partition belongs to.
    pub region: RegionId,
    /// Doors opening into this partition.
    pub doors: Vec<DoorId>,
}

impl Partition {
    /// Whether the partition contains the point (same floor and inside rect).
    #[inline]
    pub fn contains(&self, p: &IndoorPoint) -> bool {
        self.floor == p.floor && self.rect.contains(p.xy)
    }
}

/// How a door connects its two partitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DoorKind {
    /// Ordinary door/opening between two partitions on the same floor.
    Horizontal,
    /// Staircase (or elevator) connection between two floors; traversal
    /// incurs an extra vertical walking cost.
    Staircase,
}

/// A door (or virtual opening) connecting exactly two partitions.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Door {
    /// Identifier (dense index).
    pub id: DoorId,
    /// Kind of connection.
    pub kind: DoorKind,
    /// Planar position of the door.
    pub position: Point2,
    /// Floor of the door (for staircases: the lower floor).
    pub floor: u16,
    /// The two partitions the door connects.
    pub partitions: [PartitionId; 2],
    /// Extra walking cost for traversing the door itself (0 for horizontal
    /// doors, the stair length for staircases).
    pub traversal_cost: f64,
}

impl Door {
    /// The partition on the other side of the door.
    ///
    /// Returns `None` when `from` is not adjacent to this door.
    #[inline]
    pub fn other_side(&self, from: PartitionId) -> Option<PartitionId> {
        if self.partitions[0] == from {
            Some(self.partitions[1])
        } else if self.partitions[1] == from {
            Some(self.partitions[0])
        } else {
            None
        }
    }
}

/// Category of a semantic region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RegionKind {
    /// A destination region (shop, office, gate…) where stays happen.
    Shop,
    /// Hallway/corridor region, traversed by passes.
    Corridor,
    /// Staircase region connecting floors.
    Staircase,
}

/// A semantic region: one or more partitions carrying shared semantics.
///
/// Regions are non-overlapping and — in this implementation — jointly cover
/// the venue, so every indoor point has a well-defined ground-truth region.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Region {
    /// Identifier (dense index).
    pub id: RegionId,
    /// Human-readable name (e.g. `"F2-Shop13"`).
    pub name: String,
    /// Category of the region.
    pub kind: RegionKind,
    /// Partitions making up the region.
    pub partitions: Vec<PartitionId>,
    /// Total floor area of the region (m²).
    pub area: f64,
    /// Floor of the region's first partition (regions never span floors
    /// except staircases, whose `floor` is the lower floor).
    pub floor: u16,
}

impl Region {
    /// Whether this region is a destination where objects can stay.
    #[inline]
    pub fn is_destination(&self) -> bool {
        self.kind == RegionKind::Shop
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn door_other_side() {
        let d = Door {
            id: DoorId(0),
            kind: DoorKind::Horizontal,
            position: Point2::new(1.0, 1.0),
            floor: 0,
            partitions: [PartitionId(4), PartitionId(9)],
            traversal_cost: 0.0,
        };
        assert_eq!(d.other_side(PartitionId(4)), Some(PartitionId(9)));
        assert_eq!(d.other_side(PartitionId(9)), Some(PartitionId(4)));
        assert_eq!(d.other_side(PartitionId(1)), None);
    }

    #[test]
    fn partition_containment_is_floor_aware() {
        let p = Partition {
            id: PartitionId(0),
            floor: 2,
            rect: Rect::from_origin_size(0.0, 0.0, 10.0, 10.0),
            region: RegionId(0),
            doors: vec![],
        };
        assert!(p.contains(&IndoorPoint::new(2, Point2::new(5.0, 5.0))));
        assert!(!p.contains(&IndoorPoint::new(1, Point2::new(5.0, 5.0))));
        assert!(!p.contains(&IndoorPoint::new(2, Point2::new(15.0, 5.0))));
    }

    #[test]
    fn region_destination_flag() {
        let mk = |kind| Region {
            id: RegionId(0),
            name: "r".into(),
            kind,
            partitions: vec![],
            area: 0.0,
            floor: 0,
        };
        assert!(mk(RegionKind::Shop).is_destination());
        assert!(!mk(RegionKind::Corridor).is_destination());
        assert!(!mk(RegionKind::Staircase).is_destination());
    }
}
