//! Axis-aligned rectangles used to model indoor partitions.

use crate::Point2;
use serde::{Deserialize, Serialize};

/// An axis-aligned rectangle `[min.x, max.x] × [min.y, max.y]`.
///
/// Indoor partitions (rooms, hallway segments) are modelled as axis-aligned
/// rectangles; semantic regions are unions of partitions. Degenerate
/// rectangles (zero width or height) are permitted and have zero area.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Rect {
    /// Lower-left corner.
    pub min: Point2,
    /// Upper-right corner.
    pub max: Point2,
}

impl Rect {
    /// Creates a rectangle from two opposite corners, normalising the order.
    #[inline]
    pub fn new(a: Point2, b: Point2) -> Self {
        Rect {
            min: Point2::new(a.x.min(b.x), a.y.min(b.y)),
            max: Point2::new(a.x.max(b.x), a.y.max(b.y)),
        }
    }

    /// Creates a rectangle from `(x, y)` of the lower-left corner plus extent.
    #[inline]
    pub fn from_origin_size(x: f64, y: f64, width: f64, height: f64) -> Self {
        debug_assert!(width >= 0.0 && height >= 0.0);
        Rect {
            min: Point2::new(x, y),
            max: Point2::new(x + width, y + height),
        }
    }

    /// Rectangle width (non-negative).
    #[inline]
    pub fn width(&self) -> f64 {
        self.max.x - self.min.x
    }

    /// Rectangle height (non-negative).
    #[inline]
    pub fn height(&self) -> f64 {
        self.max.y - self.min.y
    }

    /// Area of the rectangle.
    #[inline]
    pub fn area(&self) -> f64 {
        self.width() * self.height()
    }

    /// Center point.
    #[inline]
    pub fn center(&self) -> Point2 {
        Point2::new(
            (self.min.x + self.max.x) * 0.5,
            (self.min.y + self.max.y) * 0.5,
        )
    }

    /// Whether `p` lies inside or on the boundary.
    #[inline]
    pub fn contains(&self, p: Point2) -> bool {
        p.x >= self.min.x && p.x <= self.max.x && p.y >= self.min.y && p.y <= self.max.y
    }

    /// Whether the two rectangles overlap (sharing only a boundary counts).
    #[inline]
    pub fn intersects(&self, other: &Rect) -> bool {
        self.min.x <= other.max.x
            && other.min.x <= self.max.x
            && self.min.y <= other.max.y
            && other.min.y <= self.max.y
    }

    /// Intersection rectangle, or `None` when the rectangles are disjoint.
    #[inline]
    pub fn intersection(&self, other: &Rect) -> Option<Rect> {
        let min = Point2::new(self.min.x.max(other.min.x), self.min.y.max(other.min.y));
        let max = Point2::new(self.max.x.min(other.max.x), self.max.y.min(other.max.y));
        if min.x <= max.x && min.y <= max.y {
            Some(Rect { min, max })
        } else {
            None
        }
    }

    /// Smallest rectangle containing both operands.
    #[inline]
    pub fn union(&self, other: &Rect) -> Rect {
        Rect {
            min: Point2::new(self.min.x.min(other.min.x), self.min.y.min(other.min.y)),
            max: Point2::new(self.max.x.max(other.max.x), self.max.y.max(other.max.y)),
        }
    }

    /// The point of the rectangle closest to `p` (i.e. `p` clamped).
    #[inline]
    pub fn clamp_point(&self, p: Point2) -> Point2 {
        Point2::new(
            p.x.clamp(self.min.x, self.max.x),
            p.y.clamp(self.min.y, self.max.y),
        )
    }

    /// Euclidean distance from `p` to the rectangle (zero if inside).
    #[inline]
    pub fn distance_to_point(&self, p: Point2) -> f64 {
        self.clamp_point(p).distance(p)
    }

    /// Point at fractional coordinates `(u, v) ∈ [0,1]²` inside the rectangle.
    #[inline]
    pub fn at(&self, u: f64, v: f64) -> Point2 {
        Point2::new(
            self.min.x + self.width() * u,
            self.min.y + self.height() * v,
        )
    }

    /// Corners in counter-clockwise order starting from `min`.
    #[inline]
    pub fn corners(&self) -> [Point2; 4] {
        [
            self.min,
            Point2::new(self.max.x, self.min.y),
            self.max,
            Point2::new(self.min.x, self.max.y),
        ]
    }

    /// Rectangle grown by `margin` on every side.
    #[inline]
    pub fn inflate(&self, margin: f64) -> Rect {
        Rect {
            min: Point2::new(self.min.x - margin, self.min.y - margin),
            max: Point2::new(self.max.x + margin, self.max.y + margin),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(x0: f64, y0: f64, x1: f64, y1: f64) -> Rect {
        Rect::new(Point2::new(x0, y0), Point2::new(x1, y1))
    }

    #[test]
    fn construction_normalises_corners() {
        let a = Rect::new(Point2::new(2.0, 3.0), Point2::new(0.0, 1.0));
        assert_eq!(a.min, Point2::new(0.0, 1.0));
        assert_eq!(a.max, Point2::new(2.0, 3.0));
        assert_eq!(a.width(), 2.0);
        assert_eq!(a.height(), 2.0);
    }

    #[test]
    fn area_and_center() {
        let a = r(0.0, 0.0, 4.0, 2.0);
        assert_eq!(a.area(), 8.0);
        assert_eq!(a.center(), Point2::new(2.0, 1.0));
    }

    #[test]
    fn containment() {
        let a = r(0.0, 0.0, 1.0, 1.0);
        assert!(a.contains(Point2::new(0.5, 0.5)));
        assert!(a.contains(Point2::new(1.0, 1.0))); // boundary
        assert!(!a.contains(Point2::new(1.1, 0.5)));
    }

    #[test]
    fn intersection_cases() {
        let a = r(0.0, 0.0, 2.0, 2.0);
        let b = r(1.0, 1.0, 3.0, 3.0);
        let c = r(5.0, 5.0, 6.0, 6.0);
        assert!(a.intersects(&b));
        assert_eq!(a.intersection(&b), Some(r(1.0, 1.0, 2.0, 2.0)));
        assert!(!a.intersects(&c));
        assert_eq!(a.intersection(&c), None);
        // Touching rectangles intersect with zero-area result.
        let d = r(2.0, 0.0, 3.0, 2.0);
        assert!(a.intersects(&d));
        assert_eq!(a.intersection(&d).unwrap().area(), 0.0);
    }

    #[test]
    fn union_covers_both() {
        let a = r(0.0, 0.0, 1.0, 1.0);
        let b = r(2.0, -1.0, 3.0, 0.5);
        let u = a.union(&b);
        assert_eq!(u, r(0.0, -1.0, 3.0, 1.0));
    }

    #[test]
    fn distance_to_point() {
        let a = r(0.0, 0.0, 1.0, 1.0);
        assert_eq!(a.distance_to_point(Point2::new(0.5, 0.5)), 0.0);
        assert_eq!(a.distance_to_point(Point2::new(2.0, 1.0)), 1.0);
        assert!((a.distance_to_point(Point2::new(4.0, 5.0)) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn corners_ccw() {
        let a = r(0.0, 0.0, 2.0, 1.0);
        let c = a.corners();
        // Shoelace area of CCW corner loop equals rect area.
        let mut s = 0.0;
        for i in 0..4 {
            s += c[i].cross(c[(i + 1) % 4]);
        }
        assert!((s * 0.5 - a.area()).abs() < 1e-12);
    }

    #[test]
    fn inflate_grows() {
        let a = r(0.0, 0.0, 1.0, 1.0).inflate(0.5);
        assert_eq!(a, r(-0.5, -0.5, 1.5, 1.5));
    }
}
