//! Planar points and vector arithmetic.

use serde::{Deserialize, Serialize};
use std::ops::{Add, Div, Mul, Neg, Sub};

/// A point (or vector) in the Euclidean plane.
///
/// `Point2` doubles as a 2-D vector: subtraction of two points yields the
/// displacement vector between them, and the usual dot/cross products are
/// available.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Point2 {
    /// Horizontal coordinate in metres.
    pub x: f64,
    /// Vertical coordinate in metres.
    pub y: f64,
}

impl Point2 {
    /// The origin `(0, 0)`.
    pub const ZERO: Point2 = Point2 { x: 0.0, y: 0.0 };

    /// Creates a point from its coordinates.
    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Point2 { x, y }
    }

    /// Dot product with another vector.
    #[inline]
    pub fn dot(self, other: Point2) -> f64 {
        self.x * other.x + self.y * other.y
    }

    /// Z-component of the 3-D cross product (signed parallelogram area).
    #[inline]
    pub fn cross(self, other: Point2) -> f64 {
        self.x * other.y - self.y * other.x
    }

    /// Squared Euclidean norm.
    #[inline]
    pub fn norm_sq(self) -> f64 {
        self.dot(self)
    }

    /// Euclidean norm.
    #[inline]
    pub fn norm(self) -> f64 {
        self.norm_sq().sqrt()
    }

    /// Euclidean distance to another point.
    #[inline]
    pub fn distance(self, other: Point2) -> f64 {
        (self - other).norm()
    }

    /// Squared Euclidean distance to another point.
    #[inline]
    pub fn distance_sq(self, other: Point2) -> f64 {
        (self - other).norm_sq()
    }

    /// Linear interpolation: `self` at `t = 0`, `other` at `t = 1`.
    #[inline]
    pub fn lerp(self, other: Point2, t: f64) -> Point2 {
        self + (other - self) * t
    }

    /// Angle of the vector measured from the positive x-axis, in radians.
    #[inline]
    pub fn angle(self) -> f64 {
        self.y.atan2(self.x)
    }
}

impl Add for Point2 {
    type Output = Point2;
    #[inline]
    fn add(self, rhs: Point2) -> Point2 {
        Point2::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl Sub for Point2 {
    type Output = Point2;
    #[inline]
    fn sub(self, rhs: Point2) -> Point2 {
        Point2::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl Mul<f64> for Point2 {
    type Output = Point2;
    #[inline]
    fn mul(self, rhs: f64) -> Point2 {
        Point2::new(self.x * rhs, self.y * rhs)
    }
}

impl Div<f64> for Point2 {
    type Output = Point2;
    #[inline]
    fn div(self, rhs: f64) -> Point2 {
        Point2::new(self.x / rhs, self.y / rhs)
    }
}

impl Neg for Point2 {
    type Output = Point2;
    #[inline]
    fn neg(self) -> Point2 {
        Point2::new(-self.x, -self.y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let a = Point2::new(1.0, 2.0);
        let b = Point2::new(3.0, -1.0);
        assert_eq!(a + b, Point2::new(4.0, 1.0));
        assert_eq!(b - a, Point2::new(2.0, -3.0));
        assert_eq!(a * 2.0, Point2::new(2.0, 4.0));
        assert_eq!(b / 2.0, Point2::new(1.5, -0.5));
        assert_eq!(-a, Point2::new(-1.0, -2.0));
    }

    #[test]
    fn products() {
        let a = Point2::new(1.0, 0.0);
        let b = Point2::new(0.0, 1.0);
        assert_eq!(a.dot(b), 0.0);
        assert_eq!(a.cross(b), 1.0);
        assert_eq!(b.cross(a), -1.0);
    }

    #[test]
    fn distances() {
        let a = Point2::new(0.0, 0.0);
        let b = Point2::new(3.0, 4.0);
        assert_eq!(a.distance(b), 5.0);
        assert_eq!(a.distance_sq(b), 25.0);
        assert_eq!(b.norm(), 5.0);
    }

    #[test]
    fn lerp_endpoints_and_midpoint() {
        let a = Point2::new(0.0, 0.0);
        let b = Point2::new(2.0, 6.0);
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        assert_eq!(a.lerp(b, 0.5), Point2::new(1.0, 3.0));
    }

    #[test]
    fn angle_quadrants() {
        assert!((Point2::new(1.0, 0.0).angle() - 0.0).abs() < 1e-12);
        assert!((Point2::new(0.0, 1.0).angle() - std::f64::consts::FRAC_PI_2).abs() < 1e-12);
    }
}
