//! Planar geometry used by the mobility model and the gridded region.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, Mul, Sub};

/// A point (or position) in the surveillance plane, in metres.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Point {
    /// Easting in metres.
    pub x: f64,
    /// Northing in metres.
    pub y: f64,
}

impl Point {
    /// The origin `(0, 0)`.
    pub const ORIGIN: Point = Point { x: 0.0, y: 0.0 };

    /// Creates a point from coordinates.
    #[must_use]
    pub const fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// Euclidean distance to `other`, in metres.
    #[must_use]
    pub fn distance(self, other: Point) -> f64 {
        (self - other).norm()
    }

    /// Clamps the point into the axis-aligned rectangle `rect`.
    #[must_use]
    pub fn clamped(self, rect: Rect) -> Point {
        Point::new(
            self.x.clamp(rect.min.x, rect.max.x),
            self.y.clamp(rect.min.y, rect.max.y),
        )
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.2}, {:.2})", self.x, self.y)
    }
}

/// A displacement between two points, in metres.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Vector {
    /// x component in metres.
    pub dx: f64,
    /// y component in metres.
    pub dy: f64,
}

impl Vector {
    /// The zero vector.
    pub(crate) const ZERO: Vector = Vector { dx: 0.0, dy: 0.0 };

    /// Creates a vector from components.
    #[must_use]
    pub const fn new(dx: f64, dy: f64) -> Self {
        Vector { dx, dy }
    }

    /// Euclidean norm (length) of the vector.
    #[must_use]
    pub fn norm(self) -> f64 {
        self.dx.hypot(self.dy)
    }

    /// Returns a vector with the same direction and unit length, or the
    /// zero vector if this vector is (numerically) zero.
    #[must_use]
    pub fn normalized(self) -> Vector {
        let n = self.norm();
        if n <= f64::EPSILON {
            Vector::ZERO
        } else {
            Vector::new(self.dx / n, self.dy / n)
        }
    }
}

impl Add<Vector> for Point {
    type Output = Point;
    fn add(self, v: Vector) -> Point {
        Point::new(self.x + v.dx, self.y + v.dy)
    }
}

impl Sub for Point {
    type Output = Vector;
    fn sub(self, other: Point) -> Vector {
        Vector::new(self.x - other.x, self.y - other.y)
    }
}

impl Add for Vector {
    type Output = Vector;
    fn add(self, other: Vector) -> Vector {
        Vector::new(self.dx + other.dx, self.dy + other.dy)
    }
}

impl Sub for Vector {
    type Output = Vector;
    fn sub(self, other: Vector) -> Vector {
        Vector::new(self.dx - other.dx, self.dy - other.dy)
    }
}

impl Mul<f64> for Vector {
    type Output = Vector;
    fn mul(self, k: f64) -> Vector {
        Vector::new(self.dx * k, self.dy * k)
    }
}

/// An axis-aligned rectangle, closed on all sides.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Rect {
    /// Corner with the smallest coordinates.
    pub min: Point,
    /// Corner with the largest coordinates.
    pub max: Point,
}

impl Rect {
    /// Creates a rectangle from two opposite corners, normalizing the
    /// corner order.
    #[must_use]
    pub(crate) fn new(a: Point, b: Point) -> Self {
        Rect {
            min: Point::new(a.x.min(b.x), a.y.min(b.y)),
            max: Point::new(a.x.max(b.x), a.y.max(b.y)),
        }
    }

    /// Creates the rectangle `[0, width] x [0, height]`.
    #[must_use]
    pub fn from_size(width: f64, height: f64) -> Self {
        Rect::new(Point::ORIGIN, Point::new(width, height))
    }

    /// Width of the rectangle in metres.
    #[must_use]
    pub fn width(&self) -> f64 {
        self.max.x - self.min.x
    }

    /// Height of the rectangle in metres.
    #[must_use]
    pub fn height(&self) -> f64 {
        self.max.y - self.min.y
    }

    /// Whether `p` lies inside the rectangle (boundary inclusive).
    #[must_use]
    pub fn contains(&self, p: Point) -> bool {
        p.x >= self.min.x && p.x <= self.max.x && p.y >= self.min.y && p.y <= self.max.y
    }

    /// Distance from `p` to the nearest edge of the rectangle; positive for
    /// interior points, zero on the border, and negative outside (the
    /// distance to the rectangle itself, negated).
    #[must_use]
    pub(crate) fn signed_border_distance(&self, p: Point) -> f64 {
        if self.contains(p) {
            let dx = (p.x - self.min.x).min(self.max.x - p.x);
            let dy = (p.y - self.min.y).min(self.max.y - p.y);
            dx.min(dy)
        } else {
            let cx = p.x.clamp(self.min.x, self.max.x);
            let cy = p.y.clamp(self.min.y, self.max.y);
            -p.distance(Point::new(cx, cy))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_is_euclidean() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(3.0, 4.0);
        assert!((a.distance(b) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn vector_normalization() {
        let v = Vector::new(3.0, 4.0).normalized();
        assert!((v.norm() - 1.0).abs() < 1e-12);
        assert_eq!(Vector::ZERO.normalized(), Vector::ZERO);
    }

    #[test]
    fn point_vector_arithmetic() {
        let p = Point::new(1.0, 2.0) + Vector::new(3.0, 4.0);
        assert_eq!(p, Point::new(4.0, 6.0));
        let v = Point::new(4.0, 6.0) - Point::new(1.0, 2.0);
        assert_eq!(v, Vector::new(3.0, 4.0));
        assert_eq!(v * 2.0, Vector::new(6.0, 8.0));
    }

    #[test]
    fn rect_normalizes_corners_and_measures() {
        let r = Rect::new(Point::new(5.0, 7.0), Point::new(1.0, 3.0));
        assert_eq!(r.min, Point::new(1.0, 3.0));
        assert_eq!(r.max, Point::new(5.0, 7.0));
        assert_eq!(r.width(), 4.0);
        assert_eq!(r.height(), 4.0);
    }

    #[test]
    fn rect_contains_boundary() {
        let r = Rect::from_size(10.0, 10.0);
        assert!(r.contains(Point::new(0.0, 0.0)));
        assert!(r.contains(Point::new(10.0, 10.0)));
        assert!(!r.contains(Point::new(10.0001, 5.0)));
    }

    #[test]
    fn signed_border_distance_signs() {
        let r = Rect::from_size(100.0, 100.0);
        assert!((r.signed_border_distance(Point::new(50.0, 50.0)) - 50.0).abs() < 1e-12);
        assert!((r.signed_border_distance(Point::new(5.0, 50.0)) - 5.0).abs() < 1e-12);
        assert_eq!(r.signed_border_distance(Point::new(0.0, 50.0)), 0.0);
        assert!((r.signed_border_distance(Point::new(-3.0, 50.0)) + 3.0).abs() < 1e-12);
    }

    #[test]
    fn clamped_point_enters_rect() {
        let r = Rect::from_size(10.0, 10.0);
        assert_eq!(Point::new(-5.0, 20.0).clamped(r), Point::new(0.0, 10.0));
        assert_eq!(Point::new(5.0, 5.0).clamped(r), Point::new(5.0, 5.0));
    }
}
