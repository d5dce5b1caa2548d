//! Basic 2-D geometry used by the spatial index and the navmesh.
//!
//! Game worlds in this crate are modelled as continuous Euclidean spaces:
//! [`Vec2`] and [`Aabb`] serve top-down worlds (the common MMO case the
//! paper discusses).

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// A 2-D vector / point with `f32` coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec2 {
    pub x: f32,
    pub y: f32,
}

impl Vec2 {
    pub const ZERO: Vec2 = Vec2 { x: 0.0, y: 0.0 };

    #[inline]
    pub const fn new(x: f32, y: f32) -> Self {
        Vec2 { x, y }
    }

    /// Squared Euclidean distance to `other`. Prefer this in hot loops; it
    /// avoids the square root that [`Vec2::dist`] pays.
    #[inline]
    pub fn dist2(self, other: Vec2) -> f32 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }

    /// Euclidean distance to `other`.
    #[inline]
    pub fn dist(self, other: Vec2) -> f32 {
        self.dist2(other).sqrt()
    }

    /// Squared length of the vector.
    #[inline]
    pub fn len2(self) -> f32 {
        self.x * self.x + self.y * self.y
    }

    /// Length (magnitude) of the vector.
    #[inline]
    pub fn len(self) -> f32 {
        self.len2().sqrt()
    }

    /// Dot product.
    #[inline]
    pub fn dot(self, other: Vec2) -> f32 {
        self.x * other.x + self.y * other.y
    }

    /// Z-component of the 3-D cross product of the two vectors embedded in
    /// the plane; positive when `other` is counter-clockwise from `self`.
    #[inline]
    pub fn cross(self, other: Vec2) -> f32 {
        self.x * other.y - self.y * other.x
    }

    /// Unit vector in the same direction, or zero if the vector is zero.
    #[inline]
    pub fn normalized(self) -> Vec2 {
        let l = self.len();
        if l > 0.0 {
            Vec2::new(self.x / l, self.y / l)
        } else {
            Vec2::ZERO
        }
    }

    /// Component-wise minimum.
    #[inline]
    pub fn min(self, other: Vec2) -> Vec2 {
        Vec2::new(self.x.min(other.x), self.y.min(other.y))
    }

    /// Component-wise maximum.
    #[inline]
    pub fn max(self, other: Vec2) -> Vec2 {
        Vec2::new(self.x.max(other.x), self.y.max(other.y))
    }

    /// Linear interpolation: `self` at `t = 0`, `other` at `t = 1`.
    #[inline]
    pub fn lerp(self, other: Vec2, t: f32) -> Vec2 {
        Vec2::new(
            self.x + (other.x - self.x) * t,
            self.y + (other.y - self.y) * t,
        )
    }

    /// Clamp each coordinate into the closed interval `[lo, hi]`.
    #[inline]
    pub fn clamp(self, lo: Vec2, hi: Vec2) -> Vec2 {
        Vec2::new(self.x.clamp(lo.x, hi.x), self.y.clamp(lo.y, hi.y))
    }

    /// True when both coordinates are finite (no NaN / infinity).
    #[inline]
    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite()
    }
}

impl Add for Vec2 {
    type Output = Vec2;
    #[inline]
    fn add(self, rhs: Vec2) -> Vec2 {
        Vec2::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl AddAssign for Vec2 {
    #[inline]
    fn add_assign(&mut self, rhs: Vec2) {
        self.x += rhs.x;
        self.y += rhs.y;
    }
}

impl Sub for Vec2 {
    type Output = Vec2;
    #[inline]
    fn sub(self, rhs: Vec2) -> Vec2 {
        Vec2::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl SubAssign for Vec2 {
    #[inline]
    fn sub_assign(&mut self, rhs: Vec2) {
        self.x -= rhs.x;
        self.y -= rhs.y;
    }
}

impl Mul<f32> for Vec2 {
    type Output = Vec2;
    #[inline]
    fn mul(self, rhs: f32) -> Vec2 {
        Vec2::new(self.x * rhs, self.y * rhs)
    }
}

impl Div<f32> for Vec2 {
    type Output = Vec2;
    #[inline]
    fn div(self, rhs: f32) -> Vec2 {
        Vec2::new(self.x / rhs, self.y / rhs)
    }
}

impl Neg for Vec2 {
    type Output = Vec2;
    #[inline]
    fn neg(self) -> Vec2 {
        Vec2::new(-self.x, -self.y)
    }
}

impl fmt::Display for Vec2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

/// A 2-D axis-aligned bounding box, stored as inclusive min / max corners.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Aabb {
    pub min: Vec2,
    pub max: Vec2,
}

impl Aabb {
    /// Construct from two corners; the corners are normalized so callers may
    /// pass them in any order.
    #[inline]
    pub fn new(a: Vec2, b: Vec2) -> Self {
        Aabb {
            min: a.min(b),
            max: a.max(b),
        }
    }

    /// A box spanning `[0,0] .. [w,h]`.
    #[inline]
    pub fn from_size(w: f32, h: f32) -> Self {
        Aabb::new(Vec2::ZERO, Vec2::new(w, h))
    }

    /// Smallest box containing a circle.
    #[inline]
    pub fn around_circle(center: Vec2, radius: f32) -> Self {
        let r = Vec2::new(radius, radius);
        Aabb {
            min: center - r,
            max: center + r,
        }
    }

    #[inline]
    pub fn width(&self) -> f32 {
        self.max.x - self.min.x
    }

    #[inline]
    pub fn height(&self) -> f32 {
        self.max.y - self.min.y
    }

    #[inline]
    pub fn center(&self) -> Vec2 {
        (self.min + self.max) * 0.5
    }

    #[inline]
    pub fn area(&self) -> f32 {
        self.width() * self.height()
    }

    /// True when `p` lies inside or on the boundary.
    #[inline]
    pub fn contains(&self, p: Vec2) -> bool {
        p.x >= self.min.x && p.x <= self.max.x && p.y >= self.min.y && p.y <= self.max.y
    }

    /// True when the two boxes overlap (closed-interval semantics).
    #[inline]
    pub fn intersects(&self, other: &Aabb) -> bool {
        self.min.x <= other.max.x
            && self.max.x >= other.min.x
            && self.min.y <= other.max.y
            && self.max.y >= other.min.y
    }

    /// True when `other` lies entirely inside `self`.
    #[inline]
    pub fn contains_aabb(&self, other: &Aabb) -> bool {
        self.min.x <= other.min.x
            && self.min.y <= other.min.y
            && self.max.x >= other.max.x
            && self.max.y >= other.max.y
    }

    /// Squared distance from `p` to the nearest point of the box (zero when
    /// `p` is inside). Used for circle/box overlap tests and kNN pruning.
    #[inline]
    pub fn dist2_to_point(&self, p: Vec2) -> f32 {
        let c = p.clamp(self.min, self.max);
        c.dist2(p)
    }

    /// True when the box intersects the closed disk `(center, radius)`.
    #[inline]
    pub fn intersects_circle(&self, center: Vec2, radius: f32) -> bool {
        self.dist2_to_point(center) <= radius * radius
    }

    /// The smallest box containing both inputs.
    #[inline]
    pub fn union(&self, other: &Aabb) -> Aabb {
        Aabb {
            min: self.min.min(other.min),
            max: self.max.max(other.max),
        }
    }

    /// Grow the box by `m` in every direction.
    #[inline]
    pub fn inflate(&self, m: f32) -> Aabb {
        let d = Vec2::new(m, m);
        Aabb {
            min: self.min - d,
            max: self.max + d,
        }
    }
}

/// Segment/segment intersection test for navmesh portal checks.
///
/// Returns true when segments `a0-a1` and `b0-b1` properly intersect or
/// touch. Collinear overlapping segments count as intersecting.
pub fn segments_intersect(a0: Vec2, a1: Vec2, b0: Vec2, b1: Vec2) -> bool {
    fn orient(a: Vec2, b: Vec2, c: Vec2) -> f32 {
        (b - a).cross(c - a)
    }
    fn on_segment(a: Vec2, b: Vec2, p: Vec2) -> bool {
        p.x >= a.x.min(b.x) && p.x <= a.x.max(b.x) && p.y >= a.y.min(b.y) && p.y <= a.y.max(b.y)
    }
    let d1 = orient(b0, b1, a0);
    let d2 = orient(b0, b1, a1);
    let d3 = orient(a0, a1, b0);
    let d4 = orient(a0, a1, b1);
    if ((d1 > 0.0 && d2 < 0.0) || (d1 < 0.0 && d2 > 0.0))
        && ((d3 > 0.0 && d4 < 0.0) || (d3 < 0.0 && d4 > 0.0))
    {
        return true;
    }
    (d1 == 0.0 && on_segment(b0, b1, a0))
        || (d2 == 0.0 && on_segment(b0, b1, a1))
        || (d3 == 0.0 && on_segment(a0, a1, b0))
        || (d4 == 0.0 && on_segment(a0, a1, b1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec2_arithmetic() {
        let a = Vec2::new(1.0, 2.0);
        let b = Vec2::new(3.0, -1.0);
        assert_eq!(a + b, Vec2::new(4.0, 1.0));
        assert_eq!(a - b, Vec2::new(-2.0, 3.0));
        assert_eq!(a * 2.0, Vec2::new(2.0, 4.0));
        assert_eq!(b / 2.0, Vec2::new(1.5, -0.5));
        assert_eq!(-a, Vec2::new(-1.0, -2.0));
    }

    #[test]
    fn vec2_distances() {
        let a = Vec2::new(0.0, 0.0);
        let b = Vec2::new(3.0, 4.0);
        assert_eq!(a.dist2(b), 25.0);
        assert_eq!(a.dist(b), 5.0);
        assert_eq!(b.len(), 5.0);
    }

    #[test]
    fn vec2_dot_cross() {
        let a = Vec2::new(1.0, 0.0);
        let b = Vec2::new(0.0, 1.0);
        assert_eq!(a.dot(b), 0.0);
        assert_eq!(a.cross(b), 1.0);
        assert_eq!(b.cross(a), -1.0);
    }

    #[test]
    fn vec2_normalized() {
        let v = Vec2::new(3.0, 4.0).normalized();
        assert!((v.len() - 1.0).abs() < 1e-6);
        assert_eq!(Vec2::ZERO.normalized(), Vec2::ZERO);
    }

    #[test]
    fn vec2_lerp_endpoints() {
        let a = Vec2::new(1.0, 1.0);
        let b = Vec2::new(5.0, -3.0);
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        assert_eq!(a.lerp(b, 0.5), Vec2::new(3.0, -1.0));
    }

    #[test]
    fn aabb_normalizes_corners() {
        let b = Aabb::new(Vec2::new(5.0, 1.0), Vec2::new(1.0, 5.0));
        assert_eq!(b.min, Vec2::new(1.0, 1.0));
        assert_eq!(b.max, Vec2::new(5.0, 5.0));
        assert_eq!(b.width(), 4.0);
        assert_eq!(b.center(), Vec2::new(3.0, 3.0));
    }

    #[test]
    fn aabb_contains_and_intersects() {
        let b = Aabb::from_size(10.0, 10.0);
        assert!(b.contains(Vec2::new(0.0, 0.0)));
        assert!(b.contains(Vec2::new(10.0, 10.0)));
        assert!(!b.contains(Vec2::new(10.1, 5.0)));

        let other = Aabb::new(Vec2::new(9.0, 9.0), Vec2::new(12.0, 12.0));
        assert!(b.intersects(&other));
        let far = Aabb::new(Vec2::new(20.0, 20.0), Vec2::new(21.0, 21.0));
        assert!(!b.intersects(&far));
    }

    #[test]
    fn aabb_circle_intersection() {
        let b = Aabb::from_size(10.0, 10.0);
        // circle centered outside, touching the right edge
        assert!(b.intersects_circle(Vec2::new(12.0, 5.0), 2.0));
        assert!(!b.intersects_circle(Vec2::new(12.0, 5.0), 1.9));
        // circle fully inside
        assert!(b.intersects_circle(Vec2::new(5.0, 5.0), 0.5));
    }

    #[test]
    fn aabb_dist2_inside_is_zero() {
        let b = Aabb::from_size(4.0, 4.0);
        assert_eq!(b.dist2_to_point(Vec2::new(2.0, 2.0)), 0.0);
        assert_eq!(b.dist2_to_point(Vec2::new(7.0, 2.0)), 9.0);
    }

    #[test]
    fn aabb_union_and_inflate() {
        let a = Aabb::from_size(1.0, 1.0);
        let b = Aabb::new(Vec2::new(2.0, 2.0), Vec2::new(3.0, 3.0));
        let u = a.union(&b);
        assert_eq!(u.min, Vec2::ZERO);
        assert_eq!(u.max, Vec2::new(3.0, 3.0));
        let i = a.inflate(1.0);
        assert_eq!(i.min, Vec2::new(-1.0, -1.0));
        assert_eq!(i.max, Vec2::new(2.0, 2.0));
    }

    #[test]
    fn segment_intersection_cases() {
        let o = Vec2::ZERO;
        // crossing
        assert!(segments_intersect(
            Vec2::new(-1.0, -1.0),
            Vec2::new(1.0, 1.0),
            Vec2::new(-1.0, 1.0),
            Vec2::new(1.0, -1.0)
        ));
        // touching at endpoint
        assert!(segments_intersect(
            o,
            Vec2::new(1.0, 0.0),
            Vec2::new(1.0, 0.0),
            Vec2::new(2.0, 0.0)
        ));
        // parallel, disjoint
        assert!(!segments_intersect(
            o,
            Vec2::new(1.0, 0.0),
            Vec2::new(0.0, 1.0),
            Vec2::new(1.0, 1.0)
        ));
        // collinear overlapping
        assert!(segments_intersect(
            o,
            Vec2::new(2.0, 0.0),
            Vec2::new(1.0, 0.0),
            Vec2::new(3.0, 0.0)
        ));
    }
}
