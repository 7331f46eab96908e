//! Minimal 3-vector used for spherical and orbital geometry.
//!
//! A hand-rolled type keeps the dependency surface at zero and makes the
//! numeric behaviour (plain `f64`, no SIMD reassociation) fully
//! deterministic, which the calibrated synthetic datasets rely on.

use std::ops::{Div, Mul, Sub};

/// A 3-dimensional vector of `f64` components.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec3 {
    /// X component.
    pub x: f64,
    /// Y component.
    pub y: f64,
    /// Z component.
    pub z: f64,
}

impl Vec3 {
    /// Creates a vector from components.
    #[inline]
    pub const fn new(x: f64, y: f64, z: f64) -> Self {
        Vec3 { x, y, z }
    }

    /// Dot product.
    #[inline]
    pub fn dot(self, o: Vec3) -> f64 {
        self.x * o.x + self.y * o.y + self.z * o.z
    }

    /// Euclidean norm.
    #[inline]
    pub fn norm(self) -> f64 {
        self.dot(self).sqrt()
    }

    /// Unit vector in the same direction.
    ///
    /// Returns the zero vector unchanged (callers treat that as a
    /// degenerate direction rather than a NaN bomb).
    #[inline]
    pub fn normalized(self) -> Vec3 {
        let n = self.norm();
        if n == 0.0 {
            self
        } else {
            self / n
        }
    }
}

impl Sub for Vec3 {
    type Output = Vec3;
    #[inline]
    fn sub(self, o: Vec3) -> Vec3 {
        Vec3::new(self.x - o.x, self.y - o.y, self.z - o.z)
    }
}

impl Mul<f64> for Vec3 {
    type Output = Vec3;
    #[inline]
    fn mul(self, k: f64) -> Vec3 {
        Vec3::new(self.x * k, self.y * k, self.z * k)
    }
}

impl Div<f64> for Vec3 {
    type Output = Vec3;
    #[inline]
    fn div(self, k: f64) -> Vec3 {
        Vec3::new(self.x / k, self.y / k, self.z / k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-12;

    #[test]
    fn dot_of_orthonormal_basis() {
        let x = Vec3::new(1.0, 0.0, 0.0);
        let y = Vec3::new(0.0, 1.0, 0.0);
        assert_eq!(x.dot(y), 0.0);
        assert_eq!(x.dot(x), 1.0);
    }

    #[test]
    fn normalization() {
        let v = Vec3::new(3.0, 4.0, 0.0);
        assert!((v.norm() - 5.0).abs() < EPS);
        assert!((v.normalized().norm() - 1.0).abs() < EPS);
        let zero = Vec3::new(0.0, 0.0, 0.0);
        assert_eq!(zero.normalized(), zero);
    }
}
