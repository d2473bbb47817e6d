//! Tensor metadata: element types and shapes.
//!
//! The paper's PyPM exposes tensor-specific attributes on every term —
//! "element type, shape, and rank" (§2) — which guards consult via
//! `x.eltType` and `x.shape.rank`. This module defines the metadata those
//! attributes are computed from.

use std::fmt;
use std::sync::{Arc, LazyLock};

/// Element data types supported by the IR.
///
/// Each dtype has a stable numeric code used in guard expressions (guards
/// compare integers), e.g. `x.eltType = DType::F32.code()`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DType {
    /// 32-bit IEEE float.
    F32,
    /// 16-bit IEEE float.
    F16,
    /// bfloat16.
    BF16,
    /// 64-bit IEEE float.
    F64,
    /// 8-bit signed integer.
    I8,
    /// 32-bit signed integer.
    I32,
    /// 64-bit signed integer.
    I64,
    /// Boolean.
    Bool,
}

impl DType {
    /// Stable numeric code for guard expressions.
    pub fn code(self) -> i64 {
        match self {
            DType::F32 => 1,
            DType::I8 => 2,
            DType::F16 => 3,
            DType::BF16 => 4,
            DType::F64 => 5,
            DType::I32 => 6,
            DType::I64 => 7,
            DType::Bool => 8,
        }
    }

    /// Inverse of [`DType::code`].
    pub fn from_code(code: i64) -> Option<DType> {
        Some(match code {
            1 => DType::F32,
            2 => DType::I8,
            3 => DType::F16,
            4 => DType::BF16,
            5 => DType::F64,
            6 => DType::I32,
            7 => DType::I64,
            8 => DType::Bool,
            _ => return None,
        })
    }

    /// Size of one element in bytes.
    pub fn size_bytes(self) -> u64 {
        match self {
            DType::I8 | DType::Bool => 1,
            DType::F16 | DType::BF16 => 2,
            DType::F32 | DType::I32 => 4,
            DType::F64 | DType::I64 => 8,
        }
    }
}

impl fmt::Display for DType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DType::F32 => "f32",
            DType::F16 => "f16",
            DType::BF16 => "bf16",
            DType::F64 => "f64",
            DType::I8 => "i8",
            DType::I32 => "i32",
            DType::I64 => "i64",
            DType::Bool => "bool",
        };
        f.write_str(s)
    }
}

/// A tensor shape: a list of dimension extents.
///
/// A scalar has rank 0. Extents are `i64` to line up with guard
/// arithmetic.
///
/// The extents are shared and never change, so a clone is a reference
/// count, not a copy: a node's metadata, the term view's side table and
/// a rewrite's replacement all hold the same extents. Shape rules share
/// an input's shape whenever the output equals it (a pointwise op, a
/// broadcast against a smaller operand, a square transpose), and every
/// rank-0 shape shares one empty list. Equality and hashing compare
/// extents.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Shape(Arc<[i64]>);

/// The extents of every rank-0 shape.
static SCALAR: LazyLock<Arc<[i64]>> = LazyLock::new(|| Arc::new([]));

impl Shape {
    /// A scalar shape (rank 0).
    pub fn scalar() -> Self {
        Shape(Arc::clone(&SCALAR))
    }

    /// Builds a shape from dimension extents.
    pub fn new(dims: impl AsRef<[i64]>) -> Self {
        let dims = dims.as_ref();
        if dims.is_empty() {
            Shape::scalar()
        } else {
            Shape(dims.into())
        }
    }

    /// The rank (number of dimensions).
    pub fn rank(&self) -> usize {
        self.0.len()
    }

    /// The dimension extents.
    pub fn dims(&self) -> &[i64] {
        &self.0
    }

    /// The extent of dimension `i`, if in range.
    pub fn dim(&self, i: usize) -> Option<i64> {
        self.0.get(i).copied()
    }

    /// Total number of elements.
    pub fn numel(&self) -> i64 {
        self.0.iter().product()
    }

    /// Whether two shapes are broadcast-compatible in the NumPy sense
    /// (trailing dimensions equal or 1).
    pub fn broadcast_compatible(&self, other: &Shape) -> bool {
        self.0
            .iter()
            .rev()
            .zip(other.0.iter().rev())
            .all(|(&a, &b)| a == b || a == 1 || b == 1)
    }

    /// The broadcast of two compatible shapes: an input's own shape when
    /// the result equals it.
    ///
    /// Returns `None` when the shapes are incompatible.
    pub fn broadcast(&self, other: &Shape) -> Option<Shape> {
        if !self.broadcast_compatible(other) {
            return None;
        }
        let rank = self.rank().max(other.rank());
        // Extent `i` of `s` right-aligned to `rank`, 1 where `s` has none.
        let extent = |s: &Shape, i: usize| (i + s.rank()).checked_sub(rank).map_or(1, |at| s.0[at]);
        let dim = |i: usize| extent(self, i).max(extent(other, i));
        for input in [self, other] {
            if input.rank() == rank && (0..rank).all(|i| dim(i) == input.0[i]) {
                return Some(input.clone());
            }
        }
        Some((0..rank).map(dim).collect())
    }

    /// The transpose of a rank ≥ 2 shape (last two dims swapped); lower
    /// ranks, and shapes whose last two dims are equal, are returned
    /// unchanged.
    pub fn transposed(&self) -> Shape {
        let n = self.rank();
        if n < 2 || self.0[n - 2] == self.0[n - 1] {
            return self.clone();
        }
        let d = self.dims();
        d[..n - 2]
            .iter()
            .copied()
            .chain([d[n - 1], d[n - 2]])
            .collect()
    }
}

impl Default for Shape {
    fn default() -> Self {
        Shape::scalar()
    }
}

impl FromIterator<i64> for Shape {
    /// Collects extents, allocating once for an exact-size iterator.
    fn from_iter<I: IntoIterator<Item = i64>>(dims: I) -> Self {
        let dims: Arc<[i64]> = dims.into_iter().collect();
        if dims.is_empty() {
            Shape::scalar()
        } else {
            Shape(dims)
        }
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, d) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, "x")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, "]")
    }
}

impl From<Vec<i64>> for Shape {
    fn from(dims: Vec<i64>) -> Self {
        Shape::new(dims)
    }
}

impl From<&[i64]> for Shape {
    fn from(dims: &[i64]) -> Self {
        Shape::new(dims)
    }
}

impl<const N: usize> From<[i64; N]> for Shape {
    fn from(dims: [i64; N]) -> Self {
        Shape::new(dims)
    }
}

/// Metadata carried by every graph node: the element type and shape of the
/// tensor it produces.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TensorMeta {
    /// Element data type.
    pub dtype: DType,
    /// Shape of the produced tensor.
    pub shape: Shape,
}

impl TensorMeta {
    /// Builds metadata.
    pub fn new(dtype: DType, shape: impl Into<Shape>) -> Self {
        TensorMeta {
            dtype,
            shape: shape.into(),
        }
    }

    /// A scalar of the given dtype.
    pub fn scalar(dtype: DType) -> Self {
        TensorMeta {
            dtype,
            shape: Shape::scalar(),
        }
    }

    /// Total bytes of the tensor.
    pub fn bytes(&self) -> u64 {
        self.shape.numel().max(0) as u64 * self.dtype.size_bytes()
    }
}

impl fmt::Display for TensorMeta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}", self.dtype, self.shape)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dtype_codes_roundtrip() {
        for d in [
            DType::F32,
            DType::F16,
            DType::BF16,
            DType::F64,
            DType::I8,
            DType::I32,
            DType::I64,
            DType::Bool,
        ] {
            assert_eq!(DType::from_code(d.code()), Some(d));
        }
        assert_eq!(DType::from_code(0), None);
        assert_eq!(DType::from_code(99), None);
    }

    #[test]
    fn shape_basics() {
        let s = Shape::new(vec![2, 3, 4]);
        assert_eq!(s.rank(), 3);
        assert_eq!(s.numel(), 24);
        assert_eq!(s.dim(1), Some(3));
        assert_eq!(s.dim(5), None);
        assert_eq!(Shape::scalar().rank(), 0);
        assert_eq!(Shape::scalar().numel(), 1);
    }

    #[test]
    fn transpose_swaps_last_two() {
        assert_eq!(
            Shape::new(vec![2, 3, 4]).transposed(),
            Shape::new(vec![2, 4, 3])
        );
        assert_eq!(Shape::new(vec![5]).transposed(), Shape::new(vec![5]));
        assert_eq!(Shape::scalar().transposed(), Shape::scalar());
    }

    #[test]
    fn broadcasting() {
        let a = Shape::new(vec![4, 1, 3]);
        let b = Shape::new(vec![2, 3]);
        assert!(a.broadcast_compatible(&b));
        assert_eq!(a.broadcast(&b), Some(Shape::new(vec![4, 2, 3])));

        let c = Shape::new(vec![5, 3]);
        let d = Shape::new(vec![4, 3]);
        assert!(!c.broadcast_compatible(&d));
        assert_eq!(c.broadcast(&d), None);

        // Scalars broadcast with everything.
        assert_eq!(
            Shape::scalar().broadcast(&Shape::new(vec![7])),
            Some(Shape::new(vec![7]))
        );
    }

    #[test]
    fn a_result_equal_to_an_input_shares_its_extents() {
        let shares = |a: &Shape, b: &Shape| Arc::ptr_eq(&a.0, &b.0);
        let (wide, row) = (Shape::new([4, 8]), Shape::new([1, 8]));
        assert!(shares(&wide.broadcast(&row).unwrap(), &wide));
        assert!(shares(&row.broadcast(&wide).unwrap(), &wide));
        let mixed = Shape::new([4, 1]).broadcast(&row).unwrap();
        assert_eq!(mixed, wide);
        assert!(!shares(&mixed, &wide));
        let square = Shape::new([2, 3, 3]);
        assert!(shares(&square.transposed(), &square));
        assert!(shares(&Shape::new(Vec::new()), &Shape::scalar()));
        assert!(shares(&Shape::default(), &Shape::scalar()));
    }

    #[test]
    fn meta_bytes() {
        let m = TensorMeta::new(DType::F32, vec![2, 3]);
        assert_eq!(m.bytes(), 24);
        assert_eq!(TensorMeta::scalar(DType::I8).bytes(), 1);
    }

    #[test]
    fn display_formats() {
        let m = TensorMeta::new(DType::F32, vec![2, 3]);
        assert_eq!(m.to_string(), "f32[2x3]");
        assert_eq!(DType::BF16.to_string(), "bf16");
    }
}
