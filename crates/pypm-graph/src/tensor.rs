//! Tensor metadata: element types and shapes.
//!
//! The paper's PyPM exposes tensor-specific attributes on every term —
//! "element type, shape, and rank" (§2) — which guards consult via
//! `x.eltType` and `x.shape.rank`. This module defines the metadata those
//! attributes are computed from.
//!
//! A node's [`TensorMeta`] is 8 bytes and `Copy`: its dtype and the id
//! of its shape in the graph's [`ShapeTable`], where each distinct list
//! of extents is held once.

use pypm_core::IdHasher;
use std::fmt;
use std::hash::Hasher;

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

/// The id of a shape in a graph's [`ShapeTable`]. Equal ids in one
/// table ⇔ equal extents; ids of two tables are unrelated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ShapeId(u32);

impl ShapeId {
    /// The rank-0 shape, which every table interns first.
    pub const SCALAR: ShapeId = ShapeId(0);

    /// Raw index into the owning table.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Metadata carried by every graph node: the element type and shape of the
/// tensor it produces. The shape is an id into the [`ShapeTable`] of the
/// graph the node belongs to; read its extents there
/// ([`crate::Graph::shapes`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TensorMeta {
    /// Element data type.
    pub dtype: DType,
    /// Shape of the produced tensor.
    pub shape: ShapeId,
}

impl TensorMeta {
    /// A scalar of the given dtype: the one shape every table has
    /// without being asked.
    pub fn scalar(dtype: DType) -> Self {
        TensorMeta {
            dtype,
            shape: ShapeId::SCALAR,
        }
    }
}

/// Slots of the smallest index (a power of two).
const MIN_INDEX: usize = 16;

/// The slot a shape's probe starts at in an index of `slots` slots: the
/// fold of [`pypm_core::idhash`] over the rank and then each extent —
/// the words [`pypm_core::TermStore`] folds for an application's arity
/// and argument ids — taken from the top bits.
fn home_slot(dims: &[i64], slots: usize) -> usize {
    let mut h = IdHasher::default();
    h.write_usize(dims.len());
    for &d in dims {
        h.write_u64(d as u64);
    }
    (h.finish() >> (u64::BITS - slots.trailing_zeros())) as usize
}

/// The shapes of one graph, hash-consed: a [`ShapeId`] per distinct
/// list of extents, interned in the layout of [`pypm_core::TermStore`].
/// The extents of every shape sit end to end in one arena, a start per
/// id marks where each begins (it ends where the next begins), and an
/// open-addressed index of ids — linear probing over a power-of-two
/// table kept at most half full, a slot holding an id plus one — finds
/// a list already held in one probe. So interning a shape the table
/// holds allocates nothing, and a node's metadata is 8 bytes whatever
/// its rank.
///
/// Shape inference writes a result's extents into a buffer the table
/// keeps and interns them from there, so inferring a shape the graph
/// has seen allocates nothing either.
///
/// # Examples
///
/// ```
/// use pypm_graph::{ShapeId, ShapeTable};
///
/// let mut shapes = ShapeTable::new();
/// let a = shapes.intern(&[4, 8]);
/// assert_eq!(shapes.intern(&[4, 8]), a);
/// assert_eq!(shapes.dims(a), [4, 8]);
/// assert_eq!(shapes.numel(a), 32);
/// assert_eq!(shapes.intern(&[]), ShapeId::SCALAR);
/// ```
#[derive(Debug, Clone)]
pub struct ShapeTable {
    /// Every shape's extents, end to end, in interning order.
    extents: Vec<i64>,
    /// Where each shape's extents begin in `extents`.
    starts: Vec<u32>,
    /// The hash-cons index: a slot holds an id plus one, zero when
    /// empty; the key is read back from `extents`.
    index: Vec<u32>,
    /// Where shape inference writes a result before it is interned;
    /// empty between calls.
    scratch: Vec<i64>,
}

impl Default for ShapeTable {
    fn default() -> Self {
        let mut table = ShapeTable {
            extents: Vec::new(),
            starts: Vec::new(),
            index: Vec::new(),
            scratch: Vec::new(),
        };
        let scalar = table.intern(&[]);
        debug_assert_eq!(scalar, ShapeId::SCALAR);
        table
    }
}

impl ShapeTable {
    /// A table holding the rank-0 shape only.
    pub fn new() -> Self {
        Self::default()
    }

    /// The id of the shape with extents `dims`, interning it if new.
    pub fn intern(&mut self, dims: &[i64]) -> ShapeId {
        if (self.len() + 1) * 2 > self.index.len() {
            self.grow_index();
        }
        let mask = self.index.len() - 1;
        let mut slot = home_slot(dims, self.index.len());
        while let Some(found) = self.index[slot].checked_sub(1) {
            if self.dims(ShapeId(found)) == dims {
                return ShapeId(found);
            }
            slot = (slot + 1) & mask;
        }
        let entry = u32::try_from(self.len() + 1).expect("shape ids fit in 32 bits");
        let start = u32::try_from(self.extents.len()).expect("extent offsets fit in 32 bits");
        self.index[slot] = entry;
        self.starts.push(start);
        self.extents.extend_from_slice(dims);
        ShapeId(entry - 1)
    }

    /// Interns the extents `write` appends to the table's buffer (empty
    /// when `write` starts).
    pub(crate) fn intern_with(
        &mut self,
        write: impl FnOnce(&ShapeTable, &mut Vec<i64>),
    ) -> ShapeId {
        let mut out = std::mem::take(&mut self.scratch);
        write(self, &mut out);
        let id = self.intern(&out);
        out.clear();
        self.scratch = out;
        id
    }

    /// Doubles the index and re-enters every shape; ids are distinct,
    /// so the first empty slot of each probe run is the shape's.
    fn grow_index(&mut self) {
        let slots = (self.index.len() * 2).max(MIN_INDEX);
        let mut index = vec![0u32; slots];
        for id in 0..self.len() as u32 {
            let mut slot = home_slot(self.dims(ShapeId(id)), slots);
            while index[slot] != 0 {
                slot = (slot + 1) & (slots - 1);
            }
            index[slot] = id + 1;
        }
        self.index = index;
    }

    /// The extents of `shape`.
    ///
    /// # Panics
    ///
    /// Panics if `shape` is not this table's.
    pub fn dims(&self, shape: ShapeId) -> &[i64] {
        let start = self.starts[shape.index()] as usize;
        let end = self
            .starts
            .get(shape.index() + 1)
            .map_or(self.extents.len(), |&next| next as usize);
        &self.extents[start..end]
    }

    /// The rank (number of dimensions) of `shape`.
    pub fn rank(&self, shape: ShapeId) -> usize {
        self.dims(shape).len()
    }

    /// The extent of dimension `i` of `shape`, if in range.
    pub fn dim(&self, shape: ShapeId, i: usize) -> Option<i64> {
        self.dims(shape).get(i).copied()
    }

    /// Total number of elements of `shape`.
    pub fn numel(&self, shape: ShapeId) -> i64 {
        self.dims(shape).iter().product()
    }

    /// Total bytes of a tensor with metadata `meta`.
    pub fn bytes(&self, meta: TensorMeta) -> u64 {
        self.numel(meta.shape).max(0) as u64 * meta.dtype.size_bytes()
    }

    /// Number of distinct shapes held, the rank-0 one included.
    pub fn len(&self) -> usize {
        self.starts.len()
    }

    /// Whether the table holds no shape — never: the rank-0 shape is
    /// interned up front.
    pub fn is_empty(&self) -> bool {
        self.starts.is_empty()
    }

    /// The NumPy broadcast of `a` and `b` (trailing dimensions equal or
    /// 1), or `None` when they are incompatible.
    pub fn broadcast(&mut self, a: ShapeId, b: ShapeId) -> Option<ShapeId> {
        let mut trailing = self.dims(a).iter().rev().zip(self.dims(b).iter().rev());
        if !trailing.all(|(&x, &y)| x == y || x == 1 || y == 1) {
            return None;
        }
        Some(self.intern_with(|shapes, out| {
            let (a, b) = (shapes.dims(a), shapes.dims(b));
            let rank = a.len().max(b.len());
            // Extent `i` of `s` right-aligned to `rank`, 1 where `s` has none.
            let extent =
                |s: &[i64], i: usize| (i + s.len()).checked_sub(rank).map_or(1, |at| s[at]);
            out.extend((0..rank).map(|i| extent(a, i).max(extent(b, i))));
        }))
    }

    /// The transpose of a rank ≥ 2 shape (last two dims swapped); lower
    /// ranks come back unchanged.
    pub fn transposed(&mut self, shape: ShapeId) -> ShapeId {
        self.intern_with(|shapes, out| {
            out.extend_from_slice(shapes.dims(shape));
            if let [.., m, n] = out.as_mut_slice() {
                std::mem::swap(m, n);
            }
        })
    }

    /// Renders `meta` as `dtype[extents]`, e.g. `f32[2x3]` — the text of
    /// DOT labels and shape errors.
    pub fn display(&self, meta: TensorMeta) -> impl fmt::Display + '_ {
        MetaText {
            dtype: Some(meta.dtype),
            dims: self.dims(meta.shape),
        }
    }

    /// Renders `shape` as `[extents]`, e.g. `[2x3]`.
    pub fn display_shape(&self, shape: ShapeId) -> impl fmt::Display + '_ {
        MetaText {
            dtype: None,
            dims: self.dims(shape),
        }
    }
}

/// What [`ShapeTable::display`] and [`ShapeTable::display_shape`]
/// render.
struct MetaText<'a> {
    dtype: Option<DType>,
    dims: &'a [i64],
}

impl fmt::Display for MetaText<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(dtype) = self.dtype {
            write!(f, "{dtype}")?;
        }
        write!(f, "[")?;
        for (i, d) in self.dims.iter().enumerate() {
            if i > 0 {
                write!(f, "x")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, "]")
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
        let mut shapes = ShapeTable::new();
        let s = shapes.intern(&[2, 3, 4]);
        assert_eq!(shapes.rank(s), 3);
        assert_eq!(shapes.numel(s), 24);
        assert_eq!(shapes.dim(s, 1), Some(3));
        assert_eq!(shapes.dim(s, 5), None);
        assert_eq!(shapes.rank(ShapeId::SCALAR), 0);
        assert_eq!(shapes.numel(ShapeId::SCALAR), 1);
        assert_eq!(shapes.len(), 2);
    }

    #[test]
    fn transpose_swaps_last_two() {
        let mut shapes = ShapeTable::new();
        let s = shapes.intern(&[2, 3, 4]);
        let t = shapes.transposed(s);
        assert_eq!(shapes.dims(t), [2, 4, 3]);
        let v = shapes.intern(&[5]);
        assert_eq!(shapes.transposed(v), v);
        assert_eq!(shapes.transposed(ShapeId::SCALAR), ShapeId::SCALAR);
    }

    #[test]
    fn broadcasting() {
        let mut shapes = ShapeTable::new();
        let a = shapes.intern(&[4, 1, 3]);
        let b = shapes.intern(&[2, 3]);
        let ab = shapes.broadcast(a, b).unwrap();
        assert_eq!(shapes.dims(ab), [4, 2, 3]);

        let c = shapes.intern(&[5, 3]);
        let d = shapes.intern(&[4, 3]);
        let before = shapes.len();
        assert_eq!(shapes.broadcast(c, d), None);
        assert_eq!(shapes.len(), before, "a refused broadcast interns nothing");

        // Scalars broadcast with everything.
        let seven = shapes.intern(&[7]);
        assert_eq!(shapes.broadcast(ShapeId::SCALAR, seven), Some(seven));
    }

    #[test]
    fn a_result_equal_to_an_input_shares_its_extents() {
        // A result equal to an input is the input's id: its extents are
        // held once, and inferring it again allocates nothing.
        let mut shapes = ShapeTable::new();
        let (wide, row) = (shapes.intern(&[4, 8]), shapes.intern(&[1, 8]));
        assert_eq!(shapes.broadcast(wide, row), Some(wide));
        assert_eq!(shapes.broadcast(row, wide), Some(wide));
        let column = shapes.intern(&[4, 1]);
        assert_eq!(shapes.broadcast(column, row), Some(wide));
        let square = shapes.intern(&[2, 3, 3]);
        assert_eq!(shapes.transposed(square), square);
        assert_eq!(shapes.len(), 5);
        assert_eq!(shapes.intern(&[]), ShapeId::SCALAR);
    }

    #[test]
    fn meta_bytes() {
        let mut shapes = ShapeTable::new();
        let m = TensorMeta {
            dtype: DType::F32,
            shape: shapes.intern(&[2, 3]),
        };
        assert_eq!(shapes.bytes(m), 24);
        assert_eq!(shapes.bytes(TensorMeta::scalar(DType::I8)), 1);
    }

    #[test]
    fn display_formats() {
        let mut shapes = ShapeTable::new();
        let m = TensorMeta {
            dtype: DType::F32,
            shape: shapes.intern(&[2, 3]),
        };
        assert_eq!(shapes.display(m).to_string(), "f32[2x3]");
        assert_eq!(shapes.display_shape(m.shape).to_string(), "[2x3]");
        assert_eq!(
            shapes.display(TensorMeta::scalar(DType::I8)).to_string(),
            "i8[]"
        );
        assert_eq!(DType::BF16.to_string(), "bf16");
    }

    #[test]
    fn metadata_is_eight_bytes_and_copy() {
        assert_eq!(std::mem::size_of::<TensorMeta>(), 8);
        fn copy<T: Copy>() {}
        copy::<TensorMeta>();
    }
}
