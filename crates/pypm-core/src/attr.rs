//! Attribute interpretations (paper §3.2).
//!
//! CorePyPM leaves the set of attributes `A` abstract and requires an
//! interpretation `⟦·⟧ : A → Term ⇀ ℕ` defining their meaning on terms. In
//! this implementation attribute values are `i64` (a superset of the paper's
//! ℕ that is more convenient for arithmetic in guards), and an interpretation
//! is anything implementing [`AttrInterp`].
//!
//! Three interpretations are provided here:
//!
//! * [`NoAttrs`] — the everywhere-undefined interpretation,
//! * [`TableAttrInterp`] — an explicit finite table, used in tests,
//! * [`StructuralAttrInterp`] — derives `size`, `height` and `arity`
//!   attributes from term structure, handy for exercising guards in
//!   property tests without external metadata.
//!
//! The tensor interpretation (`shape.rank`, `eltType`, …) lives in the
//! `pypm-graph` crate, where tensor metadata is available.

use crate::idhash::IdMap;
use crate::symbol::{Attr, SymbolTable};
use crate::term::{TermId, TermStore};

/// The interpretation function `⟦·⟧ : A → Term ⇀ i64`.
///
/// Returning `None` means the attribute is undefined on that term; a guard
/// mentioning an undefined attribute evaluates to *false* (the machine
/// backtracks), matching the partiality `⇀` in the paper.
pub trait AttrInterp {
    /// Evaluates `⟦attr⟧(t)`.
    fn attr(&self, terms: &TermStore, t: TermId, attr: Attr) -> Option<i64>;
}

/// The everywhere-undefined interpretation.
///
/// # Examples
///
/// ```
/// use pypm_core::{AttrInterp, NoAttrs, SymbolTable, TermStore};
///
/// let mut syms = SymbolTable::new();
/// let c = syms.op("c", 0);
/// let mut terms = TermStore::new();
/// let t = terms.app0(c);
/// let rank = syms.attr("rank");
/// assert_eq!(NoAttrs.attr(&terms, t, rank), None);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoAttrs;

impl AttrInterp for NoAttrs {
    fn attr(&self, _terms: &TermStore, _t: TermId, _attr: Attr) -> Option<i64> {
        None
    }
}

/// A finite, explicitly tabulated interpretation.
#[derive(Debug, Clone, Default)]
pub struct TableAttrInterp {
    table: IdMap<(TermId, Attr), i64>,
}

impl TableAttrInterp {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Defines `⟦attr⟧(t) = value`, returning any previous value.
    pub fn set(&mut self, t: TermId, attr: Attr, value: i64) -> Option<i64> {
        self.table.insert((t, attr), value)
    }

    /// Number of defined entries.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }
}

impl AttrInterp for TableAttrInterp {
    fn attr(&self, _terms: &TermStore, t: TermId, attr: Attr) -> Option<i64> {
        self.table.get(&(t, attr)).copied()
    }
}

/// Derives attributes from term structure alone.
///
/// `size` is the number of operator applications, `height` the tree height
/// (constants have height 1), and `arity` the arity of the head operator.
/// Attributes other than the three configured ones are undefined.
#[derive(Debug, Clone, Copy)]
pub struct StructuralAttrInterp {
    size: Attr,
    height: Attr,
    arity: Attr,
}

impl StructuralAttrInterp {
    /// Interns the attribute names `size`, `height` and `arity` in `syms`
    /// and builds the interpretation.
    pub fn new(syms: &mut SymbolTable) -> Self {
        Self {
            size: syms.attr("size"),
            height: syms.attr("height"),
            arity: syms.attr("arity"),
        }
    }

    /// The `size` attribute handle.
    pub fn size_attr(&self) -> Attr {
        self.size
    }

    /// The `height` attribute handle.
    pub fn height_attr(&self) -> Attr {
        self.height
    }

    /// The `arity` attribute handle.
    pub fn arity_attr(&self) -> Attr {
        self.arity
    }

    /// Rebuilds an interpretation from attribute handles previously
    /// interned by [`StructuralAttrInterp::new`] on the same table.
    pub(crate) fn from_parts(size: Attr, height: Attr, arity: Attr) -> Self {
        Self {
            size,
            height,
            arity,
        }
    }
}

impl AttrInterp for StructuralAttrInterp {
    fn attr(&self, terms: &TermStore, t: TermId, attr: Attr) -> Option<i64> {
        if attr == self.size {
            Some(terms.size(t) as i64)
        } else if attr == self.height {
            Some(terms.height(t) as i64)
        } else if attr == self.arity {
            Some(terms.args(t).len() as i64)
        } else {
            None
        }
    }
}

impl<T: AttrInterp + ?Sized> AttrInterp for &T {
    fn attr(&self, terms: &TermStore, t: TermId, attr: Attr) -> Option<i64> {
        (**self).attr(terms, t, attr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_interp_defines_and_overrides() {
        let mut syms = SymbolTable::new();
        let c = syms.op("c", 0);
        let mut terms = TermStore::new();
        let t = terms.app0(c);
        let rank = syms.attr("rank");

        let mut interp = TableAttrInterp::new();
        assert_eq!(interp.attr(&terms, t, rank), None);
        assert_eq!(interp.set(t, rank, 2), None);
        assert_eq!(interp.attr(&terms, t, rank), Some(2));
        assert_eq!(interp.set(t, rank, 4), Some(2));
        assert_eq!(interp.attr(&terms, t, rank), Some(4));
    }

    #[test]
    fn structural_interp_matches_store_metrics() {
        let mut syms = SymbolTable::new();
        let interp = StructuralAttrInterp::new(&mut syms);
        let c = syms.op("c", 0);
        let f = syms.op("f", 2);
        let mut terms = TermStore::new();
        let a = terms.app0(c);
        let t = terms.app(f, vec![a, a]);

        assert_eq!(interp.attr(&terms, t, interp.size_attr()), Some(3));
        assert_eq!(interp.attr(&terms, t, interp.height_attr()), Some(2));
        assert_eq!(interp.attr(&terms, t, interp.arity_attr()), Some(2));
        assert_eq!(interp.attr(&terms, a, interp.arity_attr()), Some(0));

        let other = syms.attr("unrelated");
        assert_eq!(interp.attr(&terms, t, other), None);
    }
}
