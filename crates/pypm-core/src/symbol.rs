//! Interned identifiers used throughout the calculus.
//!
//! CorePyPM is parameterized over a signature `Σ` of operators with arities
//! (paper §3.1). This module provides the [`SymbolTable`] that owns that
//! signature, together with interners for the four other name spaces that
//! appear in the grammar of Figure 15:
//!
//! * [`Symbol`] — operator symbols `f, g ∈ Σ`,
//! * [`Var`] — pattern variables `x, y`,
//! * [`FunVar`] — function variables `F` (§3.4),
//! * [`Attr`] — attribute names `α` used in guard expressions (§3.2),
//! * [`PatName`] — names `P` of recursive patterns (§3.5).
//!
//! All identifier types are small `Copy` indices; the table maps them back to
//! human-readable names for display and diagnostics.
//!
//! Each name space is one flat interner: the names end to end in one
//! text arena, an end offset per id, and an open-addressed table of ids
//! probed by a *keyed* hash — names arrive from outside (wire decode,
//! rule-set text), so the rule of [`crate::idhash`] applies. A clone is
//! three buffer copies per name space, which is what a serve worker pays
//! per request for the library session it copies.
//!
//! A fresh constant (one per graph input or opaque node) is an operator
//! no name can find: it writes its name straight into the arena and
//! takes the next id, but never enters the probe table. So minting one
//! costs no hash and no probe, allocates nothing once the buffers have
//! grown, and cannot collide with a declared operator that happens to
//! be spelled like it — a decoded graph or rule set may well declare a
//! `%in1` of its own, and gets a symbol of its own.

use std::collections::hash_map::RandomState;
use std::fmt;
use std::fmt::Write as _;
use std::hash::BuildHasher;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
        pub struct $name(pub(crate) u32);

        impl $name {
            /// Raw index of this identifier inside its interner.
            pub fn index(self) -> usize {
                self.0 as usize
            }

            /// Reconstructs an identifier from a raw index.
            ///
            /// Only meaningful for indices previously produced by the same
            /// [`SymbolTable`]; used by serialization code.
            pub fn from_index(index: usize) -> Self {
                $name(index as u32)
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }
    };
}

id_type!(
    /// An operator symbol `f ∈ Σ` with a fixed arity.
    Symbol,
    "f"
);
id_type!(
    /// A pattern variable `x` ranging over terms.
    Var,
    "x"
);
id_type!(
    /// A function variable `F` ranging over operator symbols (§3.4).
    FunVar,
    "F"
);
id_type!(
    /// An attribute name `α`, given meaning by an
    /// [`AttrInterp`](crate::attr::AttrInterp).
    Attr,
    "attr"
);
id_type!(
    /// The name `P` of a recursive pattern definition (§3.5).
    PatName,
    "P"
);

/// One interner: name ↔ index, in insertion order (see the module docs).
#[derive(Debug, Clone, Default)]
struct Interner {
    /// Every name, end to end.
    text: String,
    /// Where each name ends in `text`; it starts where the one before
    /// it ends.
    ends: Vec<u32>,
    /// Open-addressed ids of the names that can be looked up: a slot
    /// holds id + 1, 0 is empty. A power of two at most half full (or
    /// empty), probed linearly from the hash's low bits.
    table: Vec<u32>,
    /// How many ids `table` holds: every id but the fresh constants'.
    listed: usize,
    hasher: RandomState,
}

/// An unoccupied slot of [`Interner::table`].
const EMPTY: u32 = 0;

impl Interner {
    fn name(&self, i: u32) -> &str {
        let i = i as usize;
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        &self.text[start..self.ends[i] as usize]
    }

    fn len(&self) -> usize {
        self.ends.len()
    }

    /// The slot holding `name`, or the empty one it would take. The
    /// table must not be empty.
    fn probe(&self, name: &str, hash: u64) -> usize {
        let mask = self.table.len() - 1;
        let mut slot = hash as usize & mask;
        loop {
            match self.table[slot] {
                EMPTY => return slot,
                id if self.name(id - 1) == name => return slot,
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    fn lookup(&self, name: &str) -> Option<u32> {
        if self.table.is_empty() {
            return None;
        }
        let slot = self.probe(name, self.hasher.hash_one(name));
        self.table[slot].checked_sub(1)
    }

    fn intern(&mut self, name: &str) -> u32 {
        let start = self.text.len();
        self.text.push_str(name);
        self.intern_tail(start).unwrap_or_else(|known| known)
    }

    /// Interns `%{hint}{n}` unless that name is taken; `None` if it is.
    fn intern_fresh(&mut self, hint: &str, n: u64) -> Option<u32> {
        let start = self.text.len();
        write!(self.text, "%{hint}{n}").expect("writing to a String cannot fail");
        self.intern_tail(start).ok()
    }

    /// Gives `%{hint}{n}` the next id without entering it into the
    /// table: no lookup finds it, not even one of its own spelling.
    fn push_unlisted(&mut self, hint: &str, n: u64) -> u32 {
        write!(self.text, "%{hint}{n}").expect("writing to a String cannot fail");
        let id = self.len() as u32;
        self.push_end();
        id
    }

    /// Ends the newest name where the text ends.
    fn push_end(&mut self) {
        let end = u32::try_from(self.text.len()).expect("symbol names exceed 4 GiB");
        self.ends.push(end);
    }

    /// Interns the name written at `text[start..]`: `Ok` with a new id,
    /// or `Err` with the id it already had, the tail truncated away.
    fn intern_tail(&mut self, start: usize) -> Result<u32, u32> {
        if 2 * (self.listed + 1) > self.table.len() {
            self.grow();
        }
        let slot = self.probe(
            &self.text[start..],
            self.hasher.hash_one(&self.text[start..]),
        );
        match self.table[slot] {
            EMPTY => {
                let id = self.len() as u32;
                self.push_end();
                self.table[slot] = id + 1;
                self.listed += 1;
                Ok(id)
            }
            known => {
                self.text.truncate(start);
                Err(known - 1)
            }
        }
    }

    /// Doubles the table (16 slots at first) and re-places every id it
    /// holds; the ids it does not hold stay out.
    fn grow(&mut self) {
        let slots = (2 * self.table.len()).max(16);
        let mut table = vec![EMPTY; slots];
        for &entry in self.table.iter().filter(|&&entry| entry != EMPTY) {
            let mut slot = self.hasher.hash_one(self.name(entry - 1)) as usize & (slots - 1);
            while table[slot] != EMPTY {
                slot = (slot + 1) & (slots - 1);
            }
            table[slot] = entry;
        }
        self.table = table;
    }
}

/// The signature `Σ` plus interners for every identifier namespace.
///
/// A `SymbolTable` is shared by the term store, the pattern store, the guard
/// evaluator and the abstract machine; all of them refer to identifiers that
/// only make sense relative to one table.
///
/// # Examples
///
/// ```
/// use pypm_core::SymbolTable;
///
/// let mut syms = SymbolTable::new();
/// let matmul = syms.op("MatMul", 2);
/// assert_eq!(syms.arity(matmul), 2);
/// assert_eq!(syms.op_name(matmul), "MatMul");
/// ```
#[derive(Debug, Clone, Default)]
pub struct SymbolTable {
    ops: Interner,
    arities: Vec<usize>,
    vars: Interner,
    fun_vars: Interner,
    attrs: Interner,
    pat_names: Interner,
    fresh_counter: u64,
}

impl SymbolTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares (or re-resolves) an operator with the given arity. A
    /// fresh constant is never re-resolved: a name spelled like one
    /// declares an operator of its own.
    ///
    /// # Panics
    ///
    /// Panics if `name` was previously declared with a *different* arity:
    /// the signature assigns each symbol exactly one arity (§3.1).
    pub fn op(&mut self, name: &str, arity: usize) -> Symbol {
        let i = self.ops.intern(name);
        if (i as usize) == self.arities.len() {
            self.arities.push(arity);
        } else {
            assert_eq!(
                self.arities[i as usize], arity,
                "operator {name} redeclared with different arity"
            );
        }
        Symbol(i)
    }

    /// Looks up an operator by name without declaring it. A fresh
    /// constant is never found: only [`SymbolTable::op`] names what this
    /// finds.
    pub fn find_op(&self, name: &str) -> Option<Symbol> {
        self.ops.lookup(name).map(Symbol)
    }

    /// The arity `arity(f)` of an operator.
    pub fn arity(&self, f: Symbol) -> usize {
        self.arities[f.index()]
    }

    /// The declared name of an operator.
    pub fn op_name(&self, f: Symbol) -> &str {
        self.ops.name(f.0)
    }

    /// Number of declared operators.
    pub fn op_count(&self) -> usize {
        self.ops.len()
    }

    /// Iterates over all declared operators.
    pub fn ops(&self) -> impl Iterator<Item = Symbol> + '_ {
        (0..self.ops.len() as u32).map(Symbol)
    }

    /// Interns a pattern variable.
    pub fn var(&mut self, name: &str) -> Var {
        Var(self.vars.intern(name))
    }

    /// Generates a pattern variable with a fresh, unused name.
    ///
    /// This is the analogue of PyPM's `var()` (paper §2.3); the DSL uses it
    /// to implement local variables.
    pub fn fresh_var(&mut self) -> Var {
        loop {
            self.fresh_counter += 1;
            if let Some(i) = self.vars.intern_fresh("v", self.fresh_counter) {
                return Var(i);
            }
        }
    }

    /// The name of a pattern variable.
    pub fn var_name(&self, x: Var) -> &str {
        self.vars.name(x.0)
    }

    /// Number of interned pattern variables.
    pub fn var_count(&self) -> usize {
        self.vars.len()
    }

    /// Interns a function variable.
    pub fn fun_var(&mut self, name: &str) -> FunVar {
        FunVar(self.fun_vars.intern(name))
    }

    /// The name of a function variable.
    pub fn fun_var_name(&self, fv: FunVar) -> &str {
        self.fun_vars.name(fv.0)
    }

    /// Interns an attribute name.
    pub fn attr(&mut self, name: &str) -> Attr {
        Attr(self.attrs.intern(name))
    }

    /// Looks up an attribute by name without declaring it.
    pub fn find_attr(&self, name: &str) -> Option<Attr> {
        self.attrs.lookup(name).map(Attr)
    }

    /// The name of an attribute.
    pub fn attr_name(&self, a: Attr) -> &str {
        self.attrs.name(a.0)
    }

    /// Interns a recursive-pattern name.
    pub fn pat_name(&mut self, name: &str) -> PatName {
        PatName(self.pat_names.intern(name))
    }

    /// The text of a recursive-pattern name.
    pub fn pat_name_text(&self, p: PatName) -> &str {
        self.pat_names.name(p.0)
    }

    /// Generates a fresh nullary operator symbol.
    ///
    /// Used by the graph substrate to turn graph inputs and opaque nodes
    /// into distinct constants of the term algebra. The symbol is named
    /// `%{hint}{n}` for the next counter value `n` — a name to print,
    /// not one to look up: [`SymbolTable::find_op`] and
    /// [`SymbolTable::op`] never return a fresh constant, so one is
    /// distinct from every declared operator, whatever its spelling.
    pub fn fresh_const(&mut self, hint: &str) -> Symbol {
        self.fresh_counter += 1;
        let i = self.ops.push_unlisted(hint, self.fresh_counter);
        self.arities.push(0);
        Symbol(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let mut t = SymbolTable::new();
        let a = t.op("Add", 2);
        let b = t.op("Add", 2);
        assert_eq!(a, b);
        assert_eq!(t.op_count(), 1);
    }

    #[test]
    #[should_panic(expected = "redeclared")]
    fn arity_conflict_panics() {
        let mut t = SymbolTable::new();
        t.op("Add", 2);
        t.op("Add", 3);
    }

    #[test]
    fn fresh_vars_are_distinct() {
        let mut t = SymbolTable::new();
        let x = t.fresh_var();
        let y = t.fresh_var();
        assert_ne!(x, y);
        assert_ne!(t.var_name(x), t.var_name(y));
    }

    #[test]
    fn fresh_consts_are_nullary_and_distinct() {
        let mut t = SymbolTable::new();
        let c1 = t.fresh_const("in");
        let c2 = t.fresh_const("in");
        assert_ne!(c1, c2);
        assert_eq!(t.arity(c1), 0);
    }

    #[test]
    fn a_fresh_constant_is_not_a_name_to_look_up() {
        let mut t = SymbolTable::new();
        let fresh = t.fresh_const("in");
        assert_eq!(t.op_name(fresh), "%in1");
        assert_eq!(t.find_op(t.op_name(fresh)), None);
        // Declaring its spelling, at another arity, is a new operator.
        let declared = t.op("%in1", 2);
        assert_ne!(declared, fresh);
        assert_eq!(t.find_op("%in1"), Some(declared));
        assert_eq!((t.arity(fresh), t.arity(declared)), (0, 2));
        // The next fresh constant still counts on.
        let next = t.fresh_const("in");
        assert_eq!(t.op_name(next), "%in2");
        assert_eq!(t.op_count(), 3);
    }

    #[test]
    fn the_table_grows_past_fresh_constants() {
        let mut t = SymbolTable::new();
        let mut declared = Vec::new();
        for i in 0..200 {
            t.fresh_const("in");
            declared.push(t.op(&format!("op{i}"), 1));
        }
        for (i, &f) in declared.iter().enumerate() {
            assert_eq!(t.find_op(&format!("op{i}")), Some(f));
        }
        assert_eq!(t.find_op("%in7"), None);
    }

    #[test]
    fn namespaces_are_independent() {
        let mut t = SymbolTable::new();
        let v = t.var("x");
        let f = t.fun_var("x");
        let a = t.attr("x");
        assert_eq!(t.var_name(v), "x");
        assert_eq!(t.fun_var_name(f), "x");
        assert_eq!(t.attr_name(a), "x");
    }

    #[test]
    fn find_op_roundtrip() {
        let mut t = SymbolTable::new();
        let f = t.op("Trans", 1);
        assert_eq!(t.find_op("Trans"), Some(f));
        assert_eq!(t.find_op("nope"), None);
    }
}
