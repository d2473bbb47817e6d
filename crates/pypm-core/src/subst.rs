//! Substitutions: the witnesses of a match (paper §3.1, §3.4).
//!
//! A match of a term against a pattern is witnessed by a pair `⟨θ, φ⟩`:
//!
//! * [`Subst`] is `θ`, a finite map from pattern variables to terms,
//! * [`FunSubst`] is `φ`, a finite map from function variables to operator
//!   symbols (added in §3.4 for function-variable patterns).
//!
//! Both maps are ordered (`BTreeMap`) so that iteration, display and test
//! output are deterministic.

use crate::symbol::{FunVar, Symbol, SymbolTable, Var};
use crate::term::{TermId, TermStore};
use std::collections::BTreeMap;
use std::fmt;

/// The term substitution `θ : Var ⇀ Term`.
///
/// # Examples
///
/// ```
/// use pypm_core::{Subst, SymbolTable, TermStore};
///
/// let mut syms = SymbolTable::new();
/// let c = syms.op("c", 0);
/// let mut terms = TermStore::new();
/// let t = terms.app0(c);
/// let x = syms.var("x");
///
/// let mut theta = Subst::new();
/// assert_eq!(theta.get(x), None);
/// theta.bind(x, t);
/// assert_eq!(theta.get(x), Some(t));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Subst {
    map: BTreeMap<Var, TermId>,
}

impl Subst {
    /// The empty substitution `∅`.
    pub fn new() -> Self {
        Self::default()
    }

    /// Looks up `θ(x)`.
    pub fn get(&self, x: Var) -> Option<TermId> {
        self.map.get(&x).copied()
    }

    /// Extends the substitution with `{x ↦ t}`, returning any previous
    /// binding (the machine never overwrites: rule `ST-Match-Var-Bind`
    /// only fires when `x` is unbound).
    pub fn bind(&mut self, x: Var, t: TermId) -> Option<TermId> {
        self.map.insert(x, t)
    }

    /// Number of bound variables.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no variable is bound.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Whether `self ⊆ other` pointwise — the hypothesis of Theorem 1
    /// (match weakening).
    pub fn is_sub_subst_of(&self, other: &Subst) -> bool {
        self.map.iter().all(|(&x, &t)| other.get(x) == Some(t))
    }

    /// Iterates over the bindings in variable order.
    pub fn iter(&self) -> impl Iterator<Item = (Var, TermId)> + '_ {
        self.map.iter().map(|(&x, &t)| (x, t))
    }

    /// Renders the substitution with names from `syms` and terms from
    /// `terms`, e.g. `{x ↦ MatMul(a, b), y ↦ b}`.
    pub fn display(&self, syms: &SymbolTable, terms: &TermStore) -> String {
        let mut s = String::new();
        self.write(syms, terms, &mut s)
            .expect("a String takes every write");
        s
    }

    /// Writes [`Subst::display`]'s rendering into `out`, stopping at
    /// the first write `out` refuses.
    pub fn write(
        &self,
        syms: &SymbolTable,
        terms: &TermStore,
        out: &mut impl fmt::Write,
    ) -> fmt::Result {
        out.write_char('{')?;
        for (i, (x, t)) in self.iter().enumerate() {
            if i > 0 {
                out.write_str(", ")?;
            }
            write!(out, "{} ↦ ", syms.var_name(x))?;
            terms.write(syms, t, out)?;
        }
        out.write_char('}')
    }
}

impl FromIterator<(Var, TermId)> for Subst {
    fn from_iter<I: IntoIterator<Item = (Var, TermId)>>(iter: I) -> Self {
        Subst {
            map: iter.into_iter().collect(),
        }
    }
}

impl Extend<(Var, TermId)> for Subst {
    fn extend<I: IntoIterator<Item = (Var, TermId)>>(&mut self, iter: I) {
        self.map.extend(iter);
    }
}

/// The function substitution `φ : FunVar ⇀ Σ` (§3.4).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FunSubst {
    map: BTreeMap<FunVar, Symbol>,
}

impl FunSubst {
    /// The empty function substitution.
    pub fn new() -> Self {
        Self::default()
    }

    /// Looks up `φ(F)`.
    pub fn get(&self, fv: FunVar) -> Option<Symbol> {
        self.map.get(&fv).copied()
    }

    /// Extends with `{F ↦ f}`, returning any previous binding.
    pub fn bind(&mut self, fv: FunVar, f: Symbol) -> Option<Symbol> {
        self.map.insert(fv, f)
    }

    /// Number of bound function variables.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no function variable is bound.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Whether `self ⊆ other` pointwise.
    pub fn is_sub_subst_of(&self, other: &FunSubst) -> bool {
        self.map.iter().all(|(&fv, &f)| other.get(fv) == Some(f))
    }

    /// Iterates over the bindings in variable order.
    pub fn iter(&self) -> impl Iterator<Item = (FunVar, Symbol)> + '_ {
        self.map.iter().map(|(&fv, &f)| (fv, f))
    }

    /// Renders the substitution, e.g. `{F ↦ Relu}`.
    pub fn display(&self, syms: &SymbolTable) -> String {
        let mut s = String::from("{");
        for (i, (fv, f)) in self.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(syms.fun_var_name(fv));
            s.push_str(" ↦ ");
            s.push_str(syms.op_name(f));
        }
        s.push('}');
        s
    }
}

impl FromIterator<(FunVar, Symbol)> for FunSubst {
    fn from_iter<I: IntoIterator<Item = (FunVar, Symbol)>>(iter: I) -> Self {
        FunSubst {
            map: iter.into_iter().collect(),
        }
    }
}

/// A complete match witness `⟨θ, φ⟩`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Witness {
    /// The term substitution θ.
    pub theta: Subst,
    /// The function substitution φ.
    pub phi: FunSubst,
}

impl Witness {
    /// The empty witness `⟨∅, ∅⟩`.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether both components are pointwise contained in `other`.
    pub fn is_sub_witness_of(&self, other: &Witness) -> bool {
        self.theta.is_sub_subst_of(&other.theta) && self.phi.is_sub_subst_of(&other.phi)
    }
}

impl fmt::Display for Witness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "⟨{} vars, {} fun vars⟩",
            self.theta.len(),
            self.phi.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sub_subst_relation() {
        let mut syms = SymbolTable::new();
        let c = syms.op("c", 0);
        let d = syms.op("d", 0);
        let mut terms = TermStore::new();
        let tc = terms.app0(c);
        let td = terms.app0(d);
        let x = syms.var("x");
        let y = syms.var("y");

        let small: Subst = [(x, tc)].into_iter().collect();
        let big: Subst = [(x, tc), (y, td)].into_iter().collect();
        let conflicting: Subst = [(x, td), (y, td)].into_iter().collect();

        assert!(small.is_sub_subst_of(&big));
        assert!(!big.is_sub_subst_of(&small));
        assert!(!small.is_sub_subst_of(&conflicting));
        assert!(Subst::new().is_sub_subst_of(&small));
    }

    #[test]
    fn display_renders_bindings() {
        let mut syms = SymbolTable::new();
        let c = syms.op("c", 0);
        let mut terms = TermStore::new();
        let tc = terms.app0(c);
        let x = syms.var("x");
        let theta: Subst = [(x, tc)].into_iter().collect();
        assert_eq!(theta.display(&syms, &terms), "{x ↦ c}");
    }

    #[test]
    fn fun_subst_bind_and_lookup() {
        let mut syms = SymbolTable::new();
        let relu = syms.op("Relu", 1);
        let gelu = syms.op("Gelu", 1);
        let f = syms.fun_var("F");
        let mut phi = FunSubst::new();
        assert_eq!(phi.bind(f, relu), None);
        assert_eq!(phi.get(f), Some(relu));
        assert_eq!(phi.bind(f, gelu), Some(relu));
        assert_eq!(phi.display(&syms), "{F ↦ Gelu}");
    }

    #[test]
    fn witness_sub_witness_requires_both_components() {
        let mut syms = SymbolTable::new();
        let c = syms.op("c", 0);
        let relu = syms.op("Relu", 1);
        let mut terms = TermStore::new();
        let tc = terms.app0(c);
        let x = syms.var("x");
        let fv = syms.fun_var("F");

        let mut small = Witness::new();
        small.theta.bind(x, tc);
        let mut big = small.clone();
        big.phi.bind(fv, relu);
        assert!(small.is_sub_witness_of(&big));
        assert!(!big.is_sub_witness_of(&small));
    }
}
