//! The portable *binary* format for rule sets — the "portable serialized
//! binary format" that PyPM's Python frontend emits and DLCB dynamically
//! loads (paper §2.4).
//!
//! The encoding is self-describing and position-independent: all
//! identifiers are carried by name and re-interned on load, so a rule set
//! serialized against one [`SymbolTable`] can be loaded into a completely
//! fresh session (this is what makes the format *portable* across the
//! frontend/backend process boundary).
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic   "PYPMB1"
//! u32     operator count
//!   str name, u32 arity                    (operator table)
//! u32     pattern count
//!   str name
//!   u32 param count,     str × n           (term parameters)
//!   u32 fun-param count, str × n           (function parameters)
//!   pattern tree                           (tagged preorder)
//!   u32 rule count
//!     str name, guard, rhs
//! ```

use crate::ruleset::{PatternDef, Rhs, RuleDef, RuleSet};
use pypm_core::codec::{Cursor, Put, ReadError};
use pypm_core::{Expr, Guard, Pattern, PatternId, PatternStore, SymbolTable};
use std::fmt;

const MAGIC: &[u8; 6] = b"PYPMB1";

/// Maximum nesting depth [`decode`] accepts for patterns, guards,
/// expressions and rhs trees. The library's deepest pattern is a
/// handful of levels; 200 leaves generous headroom while keeping a
/// crafted `[tag, tag, tag, …]` frame from recursing once per input
/// byte and overflowing the stack (an abort no caller can catch).
pub const MAX_DEPTH: u32 = 200;

/// Errors from decoding a pattern binary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BinError {
    /// Wrong magic bytes or truncated header.
    BadMagic,
    /// Ran out of bytes mid-structure.
    Truncated,
    /// Unknown structure tag.
    BadTag {
        /// Which structure was being decoded.
        what: &'static str,
        /// The offending tag.
        tag: u8,
    },
    /// Invalid UTF-8 in a string.
    BadString,
    /// An operator was referenced before its table entry.
    UnknownOp {
        /// The operator name.
        name: String,
    },
    /// A declaration conflicts with the loading session's signature
    /// (same operator name, different arity) or with itself (μ with
    /// mismatched parameter/argument counts).
    Inconsistent {
        /// Human-readable description.
        what: String,
    },
    /// Structurally absurd input that no encoder produces: nesting
    /// deeper than [`MAX_DEPTH`] or a count field claiming more
    /// elements than the remaining payload could possibly encode.
    /// Decoding rejects these up front so a hostile or corrupted frame
    /// can neither overflow the stack nor trigger a giant allocation —
    /// a long-lived server must survive garbage bytes.
    Malformed {
        /// Human-readable description.
        what: &'static str,
    },
}

impl fmt::Display for BinError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BinError::BadMagic => write!(f, "not a PyPM pattern binary"),
            BinError::Truncated => write!(f, "pattern binary is truncated"),
            BinError::BadTag { what, tag } => write!(f, "bad {what} tag {tag}"),
            BinError::BadString => write!(f, "invalid utf-8 in pattern binary"),
            BinError::UnknownOp { name } => write!(f, "undeclared operator {name}"),
            BinError::Inconsistent { what } => write!(f, "inconsistent pattern binary: {what}"),
            BinError::Malformed { what } => write!(f, "malformed pattern binary: {what}"),
        }
    }
}

impl std::error::Error for BinError {}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

/// Serializes a rule set to the binary format.
pub fn encode(rs: &RuleSet, syms: &SymbolTable, pats: &PatternStore) -> Vec<u8> {
    let mut buf = MAGIC.to_vec();

    let ops = rs.operator_table(syms, pats);
    buf.put_u32_le(ops.len() as u32);
    for (name, arity) in &ops {
        buf.put_str(name);
        buf.put_u32_le(*arity as u32);
    }

    buf.put_u32_le(rs.patterns.len() as u32);
    for def in &rs.patterns {
        buf.put_str(&def.name);
        buf.put_u32_le(def.params.len() as u32);
        for &p in &def.params {
            buf.put_str(syms.var_name(p));
        }
        buf.put_u32_le(def.fun_params.len() as u32);
        for &fp in &def.fun_params {
            buf.put_str(syms.fun_var_name(fp));
        }
        put_pattern(&mut buf, syms, pats, def.pattern);
        buf.put_u32_le(def.rules.len() as u32);
        for rule in &def.rules {
            buf.put_str(&rule.name);
            put_guard(&mut buf, syms, &rule.guard);
            put_rhs(&mut buf, syms, &rule.rhs);
        }
    }
    buf
}

fn put_pattern(buf: &mut Vec<u8>, syms: &SymbolTable, pats: &PatternStore, p: PatternId) {
    match pats.get(p) {
        Pattern::Var(x) => {
            buf.put_u8(0);
            buf.put_str(syms.var_name(*x));
        }
        Pattern::App(f, args) => {
            buf.put_u8(1);
            buf.put_str(syms.op_name(*f));
            buf.put_u32_le(args.len() as u32);
            for &a in args {
                put_pattern(buf, syms, pats, a);
            }
        }
        Pattern::FunApp(fv, args) => {
            buf.put_u8(2);
            buf.put_str(syms.fun_var_name(*fv));
            buf.put_u32_le(args.len() as u32);
            for &a in args {
                put_pattern(buf, syms, pats, a);
            }
        }
        Pattern::Alt(l, r) => {
            buf.put_u8(3);
            put_pattern(buf, syms, pats, *l);
            put_pattern(buf, syms, pats, *r);
        }
        Pattern::Guard(inner, g) => {
            buf.put_u8(4);
            put_pattern(buf, syms, pats, *inner);
            put_guard(buf, syms, g);
        }
        Pattern::Exists(x, inner) => {
            buf.put_u8(5);
            buf.put_str(syms.var_name(*x));
            put_pattern(buf, syms, pats, *inner);
        }
        Pattern::MatchConstr {
            main,
            constraint,
            var,
        } => {
            buf.put_u8(6);
            put_pattern(buf, syms, pats, *main);
            put_pattern(buf, syms, pats, *constraint);
            buf.put_str(syms.var_name(*var));
        }
        Pattern::Mu {
            name,
            params,
            args,
            body,
        } => {
            buf.put_u8(7);
            buf.put_str(syms.pat_name_text(*name));
            buf.put_u32_le(params.len() as u32);
            for &x in params {
                buf.put_str(syms.var_name(x));
            }
            buf.put_u32_le(args.len() as u32);
            for &y in args {
                buf.put_str(syms.var_name(y));
            }
            put_pattern(buf, syms, pats, *body);
        }
        Pattern::Call(name, args) => {
            buf.put_u8(8);
            buf.put_str(syms.pat_name_text(*name));
            buf.put_u32_le(args.len() as u32);
            for &y in args {
                buf.put_str(syms.var_name(y));
            }
        }
    }
}

fn put_guard(buf: &mut Vec<u8>, syms: &SymbolTable, g: &Guard) {
    match g {
        Guard::Eq(l, r) => {
            buf.put_u8(0);
            put_expr(buf, syms, l);
            put_expr(buf, syms, r);
        }
        Guard::Lt(l, r) => {
            buf.put_u8(1);
            put_expr(buf, syms, l);
            put_expr(buf, syms, r);
        }
        Guard::And(l, r) => {
            buf.put_u8(2);
            put_guard(buf, syms, l);
            put_guard(buf, syms, r);
        }
        Guard::Or(l, r) => {
            buf.put_u8(3);
            put_guard(buf, syms, l);
            put_guard(buf, syms, r);
        }
        Guard::Not(inner) => {
            buf.put_u8(4);
            put_guard(buf, syms, inner);
        }
    }
}

fn put_expr(buf: &mut Vec<u8>, syms: &SymbolTable, e: &Expr) {
    match e {
        Expr::Const(n) => {
            buf.put_u8(0);
            buf.put_i64_le(*n);
        }
        Expr::VarAttr(x, a) => {
            buf.put_u8(1);
            buf.put_str(syms.var_name(*x));
            buf.put_str(syms.attr_name(*a));
        }
        Expr::Add(l, r) => {
            buf.put_u8(2);
            put_expr(buf, syms, l);
            put_expr(buf, syms, r);
        }
        Expr::Sub(l, r) => {
            buf.put_u8(3);
            put_expr(buf, syms, l);
            put_expr(buf, syms, r);
        }
        Expr::Mul(l, r) => {
            buf.put_u8(4);
            put_expr(buf, syms, l);
            put_expr(buf, syms, r);
        }
        // TermAttr never occurs in serialized patterns: patterns are
        // closed syntax with no embedded concrete terms.
        Expr::TermAttr(..) => unreachable!("TermAttr in serialized pattern"),
    }
}

fn put_rhs(buf: &mut Vec<u8>, syms: &SymbolTable, rhs: &Rhs) {
    match rhs {
        Rhs::Var(x) => {
            buf.put_u8(0);
            buf.put_str(syms.var_name(*x));
        }
        Rhs::App { op, args, attrs } => {
            buf.put_u8(1);
            buf.put_str(syms.op_name(*op));
            buf.put_u32_le(args.len() as u32);
            for a in args {
                put_rhs(buf, syms, a);
            }
            buf.put_u32_le(attrs.len() as u32);
            for (a, v) in attrs {
                buf.put_str(syms.attr_name(*a));
                buf.put_i64_le(*v);
            }
        }
        Rhs::FunApp(fv, args) => {
            buf.put_u8(2);
            buf.put_str(syms.fun_var_name(*fv));
            buf.put_u32_le(args.len() as u32);
            for a in args {
                put_rhs(buf, syms, a);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

/// Deserializes a rule set, interning all names into `syms`/`pats`.
///
/// # Errors
///
/// See [`BinError`]. Bytes left over after the last pattern are
/// [`BinError::Malformed`]: a rule set is the whole input.
pub fn decode(
    data: &[u8],
    syms: &mut SymbolTable,
    pats: &mut PatternStore,
) -> Result<RuleSet, BinError> {
    let body = data
        .strip_prefix(MAGIC.as_slice())
        .ok_or(BinError::BadMagic)?;
    let r = &mut Cursor::new(body);

    let op_count = r.count(1)?;
    for _ in 0..op_count {
        let name = r.str()?;
        let arity = r.u32()? as usize;
        match syms.find_op(name) {
            Some(existing) if syms.arity(existing) != arity => {
                return Err(BinError::Inconsistent {
                    what: format!(
                        "operator {name} declared with arity {arity}, session has {}",
                        syms.arity(existing)
                    ),
                });
            }
            Some(_) => {}
            None => {
                syms.op(name, arity);
            }
        }
    }

    let pat_count = r.count(1)?;
    let mut rs = RuleSet::new();
    for _ in 0..pat_count {
        let name = r.str()?.to_owned();
        let n_params = r.count(1)?;
        let mut params = Vec::with_capacity(n_params);
        for _ in 0..n_params {
            params.push(syms.var(r.str()?));
        }
        let n_fparams = r.count(1)?;
        let mut fun_params = Vec::with_capacity(n_fparams);
        for _ in 0..n_fparams {
            fun_params.push(syms.fun_var(r.str()?));
        }
        let pattern = get_pattern(r, syms, pats, 0)?;
        let n_rules = r.count(1)?;
        let mut rules = Vec::with_capacity(n_rules);
        for _ in 0..n_rules {
            let rname = r.str()?.to_owned();
            let guard = get_guard(r, syms, 0)?;
            let rhs = get_rhs(r, syms, 0)?;
            rules.push(RuleDef {
                name: rname,
                guard,
                rhs,
            });
        }
        rs.patterns.push(PatternDef {
            name,
            params,
            fun_params,
            pattern,
            rules,
        });
    }
    if !r.rest().is_empty() {
        return Err(BinError::Malformed {
            what: "trailing bytes after the rule set",
        });
    }
    // What the builder checks before it serializes: a rule set that
    // fails here would load, and then fail mid-pass on a graph the pass
    // has already partly rewritten.
    rs.validate(pats, syms)
        .map_err(|what| BinError::Inconsistent { what })?;
    Ok(rs)
}

/// Every element a count here introduces occupies at least one byte, so
/// a count past the bytes left is provably truncated (or a corrupted
/// length field): [`Cursor::count`] refuses it before any
/// `Vec::with_capacity`, and this format calls that `Truncated`.
impl From<ReadError> for BinError {
    fn from(e: ReadError) -> Self {
        match e {
            ReadError::Truncated | ReadError::CountTooLarge => BinError::Truncated,
            ReadError::BadString => BinError::BadString,
        }
    }
}

/// Bumps the recursion depth, rejecting trees deeper than
/// [`MAX_DEPTH`].
fn descend(depth: u32, what: &'static str) -> Result<u32, BinError> {
    if depth >= MAX_DEPTH {
        return Err(BinError::Malformed { what });
    }
    Ok(depth + 1)
}

fn get_pattern(
    r: &mut Cursor<'_>,
    syms: &mut SymbolTable,
    pats: &mut PatternStore,
    depth: u32,
) -> Result<PatternId, BinError> {
    let depth = descend(depth, "pattern")?;
    let tag = r.u8()?;
    Ok(match tag {
        0 => {
            let x = r.str()?;
            let v = syms.var(x);
            pats.var(v)
        }
        1 => {
            let name = r.str()?;
            let n = r.count(1)?;
            let mut args = Vec::with_capacity(n);
            for _ in 0..n {
                args.push(get_pattern(r, syms, pats, depth)?);
            }
            let op = syms.find_op(name).ok_or_else(|| BinError::UnknownOp {
                name: name.to_owned(),
            })?;
            pats.app(op, args)
        }
        2 => {
            let name = r.str()?;
            let fv = syms.fun_var(name);
            let n = r.count(1)?;
            let mut args = Vec::with_capacity(n);
            for _ in 0..n {
                args.push(get_pattern(r, syms, pats, depth)?);
            }
            pats.fun_app(fv, args)
        }
        3 => {
            let left = get_pattern(r, syms, pats, depth)?;
            let right = get_pattern(r, syms, pats, depth)?;
            pats.alt(left, right)
        }
        4 => {
            let inner = get_pattern(r, syms, pats, depth)?;
            let g = get_guard(r, syms, depth)?;
            pats.guarded(inner, g)
        }
        5 => {
            let x = r.str()?;
            let v = syms.var(x);
            let inner = get_pattern(r, syms, pats, depth)?;
            pats.exists(v, inner)
        }
        6 => {
            let main = get_pattern(r, syms, pats, depth)?;
            let constraint = get_pattern(r, syms, pats, depth)?;
            let x = r.str()?;
            let v = syms.var(x);
            pats.match_constr(main, constraint, v)
        }
        7 => {
            let name = r.str()?;
            let pn = syms.pat_name(name);
            let n = r.count(1)?;
            let mut params = Vec::with_capacity(n);
            for _ in 0..n {
                let s = r.str()?;
                params.push(syms.var(s));
            }
            let n = r.count(1)?;
            let mut args = Vec::with_capacity(n);
            for _ in 0..n {
                let s = r.str()?;
                args.push(syms.var(s));
            }
            let body = get_pattern(r, syms, pats, depth)?;
            if params.len() != args.len() {
                return Err(BinError::Inconsistent {
                    what: format!(
                        "μ{} has {} parameters but {} arguments",
                        get_owned_name(syms, pn),
                        params.len(),
                        args.len()
                    ),
                });
            }
            pats.mu(pn, params, args, body)
        }
        8 => {
            let name = r.str()?;
            let pn = syms.pat_name(name);
            let n = r.count(1)?;
            let mut args = Vec::with_capacity(n);
            for _ in 0..n {
                let s = r.str()?;
                args.push(syms.var(s));
            }
            pats.call(pn, args)
        }
        tag => {
            return Err(BinError::BadTag {
                what: "pattern",
                tag,
            })
        }
    })
}

fn get_owned_name(syms: &SymbolTable, pn: pypm_core::PatName) -> String {
    syms.pat_name_text(pn).to_owned()
}

fn get_guard(r: &mut Cursor<'_>, syms: &mut SymbolTable, depth: u32) -> Result<Guard, BinError> {
    let depth = descend(depth, "guard")?;
    let tag = r.u8()?;
    Ok(match tag {
        0 => Guard::Eq(get_expr(r, syms, depth)?, get_expr(r, syms, depth)?),
        1 => Guard::Lt(get_expr(r, syms, depth)?, get_expr(r, syms, depth)?),
        2 => Guard::And(
            Box::new(get_guard(r, syms, depth)?),
            Box::new(get_guard(r, syms, depth)?),
        ),
        3 => Guard::Or(
            Box::new(get_guard(r, syms, depth)?),
            Box::new(get_guard(r, syms, depth)?),
        ),
        4 => Guard::Not(Box::new(get_guard(r, syms, depth)?)),
        tag => return Err(BinError::BadTag { what: "guard", tag }),
    })
}

fn get_expr(r: &mut Cursor<'_>, syms: &mut SymbolTable, depth: u32) -> Result<Expr, BinError> {
    let depth = descend(depth, "expr")?;
    let tag = r.u8()?;
    Ok(match tag {
        0 => Expr::Const(r.i64()?),
        1 => {
            let v = r.str()?;
            let a = r.str()?;
            Expr::var_attr(syms.var(v), syms.attr(a))
        }
        2 => get_expr(r, syms, depth)?.add(get_expr(r, syms, depth)?),
        3 => get_expr(r, syms, depth)?.sub(get_expr(r, syms, depth)?),
        4 => get_expr(r, syms, depth)?.mul(get_expr(r, syms, depth)?),
        tag => return Err(BinError::BadTag { what: "expr", tag }),
    })
}

fn get_rhs(r: &mut Cursor<'_>, syms: &mut SymbolTable, depth: u32) -> Result<Rhs, BinError> {
    let depth = descend(depth, "rhs")?;
    let tag = r.u8()?;
    Ok(match tag {
        0 => {
            let x = r.str()?;
            Rhs::Var(syms.var(x))
        }
        1 => {
            let name = r.str()?;
            let n = r.count(1)?;
            let mut args = Vec::with_capacity(n);
            for _ in 0..n {
                args.push(get_rhs(r, syms, depth)?);
            }
            let n_attrs = r.count(1)?;
            let mut attrs = Vec::with_capacity(n_attrs);
            for _ in 0..n_attrs {
                let a = r.str()?;
                let v = r.i64()?;
                attrs.push((syms.attr(a), v));
            }
            let op = match syms.find_op(name) {
                Some(op) => op,
                None => syms.op(name, args.len()),
            };
            Rhs::App { op, args, attrs }
        }
        2 => {
            let name = r.str()?;
            let fv = syms.fun_var(name);
            let n = r.count(1)?;
            let mut args = Vec::with_capacity(n);
            for _ in 0..n {
                args.push(get_rhs(r, syms, depth)?);
            }
            Rhs::FunApp(fv, args)
        }
        tag => return Err(BinError::BadTag { what: "rhs", tag }),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::Frontend;
    use crate::text::print_ruleset;

    fn roundtrip_display(
        rs: &RuleSet,
        syms: &SymbolTable,
        pats: &PatternStore,
    ) -> (String, String) {
        let bin = encode(rs, syms, pats);
        let mut syms2 = SymbolTable::new();
        let mut pats2 = PatternStore::new();
        let rs2 = decode(&bin, &mut syms2, &mut pats2).unwrap();
        (
            print_ruleset(rs, syms, pats),
            print_ruleset(&rs2, &syms2, &pats2),
        )
    }

    #[test]
    fn full_featured_ruleset_roundtrips() {
        let mut fe = Frontend::new();
        let matmul = fe.syms.op("MatMul", 2);
        let trans = fe.syms.op("Trans", 1);
        let f32mm = fe.syms.op("cublasMM_xyT_f32", 2);
        let rank = fe.syms.attr("rank");
        let elt = fe.syms.attr("eltType");
        fe.pattern("MMxyT", |p| {
            let x = p.param("x");
            let y = p.param("y");
            let rx = p.attr(x, rank);
            let ry = p.attr(y, rank);
            p.assert_(rx.eq(Expr::Const(2)).and(ry.eq(Expr::Const(2))));
            let py = p.v(y);
            let yt = p.op(trans, vec![py]);
            let px = p.v(x);
            p.op(matmul, vec![px, yt])
        });
        fe.pattern("UnaryChain", |p| {
            let x = p.param("x");
            let f = p.fun_param("f");
            let inner = p.rec(vec![x]);
            p.fun(f, vec![inner])
        });
        fe.pattern("UnaryChain", |p| {
            let x = p.param("x");
            let f = p.fun_param("f");
            let px = p.v(x);
            p.fun(f, vec![px])
        });
        let x = fe.syms.var("x");
        let y = fe.syms.var("y");
        fe.rule("MMxyT", "cublasrule", |r| {
            r.assert_(Expr::var_attr(x, elt).eq(Expr::Const(1)));
            r.ret(Rhs::app(f32mm, vec![Rhs::Var(x), Rhs::Var(y)]));
        });
        let (syms, pats, rs) = fe.serialize().unwrap();
        let (a, b) = roundtrip_display(&rs, &syms, &pats);
        assert_eq!(a, b);
    }

    #[test]
    fn decode_rejects_garbage() {
        let mut syms = SymbolTable::new();
        let mut pats = PatternStore::new();
        assert!(matches!(
            decode(b"NOTPYPM", &mut syms, &mut pats),
            Err(BinError::BadMagic)
        ));
    }

    #[test]
    fn decode_rejects_truncation() {
        let mut fe = Frontend::new();
        let relu = fe.syms.op("Relu", 1);
        fe.pattern("P", |p| {
            let x = p.param("x");
            let px = p.v(x);
            p.op(relu, vec![px])
        });
        let (syms, pats, rs) = fe.serialize().unwrap();
        let bin = encode(&rs, &syms, &pats);
        for cut in [MAGIC.len(), bin.len() / 2, bin.len() - 1] {
            let mut syms2 = SymbolTable::new();
            let mut pats2 = PatternStore::new();
            let r = decode(&bin[..cut], &mut syms2, &mut pats2);
            assert!(r.is_err(), "cut at {cut} should fail");
        }
    }

    /// A rule set is the whole input: a valid encoding with a byte
    /// appended used to load as if the byte were not there.
    #[test]
    fn trailing_bytes_are_malformed() {
        let mut fe = Frontend::new();
        let relu = fe.syms.op("Relu", 1);
        fe.pattern("P", |p| {
            let x = p.param("x");
            let px = p.v(x);
            p.op(relu, vec![px])
        });
        let (syms, pats, rs) = fe.serialize().unwrap();
        let mut bin = encode(&rs, &syms, &pats);
        bin.push(0);
        assert_eq!(
            decode(&bin, &mut SymbolTable::new(), &mut PatternStore::new()).err(),
            Some(BinError::Malformed {
                what: "trailing bytes after the rule set"
            })
        );
    }

    /// A frame that claims billions of elements must fail with
    /// `Truncated` *before* any allocation sized by the claim — the
    /// byte-flipped-length attack a serve loop must shrug off.
    #[test]
    fn absurd_count_claims_are_truncated_not_allocated() {
        // Truncated operator table: count says u32::MAX, zero entries.
        let mut buf = MAGIC.to_vec();
        buf.put_u32_le(u32::MAX);
        let mut syms = SymbolTable::new();
        let mut pats = PatternStore::new();
        assert!(matches!(
            decode(&buf, &mut syms, &mut pats),
            Err(BinError::Truncated)
        ));

        // A valid encoding with its pattern-count field inflated.
        let mut fe = Frontend::new();
        let relu = fe.syms.op("Relu", 1);
        fe.pattern("P", |p| {
            let x = p.param("x");
            let px = p.v(x);
            p.op(relu, vec![px])
        });
        let (syms, pats, rs) = fe.serialize().unwrap();
        let bin = encode(&rs, &syms, &pats);
        let mut bytes = bin;
        // Layout: magic, op count (Relu), "Relu" + arity, pattern count.
        let pat_count_at = MAGIC.len() + 4 + (4 + 4) + 4;
        bytes[pat_count_at..pat_count_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut syms2 = SymbolTable::new();
        let mut pats2 = PatternStore::new();
        assert!(matches!(
            decode(&bytes, &mut syms2, &mut pats2),
            Err(BinError::Truncated)
        ));
    }

    /// A crafted frame of nested guard tags recurses once per byte; the
    /// depth limit must reject it as `Malformed` instead of overflowing
    /// the stack (which aborts the process — fatal for a server).
    #[test]
    fn deeply_nested_pattern_is_malformed_not_a_crash() {
        let mut buf = MAGIC.to_vec();
        buf.put_u32_le(0); // operator table: empty
        buf.put_u32_le(1); // one pattern
        buf.put_str("Hostile");
        buf.put_u32_le(0); // no params
        buf.put_u32_le(0); // no fun params
                           // Pattern tree: tag 4 (Guard) nested far past MAX_DEPTH.
        for _ in 0..(MAX_DEPTH * 4) {
            buf.put_u8(4);
        }
        let mut syms = SymbolTable::new();
        let mut pats = PatternStore::new();
        assert!(matches!(
            decode(&buf, &mut syms, &mut pats),
            Err(BinError::Malformed { what: "pattern" })
        ));
    }

    /// Flipping any single byte of a valid encoding must decode to
    /// `Ok` or a clean `Err` — never a panic. (The proptest in
    /// `tests/format_properties.rs` fuzzes this much deeper.)
    #[test]
    fn single_byte_flips_never_panic() {
        let mut fe = Frontend::new();
        let matmul = fe.syms.op("MatMul", 2);
        let trans = fe.syms.op("Trans", 1);
        let rank = fe.syms.attr("rank");
        fe.pattern("MMxyT", |p| {
            let x = p.param("x");
            let y = p.param("y");
            let rx = p.attr(x, rank);
            p.assert_(rx.eq(Expr::Const(2)));
            let py = p.v(y);
            let yt = p.op(trans, vec![py]);
            let px = p.v(x);
            p.op(matmul, vec![px, yt])
        });
        let (syms, pats, rs) = fe.serialize().unwrap();
        let bin = encode(&rs, &syms, &pats);
        for i in 0..bin.len() {
            for flip in [0x01u8, 0x80, 0xff] {
                let mut bytes = bin.clone();
                bytes[i] ^= flip;
                let mut syms2 = SymbolTable::new();
                let mut pats2 = PatternStore::new();
                // Ok or Err both fine; what this pins is "no panic".
                let _ = decode(&bytes, &mut syms2, &mut pats2);
            }
        }
    }

    /// `P(x) = Relu(x)` with the rule `→ Relu(x)`, encoded after `edit`
    /// changed it past what the builder would serialize, then decoded.
    fn decode_edited(
        edit: impl FnOnce(&mut SymbolTable, &mut PatternStore, &mut RuleSet),
    ) -> BinError {
        let mut fe = Frontend::new();
        let relu = fe.syms.op("Relu", 1);
        fe.pattern("P", |p| {
            let x = p.param("x");
            let px = p.v(x);
            p.op(relu, vec![px])
        });
        let x = fe.syms.var("x");
        fe.rule("P", "same", |r| r.ret(Rhs::app(relu, vec![Rhs::Var(x)])));
        let (mut syms, mut pats, mut rs) = fe.serialize().unwrap();
        edit(&mut syms, &mut pats, &mut rs);
        let bin = encode(&rs, &syms, &pats);
        decode(&bin, &mut SymbolTable::new(), &mut PatternStore::new()).unwrap_err()
    }

    #[test]
    fn a_rule_whose_rhs_names_a_non_parameter_is_refused() {
        let err = decode_edited(|syms, _, rs| {
            let (relu, z) = (syms.find_op("Relu").unwrap(), syms.var("z"));
            rs.patterns[0].rules[0].rhs = Rhs::app(relu, vec![Rhs::Var(z)]);
        });
        let BinError::Inconsistent { what } = err else {
            panic!("{err:?}");
        };
        assert!(what.contains("non-parameter variable z"), "{what}");
    }

    #[test]
    fn a_guard_reading_an_unbound_variable_is_refused() {
        let err = decode_edited(|syms, pats, rs| {
            let (rank, z) = (syms.attr("rank"), syms.var("z"));
            let guard = Expr::var_attr(z, rank).eq(Expr::Const(2));
            rs.patterns[0].pattern = pats.guarded(rs.patterns[0].pattern, guard);
        });
        assert!(matches!(err, BinError::Inconsistent { .. }), "{err:?}");
    }

    #[test]
    fn decoded_ruleset_validates() {
        let mut fe = Frontend::new();
        let g = fe.syms.op("g", 1);
        fe.pattern("Rooted", |p| {
            let x = p.param("x");
            let y = p.var();
            let py = p.v(y);
            let gy = p.op(g, vec![py]);
            p.constrain(x, gy);
            p.v(x)
        });
        let (syms, pats, rs) = fe.serialize().unwrap();
        let bin = encode(&rs, &syms, &pats);
        let mut syms2 = SymbolTable::new();
        let mut pats2 = PatternStore::new();
        let rs2 = decode(&bin, &mut syms2, &mut pats2).unwrap();
        rs2.validate(&pats2, &syms2).unwrap();
    }
}
