//! Atoms, ground atoms, and literals.
//!
//! Following the paper's Section 2: if `P` is an m-ary predicate symbol and
//! `x1, …, xm` are variables or constants, `P(x1, …, xm)` is an *atom*; it
//! is *ground* if all arguments are constants. A *literal* is an atom or
//! the negation of an atom.

use std::fmt;

use crate::symbol::{ConstSym, PredSym, VarSym};
use crate::term::Term;

/// The polarity of a literal or a dependency edge.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Sign {
    /// A positive occurrence.
    Pos,
    /// A negated occurrence (`not p(...)`).
    Neg,
}

impl Sign {
    /// `true` iff positive.
    pub fn is_pos(self) -> bool {
        matches!(self, Sign::Pos)
    }

    /// `true` iff negative.
    pub fn is_neg(self) -> bool {
        matches!(self, Sign::Neg)
    }

    /// The opposite polarity.
    #[must_use]
    pub fn flip(self) -> Sign {
        match self {
            Sign::Pos => Sign::Neg,
            Sign::Neg => Sign::Pos,
        }
    }

    /// Parity composition: the sign of a path is the product of its edge
    /// signs. `Pos` is the identity.
    #[must_use]
    pub fn compose(self, other: Sign) -> Sign {
        if self == other {
            Sign::Pos
        } else {
            Sign::Neg
        }
    }
}

/// An atom `p(t1, …, tm)`.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Atom {
    /// The predicate symbol.
    pub pred: PredSym,
    /// The argument terms; the length is the atom's arity.
    pub args: Vec<Term>,
}

impl Atom {
    /// Constructs an atom from a predicate name and terms.
    pub fn new(pred: impl Into<PredSym>, args: impl IntoIterator<Item = Term>) -> Self {
        Atom {
            pred: pred.into(),
            args: args.into_iter().collect(),
        }
    }

    /// Constructs an atom using the textual variable convention
    /// (leading uppercase / `_` ⇒ variable).
    pub fn from_texts(pred: &str, args: &[&str]) -> Self {
        Atom {
            pred: PredSym::new(pred),
            args: args.iter().map(|t| Term::from_text(t)).collect(),
        }
    }

    /// The arity (number of arguments).
    pub fn arity(&self) -> usize {
        self.args.len()
    }

    /// `true` iff every argument is a constant.
    pub fn is_ground(&self) -> bool {
        self.args.iter().all(|t| t.is_const())
    }

    /// Iterates over the variables occurring in this atom (with repeats).
    pub fn variables(&self) -> impl Iterator<Item = VarSym> + '_ {
        self.args.iter().filter_map(|t| t.as_var())
    }

    /// Iterates over the constants occurring in this atom (with repeats).
    pub fn constants(&self) -> impl Iterator<Item = ConstSym> + '_ {
        self.args.iter().filter_map(|t| t.as_const())
    }

    /// Converts to a [`GroundAtom`] if ground.
    pub fn to_ground(&self) -> Option<GroundAtom> {
        let args: Option<Box<[ConstSym]>> = self.args.iter().map(|t| t.as_const()).collect();
        args.map(|args| GroundAtom {
            pred: self.pred,
            args,
        })
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.pred.fmt(f)?;
        if !self.args.is_empty() {
            f.write_str("(")?;
            for (i, t) in self.args.iter().enumerate() {
                if i > 0 {
                    f.write_str(", ")?;
                }
                t.fmt(f)?;
            }
            f.write_str(")")?;
        }
        Ok(())
    }
}

/// A ground atom `p(c1, …, cm)`: the vertices of the paper's ground graph.
#[derive(Clone, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct GroundAtom {
    /// The predicate symbol.
    pub pred: PredSym,
    /// The constant arguments.
    pub args: Box<[ConstSym]>,
}

impl GroundAtom {
    /// Constructs a ground atom.
    pub fn new(pred: impl Into<PredSym>, args: impl IntoIterator<Item = ConstSym>) -> Self {
        GroundAtom {
            pred: pred.into(),
            args: args.into_iter().collect(),
        }
    }

    /// Constructs a ground atom from texts (all arguments constants).
    pub fn from_texts(pred: &str, args: &[&str]) -> Self {
        GroundAtom {
            pred: PredSym::new(pred),
            args: args.iter().map(|a| ConstSym::new(a)).collect(),
        }
    }

    /// The arity.
    pub fn arity(&self) -> usize {
        self.args.len()
    }

    /// Orders by text: predicate name, then argument names left to
    /// right. Unlike the derived `Ord`, which compares interner ids, this
    /// order does not depend on which names the process interned first.
    pub fn text_cmp(&self, other: &GroundAtom) -> std::cmp::Ordering {
        self.pred.as_str().cmp(other.pred.as_str()).then_with(|| {
            self.args
                .iter()
                .map(|c| c.as_str())
                .cmp(other.args.iter().map(|c| c.as_str()))
        })
    }

    /// Lifts back into a (ground) [`Atom`].
    pub fn to_atom(&self) -> Atom {
        Atom {
            pred: self.pred,
            args: self.args.iter().map(|&c| Term::Const(c)).collect(),
        }
    }
}

impl fmt::Display for GroundAtom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.pred.fmt(f)?;
        if !self.args.is_empty() {
            f.write_str("(")?;
            for (i, c) in self.args.iter().enumerate() {
                if i > 0 {
                    f.write_str(", ")?;
                }
                c.fmt(f)?;
            }
            f.write_str(")")?;
        }
        Ok(())
    }
}

/// A literal: a signed atom.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Literal {
    /// The polarity.
    pub sign: Sign,
    /// The underlying atom.
    pub atom: Atom,
}

impl Literal {
    /// A positive literal.
    pub fn pos(atom: Atom) -> Self {
        Literal {
            sign: Sign::Pos,
            atom,
        }
    }

    /// A negative literal.
    pub fn neg(atom: Atom) -> Self {
        Literal {
            sign: Sign::Neg,
            atom,
        }
    }

    /// `true` iff positive.
    pub fn is_pos(&self) -> bool {
        self.sign.is_pos()
    }

    /// `true` iff negative.
    pub fn is_neg(&self) -> bool {
        self.sign.is_neg()
    }
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_neg() {
            f.write_str("not ")?;
        }
        self.atom.fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sign_algebra() {
        assert_eq!(Sign::Pos.flip(), Sign::Neg);
        assert_eq!(Sign::Neg.flip(), Sign::Pos);
        assert_eq!(Sign::Neg.compose(Sign::Neg), Sign::Pos);
        assert_eq!(Sign::Neg.compose(Sign::Pos), Sign::Neg);
        assert_eq!(Sign::Pos.compose(Sign::Pos), Sign::Pos);
    }

    #[test]
    fn atom_display_zero_arity() {
        let a = Atom::from_texts("p", &[]);
        assert_eq!(a.to_string(), "p");
        assert_eq!(a.arity(), 0);
        assert!(a.is_ground());
    }

    #[test]
    fn atom_display_with_args() {
        let a = Atom::from_texts("edge", &["X", "b"]);
        assert_eq!(a.to_string(), "edge(X, b)");
        assert!(!a.is_ground());
        assert_eq!(a.variables().count(), 1);
        assert_eq!(a.constants().count(), 1);
    }

    #[test]
    fn ground_round_trip() {
        let a = Atom::from_texts("p", &["a", "b"]);
        let g = a.to_ground().expect("ground");
        assert_eq!(g.to_string(), "p(a, b)");
        assert_eq!(g.to_atom(), a);
    }

    #[test]
    fn non_ground_atom_has_no_ground_form() {
        let a = Atom::from_texts("p", &["X"]);
        assert!(a.to_ground().is_none());
    }

    #[test]
    fn literal_display() {
        let a = Atom::from_texts("q", &["X"]);
        assert_eq!(Literal::pos(a.clone()).to_string(), "q(X)");
        assert_eq!(Literal::neg(a).to_string(), "not q(X)");
    }
}
