//! Terms: the arguments of atoms.
//!
//! Datalog terms are flat — a term is either a variable or a constant;
//! there are no function symbols. This is the language of the paper
//! (Section 2).

use std::fmt;

use crate::symbol::{ConstSym, VarSym};

/// The textual convention of [`Term::from_text`]: a leading uppercase
/// letter or `_` names a variable.
pub(crate) fn names_a_variable(text: &str) -> bool {
    text.chars()
        .next()
        .is_some_and(|c| c.is_uppercase() || c == '_')
}

/// A term: a variable or a constant.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Term {
    /// A variable, conventionally written with a leading uppercase letter
    /// or underscore (`X`, `Time`, `_`).
    Var(VarSym),
    /// A constant, conventionally lowercase or numeric (`a`, `42`).
    Const(ConstSym),
}

impl Term {
    /// Parses the textual convention: leading uppercase or `_` means
    /// variable, anything else means constant.
    ///
    /// This is the same convention the parser uses, exposed for builders
    /// and tests.
    pub fn from_text(text: &str) -> Self {
        if names_a_variable(text) {
            Term::Var(VarSym::new(text))
        } else {
            Term::Const(ConstSym::new(text))
        }
    }

    /// Constructs a variable term.
    pub fn var(name: &str) -> Self {
        Term::Var(VarSym::new(name))
    }

    /// Constructs a constant term.
    pub fn constant(name: &str) -> Self {
        Term::Const(ConstSym::new(name))
    }

    /// `true` iff this term is a variable.
    pub fn is_var(self) -> bool {
        matches!(self, Term::Var(_))
    }

    /// `true` iff this term is a constant.
    pub fn is_const(self) -> bool {
        matches!(self, Term::Const(_))
    }

    /// The variable inside, if any.
    pub fn as_var(self) -> Option<VarSym> {
        match self {
            Term::Var(v) => Some(v),
            Term::Const(_) => None,
        }
    }

    /// The constant inside, if any.
    pub fn as_const(self) -> Option<ConstSym> {
        match self {
            Term::Const(c) => Some(c),
            Term::Var(_) => None,
        }
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Var(v) => v.fmt(f),
            Term::Const(c) => c.fmt(f),
        }
    }
}

impl From<VarSym> for Term {
    fn from(v: VarSym) -> Self {
        Term::Var(v)
    }
}

impl From<ConstSym> for Term {
    fn from(c: ConstSym) -> Self {
        Term::Const(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_text_convention() {
        assert!(Term::from_text("X").is_var());
        assert!(Term::from_text("Xyz").is_var());
        assert!(Term::from_text("_tmp").is_var());
        assert!(Term::from_text("a").is_const());
        assert!(Term::from_text("42").is_const());
        assert!(Term::from_text("aBC").is_const());
    }

    #[test]
    fn accessors() {
        let v = Term::var("X");
        let c = Term::constant("a");
        assert_eq!(v.as_var(), Some(VarSym::new("X")));
        assert_eq!(v.as_const(), None);
        assert_eq!(c.as_const(), Some(ConstSym::new("a")));
        assert_eq!(c.as_var(), None);
    }

    #[test]
    fn display() {
        assert_eq!(Term::var("Time").to_string(), "Time");
        assert_eq!(Term::constant("zero").to_string(), "zero");
    }
}
