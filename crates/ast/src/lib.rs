//! Language front-end for Datalog with negation.
//!
//! This crate provides the syntactic substrate of the reproduction of
//! Papadimitriou & Yannakakis, *"Tie-Breaking Semantics and Structural
//! Totality"* (PODS 1992 / JCSS 1997):
//!
//! * interned [`Symbol`]s with the [`PredSym`] / [`VarSym`] / [`ConstSym`]
//!   newtype family,
//! * the AST: [`Term`], [`Atom`], [`Literal`], [`Rule`], [`Program`],
//! * a lexer and parser for the concrete syntax
//!   `p(X, Y) :- q(X), not r(Y).`,
//! * [`Skeleton`]s (the paper's "propositional forms"), which define the
//!   *alphabetic variant* relation of Section 4,
//! * finite [`Database`]s of ground facts with universe extraction,
//! * a [`ProgramBuilder`] for programmatic construction.
//!
//! The paper's conventions are followed exactly: a predicate is *IDB*
//! ("intentional") iff it appears in the head of some rule, and *EDB*
//! ("extensional") otherwise; the universe *U* of a program/database pair is
//! the set of all constants appearing in either.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod atom;
pub mod builder;
pub mod database;
pub mod error;
pub mod fxhash;
pub mod lexer;
pub mod parser;
pub mod program;
pub mod rule;
pub mod skeleton;
pub mod symbol;
pub mod term;

pub use atom::{Atom, GroundAtom, Literal, Sign};
pub use builder::ProgramBuilder;
pub use database::{Database, Relation, Tuple};
pub use error::{AstError, ParseError, Pos, ValidationError};
pub use fxhash::{FxHashMap, FxHashSet};
pub use parser::{parse_database, parse_program};
pub use program::{DuplicateRule, PredInfo, Program, RuleSpan};
pub use rule::Rule;
pub use skeleton::{Skeleton, SkeletonRule};
pub use symbol::{ConstSym, PredSym, Symbol, VarSym};
pub use term::Term;
