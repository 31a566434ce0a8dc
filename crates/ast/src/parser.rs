//! Recursive-descent parser for Datalog¬ programs and fact files.
//!
//! Grammar:
//!
//! ```text
//! program  ::= clause* EOF
//! clause   ::= atom ( ":-" literal ("," literal)* )? "."
//! literal  ::= ("not" | "!" | "~")? atom
//! atom     ::= IDENT ( "(" term ("," term)* ")" )?
//! term     ::= IDENT            -- uppercase/underscore ⇒ variable
//! ```
//!
//! [`parse_program`] accepts the full grammar; [`parse_database`] accepts
//! only ground facts and produces a [`Database`].

use crate::atom::{Atom, Literal};
use crate::database::Database;
use crate::error::{AstError, ParseError, Pos};
use crate::lexer::{lex, Spanned, Token};
use crate::program::{Program, RuleSpan};
use crate::rule::Rule;
use crate::symbol::{ConstSym, PredSym};
use crate::term::{names_a_variable, Term};

struct Parser<'a> {
    tokens: Vec<Spanned<'a>>,
    at: usize,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Result<Self, ParseError> {
        Ok(Parser {
            tokens: lex(input)?,
            at: 0,
        })
    }

    fn peek(&self) -> Token<'a> {
        self.tokens[self.at].token
    }

    fn pos(&self) -> Pos {
        self.tokens[self.at].pos
    }

    fn bump(&mut self) -> Token<'a> {
        let t = self.peek();
        if self.at + 1 < self.tokens.len() {
            self.at += 1;
        }
        t
    }

    fn expect(&mut self, want: Token<'_>, what: &str) -> Result<(), ParseError> {
        if self.peek() == want {
            self.bump();
            Ok(())
        } else {
            Err(ParseError::new(
                self.pos(),
                format!("expected {what}, found {}", self.peek()),
            ))
        }
    }

    fn ident(&mut self, what: &str) -> Result<&'a str, ParseError> {
        match self.peek() {
            Token::Ident(s) => {
                self.bump();
                Ok(s)
            }
            other => Err(ParseError::new(
                self.pos(),
                format!("expected {what}, found {other}"),
            )),
        }
    }

    fn atom(&mut self) -> Result<Atom, ParseError> {
        let name = self.ident("a predicate name")?;
        let mut args = Vec::new();
        if self.peek() == Token::LParen {
            self.bump();
            loop {
                args.push(Term::from_text(self.ident("a term")?));
                match self.peek() {
                    Token::Comma => {
                        self.bump();
                    }
                    Token::RParen => {
                        self.bump();
                        break;
                    }
                    other => {
                        return Err(ParseError::new(
                            self.pos(),
                            format!("expected `,` or `)`, found {other}"),
                        ))
                    }
                }
            }
        }
        Ok(Atom::new(name, args))
    }

    /// Parses `IDENT ( "(" IDENT ("," IDENT)* ")" )? "."` with every
    /// argument a constant, leaving the arguments in `args`. Returns
    /// `None`, with the position somewhere inside the clause, on anything
    /// else (a variable, a body, a syntax error). Names are interned in
    /// the order [`Parser::atom`] interns them: arguments left to right,
    /// then the predicate.
    fn ground_fact(&mut self, args: &mut Vec<ConstSym>) -> Option<PredSym> {
        let Token::Ident(name) = self.peek() else {
            return None;
        };
        self.bump();
        args.clear();
        if self.peek() == Token::LParen {
            self.bump();
            loop {
                let Token::Ident(text) = self.peek() else {
                    return None;
                };
                if names_a_variable(text) {
                    return None;
                }
                self.bump();
                args.push(ConstSym::new(text));
                match self.bump() {
                    Token::Comma => {}
                    Token::RParen => break,
                    _ => return None,
                }
            }
        }
        if self.peek() != Token::Dot {
            return None;
        }
        self.bump();
        Some(PredSym::new(name))
    }

    fn literal(&mut self) -> Result<Literal, ParseError> {
        if self.peek() == Token::Not {
            self.bump();
            Ok(Literal::neg(self.atom()?))
        } else {
            Ok(Literal::pos(self.atom()?))
        }
    }

    fn clause(&mut self) -> Result<(Rule, RuleSpan), ParseError> {
        let head_pos = self.pos();
        let head = self.atom()?;
        let mut body = Vec::new();
        let mut literal_positions = Vec::new();
        if self.peek() == Token::Arrow {
            self.bump();
            loop {
                literal_positions.push(self.pos());
                body.push(self.literal()?);
                if self.peek() == Token::Comma {
                    self.bump();
                } else {
                    break;
                }
            }
        }
        self.expect(Token::Dot, "`.` terminating the clause")
            .map_err(|e| {
                ParseError::new(
                    e.pos,
                    format!("{} (clause starting at {head_pos})", e.message),
                )
            })?;
        let span = RuleSpan {
            rule: head_pos,
            literals: literal_positions,
        };
        Ok((Rule::new(head, body), span))
    }

    fn program(&mut self) -> Result<Vec<(Rule, RuleSpan)>, ParseError> {
        let mut rules = Vec::new();
        while self.peek() != Token::Eof {
            rules.push(self.clause()?);
        }
        Ok(rules)
    }
}

/// Parses a Datalog¬ program from text.
///
/// # Errors
///
/// [`AstError::Parse`] on syntax errors; [`AstError::Validation`] if a
/// predicate occurs with inconsistent arities.
pub fn parse_program(input: &str) -> Result<Program, AstError> {
    let mut span = tiebreak_trace::span("parse", "parse_program", &[("bytes", input.len() as u64)]);
    let mut parser = {
        let _lex = tiebreak_trace::span("parse", "lex", &[]);
        Parser::new(input)?
    };
    let rules = {
        let _clauses = tiebreak_trace::span("parse", "clauses", &[]);
        parser.program()?
    };
    drop(parser);
    span.arg("rules", rules.len() as u64);
    let _build = tiebreak_trace::span("parse", "build", &[]);
    Ok(Program::with_spans(rules)?)
}

/// Parses a database (fact file): every clause must be a ground fact.
///
/// Each fact goes from its tokens straight into its relation through one
/// reused argument buffer. A clause that is not a plain ground fact is
/// re-parsed as a general clause, which reports the error.
///
/// # Errors
///
/// [`AstError::Parse`] on syntax errors or non-fact clauses;
/// [`AstError::Validation`] on arity conflicts.
pub fn parse_database(input: &str) -> Result<Database, AstError> {
    let _span = tiebreak_trace::span("parse", "parse_database", &[("bytes", input.len() as u64)]);
    let mut parser = Parser::new(input)?;
    let mut db = Database::new();
    let mut args: Vec<ConstSym> = Vec::new();
    while parser.peek() != Token::Eof {
        let start = parser.at;
        if let Some(pred) = parser.ground_fact(&mut args) {
            db.insert_tuple(pred, &args)?;
            continue;
        }
        parser.at = start;
        let pos = parser.pos();
        let (rule, _span) = parser.clause()?;
        if !rule.is_fact() {
            return Err(ParseError::new(pos, "expected a fact (no `:-` in fact files)").into());
        }
        let Some(ground) = rule.head.to_ground() else {
            return Err(ParseError::new(pos, "facts must be ground (no variables)").into());
        };
        db.insert(ground)?;
    }
    Ok(db)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_win_move() {
        let p = parse_program("win(X) :- move(X, Y), not win(Y).").unwrap();
        assert_eq!(p.len(), 1);
        assert_eq!(
            p.rules()[0].to_string(),
            "win(X) :- move(X, Y), not win(Y)."
        );
    }

    #[test]
    fn parses_propositional_rules() {
        // The paper's §3 example: p ← p, ¬q ; q ← q, ¬p.
        let p = parse_program("p :- p, not q.\nq :- q, not p.").unwrap();
        assert_eq!(p.len(), 2);
        assert_eq!(p.rules()[0].to_string(), "p :- p, not q.");
        assert!(p.is_idb("p".into()));
        assert!(p.is_idb("q".into()));
    }

    #[test]
    fn parses_facts_and_alternative_negations() {
        let p = parse_program("e(a, b).\np(X) :- e(X, Y), !q(Y), ~r(X).").unwrap();
        assert_eq!(p.len(), 2);
        assert!(p.rules()[0].is_fact());
        assert_eq!(p.rules()[1].body[1].to_string(), "not q(Y)");
        assert_eq!(p.rules()[1].body[2].to_string(), "not r(X)");
    }

    #[test]
    fn round_trips_through_display() {
        let src = "win(X) :- move(X, Y), not win(Y).\nmove(a, b).\n";
        let p = parse_program(src).unwrap();
        let p2 = parse_program(&p.to_string()).unwrap();
        assert_eq!(p, p2);
    }

    #[test]
    fn missing_dot_is_an_error() {
        let err = parse_program("p :- q").unwrap_err();
        assert!(err.to_string().contains('.'));
    }

    #[test]
    fn arity_mismatch_is_a_validation_error() {
        let err = parse_program("p(a).\np(a, b).").unwrap_err();
        assert!(matches!(err, AstError::Validation(_)));
    }

    #[test]
    fn database_accepts_ground_facts_only() {
        let db = parse_database("e(a, b).\ne(b, c).\nzero(0).").unwrap();
        assert_eq!(db.len(), 3);
        assert!(parse_database("p(X).").is_err());
        assert!(parse_database("p :- q.").is_err());
    }

    #[test]
    fn malformed_facts_report_the_general_clause_error() {
        // The fact fast path hands every clause it cannot take to the
        // general clause parser, which words and places the error.
        for (input, want) in [
            ("e(a, b).\ne(X, c).", "2:1: facts must be ground"),
            ("e(a, b) :- q.", "1:1: expected a fact"),
            ("e(a, b", "1:7: expected `,` or `)`, found end of input"),
            ("e(a, b) q.", "1:9: expected `.` terminating the clause"),
            ("e(a,).", "1:5: expected a term"),
            ("not.", "1:1: expected a predicate name"),
        ] {
            let err = parse_database(input).unwrap_err().to_string();
            assert!(err.contains(want), "{input:?}: {err}");
        }
        let db = parse_database("e(a, b).\nP(c).\nq.").unwrap();
        assert_eq!(db.to_string(), "P(c).\ne(a, b).\nq.\n");
    }

    #[test]
    fn empty_input_is_an_empty_program() {
        let p = parse_program("  % only a comment\n").unwrap();
        assert!(p.is_empty());
        let db = parse_database("").unwrap();
        assert!(db.is_empty());
    }

    #[test]
    fn error_positions_point_at_the_problem() {
        let err = parse_program("p(X) :- q(X)\nr(a).").unwrap_err();
        let AstError::Parse(pe) = err else {
            panic!("expected parse error")
        };
        assert_eq!(pe.pos.line, 2);
    }

    #[test]
    fn parsed_rules_carry_spans() {
        let p = parse_program("e(a).\nwin(X) :-\n  move(X, Y), not win(Y).").unwrap();
        let s0 = p.span(0).unwrap();
        assert_eq!((s0.rule.line, s0.rule.col), (1, 1));
        assert!(s0.literals.is_empty());
        let s1 = p.span(1).unwrap();
        assert_eq!((s1.rule.line, s1.rule.col), (2, 1));
        assert_eq!(s1.literals.len(), 2);
        assert_eq!(s1.literals[0].line, 3);
        // The negated literal's span points at its `not`.
        assert_eq!(s1.literals[1].line, 3);
        assert!(s1.literals[1].col > s1.literals[0].col);
    }

    #[test]
    fn duplicate_clauses_collapse_with_positions() {
        let p = parse_program("p :- q.\nr.\np :- q.\n").unwrap();
        assert_eq!(p.len(), 2);
        let dups = p.duplicate_rules();
        assert_eq!(dups.len(), 1);
        assert_eq!(dups[0].kept, 0);
        assert_eq!(dups[0].span.as_ref().unwrap().rule.line, 3);
    }

    #[test]
    fn empty_argument_list_is_rejected() {
        // Zero-arity atoms are written without parentheses; `p()` is a
        // syntax error, not an empty tuple.
        let err = parse_program("p() :- q.").unwrap_err();
        assert!(err.to_string().contains("term"), "{err}");
    }

    #[test]
    fn not_is_reserved() {
        // `not` always lexes as the negation keyword, so it cannot name a
        // predicate.
        assert!(parse_program("not :- p.").is_err());
        assert!(parse_program("p :- not not q.").is_err());
    }

    #[test]
    fn dangling_comma_in_body_is_rejected() {
        let err = parse_program("p :- q, .").unwrap_err();
        assert!(matches!(err, AstError::Parse(_)));
    }
}
