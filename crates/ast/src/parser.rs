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
use crate::lexer::{Lexer, Spanned, Token};
use crate::program::Program;
use crate::rule::Rule;
use crate::symbol::{ConstSym, PredSym};
use crate::term::{names_a_variable, Term};

/// The parser's whole state: the token at hand and the lexer behind it,
/// both `Copy`, so a copy of the parser saves a position for a re-parse.
#[derive(Clone, Copy)]
struct Parser<'a> {
    lexer: Lexer<'a>,
    cur: Spanned<'a>,
}

/// The parsed clauses of a program, built straight into their final
/// vectors: the rules, and per rule its head position and where its
/// literal positions start in `literal_pos`.
struct Clauses {
    rules: Vec<Rule>,
    rule_spans: Vec<(Pos, u32)>,
    literal_pos: Vec<Pos>,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Result<Self, ParseError> {
        let mut lexer = Lexer::new(input);
        let cur = lexer.next_token()?;
        Ok(Parser { lexer, cur })
    }

    fn peek(&self) -> Token<'a> {
        self.cur.token
    }

    fn pos(&self) -> Pos {
        self.cur.pos
    }

    fn bump(&mut self) -> Result<Token<'a>, ParseError> {
        let t = self.peek();
        self.cur = self.lexer.next_token()?;
        Ok(t)
    }

    /// `error`, unless the input from here on holds a character outside
    /// the token language: the first such character is the error
    /// reported, as if the whole input had been lexed before parsing.
    fn first_error(&self, error: AstError) -> AstError {
        let mut rest = self.lexer;
        loop {
            match rest.next_token() {
                Ok(t) if t.token == Token::Eof => return error,
                Ok(_) => {}
                Err(lex) => return lex.into(),
            }
        }
    }

    fn expect(&mut self, want: Token<'_>, what: &str) -> Result<(), ParseError> {
        if self.peek() == want {
            self.bump()?;
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
                self.bump()?;
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
            self.bump()?;
            loop {
                args.push(Term::from_text(self.ident("a term")?));
                match self.peek() {
                    Token::Comma => {
                        self.bump()?;
                    }
                    Token::RParen => {
                        self.bump()?;
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
    /// else (a variable, a body, a syntax or lexical error). Names are
    /// interned in the order [`Parser::atom`] interns them: arguments
    /// left to right, then the predicate.
    fn ground_fact(&mut self, args: &mut Vec<ConstSym>) -> Option<PredSym> {
        let Token::Ident(name) = self.peek() else {
            return None;
        };
        self.bump().ok()?;
        args.clear();
        if self.peek() == Token::LParen {
            self.bump().ok()?;
            loop {
                let Token::Ident(text) = self.peek() else {
                    return None;
                };
                if names_a_variable(text) {
                    return None;
                }
                self.bump().ok()?;
                args.push(ConstSym::new(text));
                match self.bump().ok()? {
                    Token::Comma => {}
                    Token::RParen => break,
                    _ => return None,
                }
            }
        }
        if self.peek() != Token::Dot {
            return None;
        }
        self.bump().ok()?;
        Some(PredSym::new(name))
    }

    fn literal(&mut self) -> Result<Literal, ParseError> {
        if self.peek() == Token::Not {
            self.bump()?;
            Ok(Literal::neg(self.atom()?))
        } else {
            Ok(Literal::pos(self.atom()?))
        }
    }

    /// Parses one clause, pushing each body literal's position onto
    /// `literal_pos`.
    fn clause(&mut self, literal_pos: &mut Vec<Pos>) -> Result<Rule, ParseError> {
        let head_pos = self.pos();
        let head = self.atom()?;
        let mut body = Vec::new();
        if self.peek() == Token::Arrow {
            self.bump()?;
            loop {
                literal_pos.push(self.pos());
                body.push(self.literal()?);
                if self.peek() == Token::Comma {
                    self.bump()?;
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
        Ok(Rule::new(head, body))
    }

    /// Parses every clause up to the end of the input. `clauses` is an
    /// upper bound on their count, used to size the rule vectors.
    fn program(&mut self, clauses: usize) -> Result<Clauses, ParseError> {
        let mut out = Clauses {
            rules: Vec::with_capacity(clauses),
            rule_spans: Vec::with_capacity(clauses),
            literal_pos: Vec::new(),
        };
        while self.peek() != Token::Eof {
            let start = u32::try_from(out.literal_pos.len()).expect("literal count fits u32");
            out.rule_spans.push((self.pos(), start));
            out.rules.push(self.clause(&mut out.literal_pos)?);
        }
        Ok(out)
    }
}

/// Parses a Datalog¬ program from text.
///
/// The lexer runs on demand, one token ahead of the parser; an error
/// reports the first character outside the token language anywhere in
/// the input before any syntax error, as a lex-then-parse front end
/// would.
///
/// # Errors
///
/// [`AstError::Parse`] on syntax errors; [`AstError::Validation`] if a
/// predicate occurs with inconsistent arities.
pub fn parse_program(input: &str) -> Result<Program, AstError> {
    let mut span = tiebreak_trace::span("parse", "parse_program", &[("bytes", input.len() as u64)]);
    let clauses = {
        let _clauses = tiebreak_trace::span("parse", "clauses", &[]);
        // Every clause ends in a `.`, so this bounds the clause count.
        let dots = input.bytes().filter(|&b| b == b'.').count();
        let mut parser = Parser::new(input)?;
        parser
            .program(dots)
            .map_err(|e| parser.first_error(e.into()))?
    };
    span.arg("rules", clauses.rules.len() as u64);
    let _build = tiebreak_trace::span("parse", "build", &[]);
    Ok(Program::parsed(
        clauses.rules,
        clauses.rule_spans,
        clauses.literal_pos,
    )?)
}

/// Parses a database (fact file): every clause must be a ground fact.
///
/// Each fact goes from its tokens straight into its relation through one
/// reused argument buffer. A clause that is not a plain ground fact is
/// re-parsed as a general clause from the saved parser state, which
/// reports the error.
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
    let mut literal_pos = Vec::new();
    while parser.peek() != Token::Eof {
        let start = parser;
        if let Some(pred) = parser.ground_fact(&mut args) {
            db.insert_tuple(pred, &args)
                .map_err(|e| parser.first_error(e.into()))?;
            continue;
        }
        parser = start;
        let pos = parser.pos();
        let rule = parser
            .clause(&mut literal_pos)
            .map_err(|e| parser.first_error(e.into()))?;
        let error = if !rule.is_fact() {
            "expected a fact (no `:-` in fact files)"
        } else if let Some(ground) = rule.head.to_ground() {
            db.insert(ground)
                .map_err(|e| parser.first_error(e.into()))?;
            continue;
        } else {
            "facts must be ground (no variables)"
        };
        return Err(parser.first_error(ParseError::new(pos, error).into()));
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
    fn fact_file_fall_back_keeps_the_error_text() {
        // A clause the fact path cannot take is re-parsed from the saved
        // parser state, and the general clause parser words the error.
        for (input, want) in [
            (
                "e(a, b).\ne(b) :- e(a, b).\n",
                "parse error at 2:1: expected a fact (no `:-` in fact files)",
            ),
            (
                "e(a, b).\n  e(a, Y).\n",
                "parse error at 2:3: facts must be ground (no variables)",
            ),
        ] {
            let err = parse_database(input).unwrap_err();
            assert!(matches!(err, AstError::Parse(_)), "{input:?}: {err:?}");
            assert_eq!(err.to_string(), want, "{input:?}");
        }
    }

    #[test]
    fn a_lexical_error_anywhere_wins_over_a_syntax_error() {
        // The lexer runs on demand, but the reported error is the one a
        // lex-then-parse front end reports: the first bad character in
        // the whole input, even after a syntax or arity error.
        for (input, at) in [("p :- q\nr. @", "2:4"), ("p(X) :- q(X)\nr(a). @", "2:7")] {
            let err = parse_program(input).unwrap_err();
            assert_eq!(
                err.to_string(),
                format!("parse error at {at}: unexpected character `@`"),
                "{input:?}"
            );
        }
        for input in ["e(X).\nf(a). @", "e(a).\ne(a, b).\nf. @", "e(a) :- f.\n\n@"] {
            let err = parse_database(input).unwrap_err().to_string();
            assert!(
                err.ends_with("unexpected character `@`"),
                "{input:?}: {err}"
            );
        }
        let err = parse_database("e(a).\ne(a, b).\nf. @").unwrap_err();
        assert_eq!(
            err.to_string(),
            "parse error at 3:4: unexpected character `@`"
        );
        // Without one, the syntax error stands.
        let err = parse_program("p :- q\nr.").unwrap_err();
        assert_eq!(
            err.to_string(),
            "parse error at 2:1: expected `.` terminating the clause, found `r` \
             (clause starting at 1:1)"
        );
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
        assert_eq!(dups[0].pos.unwrap().line, 3);
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
