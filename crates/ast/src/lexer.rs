//! Lexer for the concrete Datalog¬ syntax.
//!
//! Token language:
//!
//! * identifiers: `[A-Za-z0-9_]+` — classified later by the variable
//!   convention (leading uppercase or `_` ⇒ variable),
//! * punctuation: `(`, `)`, `,`, `.`, `:-`,
//! * negation: the keyword `not`, or the operators `!` and `~`,
//! * comments: `%` and `//` to end of line,
//! * whitespace is insignificant.
//!
//! A [`Lexer`] hands out one token at a time, on demand: identifier
//! tokens borrow their text from the input, so lexing allocates nothing,
//! and the lexer's whole state is a `Copy` cursor that a parser can save
//! and restore to re-read a clause. Positions count characters, not
//! bytes: a column after a multibyte identifier or `¬` is the one an
//! editor shows.

use crate::error::{ParseError, Pos};

/// A lexical token.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Token<'a> {
    /// An identifier (predicate, variable, or constant — classified by the
    /// parser), borrowed from the input.
    Ident(&'a str),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `,`
    Comma,
    /// `.`
    Dot,
    /// `:-`
    Arrow,
    /// `not`, `!`, or `~`
    Not,
    /// End of input.
    Eof,
}

impl std::fmt::Display for Token<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Token::Ident(s) => write!(f, "`{s}`"),
            Token::LParen => f.write_str("`(`"),
            Token::RParen => f.write_str("`)`"),
            Token::Comma => f.write_str("`,`"),
            Token::Dot => f.write_str("`.`"),
            Token::Arrow => f.write_str("`:-`"),
            Token::Not => f.write_str("`not`"),
            Token::Eof => f.write_str("end of input"),
        }
    }
}

/// A token tagged with its source position.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Spanned<'a> {
    /// The token.
    pub token: Token<'a>,
    /// Position of the token's first character.
    pub pos: Pos,
}

/// A cursor over the input: the byte offset and the position of the next
/// character to read.
#[derive(Clone, Copy, Debug)]
pub struct Lexer<'a> {
    input: &'a str,
    at: usize,
    line: u32,
    col: u32,
}

impl<'a> Lexer<'a> {
    /// A lexer at the start of `input`.
    pub fn new(input: &'a str) -> Self {
        Lexer {
            input,
            at: 0,
            line: 1,
            col: 1,
        }
    }

    /// The next token; [`Token::Eof`] at the end of the input, and again
    /// on every later call.
    ///
    /// # Errors
    ///
    /// [`ParseError`] on a character outside the token language. The
    /// cursor stays in front of it, so calling again reports it again.
    pub fn next_token(&mut self) -> Result<Spanned<'a>, ParseError> {
        let input = self.input;
        let bytes = input.as_bytes();
        loop {
            let pos = Pos {
                line: self.line,
                col: self.col,
            };
            let Some(&b) = bytes.get(self.at) else {
                return Ok(Spanned {
                    token: Token::Eof,
                    pos,
                });
            };
            // Single-byte tokens and ASCII whitespace; everything else is
            // decoded as a character below.
            let token = match b {
                b'\n' => {
                    self.at += 1;
                    self.line += 1;
                    self.col = 1;
                    continue;
                }
                b' ' | b'\t' | b'\r' | b'\x0B' | b'\x0C' => {
                    self.at += 1;
                    self.col += 1;
                    continue;
                }
                b'%' => {
                    self.at = skip_line(input, self.at, &mut self.col);
                    continue;
                }
                b'/' => {
                    if bytes.get(self.at + 1) != Some(&b'/') {
                        return Err(ParseError::new(pos, "stray `/` (expected `//` comment)"));
                    }
                    self.at = skip_line(input, self.at, &mut self.col);
                    continue;
                }
                b':' => {
                    if bytes.get(self.at + 1) != Some(&b'-') {
                        return Err(ParseError::new(pos, "stray `:` (expected `:-`)"));
                    }
                    self.at += 2;
                    self.col += 2;
                    return Ok(Spanned {
                        token: Token::Arrow,
                        pos,
                    });
                }
                b'(' => Token::LParen,
                b')' => Token::RParen,
                b',' => Token::Comma,
                b'.' => Token::Dot,
                b'!' | b'~' => Token::Not,
                _ => {
                    let c = input[self.at..].chars().next().expect("in bounds");
                    if c == '¬' || c.is_whitespace() {
                        self.at += c.len_utf8();
                        self.col += 1;
                        if c == '¬' {
                            return Ok(Spanned {
                                token: Token::Not,
                                pos,
                            });
                        }
                        continue;
                    } else if is_ident_char(c) {
                        let start = self.at;
                        while let Some(&b) = bytes.get(self.at) {
                            let len = if b.is_ascii_alphanumeric() || b == b'_' {
                                1
                            } else if b < 0x80 {
                                break;
                            } else {
                                match input[self.at..].chars().next() {
                                    Some(c) if is_ident_char(c) => c.len_utf8(),
                                    _ => break,
                                }
                            };
                            self.at += len;
                            self.col += 1;
                        }
                        let ident = &input[start..self.at];
                        let token = if ident == "not" {
                            Token::Not
                        } else {
                            Token::Ident(ident)
                        };
                        return Ok(Spanned { token, pos });
                    }
                    return Err(ParseError::new(pos, format!("unexpected character `{c}`")));
                }
            };
            // A one-byte token.
            self.at += 1;
            self.col += 1;
            return Ok(Spanned { token, pos });
        }
    }
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Skips a comment from byte `at` up to (not including) the next line
/// break, advancing `col` by the characters skipped; returns the byte
/// position of the line break or the end of the input.
fn skip_line(input: &str, at: usize, col: &mut u32) -> usize {
    let end = input[at..].find('\n').map_or(input.len(), |n| at + n);
    *col += input[at..end].chars().count() as u32;
    end
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every token of `input`, through the end-of-input token.
    fn lex(input: &str) -> Result<Vec<Spanned<'_>>, ParseError> {
        let mut lexer = Lexer::new(input);
        let mut out = Vec::new();
        loop {
            let next = lexer.next_token()?;
            out.push(next);
            if next.token == Token::Eof {
                return Ok(out);
            }
        }
    }

    fn kinds(input: &str) -> Vec<Token<'_>> {
        lex(input).unwrap().into_iter().map(|s| s.token).collect()
    }

    #[test]
    fn lexes_a_rule() {
        let toks = kinds("win(X) :- move(X, Y), not win(Y).");
        assert_eq!(
            toks,
            vec![
                Token::Ident("win"),
                Token::LParen,
                Token::Ident("X"),
                Token::RParen,
                Token::Arrow,
                Token::Ident("move"),
                Token::LParen,
                Token::Ident("X"),
                Token::Comma,
                Token::Ident("Y"),
                Token::RParen,
                Token::Comma,
                Token::Not,
                Token::Ident("win"),
                Token::LParen,
                Token::Ident("Y"),
                Token::RParen,
                Token::Dot,
                Token::Eof,
            ]
        );
    }

    #[test]
    fn negation_spellings() {
        assert_eq!(
            kinds("not !  ~ ¬"),
            vec![Token::Not; 4]
                .into_iter()
                .chain([Token::Eof])
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn comments_are_skipped() {
        let toks = kinds("p. % trailing comment\n// full line\nq.");
        assert_eq!(
            toks,
            vec![
                Token::Ident("p"),
                Token::Dot,
                Token::Ident("q"),
                Token::Dot,
                Token::Eof
            ]
        );
    }

    #[test]
    fn positions_are_tracked() {
        let toks = lex("p.\n q.").unwrap();
        assert_eq!(toks[0].pos, Pos { line: 1, col: 1 });
        assert_eq!(toks[2].pos, Pos { line: 2, col: 2 }); // `q`
    }

    #[test]
    fn columns_count_characters_not_bytes() {
        // `¬` and `é` are two bytes each but one column each.
        let toks = lex("¬pé(X), q.").unwrap();
        assert_eq!(toks[1].token, Token::Ident("pé"));
        let cols: Vec<u32> = toks.iter().map(|t| t.pos.col).collect();
        assert_eq!(cols, vec![1, 2, 4, 5, 6, 7, 9, 10, 11]);
        let err = lex("pé @").unwrap_err();
        assert_eq!(err.pos, Pos { line: 1, col: 4 });
        // Comments count characters too, up to the end of the input.
        let toks = lex("p %é\u{85}é").unwrap();
        assert_eq!(toks[1].pos, Pos { line: 1, col: 7 });
        let toks = lex("% é\n\u{85}q").unwrap();
        assert_eq!(toks[0].pos, Pos { line: 2, col: 2 });
    }

    #[test]
    fn stray_colon_is_an_error() {
        let err = lex("p :").unwrap_err();
        assert!(err.message.contains(":-"));
    }

    #[test]
    fn unexpected_character() {
        let err = lex("p @ q").unwrap_err();
        assert!(err.message.contains('@'));
        assert_eq!(err.pos, Pos { line: 1, col: 3 });
    }

    #[test]
    fn numeric_identifiers_allowed() {
        let toks = kinds("succ(0, 1).");
        assert_eq!(toks[2], Token::Ident("0"));
    }
}
