//! Hand-written lexer for the mini-C language.

use crate::diag::{Diagnostic, Span};
use crate::token::{escaped, keyword, Token, TokenKind};

/// Converts source text into a token stream. Identifiers and string
/// literals are slices of the source, so lexing allocates only the token
/// vector.
pub struct Lexer<'a> {
    text: &'a str,
    src: &'a [u8],
    pos: usize,
    line: u32,
    col: u32,
}

impl<'a> Lexer<'a> {
    /// Creates a lexer over `src`.
    pub fn new(src: &'a str) -> Self {
        Lexer {
            text: src,
            src: src.as_bytes(),
            pos: 0,
            line: 1,
            col: 1,
        }
    }

    /// Lexes the whole input, ending with an [`TokenKind::Eof`] token.
    pub fn lex(mut self) -> Result<Vec<Token<'a>>, Diagnostic> {
        // Code runs about one token per five bytes; room for one per four
        // spares the vector a regrowth.
        let mut out = Vec::with_capacity(self.src.len() / 4 + 1);
        loop {
            self.skip_trivia()?;
            let span = self.span();
            if self.at_end() {
                out.push(Token::new(TokenKind::Eof, span));
                return Ok(out);
            }
            let kind = self.next_token()?;
            out.push(Token::new(kind, span));
        }
    }

    fn span(&self) -> Span {
        Span::new(self.line, self.col)
    }

    fn at_end(&self) -> bool {
        self.pos >= self.src.len()
    }

    fn peek(&self) -> u8 {
        *self.src.get(self.pos).unwrap_or(&0)
    }

    fn peek2(&self) -> u8 {
        *self.src.get(self.pos + 1).unwrap_or(&0)
    }

    /// Skips the bytes `keep` accepts in one step; `keep` must reject
    /// `\n`, so only the column moves.
    fn skip_run(&mut self, keep: impl Fn(u8) -> bool) {
        let rest = self.src.get(self.pos..).unwrap_or_default();
        let run = rest.iter().take_while(|&&b| keep(b)).count();
        self.pos += run;
        self.col += run as u32;
    }

    fn bump(&mut self) -> u8 {
        let c = self.peek();
        self.pos += 1;
        if c == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        c
    }

    fn skip_trivia(&mut self) -> Result<(), Diagnostic> {
        loop {
            match self.peek() {
                b' ' | b'\t' | b'\r' => self.skip_run(|b| matches!(b, b' ' | b'\t' | b'\r')),
                b'\n' => {
                    self.bump();
                }
                b'/' if self.peek2() == b'/' => self.skip_run(|b| b != b'\n'),
                b'/' if self.peek2() == b'*' => {
                    let start = self.span();
                    self.bump();
                    self.bump();
                    loop {
                        if self.at_end() {
                            return Err(Diagnostic::new(start, "unterminated block comment"));
                        }
                        if self.peek() == b'*' && self.peek2() == b'/' {
                            self.bump();
                            self.bump();
                            break;
                        }
                        self.bump();
                    }
                }
                // Preprocessor-style lines are tolerated and skipped so that
                // excerpts of real C code can be pasted into subject systems.
                b'#' if self.col == 1 => self.skip_run(|b| b != b'\n'),
                _ => return Ok(()),
            }
            if self.at_end() {
                return Ok(());
            }
        }
    }

    fn next_token(&mut self) -> Result<TokenKind<'a>, Diagnostic> {
        let c = self.peek();
        match c {
            b'0'..=b'9' => self.lex_number(),
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => Ok(self.lex_ident()),
            b'"' => self.lex_string(),
            b'\'' => self.lex_char(),
            _ => self.lex_punct(),
        }
    }

    fn lex_ident(&mut self) -> TokenKind<'a> {
        let start = self.pos;
        self.skip_run(|b| b.is_ascii_alphanumeric() || b == b'_');
        // ASCII bytes on both ends, so the slice is on char boundaries.
        let text = &self.text[start..self.pos];
        keyword(text).unwrap_or(TokenKind::Ident(text))
    }

    fn lex_number(&mut self) -> Result<TokenKind<'a>, Diagnostic> {
        let span = self.span();
        let start = self.pos;
        if self.peek() == b'0' && (self.peek2() == b'x' || self.peek2() == b'X') {
            self.bump();
            self.bump();
            let hex_start = self.pos;
            self.skip_run(|b| b.is_ascii_hexdigit());
            let text = std::str::from_utf8(&self.src[hex_start..self.pos]).expect("ascii");
            let value = i64::from_str_radix(text, 16)
                .map_err(|_| Diagnostic::new(span, format!("invalid hex literal 0x{text}")))?;
            let long = self.eat_int_suffix();
            return Ok(TokenKind::Int(value, long));
        }
        self.skip_run(|b| b.is_ascii_digit());
        // Float: digits '.' digits, optionally exponent.
        if self.peek() == b'.' && self.peek2().is_ascii_digit() {
            self.bump();
            while self.peek().is_ascii_digit() {
                self.bump();
            }
            if matches!(self.peek(), b'e' | b'E') {
                self.bump();
                if matches!(self.peek(), b'+' | b'-') {
                    self.bump();
                }
                while self.peek().is_ascii_digit() {
                    self.bump();
                }
            }
            let text = std::str::from_utf8(&self.src[start..self.pos]).expect("ascii");
            let value = text
                .parse::<f64>()
                .map_err(|_| Diagnostic::new(span, format!("invalid float literal {text}")))?;
            return Ok(TokenKind::Float(value));
        }
        let text = std::str::from_utf8(&self.src[start..self.pos]).expect("ascii");
        let value = text
            .parse::<i64>()
            .map_err(|_| Diagnostic::new(span, format!("integer literal out of range: {text}")))?;
        let long = self.eat_int_suffix();
        Ok(TokenKind::Int(value, long))
    }

    fn eat_int_suffix(&mut self) -> bool {
        let mut long = false;
        while matches!(self.peek(), b'l' | b'L' | b'u' | b'U') {
            if matches!(self.peek(), b'l' | b'L') {
                long = true;
            }
            self.bump();
        }
        long
    }

    fn lex_string(&mut self) -> Result<TokenKind<'a>, Diagnostic> {
        let span = self.span();
        self.bump(); // Opening quote.
        let start = self.pos;
        loop {
            if self.at_end() {
                return Err(Diagnostic::new(span, "unterminated string literal"));
            }
            match self.bump() {
                b'"' => break,
                b'\\' => {
                    self.escape(span)?;
                }
                _ => {}
            }
        }
        // Between two ASCII quotes, so the slice is on char boundaries.
        Ok(TokenKind::Str(&self.text[start..self.pos - 1]))
    }

    fn lex_char(&mut self) -> Result<TokenKind<'a>, Diagnostic> {
        let span = self.span();
        self.bump(); // Opening quote.
        let c = match self.bump() {
            b'\\' => self.escape(span)?,
            0 => return Err(Diagnostic::new(span, "unterminated char literal")),
            c => c as char,
        };
        if self.bump() != b'\'' {
            return Err(Diagnostic::new(span, "unterminated char literal"));
        }
        Ok(TokenKind::Char(c))
    }

    fn escape(&mut self, span: Span) -> Result<char, Diagnostic> {
        let c = self.bump();
        escaped(c).ok_or_else(|| {
            Diagnostic::new(span, format!("unknown escape sequence \\{}", c as char))
        })
    }

    fn lex_punct(&mut self) -> Result<TokenKind<'a>, Diagnostic> {
        use TokenKind::*;
        let span = self.span();
        let c = self.bump();
        let two = |l: &mut Self, next: u8, yes: TokenKind<'a>, no: TokenKind<'a>| {
            if l.peek() == next {
                l.bump();
                yes
            } else {
                no
            }
        };
        Ok(match c {
            b'(' => LParen,
            b')' => RParen,
            b'{' => LBrace,
            b'}' => RBrace,
            b'[' => LBracket,
            b']' => RBracket,
            b';' => Semi,
            b',' => Comma,
            b':' => Colon,
            b'?' => Question,
            b'.' => Dot,
            b'~' => Tilde,
            b'+' => {
                if self.peek() == b'+' {
                    self.bump();
                    PlusPlus
                } else {
                    two(self, b'=', PlusEq, Plus)
                }
            }
            b'-' => {
                if self.peek() == b'-' {
                    self.bump();
                    MinusMinus
                } else if self.peek() == b'>' {
                    self.bump();
                    Arrow
                } else {
                    two(self, b'=', MinusEq, Minus)
                }
            }
            b'*' => two(self, b'=', StarEq, Star),
            b'/' => two(self, b'=', SlashEq, Slash),
            b'%' => two(self, b'=', PercentEq, Percent),
            b'^' => two(self, b'=', CaretEq, Caret),
            b'!' => two(self, b'=', Ne, Bang),
            b'=' => two(self, b'=', EqEq, Eq),
            b'&' => {
                if self.peek() == b'&' {
                    self.bump();
                    AmpAmp
                } else {
                    two(self, b'=', AmpEq, Amp)
                }
            }
            b'|' => {
                if self.peek() == b'|' {
                    self.bump();
                    PipePipe
                } else {
                    two(self, b'=', PipeEq, Pipe)
                }
            }
            b'<' => {
                if self.peek() == b'<' {
                    self.bump();
                    two(self, b'=', ShlEq, Shl)
                } else {
                    two(self, b'=', Le, Lt)
                }
            }
            b'>' => {
                if self.peek() == b'>' {
                    self.bump();
                    two(self, b'=', ShrEq, Shr)
                } else {
                    two(self, b'=', Ge, Gt)
                }
            }
            _ => {
                return Err(Diagnostic::new(
                    span,
                    format!("unexpected character '{}'", c as char),
                ))
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::token::TokenKind as T;

    fn kinds(src: &str) -> Vec<T<'_>> {
        Lexer::new(src)
            .lex()
            .unwrap()
            .into_iter()
            .map(|t| t.kind)
            .collect()
    }

    #[test]
    fn lexes_simple_assignment() {
        assert_eq!(
            kinds("x = 42;"),
            vec![T::Ident("x"), T::Eq, T::Int(42, false), T::Semi, T::Eof]
        );
    }

    #[test]
    fn lexes_keywords_and_idents() {
        assert_eq!(
            kinds("if while listener"),
            vec![T::KwIf, T::KwWhile, T::Ident("listener"), T::Eof]
        );
    }

    #[test]
    fn lexes_hex_and_long() {
        assert_eq!(kinds("0x10"), vec![T::Int(16, false), T::Eof]);
        assert_eq!(kinds("5L"), vec![T::Int(5, true), T::Eof]);
        assert_eq!(kinds("7UL"), vec![T::Int(7, true), T::Eof]);
    }

    #[test]
    fn lexes_float() {
        assert_eq!(kinds("3.25"), vec![T::Float(3.25), T::Eof]);
        assert_eq!(kinds("1.5e2"), vec![T::Float(150.0), T::Eof]);
    }

    #[test]
    fn lexes_string_with_escapes() {
        assert_eq!(kinds(r#""a\nb\"c""#), vec![T::Str(r#"a\nb\"c"#), T::Eof]);
    }

    #[test]
    fn lexes_char_literal() {
        assert_eq!(kinds("'x'"), vec![T::Char('x'), T::Eof]);
        assert_eq!(kinds(r"'\n'"), vec![T::Char('\n'), T::Eof]);
    }

    #[test]
    fn skips_comments() {
        assert_eq!(
            kinds("a // line\n/* block\nmore */ b"),
            vec![T::Ident("a"), T::Ident("b"), T::Eof]
        );
    }

    #[test]
    fn skips_preprocessor_lines() {
        assert_eq!(kinds("#include <stdio.h>\nx"), vec![T::Ident("x"), T::Eof]);
    }

    #[test]
    fn lexes_compound_operators() {
        assert_eq!(
            kinds("a->b <<= 1 && c >= 2"),
            vec![
                T::Ident("a"),
                T::Arrow,
                T::Ident("b"),
                T::ShlEq,
                T::Int(1, false),
                T::AmpAmp,
                T::Ident("c"),
                T::Ge,
                T::Int(2, false),
                T::Eof
            ]
        );
    }

    #[test]
    fn tracks_line_numbers() {
        let toks = Lexer::new("a\nb\n  c").lex().unwrap();
        assert_eq!(toks[0].span.line, 1);
        assert_eq!(toks[1].span.line, 2);
        assert_eq!(toks[2].span.line, 3);
        assert_eq!(toks[2].span.col, 3);
    }

    #[test]
    fn reports_unterminated_string() {
        let err = Lexer::new("\"abc").lex().unwrap_err();
        assert!(err.message.contains("unterminated"));
    }

    #[test]
    fn reports_unknown_character() {
        let err = Lexer::new("@").lex().unwrap_err();
        assert!(err.message.contains("unexpected character"));
    }

    #[test]
    fn ternary_tokens() {
        assert_eq!(
            kinds("a ? b : c"),
            vec![
                T::Ident("a"),
                T::Question,
                T::Ident("b"),
                T::Colon,
                T::Ident("c"),
                T::Eof
            ]
        );
    }
}
