//! Token definitions for the mini-C lexer.

use crate::diag::Span;
use std::fmt;
use std::hash::{Hash, Hasher};

/// A lexical token kind. Identifiers and string literals borrow the source
/// text, so lexing allocates nothing per token and a token is `Copy`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TokenKind<'a> {
    // Literals.
    /// Integer literal (decimal, hex `0x`, or octal `0`), value and whether a
    /// `L`/`LL` suffix was present.
    Int(i64, bool),
    /// Floating-point literal.
    Float(f64),
    /// String literal: the source text between the quotes, escapes
    /// validated but not resolved (see [`unescape`]).
    Str(&'a str),
    /// Character literal.
    Char(char),
    /// Identifier or keyword candidate.
    Ident(&'a str),

    // Keywords.
    KwInt,
    KwLong,
    KwShort,
    KwChar,
    KwBool,
    KwFloat,
    KwDouble,
    KwVoid,
    KwUnsigned,
    KwSigned,
    KwStruct,
    KwEnum,
    KwIf,
    KwElse,
    KwWhile,
    KwDo,
    KwFor,
    KwSwitch,
    KwCase,
    KwDefault,
    KwBreak,
    KwContinue,
    KwReturn,
    KwStatic,
    KwConst,
    KwExtern,
    KwSizeof,
    KwNull,
    KwTrue,
    KwFalse,

    // Punctuation and operators.
    LParen,
    RParen,
    LBrace,
    RBrace,
    LBracket,
    RBracket,
    Semi,
    Comma,
    Colon,
    Question,
    Dot,
    Arrow,
    Plus,
    Minus,
    Star,
    Slash,
    Percent,
    Amp,
    Pipe,
    Caret,
    Tilde,
    Bang,
    Lt,
    Gt,
    Le,
    Ge,
    EqEq,
    Ne,
    AmpAmp,
    PipePipe,
    Shl,
    Shr,
    Eq,
    PlusEq,
    MinusEq,
    StarEq,
    SlashEq,
    PercentEq,
    AmpEq,
    PipeEq,
    CaretEq,
    ShlEq,
    ShrEq,
    PlusPlus,
    MinusMinus,

    /// End of input.
    Eof,
}

/// Hashes what the parser reads of a token: its kind and payload, never
/// its position (the key of an item, see [`crate::items`]).
impl Hash for TokenKind<'_> {
    fn hash<H: Hasher>(&self, h: &mut H) {
        std::mem::discriminant(self).hash(h);
        match self {
            TokenKind::Int(v, long) => {
                v.hash(h);
                long.hash(h);
            }
            TokenKind::Float(v) => v.to_bits().hash(h),
            TokenKind::Str(s) | TokenKind::Ident(s) => s.hash(h),
            TokenKind::Char(c) => c.hash(h),
            _ => {}
        }
    }
}

/// Resolves the escapes of a string literal's source text (the lexer has
/// validated them). Each other byte becomes the `char` of that value, as
/// the lexer has always read string bytes.
pub fn unescape(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len());
    let mut bytes = raw.bytes();
    while let Some(b) = bytes.next() {
        out.push(match b {
            b'\\' => escaped(bytes.next().unwrap_or(0)).unwrap_or('\\'),
            b => b as char,
        });
    }
    out
}

/// The character an escape `\c` stands for, if `c` names one.
pub(crate) fn escaped(c: u8) -> Option<char> {
    Some(match c {
        b'n' => '\n',
        b't' => '\t',
        b'r' => '\r',
        b'0' => '\0',
        b'\\' => '\\',
        b'\'' => '\'',
        b'"' => '"',
        _ => return None,
    })
}

impl fmt::Display for TokenKind<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use TokenKind::*;
        match self {
            Int(v, _) => write!(f, "{v}"),
            Float(v) => write!(f, "{v}"),
            Str(s) => write!(f, "{:?}", unescape(s)),
            Char(c) => write!(f, "'{c}'"),
            Ident(s) => write!(f, "{s}"),
            KwInt => write!(f, "int"),
            KwLong => write!(f, "long"),
            KwShort => write!(f, "short"),
            KwChar => write!(f, "char"),
            KwBool => write!(f, "bool"),
            KwFloat => write!(f, "float"),
            KwDouble => write!(f, "double"),
            KwVoid => write!(f, "void"),
            KwUnsigned => write!(f, "unsigned"),
            KwSigned => write!(f, "signed"),
            KwStruct => write!(f, "struct"),
            KwEnum => write!(f, "enum"),
            KwIf => write!(f, "if"),
            KwElse => write!(f, "else"),
            KwWhile => write!(f, "while"),
            KwDo => write!(f, "do"),
            KwFor => write!(f, "for"),
            KwSwitch => write!(f, "switch"),
            KwCase => write!(f, "case"),
            KwDefault => write!(f, "default"),
            KwBreak => write!(f, "break"),
            KwContinue => write!(f, "continue"),
            KwReturn => write!(f, "return"),
            KwStatic => write!(f, "static"),
            KwConst => write!(f, "const"),
            KwExtern => write!(f, "extern"),
            KwSizeof => write!(f, "sizeof"),
            KwNull => write!(f, "NULL"),
            KwTrue => write!(f, "true"),
            KwFalse => write!(f, "false"),
            LParen => write!(f, "("),
            RParen => write!(f, ")"),
            LBrace => write!(f, "{{"),
            RBrace => write!(f, "}}"),
            LBracket => write!(f, "["),
            RBracket => write!(f, "]"),
            Semi => write!(f, ";"),
            Comma => write!(f, ","),
            Colon => write!(f, ":"),
            Question => write!(f, "?"),
            Dot => write!(f, "."),
            Arrow => write!(f, "->"),
            Plus => write!(f, "+"),
            Minus => write!(f, "-"),
            Star => write!(f, "*"),
            Slash => write!(f, "/"),
            Percent => write!(f, "%"),
            Amp => write!(f, "&"),
            Pipe => write!(f, "|"),
            Caret => write!(f, "^"),
            Tilde => write!(f, "~"),
            Bang => write!(f, "!"),
            Lt => write!(f, "<"),
            Gt => write!(f, ">"),
            Le => write!(f, "<="),
            Ge => write!(f, ">="),
            EqEq => write!(f, "=="),
            Ne => write!(f, "!="),
            AmpAmp => write!(f, "&&"),
            PipePipe => write!(f, "||"),
            Shl => write!(f, "<<"),
            Shr => write!(f, ">>"),
            Eq => write!(f, "="),
            PlusEq => write!(f, "+="),
            MinusEq => write!(f, "-="),
            StarEq => write!(f, "*="),
            SlashEq => write!(f, "/="),
            PercentEq => write!(f, "%="),
            AmpEq => write!(f, "&="),
            PipeEq => write!(f, "|="),
            CaretEq => write!(f, "^="),
            ShlEq => write!(f, "<<="),
            ShrEq => write!(f, ">>="),
            PlusPlus => write!(f, "++"),
            MinusMinus => write!(f, "--"),
            Eof => write!(f, "<eof>"),
        }
    }
}

/// A token with its source location.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Token<'a> {
    /// What kind of token this is.
    pub kind: TokenKind<'a>,
    /// Where the token starts.
    pub span: Span,
}

impl<'a> Token<'a> {
    /// Creates a token.
    pub fn new(kind: TokenKind<'a>, span: Span) -> Self {
        Token { kind, span }
    }
}

/// Maps an identifier to its keyword kind, if it is a keyword.
pub fn keyword(ident: &str) -> Option<TokenKind<'static>> {
    use TokenKind::*;
    Some(match ident {
        "int" => KwInt,
        "long" => KwLong,
        "short" => KwShort,
        "char" => KwChar,
        "bool" => KwBool,
        "float" => KwFloat,
        "double" => KwDouble,
        "void" => KwVoid,
        "unsigned" => KwUnsigned,
        "signed" => KwSigned,
        "struct" => KwStruct,
        "enum" => KwEnum,
        "if" => KwIf,
        "else" => KwElse,
        "while" => KwWhile,
        "do" => KwDo,
        "for" => KwFor,
        "switch" => KwSwitch,
        "case" => KwCase,
        "default" => KwDefault,
        "break" => KwBreak,
        "continue" => KwContinue,
        "return" => KwReturn,
        "static" => KwStatic,
        "const" => KwConst,
        "extern" => KwExtern,
        "sizeof" => KwSizeof,
        "NULL" => KwNull,
        "true" => KwTrue,
        "false" => KwFalse,
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keyword_lookup() {
        assert_eq!(keyword("if"), Some(TokenKind::KwIf));
        assert_eq!(keyword("switch"), Some(TokenKind::KwSwitch));
        assert_eq!(keyword("listener_threads"), None);
    }

    #[test]
    fn string_tokens_keep_source_text_and_unescape_on_demand() {
        let raw = r#"a\tb\"c\\"#;
        assert_eq!(unescape(raw), "a\tb\"c\\");
        assert_eq!(TokenKind::Str(raw).to_string(), r#""a\tb\"c\\""#);
        // A byte outside ASCII reads as the char of its value, as lexing
        // always has.
        assert_eq!(unescape("é"), "\u{c3}\u{a9}");
    }

    #[test]
    fn display_round_trip_for_punct() {
        assert_eq!(TokenKind::Arrow.to_string(), "->");
        assert_eq!(TokenKind::ShlEq.to_string(), "<<=");
        assert_eq!(TokenKind::Int(42, false).to_string(), "42");
    }
}
