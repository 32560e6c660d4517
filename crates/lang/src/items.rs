//! A lexed module's top-level items, each keyed by its tokens.
//!
//! One brace-depth walk over the tokens ([`split_items`]) splits a module
//! into its items — struct, enum, global and function — and hashes each
//! item's tokens without their positions, a function's signature apart from
//! its body. Two well-formed items with equal keys parse to the same AST
//! up to spans (such an item's parse reads only its own tokens, see
//! [`crate::parser`]), so an edit need only re-parse the items whose key
//! changed, and a comment, whitespace or line-shifting edit changes no key
//! at all.
//!
//! The walk never reports an error: a malformed module still splits (the
//! last item may run to the end), and it is the parse that rejects it.
//! Whoever trusts a split therefore checks that the parser ends each item
//! where the walk did (`Parser::parse_item` followed by `Parser::pos`).

use crate::token::{Token, TokenKind};
use std::hash::{Hash, Hasher};

/// A streaming [`Hasher`] that is the same on every run and platform (no
/// `RandomState`). Bytes mix one at a time as in 64-bit FNV-1a, so over
/// one byte string it is FNV-1a. A wider integer mixes as one word: it is
/// xored into the state, which then goes through the MurmurHash3
/// finalizer, a bijection in which every input bit reaches every output
/// bit. (An FNV multiply alone only carries a bit upwards, so the high
/// byte of a word would reach only the top byte of the hash, and flips of
/// the top bit in two words would cancel.)
#[derive(Debug, Clone, Copy)]
pub struct StableHasher(u64);

impl StableHasher {
    /// The empty hash (the FNV offset basis).
    pub const fn new() -> StableHasher {
        StableHasher(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        let mut x = self.0 ^ w;
        x = (x ^ (x >> 33)).wrapping_mul(0xff51_afd7_ed55_8ccd);
        x = (x ^ (x >> 33)).wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        self.0 = x ^ (x >> 33);
    }
}

impl Default for StableHasher {
    fn default() -> StableHasher {
        StableHasher::new()
    }
}

impl Hasher for StableHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 = (self.0 ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn write_u32(&mut self, i: u32) {
        self.word(u64::from(i));
    }

    fn write_u64(&mut self, i: u64) {
        self.word(i);
    }

    fn write_i64(&mut self, i: i64) {
        self.word(i as u64);
    }

    fn write_usize(&mut self, i: usize) {
        self.word(i as u64);
    }

    fn write_isize(&mut self, i: isize) {
        self.word(i as u64);
    }
}

/// What kind of top-level item a token range is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ItemKind {
    /// `struct X { ... };`
    Struct,
    /// `enum X { ... };`
    Enum,
    /// A global variable, with or without an initializer.
    Global,
    /// A function definition.
    Function,
}

impl crate::ast::Item {
    /// This parsed item's kind.
    pub fn kind(&self) -> ItemKind {
        use crate::ast::Item;
        match self {
            Item::Struct(_) => ItemKind::Struct,
            Item::Enum(_) => ItemKind::Enum,
            Item::Global(_) => ItemKind::Global,
            Item::Function(_) => ItemKind::Function,
        }
    }
}

/// An item's key: hashes of its tokens without their positions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ItemKey {
    /// The item's kind.
    pub kind: ItemKind,
    /// A function's signature (qualifiers to `)`), or the whole of any
    /// other item.
    pub head: u64,
    /// A function's body, `{` to `}`; 0 for other items.
    pub body: u64,
}

/// One item of a token stream: its key and its token range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ItemSpan {
    /// The item's key.
    pub key: ItemKey,
    /// Index of its first token.
    pub start: usize,
    /// Index one past its last token.
    pub end: usize,
}

/// Splits a lexed module (ending in `Eof`) into its top-level items with
/// one brace-depth walk. An item ends at a `;` outside braces, or — for a
/// function, whose body is the first outer `{` that follows a `)` — at
/// the `}` closing that body.
pub fn split_items(tokens: &[Token<'_>]) -> Vec<ItemSpan> {
    let last = tokens.len().saturating_sub(1);
    let mut items = Vec::new();
    let mut i = 0;
    while i < last {
        let start = i;
        let mut head = StableHasher::new();
        let mut body: Option<StableHasher> = None;
        let mut depth = 0usize;
        while i < last {
            let t = &tokens[i].kind;
            match t {
                TokenKind::LBrace => {
                    if depth == 0
                        && body.is_none()
                        && i > start
                        && tokens[i - 1].kind == TokenKind::RParen
                    {
                        body = Some(StableHasher::new());
                    }
                    depth += 1;
                }
                TokenKind::RBrace => depth = depth.saturating_sub(1),
                _ => {}
            }
            t.hash(body.as_mut().unwrap_or(&mut head));
            i += 1;
            if depth == 0 && (*t == TokenKind::Semi || (*t == TokenKind::RBrace && body.is_some()))
            {
                break;
            }
        }
        let kind = match (definition(&tokens[start..i]), &body) {
            (Some(kind), _) => kind,
            (None, Some(_)) => ItemKind::Function,
            (None, None) => ItemKind::Global,
        };
        kind.hash(&mut head);
        items.push(ItemSpan {
            key: ItemKey {
                kind,
                head: head.finish(),
                body: body.map_or(0, |b| b.finish()),
            },
            start,
            end: i,
        });
    }
    items
}

/// `Struct` or `Enum` when the item is a type definition, the way the
/// parser tells one from a variable of that type: qualifiers, the keyword,
/// a tag, then `{`.
fn definition(item: &[Token<'_>]) -> Option<ItemKind> {
    let at = item.iter().position(|t| {
        !matches!(
            t.kind,
            TokenKind::KwStatic | TokenKind::KwConst | TokenKind::KwExtern
        )
    })?;
    let kind = match item[at].kind {
        TokenKind::KwStruct => ItemKind::Struct,
        TokenKind::KwEnum => ItemKind::Enum,
        _ => return None,
    };
    match item.get(at + 1..at + 3)? {
        [Token {
            kind: TokenKind::Ident(_),
            ..
        }, Token {
            kind: TokenKind::LBrace,
            ..
        }] => Some(kind),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::Lexer;
    use crate::parser::Parser;

    fn split(src: &str) -> (Vec<Token<'_>>, Vec<ItemSpan>) {
        let tokens = Lexer::new(src).lex().unwrap();
        let items = split_items(&tokens);
        (tokens, items)
    }

    #[test]
    fn splits_every_kind_of_item_where_the_parser_ends_it() {
        let src = r#"
            static const int a = 1; struct opt { char* name; int* var; };
            enum mode { OFF, ON = 5 };
            struct opt options[] = { { "a", &a } };
            enum mode m = OFF;
            int f(int x) { if (x) { return 1; } return 0; } void g(void) { f(a); }
        "#;
        let (tokens, items) = split(src);
        let kinds: Vec<ItemKind> = items.iter().map(|i| i.key.kind).collect();
        use ItemKind::*;
        assert_eq!(
            kinds,
            vec![Global, Struct, Enum, Global, Global, Function, Function]
        );
        for item in &items {
            let mut parser = Parser::new(&tokens, item.start);
            let parsed = parser.parse_item().unwrap();
            assert_eq!(parsed.kind(), item.key.kind);
            assert_eq!(parser.pos(), item.end);
            assert_eq!(item.key.body != 0, item.key.kind == Function);
            let span = match parsed {
                crate::ast::Item::Global(g) => g.span,
                crate::ast::Item::Function(f) => f.span,
                _ => continue,
            };
            let mut parser = Parser::new(&tokens, item.start);
            assert_eq!(parser.item_name_span().unwrap(), span);
        }
        assert_eq!(items.last().unwrap().end, tokens.len() - 1);
    }

    #[test]
    fn keys_ignore_positions_and_split_signature_from_body() {
        let (_, a) = split("int x = 1;\nvoid f(int v) { exit(v); }");
        let (_, b) = split("// moved\n\n  int x =\n 1;   void f(int v)\n{\n exit(v);\n}\n");
        assert_eq!(
            a.iter().map(|i| i.key).collect::<Vec<_>>(),
            b.iter().map(|i| i.key).collect::<Vec<_>>()
        );
        let (_, body) = split("int x = 1;\nvoid f(int v) { exit(v + 1); }");
        assert_eq!(body[0].key, a[0].key);
        assert_eq!(body[1].key.head, a[1].key.head);
        assert_ne!(body[1].key.body, a[1].key.body);
        let (_, sig) = split("int x = 1;\nvoid f(long v) { exit(v); }");
        assert_ne!(sig[1].key.head, a[1].key.head);
        assert_eq!(sig[1].key.body, a[1].key.body);
    }

    /// Every bit of every byte must reach the key: the two literals differ
    /// only in their 8th byte, which a word-at-a-time multiply would carry
    /// into the key's top byte alone.
    #[test]
    fn bodies_differing_in_one_byte_of_two_literals_get_distinct_keys() {
        let printable: Vec<char> = (' '..='~').filter(|c| !matches!(c, '"' | '\\')).collect();
        let mut keys = std::collections::HashSet::new();
        for a in &printable {
            for b in &printable {
                let src = format!("void f() {{ g(\"abcdefg{a}\"); g(\"abcdefg{b}\"); }}");
                let (_, items) = split(&src);
                assert!(keys.insert(items[0].key.body), "{src}");
            }
        }
        assert_eq!(keys.len(), 93 * 93);
    }

    #[test]
    fn literals_holding_braces_and_semicolons_do_not_split() {
        let (_, items) = split(r#"char* s = "{;}//"; void f() { g('}'); g("};"); }"#);
        assert_eq!(items.len(), 2);
        assert_eq!(items[1].key.kind, ItemKind::Function);
    }

    #[test]
    fn malformed_modules_still_split_without_panicking() {
        for src in ["}", "void f() {", "int x", ";;", "struct", "void f() { } }"] {
            let (tokens, items) = split(src);
            assert!(items
                .iter()
                .all(|i| i.start < i.end && i.end < tokens.len()));
        }
    }
}
