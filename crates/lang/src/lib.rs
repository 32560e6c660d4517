//! Mini-C front-end for the SPEX reproduction.
//!
//! The original SPEX consumes C/C++ compiled to LLVM IR by Clang. This crate
//! provides the equivalent front-end for a C-like mini-language in which the
//! configuration-handling code of the subject systems is written: a lexer, a
//! recursive-descent parser, an AST, and a small C-flavoured type system.
//!
//! The language supports exactly the constructs SPEX's pattern recognition
//! relies on: globals with (aggregate) initializers, structs, arrays,
//! pointers, function pointers, the usual statements (`if`/`while`/`for`/
//! `switch`), and calls to a registry of known library functions
//! ([`Builtin`]).
//!
//! # Examples
//!
//! ```
//! use spex_lang::parse_program;
//!
//! let src = r#"
//!     int listener_threads = 16;
//!     void set_threads(char *value) {
//!         listener_threads = atoi(value);
//!     }
//! "#;
//! let program = parse_program(src).unwrap();
//! assert_eq!(program.functions.len(), 1);
//! assert_eq!(program.globals.len(), 1);
//! ```

pub mod ast;
pub mod builtins;
pub mod diag;
pub mod items;
pub mod lexer;
pub mod parser;
pub mod token;
pub mod types;

pub use ast::{Item, Program};
pub use builtins::Builtin;
pub use diag::{Diagnostic, Span};
pub use types::CType;

/// Parses mini-C source text into a [`Program`], one item at a time.
///
/// This is the main entry point of the crate. Returns the first diagnostic
/// encountered on malformed input.
pub fn parse_program(src: &str) -> Result<Program, Diagnostic> {
    let tokens = lexer::Lexer::new(src).lex()?;
    parser::Parser::new(&tokens, 0).parse_program()
}
