//! The C-flavoured type system of the mini language.

use std::fmt;

/// A C-like type.
///
/// Bit widths are explicit because SPEX reports basic-type constraints like
/// "32-bit integer" (Figure 3a of the paper).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum CType {
    /// `void`.
    Void,
    /// `bool`.
    Bool,
    /// Integer with the given width in bits (8, 16, 32 or 64) and signedness.
    Int { bits: u8, signed: bool },
    /// Floating-point number of the given width (32 or 64).
    Float { bits: u8 },
    /// Pointer to another type; `char*` doubles as the string type.
    Ptr(Box<CType>),
    /// Fixed-size array.
    Array(Box<CType>, usize),
    /// Named struct type.
    Struct(String),
    /// Named enum type (represented as `int` at runtime).
    Enum(String),
    /// Pointer to a function (signature is not tracked at the type level).
    FuncPtr,
}

impl CType {
    /// The `int` type (32-bit signed).
    pub fn int() -> Self {
        CType::Int {
            bits: 32,
            signed: true,
        }
    }

    /// The `long` type (64-bit signed).
    pub fn long() -> Self {
        CType::Int {
            bits: 64,
            signed: true,
        }
    }

    /// The `char` type (8-bit signed).
    pub fn char_ty() -> Self {
        CType::Int {
            bits: 8,
            signed: true,
        }
    }

    /// The `char*` string type.
    pub fn string() -> Self {
        CType::Ptr(Box::new(Self::char_ty()))
    }

    /// The `double` type.
    pub fn double() -> Self {
        CType::Float { bits: 64 }
    }

    /// Whether this is `char*` (the string representation).
    pub fn is_string(&self) -> bool {
        matches!(self, CType::Ptr(inner) if **inner == CType::char_ty())
    }

    /// Whether this is any integer type.
    pub fn is_integer(&self) -> bool {
        matches!(self, CType::Int { .. } | CType::Bool | CType::Enum(_))
    }

    /// Whether values of this type fit in a scalar machine register
    /// (everything except structs and arrays).
    pub fn is_scalar(&self) -> bool {
        !matches!(self, CType::Struct(_) | CType::Array(..))
    }
}

impl fmt::Display for CType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CType::Void => write!(f, "void"),
            CType::Bool => write!(f, "bool"),
            CType::Int { bits, signed } => {
                write!(f, "{}{}", if *signed { "i" } else { "u" }, bits)
            }
            CType::Float { bits } => write!(f, "f{bits}"),
            CType::Ptr(inner) if self.is_string() => {
                let _ = inner;
                write!(f, "char*")
            }
            CType::Ptr(inner) => write!(f, "{inner}*"),
            CType::Array(inner, n) => write!(f, "{inner}[{n}]"),
            CType::Struct(name) => write!(f, "struct {name}"),
            CType::Enum(name) => write!(f, "enum {name}"),
            CType::FuncPtr => write!(f, "fnptr"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn string_detection() {
        assert!(CType::string().is_string());
        assert!(!CType::Ptr(Box::new(CType::int())).is_string());
    }

    #[test]
    fn display_forms() {
        assert_eq!(CType::int().to_string(), "i32");
        assert_eq!(CType::string().to_string(), "char*");
        assert_eq!(CType::Struct("opt".into()).to_string(), "struct opt");
        assert_eq!(
            CType::Array(Box::new(CType::int()), 4).to_string(),
            "i32[4]"
        );
    }

    #[test]
    fn scalar_classification() {
        assert!(CType::int().is_scalar());
        assert!(CType::string().is_scalar());
        assert!(!CType::Struct("s".into()).is_scalar());
        assert!(!CType::Array(Box::new(CType::int()), 2).is_scalar());
    }

    #[test]
    fn integer_classification() {
        assert!(CType::Bool.is_integer());
        assert!(CType::Enum("e".into()).is_integer());
        assert!(!CType::double().is_integer());
    }
}
