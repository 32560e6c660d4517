//! Instruction set of the IR.

use crate::module::{BlockId, FuncId, GlobalId, SlotId, ValueId};
use spex_lang::ast::{BinOp, UnOp};
use spex_lang::builtins::Builtin;
use spex_lang::types::CType;

/// A compile-time constant.
#[derive(Debug, Clone, PartialEq)]
pub enum ConstVal {
    /// Integer constant (also used for `char` and enum values).
    Int(i64),
    /// Floating-point constant.
    Float(f64),
    /// String literal.
    Str(String),
    /// Boolean constant.
    Bool(bool),
    /// The null pointer.
    Null,
    /// Address of a function (function-pointer tables).
    FuncRef(FuncId),
    /// Address of a global (e.g. `&DeadlockTimeout` in PostgreSQL-style
    /// option tables).
    GlobalRef(GlobalId),
    /// Brace-initializer aggregate for arrays and structs.
    Aggregate(Vec<ConstVal>),
}

impl ConstVal {
    /// The all-zeros value of a type (C static initialization semantics).
    pub fn zero_of(ty: &CType, structs: &[crate::module::StructLayout]) -> ConstVal {
        match ty {
            CType::Void => ConstVal::Int(0),
            CType::Bool => ConstVal::Bool(false),
            CType::Int { .. } | CType::Enum(_) => ConstVal::Int(0),
            CType::Float { .. } => ConstVal::Float(0.0),
            CType::Ptr(_) | CType::FuncPtr => ConstVal::Null,
            CType::Array(elem, n) => {
                ConstVal::Aggregate(vec![ConstVal::zero_of(elem, structs); *n])
            }
            CType::Struct(name) => {
                let layout = structs.iter().find(|s| &s.name == name);
                match layout {
                    Some(l) => ConstVal::Aggregate(
                        l.fields
                            .iter()
                            .map(|(_, fty)| ConstVal::zero_of(fty, structs))
                            .collect(),
                    ),
                    None => ConstVal::Aggregate(Vec::new()),
                }
            }
        }
    }

    /// The integer value, if this is an integer constant.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            ConstVal::Int(v) => Some(*v),
            ConstVal::Bool(b) => Some(*b as i64),
            _ => None,
        }
    }

    /// The string value, if this is a string constant.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            ConstVal::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// The base storage a [`Place`] refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlaceBase {
    /// A function-local stack slot.
    Slot(SlotId),
    /// A module global.
    Global(GlobalId),
    /// Memory reached through a pointer-typed SSA value (`*p`, `p->f`).
    ValuePtr(ValueId),
}

/// One projection step applied to a place.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlaceElem {
    /// Struct field by resolved index.
    Field(u32),
    /// Array element by constant index.
    IndexConst(u32),
    /// Array element by dynamic index.
    IndexValue(ValueId),
    /// Extra pointer indirection (e.g. `*(o->var)` stores through the
    /// pointer stored in a field).
    Deref,
}

/// A memory location: a base plus a projection path. Field-sensitivity of
/// the data-flow engine (§2.2 of the paper) keys on this representation.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Place {
    /// Base storage.
    pub base: PlaceBase,
    /// Projection path, outermost first.
    pub elems: Vec<PlaceElem>,
}

impl Place {
    /// A place for a whole slot.
    pub fn slot(s: SlotId) -> Self {
        Place {
            base: PlaceBase::Slot(s),
            elems: Vec::new(),
        }
    }

    /// A place for a whole global.
    pub fn global(g: GlobalId) -> Self {
        Place {
            base: PlaceBase::Global(g),
            elems: Vec::new(),
        }
    }

    /// A place dereferencing a pointer value.
    pub fn deref_value(v: ValueId) -> Self {
        Place {
            base: PlaceBase::ValuePtr(v),
            elems: Vec::new(),
        }
    }

    /// Whether the place is exactly one unprojected slot.
    pub fn as_plain_slot(&self) -> Option<SlotId> {
        match (self.base, self.elems.is_empty()) {
            (PlaceBase::Slot(s), true) => Some(s),
            _ => None,
        }
    }

    /// Values used by the projection path and base.
    pub fn operand_values(&self) -> Vec<ValueId> {
        let mut out = Vec::new();
        if let PlaceBase::ValuePtr(v) = self.base {
            out.push(v);
        }
        for e in &self.elems {
            if let PlaceElem::IndexValue(v) = e {
                out.push(*v);
            }
        }
        out
    }
}

/// What a call targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Callee {
    /// A function defined in the module.
    Func(FuncId),
    /// A known library/system call.
    Builtin(Builtin),
    /// A call through a function-pointer value.
    Indirect(ValueId),
}

/// A non-terminator instruction.
#[derive(Debug, Clone, PartialEq)]
pub enum Instr {
    /// Materialises a constant.
    Const {
        /// Defined value.
        dst: ValueId,
        /// The constant.
        val: ConstVal,
    },
    /// Materialises the `index`-th function parameter at entry.
    Param {
        /// Defined value.
        dst: ValueId,
        /// Zero-based parameter index.
        index: u32,
    },
    /// Loads from memory.
    Load {
        /// Defined value.
        dst: ValueId,
        /// Source location.
        place: Place,
    },
    /// Stores to memory.
    Store {
        /// Destination location.
        place: Place,
        /// Stored value.
        value: ValueId,
    },
    /// Takes the address of a place.
    AddrOf {
        /// Defined (pointer) value.
        dst: ValueId,
        /// Addressed location.
        place: Place,
    },
    /// Binary operation (arithmetic, bitwise, comparison).
    Bin {
        /// Defined value.
        dst: ValueId,
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: ValueId,
        /// Right operand.
        rhs: ValueId,
    },
    /// Unary operation.
    Un {
        /// Defined value.
        dst: ValueId,
        /// Operator.
        op: UnOp,
        /// Operand.
        operand: ValueId,
    },
    /// Type cast/conversion.
    Cast {
        /// Defined value.
        dst: ValueId,
        /// Target type.
        ty: CType,
        /// Operand.
        operand: ValueId,
    },
    /// Function or builtin call.
    Call {
        /// Result value (`None` for void calls).
        dst: Option<ValueId>,
        /// Call target.
        callee: Callee,
        /// Arguments in order.
        args: Vec<ValueId>,
    },
    /// SSA phi node (present only after promotion).
    Phi {
        /// Defined value.
        dst: ValueId,
        /// `(predecessor block, incoming value)` pairs.
        incomings: Vec<(BlockId, ValueId)>,
    },
}

impl Instr {
    /// The value defined by this instruction, if any.
    pub fn def(&self) -> Option<ValueId> {
        match self {
            Instr::Const { dst, .. }
            | Instr::Param { dst, .. }
            | Instr::Load { dst, .. }
            | Instr::AddrOf { dst, .. }
            | Instr::Bin { dst, .. }
            | Instr::Un { dst, .. }
            | Instr::Cast { dst, .. }
            | Instr::Phi { dst, .. } => Some(*dst),
            Instr::Call { dst, .. } => *dst,
            Instr::Store { .. } => None,
        }
    }

    /// All value operands read by this instruction.
    pub fn uses(&self) -> Vec<ValueId> {
        match self {
            Instr::Const { .. } | Instr::Param { .. } => Vec::new(),
            Instr::Load { place, .. } | Instr::AddrOf { place, .. } => place.operand_values(),
            Instr::Store { place, value } => {
                let mut v = place.operand_values();
                v.push(*value);
                v
            }
            Instr::Bin { lhs, rhs, .. } => vec![*lhs, *rhs],
            Instr::Un { operand, .. } | Instr::Cast { operand, .. } => vec![*operand],
            Instr::Call { callee, args, .. } => {
                let mut v = Vec::new();
                if let Callee::Indirect(f) = callee {
                    v.push(*f);
                }
                v.extend(args.iter().copied());
                v
            }
            Instr::Phi { incomings, .. } => incomings.iter().map(|(_, v)| *v).collect(),
        }
    }

    /// Rewrites every value operand through `map`.
    pub fn map_uses(&mut self, map: &mut impl FnMut(ValueId) -> ValueId) {
        let map_place = |place: &mut Place, map: &mut dyn FnMut(ValueId) -> ValueId| {
            if let PlaceBase::ValuePtr(v) = &mut place.base {
                *v = map(*v);
            }
            for e in &mut place.elems {
                if let PlaceElem::IndexValue(v) = e {
                    *v = map(*v);
                }
            }
        };
        match self {
            Instr::Const { .. } | Instr::Param { .. } => {}
            Instr::Load { place, .. } | Instr::AddrOf { place, .. } => map_place(place, map),
            Instr::Store { place, value } => {
                map_place(place, map);
                *value = map(*value);
            }
            Instr::Bin { lhs, rhs, .. } => {
                *lhs = map(*lhs);
                *rhs = map(*rhs);
            }
            Instr::Un { operand, .. } | Instr::Cast { operand, .. } => *operand = map(*operand),
            Instr::Call { callee, args, .. } => {
                if let Callee::Indirect(f) = callee {
                    *f = map(*f);
                }
                for a in args {
                    *a = map(*a);
                }
            }
            Instr::Phi { incomings, .. } => {
                for (_, v) in incomings {
                    *v = map(*v);
                }
            }
        }
    }
}

/// A block terminator.
#[derive(Debug, Clone, PartialEq)]
pub enum Terminator {
    /// Unconditional jump.
    Br(BlockId),
    /// Two-way conditional branch.
    CondBr {
        /// Condition value (nonzero = then).
        cond: ValueId,
        /// Target when true.
        then_bb: BlockId,
        /// Target when false.
        else_bb: BlockId,
    },
    /// Multi-way switch on an integer value.
    Switch {
        /// Scrutinee.
        value: ValueId,
        /// `(constant, target)` arms.
        cases: Vec<(i64, BlockId)>,
        /// Default target.
        default: BlockId,
    },
    /// Function return.
    Ret(Option<ValueId>),
    /// Unreachable (e.g. after `exit`).
    Unreachable,
}

impl Terminator {
    /// Successor blocks in order.
    pub fn successors(&self) -> Vec<BlockId> {
        match self {
            Terminator::Br(b) => vec![*b],
            Terminator::CondBr {
                then_bb, else_bb, ..
            } => vec![*then_bb, *else_bb],
            Terminator::Switch { cases, default, .. } => {
                let mut v: Vec<BlockId> = cases.iter().map(|(_, b)| *b).collect();
                v.push(*default);
                v
            }
            Terminator::Ret(_) | Terminator::Unreachable => Vec::new(),
        }
    }

    /// Value operands read by the terminator.
    pub fn uses(&self) -> Vec<ValueId> {
        match self {
            Terminator::CondBr { cond, .. } => vec![*cond],
            Terminator::Switch { value, .. } => vec![*value],
            Terminator::Ret(Some(v)) => vec![*v],
            _ => Vec::new(),
        }
    }

    /// Rewrites every value operand through `map`.
    pub fn map_uses(&mut self, map: &mut impl FnMut(ValueId) -> ValueId) {
        match self {
            Terminator::CondBr { cond, .. } => *cond = map(*cond),
            Terminator::Switch { value, .. } => *value = map(*value),
            Terminator::Ret(Some(v)) => *v = map(*v),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_of_array() {
        let z = ConstVal::zero_of(&CType::Array(Box::new(CType::int()), 3), &[]);
        assert_eq!(
            z,
            ConstVal::Aggregate(vec![ConstVal::Int(0), ConstVal::Int(0), ConstVal::Int(0)])
        );
    }

    #[test]
    fn instr_def_and_uses() {
        let i = Instr::Bin {
            dst: ValueId(2),
            op: BinOp::Add,
            lhs: ValueId(0),
            rhs: ValueId(1),
        };
        assert_eq!(i.def(), Some(ValueId(2)));
        assert_eq!(i.uses(), vec![ValueId(0), ValueId(1)]);
    }

    #[test]
    fn store_has_no_def() {
        let i = Instr::Store {
            place: Place::slot(SlotId(0)),
            value: ValueId(5),
        };
        assert_eq!(i.def(), None);
        assert_eq!(i.uses(), vec![ValueId(5)]);
    }

    #[test]
    fn place_operands_include_dynamic_index_and_base() {
        let p = Place {
            base: PlaceBase::ValuePtr(ValueId(1)),
            elems: vec![PlaceElem::Field(0), PlaceElem::IndexValue(ValueId(2))],
        };
        assert_eq!(p.operand_values(), vec![ValueId(1), ValueId(2)]);
    }

    #[test]
    fn terminator_successors() {
        let t = Terminator::Switch {
            value: ValueId(0),
            cases: vec![(1, BlockId(1)), (2, BlockId(2))],
            default: BlockId(3),
        };
        assert_eq!(t.successors(), vec![BlockId(1), BlockId(2), BlockId(3)]);
        assert_eq!(Terminator::Ret(None).successors(), vec![]);
    }

    #[test]
    fn map_uses_rewrites_operands() {
        let mut i = Instr::Call {
            dst: Some(ValueId(9)),
            callee: Callee::Indirect(ValueId(1)),
            args: vec![ValueId(2), ValueId(3)],
        };
        i.map_uses(&mut |v| ValueId(v.0 + 10));
        assert_eq!(i.uses(), vec![ValueId(11), ValueId(12), ValueId(13)]);
    }
}
