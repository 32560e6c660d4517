//! The IR interpreter.
//!
//! Executes the pre-SSA form (locals are memory slots). One [`Vm`] instance
//! keeps globals, the modelled [`World`] and captured logs alive across
//! calls, so an injection run can call the system's config handler, then
//! its startup routine, then its functional tests, observing state
//! in between. No frame outlives a call, so a clone taken between calls
//! is a checkpoint: it continues exactly as the original would.

use crate::value::{LogLine, LogStream, RefTarget, Signal, Value};
use crate::world::{FsNode, World};
use spex_ir::{Callee, ConstVal, FuncId, Instr, Module, Place, PlaceBase, PlaceElem, Terminator};
use spex_lang::ast::{BinOp, UnOp};
use spex_lang::builtins::Builtin;
use spex_lang::types::CType;

/// Why execution stopped before the outermost call returned.
#[derive(Debug, Clone, PartialEq)]
pub enum VmHalt {
    /// `exit(code)` was called.
    Exit(i32),
    /// A fatal signal was raised.
    Fatal(Signal),
    /// The step or virtual-sleep budget was exhausted.
    Hang,
    /// The interpreter hit malformed code (a generator bug, not a subject
    /// reaction).
    Internal(String),
}

impl std::fmt::Display for VmHalt {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VmHalt::Exit(c) => write!(f, "exit({c})"),
            VmHalt::Fatal(s) => write!(f, "{s}"),
            VmHalt::Hang => write!(f, "hang"),
            VmHalt::Internal(m) => write!(f, "internal error: {m}"),
        }
    }
}

#[derive(Clone)]
struct Frame {
    slots: Vec<Value>,
    regs: Vec<Option<Value>>,
    args: Vec<Value>,
}

/// The interpreter.
///
/// Cloning copies the globals, world, logs, step count, rng and budgets,
/// so a clone taken between calls resumes with the same state, the same
/// hang budget left and the same random stream.
#[derive(Clone)]
pub struct Vm<'m> {
    module: &'m Module,
    /// The modelled OS.
    pub world: World,
    /// Captured log lines (stdout, stderr, syslog).
    pub logs: Vec<LogLine>,
    globals: Vec<Value>,
    frames: Vec<Frame>,
    steps: u64,
    /// Instruction budget before declaring a hang.
    pub step_budget: u64,
    /// Virtual seconds of sleeping allowed before declaring a hang.
    pub sleep_budget: i64,
    rng: u64,
}

impl<'m> Vm<'m> {
    /// Creates a VM over a lowered (pre-SSA) module.
    pub fn new(module: &'m Module, world: World) -> Vm<'m> {
        let globals = module
            .globals
            .iter()
            .map(|g| const_to_value(&g.init))
            .collect();
        Vm {
            module,
            world,
            logs: Vec::new(),
            globals,
            frames: Vec::new(),
            steps: 0,
            step_budget: 2_000_000,
            sleep_budget: 3_600,
            rng: 0x5a17_c0de,
        }
    }

    /// Calls a function by name.
    pub fn call(&mut self, name: &str, args: &[Value]) -> Result<Value, VmHalt> {
        let f = self.resolve(name)?;
        self.call_id(f, args)
    }

    /// The function named `name`, resolved once for repeated
    /// [`Vm::call_id`] calls (a name lookup scans every function).
    pub fn resolve(&self, name: &str) -> Result<FuncId, VmHalt> {
        self.module
            .function_by_name(name)
            .ok_or_else(|| VmHalt::Internal(format!("no function `{name}`")))
    }

    /// Calls a function by id.
    ///
    /// # Panics
    /// Panics if `f` is not a function of this VM's module.
    pub fn call_id(&mut self, f: FuncId, args: &[Value]) -> Result<Value, VmHalt> {
        // Telemetry is per-call, not per-instruction: the `steps` counter
        // is already maintained by the dispatch loop, so one delta here
        // keeps the interpreter's hot loop untouched.
        let steps_before = self.steps;
        let result = self.exec(f, args.to_vec());
        if spex_obs::enabled() {
            spex_obs::counter("vm.calls", 1);
            spex_obs::counter("vm.instructions", self.steps - steps_before);
        }
        result
    }

    /// Instructions executed over this VM's lifetime (the hang budget
    /// counts the same steps).
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Reads the current value of a global by name (used by the injection
    /// harness to detect silent violations).
    pub fn global_value(&self, name: &str) -> Option<&Value> {
        let g = self.module.global_by_name(name)?;
        self.globals.get(g.index())
    }

    /// All captured log text, one line per entry.
    pub fn log_text(&self) -> String {
        let mut out = String::new();
        for l in &self.logs {
            out.push_str(&l.text);
            out.push('\n');
        }
        out
    }

    // --- Execution ---------------------------------------------------------

    fn exec(&mut self, f: FuncId, args: Vec<Value>) -> Result<Value, VmHalt> {
        if self.frames.len() >= 64 {
            return Err(VmHalt::Fatal(Signal::Segv)); // Stack overflow.
        }
        let func = &self.module.functions[f.index()];
        let mut frame = Frame {
            slots: func
                .slots
                .iter()
                .map(|s| zero_value(&s.ty, self.module))
                .collect(),
            regs: vec![None; func.num_values()],
            args,
        };
        // Parameter slots are filled by the Param+Store prologue emitted by
        // the lowering; nothing to do here.
        let _ = &mut frame;
        self.frames.push(frame);
        let result = self.run_blocks(f);
        self.frames.pop();
        result
    }

    fn run_blocks(&mut self, f: FuncId) -> Result<Value, VmHalt> {
        let func = &self.module.functions[f.index()];
        let mut block = func.entry();
        loop {
            let blk = &func.blocks[block.index()];
            for (instr, _) in &blk.instrs {
                self.steps += 1;
                if self.steps > self.step_budget {
                    return Err(VmHalt::Hang);
                }
                self.step(f, instr)?;
            }
            match &blk.term.0 {
                Terminator::Br(b) => block = *b,
                Terminator::CondBr {
                    cond,
                    then_bb,
                    else_bb,
                } => {
                    let c = self.reg(*cond)?;
                    block = if c.truthy() { *then_bb } else { *else_bb };
                }
                Terminator::Switch {
                    value,
                    cases,
                    default,
                } => {
                    let v = self
                        .reg(*value)?
                        .as_int()
                        .ok_or_else(|| VmHalt::Internal("switch on non-integer".into()))?;
                    block = cases
                        .iter()
                        .find(|(c, _)| *c == v)
                        .map(|(_, b)| *b)
                        .unwrap_or(*default);
                }
                Terminator::Ret(v) => {
                    return match v {
                        Some(v) => self.reg(*v),
                        None => Ok(Value::Int(0)),
                    };
                }
                Terminator::Unreachable => {
                    // Fell past a noreturn call that did not actually halt —
                    // treat as a crash, like executing ud2.
                    return Err(VmHalt::Fatal(Signal::Segv));
                }
            }
        }
    }

    fn step(&mut self, f: FuncId, instr: &Instr) -> Result<(), VmHalt> {
        match instr {
            Instr::Const { dst, val } => {
                let v = const_to_value(val);
                self.set_reg(*dst, v);
            }
            Instr::Param { dst, index } => {
                let frame = self.frames.last().expect("active frame");
                let v = frame
                    .args
                    .get(*index as usize)
                    .cloned()
                    .unwrap_or(Value::Int(0));
                self.set_reg(*dst, v);
            }
            Instr::Load { dst, place } => {
                let v = self.load_place(place)?;
                self.set_reg(*dst, v);
            }
            Instr::Store { place, value } => {
                let v = self.reg(*value)?;
                self.store_place(place, v)?;
            }
            Instr::AddrOf { dst, place } => {
                let t = self.place_target(place)?;
                self.set_reg(*dst, Value::Ref(t));
            }
            Instr::Bin { dst, op, lhs, rhs } => {
                let a = self.reg(*lhs)?;
                let b = self.reg(*rhs)?;
                let v = self.binop(*op, a, b)?;
                self.set_reg(*dst, v);
            }
            Instr::Un { dst, op, operand } => {
                let a = self.reg(*operand)?;
                let v = match op {
                    UnOp::Neg => match a {
                        Value::Float(x) => Value::Float(-x),
                        other => Value::Int(-other.as_int().unwrap_or(0)),
                    },
                    UnOp::Not => Value::Int(i64::from(!a.truthy())),
                    UnOp::BitNot => Value::Int(!a.as_int().unwrap_or(0)),
                };
                self.set_reg(*dst, v);
            }
            Instr::Cast { dst, ty, operand } => {
                let a = self.reg(*operand)?;
                self.set_reg(*dst, cast_value(a, ty));
            }
            Instr::Call { dst, callee, args } => {
                let mut argv = Vec::with_capacity(args.len());
                for a in args {
                    argv.push(self.reg(*a)?);
                }
                let result = match callee {
                    Callee::Builtin(b) => self.builtin(*b, argv)?,
                    Callee::Func(g) => self.exec(*g, argv)?,
                    Callee::Indirect(v) => match self.reg(*v)? {
                        Value::FuncRef(g) => self.exec(g, argv)?,
                        Value::Null => return Err(VmHalt::Fatal(Signal::Segv)),
                        _ => return Err(VmHalt::Fatal(Signal::Segv)),
                    },
                };
                if let Some(d) = dst {
                    self.set_reg(*d, result);
                }
            }
            Instr::Phi { .. } => {
                return Err(VmHalt::Internal(
                    "phi executed: the VM runs pre-SSA bodies only".into(),
                ));
            }
        }
        let _ = f;
        Ok(())
    }

    // --- Registers -----------------------------------------------------------

    fn reg(&self, v: spex_ir::ValueId) -> Result<Value, VmHalt> {
        self.frames
            .last()
            .and_then(|f| f.regs.get(v.index()).cloned().flatten())
            .ok_or_else(|| VmHalt::Internal(format!("read of unset register {v}")))
    }

    fn set_reg(&mut self, v: spex_ir::ValueId, value: Value) {
        let frame = self.frames.last_mut().expect("active frame");
        frame.regs[v.index()] = Some(value);
    }

    // --- Memory ----------------------------------------------------------------

    /// Resolves a place to a concrete target, evaluating dynamic indices and
    /// following `Deref` projections.
    fn place_target(&mut self, place: &Place) -> Result<RefTarget, VmHalt> {
        let mut target = match place.base {
            PlaceBase::Slot(s) => RefTarget::Slot(self.frames.len() - 1, s, Vec::new()),
            PlaceBase::Global(g) => RefTarget::Global(g, Vec::new()),
            PlaceBase::ValuePtr(v) => match self.reg(v)? {
                Value::Ref(t) => t,
                Value::Null => return Err(VmHalt::Fatal(Signal::Segv)),
                Value::Str(_) => {
                    return Err(VmHalt::Internal(
                        "store through string pointer is not modelled".into(),
                    ))
                }
                _ => return Err(VmHalt::Fatal(Signal::Segv)),
            },
        };
        for elem in &place.elems {
            match elem {
                PlaceElem::Field(i) => push_path(&mut target, *i),
                PlaceElem::IndexConst(i) => push_path(&mut target, *i),
                PlaceElem::IndexValue(v) => {
                    let idx = self
                        .reg(*v)?
                        .as_int()
                        .ok_or_else(|| VmHalt::Internal("non-integer index".into()))?;
                    if !(0..=u32::MAX as i64).contains(&idx) {
                        return Err(VmHalt::Fatal(Signal::Segv));
                    }
                    push_path(&mut target, idx as u32);
                }
                PlaceElem::Deref => {
                    let v = self.read_target(&target)?;
                    target = match v {
                        Value::Ref(t) => t,
                        Value::Null => return Err(VmHalt::Fatal(Signal::Segv)),
                        _ => return Err(VmHalt::Fatal(Signal::Segv)),
                    };
                }
            }
        }
        Ok(target)
    }

    fn load_place(&mut self, place: &Place) -> Result<Value, VmHalt> {
        // Reading a character out of a string (`s[i]`).
        if let PlaceBase::ValuePtr(v) = place.base {
            if let Value::Str(s) = self.reg(v)? {
                if let [PlaceElem::IndexValue(iv)] = place.elems.as_slice() {
                    let idx = self.reg(*iv)?.as_int().unwrap_or(-1);
                    return match idx {
                        i if i < 0 || i as usize > s.len() => Err(VmHalt::Fatal(Signal::Segv)),
                        i if i as usize == s.len() => Ok(Value::Int(0)),
                        i => Ok(Value::Int(s.as_bytes()[i as usize] as i64)),
                    };
                }
            }
        }
        let t = self.place_target(place)?;
        self.read_target(&t)
    }

    fn store_place(&mut self, place: &Place, value: Value) -> Result<(), VmHalt> {
        let t = self.place_target(place)?;
        self.write_target(&t, value)
    }

    fn read_target(&self, t: &RefTarget) -> Result<Value, VmHalt> {
        let (root, path) = self.target_root(t)?;
        navigate(root, path)
            .cloned()
            .ok_or(VmHalt::Fatal(Signal::Segv))
    }

    fn write_target(&mut self, t: &RefTarget, value: Value) -> Result<(), VmHalt> {
        let (root, path) = match t {
            RefTarget::Global(g, path) => (
                self.globals
                    .get_mut(g.index())
                    .ok_or(VmHalt::Fatal(Signal::Segv))?,
                path,
            ),
            RefTarget::Slot(fi, s, path) => (
                self.frames
                    .get_mut(*fi)
                    .and_then(|f| f.slots.get_mut(s.index()))
                    .ok_or(VmHalt::Fatal(Signal::Segv))?,
                path,
            ),
        };
        let slot = navigate_mut(root, path).ok_or(VmHalt::Fatal(Signal::Segv))?;
        *slot = value;
        Ok(())
    }

    fn target_root<'a>(&'a self, t: &'a RefTarget) -> Result<(&'a Value, &'a [u32]), VmHalt> {
        match t {
            RefTarget::Global(g, path) => Ok((
                self.globals
                    .get(g.index())
                    .ok_or(VmHalt::Fatal(Signal::Segv))?,
                path,
            )),
            RefTarget::Slot(fi, s, path) => Ok((
                self.frames
                    .get(*fi)
                    .and_then(|f| f.slots.get(s.index()))
                    .ok_or(VmHalt::Fatal(Signal::Segv))?,
                path,
            )),
        }
    }

    // --- Operators ---------------------------------------------------------------

    fn binop(&mut self, op: BinOp, a: Value, b: Value) -> Result<Value, VmHalt> {
        use BinOp::*;
        // String equality (C compares pointers; the model compares content,
        // which matches how the subject code uses it).
        if matches!(op, Eq | Ne) {
            let eq = match (&a, &b) {
                (Value::Str(x), Value::Str(y)) => Some(x == y),
                (Value::Str(_), Value::Null) | (Value::Null, Value::Str(_)) => Some(false),
                (Value::Null, Value::Null) => Some(true),
                (Value::Ref(x), Value::Ref(y)) => Some(x == y),
                (Value::Ref(_), Value::Null) | (Value::Null, Value::Ref(_)) => Some(false),
                _ => None,
            };
            if let Some(eq) = eq {
                return Ok(Value::Int(i64::from(if op == Eq { eq } else { !eq })));
            }
        }
        if let (Value::Float(_), _) | (_, Value::Float(_)) = (&a, &b) {
            let x = as_f64(&a);
            let y = as_f64(&b);
            return Ok(match op {
                Add => Value::Float(x + y),
                Sub => Value::Float(x - y),
                Mul => Value::Float(x * y),
                Div => {
                    if y == 0.0 {
                        Value::Float(f64::INFINITY)
                    } else {
                        Value::Float(x / y)
                    }
                }
                Lt => Value::Int(i64::from(x < y)),
                Gt => Value::Int(i64::from(x > y)),
                Le => Value::Int(i64::from(x <= y)),
                Ge => Value::Int(i64::from(x >= y)),
                Eq => Value::Int(i64::from(x == y)),
                Ne => Value::Int(i64::from(x != y)),
                _ => return Err(VmHalt::Internal("bitwise op on float".into())),
            });
        }
        let x = a
            .as_int()
            .ok_or_else(|| VmHalt::Internal(format!("arith on {a:?}")))?;
        let y = b
            .as_int()
            .ok_or_else(|| VmHalt::Internal(format!("arith on {b:?}")))?;
        Ok(Value::Int(match op {
            Add => x.wrapping_add(y),
            Sub => x.wrapping_sub(y),
            Mul => x.wrapping_mul(y),
            Div => {
                if y == 0 {
                    return Err(VmHalt::Fatal(Signal::Fpe));
                }
                x.wrapping_div(y)
            }
            Rem => {
                if y == 0 {
                    return Err(VmHalt::Fatal(Signal::Fpe));
                }
                x.wrapping_rem(y)
            }
            And => x & y,
            Or => x | y,
            Xor => x ^ y,
            Shl => x.wrapping_shl(y as u32),
            Shr => x.wrapping_shr(y as u32),
            Lt => i64::from(x < y),
            Gt => i64::from(x > y),
            Le => i64::from(x <= y),
            Ge => i64::from(x >= y),
            Eq => i64::from(x == y),
            Ne => i64::from(x != y),
            LogicalAnd => i64::from(x != 0 && y != 0),
            LogicalOr => i64::from(x != 0 || y != 0),
        }))
    }

    // --- Builtins ------------------------------------------------------------------

    fn builtin(&mut self, b: Builtin, args: Vec<Value>) -> Result<Value, VmHalt> {
        use Builtin::*;
        let arg = |i: usize| args.get(i).cloned().unwrap_or(Value::Int(0));
        // Most string APIs crash on NULL in real libc.
        let want_str = |v: Value| -> Result<String, VmHalt> {
            match v {
                Value::Str(s) => Ok(s),
                Value::Null => Err(VmHalt::Fatal(Signal::Segv)),
                other => Err(VmHalt::Internal(format!("string API got {other:?}"))),
            }
        };
        Ok(match b {
            Strcmp | Strncmp => {
                let a = want_str(arg(0))?;
                let c = want_str(arg(1))?;
                let (a, c) = if b == Strncmp {
                    let n = arg(2).as_int().unwrap_or(0).max(0) as usize;
                    (
                        a.chars().take(n).collect::<String>(),
                        c.chars().take(n).collect::<String>(),
                    )
                } else {
                    (a, c)
                };
                Value::Int(match a.cmp(&c) {
                    std::cmp::Ordering::Less => -1,
                    std::cmp::Ordering::Equal => 0,
                    std::cmp::Ordering::Greater => 1,
                })
            }
            Strcasecmp | Strncasecmp => {
                let a = want_str(arg(0))?.to_lowercase();
                let c = want_str(arg(1))?.to_lowercase();
                let (a, c) = if b == Strncasecmp {
                    let n = arg(2).as_int().unwrap_or(0).max(0) as usize;
                    (
                        a.chars().take(n).collect::<String>(),
                        c.chars().take(n).collect::<String>(),
                    )
                } else {
                    (a, c)
                };
                Value::Int(match a.cmp(&c) {
                    std::cmp::Ordering::Less => -1,
                    std::cmp::Ordering::Equal => 0,
                    std::cmp::Ordering::Greater => 1,
                })
            }
            Strlen => Value::Int(want_str(arg(0))?.len() as i64),
            Strdup => Value::Str(want_str(arg(0))?),
            Strchr => {
                let s = want_str(arg(0))?;
                let c = arg(1).as_int().unwrap_or(0) as u8 as char;
                match s.find(c) {
                    Some(i) => Value::Str(s[i..].to_string()),
                    None => Value::Null,
                }
            }
            Strstr => {
                let s = want_str(arg(0))?;
                let needle = want_str(arg(1))?;
                match s.find(&needle) {
                    Some(i) => Value::Str(s[i..].to_string()),
                    None => Value::Null,
                }
            }
            Strcpy | Strncpy | Strcat => {
                // The destination is modelled as a fixed-capacity buffer the
                // size of its current content; longer sources overflow.
                let dst = want_str(arg(0))?;
                let src = want_str(arg(1))?;
                let limit = if b == Strncpy {
                    arg(2).as_int().unwrap_or(0).max(0) as usize
                } else {
                    src.len()
                };
                let written = if b == Strcat {
                    dst.len() + src.len().min(limit)
                } else {
                    src.len().min(limit)
                };
                if written > dst.len().max(64) {
                    return Err(VmHalt::Fatal(Signal::Segv));
                }
                Value::Str(src.chars().take(limit).collect())
            }
            Atoi => Value::Int(parse_c_int(&want_str(arg(0))?).0 as i32 as i64),
            Atol => Value::Int(parse_c_int(&want_str(arg(0))?).0),
            Strtol | Strtoll => Value::Int(parse_c_int(&want_str(arg(0))?).0),
            Atof | Strtod => Value::Float(parse_c_float(&want_str(arg(0))?)),
            Sscanf => {
                let src = want_str(arg(0))?;
                let fmt = want_str(arg(1))?;
                self.do_sscanf(&src, &fmt, &args[2..])?
            }
            Sprintf | Snprintf => {
                let (dst_i, fmt_i, args_from, cap) = if b == Snprintf {
                    let cap = arg(1).as_int().unwrap_or(0).max(0) as usize;
                    (0usize, 2usize, 3usize, cap)
                } else {
                    // Plain sprintf: capacity is the destination's current
                    // length (a fixed buffer), slack up to 64 bytes.
                    (0usize, 1usize, 2usize, 0usize)
                };
                let fmt = want_str(arg(fmt_i))?;
                let text = self.format(&fmt, &args[args_from.min(args.len())..]);
                if b == Sprintf {
                    let dst_cap = match arg(dst_i) {
                        Value::Str(s) => s.len().max(64),
                        Value::Null => return Err(VmHalt::Fatal(Signal::Segv)),
                        _ => 64,
                    };
                    if text.len() > dst_cap {
                        return Err(VmHalt::Fatal(Signal::Segv));
                    }
                    Value::Int(text.len() as i64)
                } else {
                    Value::Int(text.len().min(cap) as i64)
                }
            }
            Open => {
                let path = want_str(arg(0))?;
                let flags = arg(1).as_int().unwrap_or(0);
                match self.world.fs.get(&path) {
                    Some(FsNode::File(_)) => Value::Int(self.world.fresh_handle()),
                    Some(FsNode::Dir) => Value::Int(-1),
                    None if flags & 1 != 0 && self.world.parent_exists(&path) => {
                        self.world.add_file(&path, "");
                        Value::Int(self.world.fresh_handle())
                    }
                    None => Value::Int(-1),
                }
            }
            Fopen => {
                let path = want_str(arg(0))?;
                let mode = want_str(arg(1))?;
                let writing = mode.contains('w') || mode.contains('a');
                match self.world.fs.get(&path) {
                    Some(FsNode::File(_)) => Value::Handle(self.world.fresh_handle()),
                    Some(FsNode::Dir) => Value::Null,
                    None if writing && self.world.parent_exists(&path) => {
                        self.world.add_file(&path, "");
                        Value::Handle(self.world.fresh_handle())
                    }
                    None => Value::Null,
                }
            }
            Close | Free | Memset | Memcpy | Setsockopt => Value::Int(0),
            Read | Fgets => Value::Int(0),
            Write => Value::Int(arg(2).as_int().unwrap_or(0)),
            Stat | Access => {
                let path = want_str(arg(0))?;
                Value::Int(if self.world.fs.contains_key(&path) {
                    0
                } else {
                    -1
                })
            }
            Unlink => {
                let path = want_str(arg(0))?;
                Value::Int(if self.world.fs.remove(&path).is_some() {
                    0
                } else {
                    -1
                })
            }
            Chmod => {
                let path = want_str(arg(0))?;
                Value::Int(if self.world.fs.contains_key(&path) {
                    0
                } else {
                    -1
                })
            }
            Mkdir => {
                let path = want_str(arg(0))?;
                if self.world.parent_exists(&path) && !self.world.fs.contains_key(&path) {
                    self.world.add_dir(&path);
                    Value::Int(0)
                } else {
                    Value::Int(-1)
                }
            }
            Opendir => {
                let path = want_str(arg(0))?;
                match self.world.fs.get(&path) {
                    Some(FsNode::Dir) => Value::Handle(self.world.fresh_handle()),
                    _ => Value::Null,
                }
            }
            Chroot => {
                let path = want_str(arg(0))?;
                match self.world.fs.get(&path) {
                    Some(FsNode::Dir) => Value::Int(0),
                    _ => Value::Int(-1),
                }
            }
            Socket => Value::Int(self.world.fresh_handle()),
            Bind => {
                let port = arg(1).as_int().unwrap_or(-1);
                Value::Int(if self.world.bind_port(port) { 0 } else { -1 })
            }
            Listen => {
                let backlog = arg(1).as_int().unwrap_or(0);
                if backlog < 0 {
                    Value::Int(-1)
                } else {
                    self.world.listening = true;
                    Value::Int(0)
                }
            }
            Accept => {
                if self.world.listening {
                    Value::Int(self.world.fresh_handle())
                } else {
                    Value::Int(-1)
                }
            }
            Connect => {
                let port = arg(1).as_int().unwrap_or(-1);
                let reachable = (1..=65535).contains(&port)
                    && (self.world.occupied_ports.contains(&(port as u16))
                        || self.world.bound_ports.contains(&(port as u16)));
                Value::Int(if reachable { 0 } else { -1 })
            }
            Htons | Ntohs => Value::Int((arg(0).as_int().unwrap_or(0) as u16) as i64),
            InetAddr => {
                let s = want_str(arg(0))?;
                match parse_ipv4(&s) {
                    Some(v) => Value::Int(v),
                    None => Value::Int(-1),
                }
            }
            Gethostbyname => {
                let h = want_str(arg(0))?;
                if self.world.hosts.contains_key(&h) {
                    Value::Handle(self.world.fresh_handle())
                } else {
                    Value::Null
                }
            }
            Getpwnam => {
                let u = want_str(arg(0))?;
                if self.world.users.contains(&u) {
                    Value::Handle(self.world.fresh_handle())
                } else {
                    Value::Null
                }
            }
            Getgrnam => {
                let g = want_str(arg(0))?;
                if self.world.groups.contains(&g) {
                    Value::Handle(self.world.fresh_handle())
                } else {
                    Value::Null
                }
            }
            Getuid => Value::Int(0),
            Setuid => Value::Int(0),
            Sleep | Usleep | Alarm => {
                let n = arg(0).as_int().unwrap_or(0);
                let secs = if b == Usleep { n / 1_000_000 } else { n };
                if secs > 0 {
                    self.world.clock += secs;
                    self.world.slept += secs;
                    if self.world.slept > self.sleep_budget {
                        return Err(VmHalt::Hang);
                    }
                }
                Value::Int(0)
            }
            Time => Value::Int(self.world.clock),
            Exit => {
                return Err(VmHalt::Exit(arg(0).as_int().unwrap_or(0) as i32));
            }
            Abort => return Err(VmHalt::Fatal(Signal::Abort)),
            Malloc | Calloc => {
                let n = if b == Calloc {
                    arg(0)
                        .as_int()
                        .unwrap_or(0)
                        .saturating_mul(arg(1).as_int().unwrap_or(0))
                } else {
                    arg(0).as_int().unwrap_or(0)
                };
                if self.world.alloc(n) {
                    Value::Handle(self.world.fresh_handle())
                } else {
                    Value::Null
                }
            }
            Printf => {
                let fmt = want_str(arg(0))?;
                let text = self.format(&fmt, &args[1..]);
                self.log(LogStream::Stdout, text);
                Value::Int(0)
            }
            Fprintf => {
                let stream = if arg(0).as_int() == Some(2) {
                    LogStream::Stderr
                } else {
                    LogStream::Stdout
                };
                let fmt = want_str(arg(1))?;
                let text = self.format(&fmt, &args[2..]);
                self.log(stream, text);
                Value::Int(0)
            }
            Syslog | LogError | LogWarn | LogInfo => {
                let level = match b {
                    LogError => "ERROR: ",
                    LogWarn => "WARN: ",
                    LogInfo => "INFO: ",
                    _ => "",
                };
                let fmt = want_str(arg(0))?;
                let text = format!("{level}{}", self.format(&fmt, &args[1..]));
                self.log(LogStream::Syslog, text);
                Value::Int(0)
            }
            Perror => {
                let s = want_str(arg(0))?;
                self.log(LogStream::Stderr, format!("{s}: error"));
                Value::Int(0)
            }
            Assert => {
                if !arg(0).truthy() {
                    return Err(VmHalt::Fatal(Signal::Abort));
                }
                Value::Int(0)
            }
            Getenv => Value::Null,
            Rand => {
                self.rng = self
                    .rng
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                Value::Int(((self.rng >> 33) & 0x7fff_ffff) as i64)
            }
            SockaddrSetPort => Value::Int(0),
        })
    }

    fn do_sscanf(&mut self, src: &str, fmt: &str, outs: &[Value]) -> Result<Value, VmHalt> {
        // Single-conversion model: %d/%i/%ld, %f, %s. On mismatch the
        // out-parameter is left untouched (the paper's "undefined" unsafe
        // behaviour, Figure 6d).
        let mut matched = 0i64;
        let mut out_iter = outs.iter();
        for spec in ["%d", "%i", "%ld", "%f", "%s"] {
            if !fmt.contains(spec) {
                continue;
            }
            let Some(out) = out_iter.next() else { break };
            let Value::Ref(t) = out else { continue };
            match spec {
                "%f" => {
                    let v = parse_c_float(src);
                    if src
                        .trim_start()
                        .starts_with(|c: char| c.is_ascii_digit() || c == '-')
                    {
                        self.write_target(t, Value::Float(v))?;
                        matched += 1;
                    }
                }
                "%s" => {
                    let word = src.split_whitespace().next().unwrap_or("");
                    if !word.is_empty() {
                        self.write_target(t, Value::Str(word.to_string()))?;
                        matched += 1;
                    }
                }
                _ => {
                    let (v, digits) = parse_c_int(src);
                    if digits {
                        self.write_target(t, Value::Int(v as i32 as i64))?;
                        matched += 1;
                    }
                }
            }
            break;
        }
        Ok(Value::Int(matched))
    }

    fn format(&self, fmt: &str, args: &[Value]) -> String {
        let mut out = String::new();
        let mut chars = fmt.chars().peekable();
        let mut ai = 0usize;
        while let Some(c) = chars.next() {
            if c != '%' {
                out.push(c);
                continue;
            }
            // Consume length modifiers.
            let mut spec = String::new();
            while let Some(&n) = chars.peek() {
                spec.push(n);
                chars.next();
                if n.is_ascii_alphabetic() || n == '%' {
                    break;
                }
            }
            if spec == "%" {
                out.push('%');
                continue;
            }
            let arg = args.get(ai).cloned().unwrap_or(Value::Null);
            ai += 1;
            let last = spec.chars().last().unwrap_or('s');
            match last {
                'd' | 'i' | 'u' | 'l' | 'x' => out.push_str(&arg.as_int().unwrap_or(0).to_string()),
                'f' | 'g' => out.push_str(&format!("{:.3}", as_f64(&arg))),
                'c' => out.push(arg.as_int().unwrap_or(63) as u8 as char),
                's' => match arg {
                    Value::Str(s) => out.push_str(&s),
                    Value::Null => out.push_str("(null)"),
                    other => out.push_str(&other.to_string()),
                },
                _ => out.push('?'),
            }
        }
        out
    }

    fn log(&mut self, stream: LogStream, text: String) {
        self.logs.push(LogLine { stream, text });
    }
}

// --- Value helpers ---------------------------------------------------------

fn const_to_value(c: &ConstVal) -> Value {
    match c {
        ConstVal::Int(v) => Value::Int(*v),
        ConstVal::Float(v) => Value::Float(*v),
        ConstVal::Str(s) => Value::Str(s.clone()),
        ConstVal::Bool(b) => Value::Int(i64::from(*b)),
        ConstVal::Null => Value::Null,
        ConstVal::FuncRef(f) => Value::FuncRef(*f),
        ConstVal::GlobalRef(g) => Value::Ref(RefTarget::Global(*g, Vec::new())),
        ConstVal::Aggregate(items) => Value::Agg(items.iter().map(const_to_value).collect()),
    }
}

fn zero_value(ty: &CType, module: &Module) -> Value {
    match ty {
        CType::Float { .. } => Value::Float(0.0),
        CType::Ptr(_) | CType::FuncPtr => Value::Null,
        CType::Array(elem, n) => Value::Agg(vec![zero_value(elem, module); *n]),
        CType::Struct(name) => {
            let fields = module
                .struct_layout(name)
                .map(|l| l.fields.clone())
                .unwrap_or_default();
            Value::Agg(fields.iter().map(|(_, t)| zero_value(t, module)).collect())
        }
        _ => Value::Int(0),
    }
}

fn push_path(t: &mut RefTarget, i: u32) {
    match t {
        RefTarget::Global(_, p) | RefTarget::Slot(_, _, p) => p.push(i),
    }
}

fn navigate<'a>(mut v: &'a Value, path: &[u32]) -> Option<&'a Value> {
    for &i in path {
        match v {
            Value::Agg(items) => v = items.get(i as usize)?,
            _ => return None,
        }
    }
    Some(v)
}

fn navigate_mut<'a>(mut v: &'a mut Value, path: &[u32]) -> Option<&'a mut Value> {
    for &i in path {
        match v {
            Value::Agg(items) => v = items.get_mut(i as usize)?,
            _ => return None,
        }
    }
    Some(v)
}

fn as_f64(v: &Value) -> f64 {
    match v {
        Value::Float(f) => *f,
        other => other.as_int().unwrap_or(0) as f64,
    }
}

fn cast_value(v: Value, ty: &CType) -> Value {
    match ty {
        CType::Int { bits, signed } => {
            let x = match &v {
                Value::Float(f) => *f as i64,
                other => other.as_int().unwrap_or(0),
            };
            let x = match (bits, signed) {
                (8, true) => x as i8 as i64,
                (8, false) => x as u8 as i64,
                (16, true) => x as i16 as i64,
                (16, false) => x as u16 as i64,
                (32, true) => x as i32 as i64,
                (32, false) => x as u32 as i64,
                _ => x,
            };
            Value::Int(x)
        }
        CType::Bool => Value::Int(i64::from(v.truthy())),
        CType::Float { .. } => Value::Float(as_f64(&v)),
        _ => v,
    }
}

/// C `atoi`/`strtol` semantics: leading whitespace, optional sign, digits
/// until the first non-digit; saturates at i64 bounds. Returns the value
/// and whether any digit was consumed.
fn parse_c_int(s: &str) -> (i64, bool) {
    let s = s.trim_start();
    let (neg, rest) = match s.strip_prefix('-') {
        Some(r) => (true, r),
        None => (false, s.strip_prefix('+').unwrap_or(s)),
    };
    let digits: String = rest.chars().take_while(|c| c.is_ascii_digit()).collect();
    if digits.is_empty() {
        return (0, false);
    }
    let mut acc: i64 = 0;
    for d in digits.bytes() {
        acc = acc.saturating_mul(10).saturating_add((d - b'0') as i64);
    }
    ((if neg { -acc } else { acc }), true)
}

fn parse_c_float(s: &str) -> f64 {
    let s = s.trim_start();
    let mut end = 0;
    let bytes = s.as_bytes();
    if end < bytes.len() && (bytes[end] == b'-' || bytes[end] == b'+') {
        end += 1;
    }
    let mut seen_dot = false;
    while end < bytes.len() && (bytes[end].is_ascii_digit() || (bytes[end] == b'.' && !seen_dot)) {
        if bytes[end] == b'.' {
            seen_dot = true;
        }
        end += 1;
    }
    s[..end].parse().unwrap_or(0.0)
}

fn parse_ipv4(s: &str) -> Option<i64> {
    let parts: Vec<&str> = s.split('.').collect();
    if parts.len() != 4 {
        return None;
    }
    let mut acc: i64 = 0;
    for p in parts {
        let v: i64 = p.parse().ok()?;
        if !(0..=255).contains(&v) {
            return None;
        }
        acc = (acc << 8) | v;
    }
    Some(acc)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vm_for(src: &str) -> (Module, World) {
        let p = spex_lang::parse_program(src).unwrap();
        let m = spex_ir::lower_program(&p).unwrap();
        (m, World::default())
    }

    #[test]
    fn arithmetic_and_control_flow() {
        let (m, w) =
            vm_for("int fib(int n) { if (n < 2) { return n; } return fib(n-1) + fib(n-2); }");
        let mut vm = Vm::new(&m, w);
        assert_eq!(vm.call("fib", &[Value::Int(10)]).unwrap(), Value::Int(55));
    }

    #[test]
    fn a_clone_between_calls_continues_like_the_original() {
        let (m, mut w) = vm_for(
            "int counter = 0;
             int roll() { counter += 1; printf(\"roll %d\", counter); return rand(); }",
        );
        w.add_file("/etc/app.conf", "x");
        let mut vm = Vm::new(&m, w);
        vm.call("roll", &[]).unwrap();
        let mut copy = vm.clone();
        let roll = vm.resolve("roll").unwrap();
        for _ in 0..3 {
            assert_eq!(copy.call_id(roll, &[]), vm.call("roll", &[]));
        }
        assert_eq!(copy.steps(), vm.steps());
        assert_eq!(copy.logs, vm.logs);
        assert_eq!(copy.global_value("counter"), Some(&Value::Int(4)));
        assert_eq!(copy.world.fs, vm.world.fs);
        assert_eq!(
            vm.resolve("missing"),
            Err(VmHalt::Internal("no function `missing`".into()))
        );
    }

    #[test]
    fn globals_persist_across_calls() {
        let (m, w) = vm_for(
            "int counter = 0;
             void bump() { counter += 1; }
             int get() { return counter; }",
        );
        let mut vm = Vm::new(&m, w);
        vm.call("bump", &[]).unwrap();
        vm.call("bump", &[]).unwrap();
        assert_eq!(vm.call("get", &[]).unwrap(), Value::Int(2));
        assert_eq!(vm.global_value("counter"), Some(&Value::Int(2)));
    }

    #[test]
    fn struct_table_and_pointer_stores() {
        let (m, w) = vm_for(
            r#"
            struct opt { char* name; int* var; };
            int threads = 4;
            struct opt options[] = { { "threads", &threads } };
            void set_opt(int i, char* value) {
                *(options[i].var) = atoi(value);
            }
            int get_threads() { return threads; }
            "#,
        );
        let mut vm = Vm::new(&m, w);
        vm.call("set_opt", &[Value::Int(0), Value::str("32")])
            .unwrap();
        assert_eq!(vm.call("get_threads", &[]).unwrap(), Value::Int(32));
    }

    #[test]
    fn function_pointer_dispatch() {
        let (m, w) = vm_for(
            r#"
            struct cmd { char* name; fnptr handler; };
            int doubled = 0;
            int set_double(char* v) { doubled = atoi(v) * 2; return 0; }
            struct cmd cmds[] = { { "double", set_double } };
            int run(char* v) {
                cmds[0].handler(v);
                return doubled;
            }
            "#,
        );
        let mut vm = Vm::new(&m, w);
        assert_eq!(vm.call("run", &[Value::str("21")]).unwrap(), Value::Int(42));
    }

    #[test]
    fn null_deref_is_segv() {
        let (m, w) = vm_for(
            "int read_it(int* p) { return *p; }
             int go() { return read_it(NULL); }",
        );
        let mut vm = Vm::new(&m, w);
        assert_eq!(vm.call("go", &[]).unwrap_err(), VmHalt::Fatal(Signal::Segv));
    }

    #[test]
    fn out_of_bounds_index_is_segv() {
        let (m, w) = vm_for(
            "int table[4];
             int peek(int i) { return table[i]; }",
        );
        let mut vm = Vm::new(&m, w);
        assert_eq!(vm.call("peek", &[Value::Int(2)]).unwrap(), Value::Int(0));
        assert_eq!(
            vm.call("peek", &[Value::Int(100)]).unwrap_err(),
            VmHalt::Fatal(Signal::Segv)
        );
    }

    #[test]
    fn division_by_zero_is_fpe() {
        let (m, w) = vm_for("int div(int a, int b) { return a / b; }");
        let mut vm = Vm::new(&m, w);
        assert_eq!(
            vm.call("div", &[Value::Int(1), Value::Int(0)]).unwrap_err(),
            VmHalt::Fatal(Signal::Fpe)
        );
    }

    #[test]
    fn exit_and_abort() {
        let (m, w) = vm_for(
            "void die() { exit(3); }
             void blow() { abort(); }",
        );
        let mut vm = Vm::new(&m, w);
        assert_eq!(vm.call("die", &[]).unwrap_err(), VmHalt::Exit(3));
        assert_eq!(
            vm.call("blow", &[]).unwrap_err(),
            VmHalt::Fatal(Signal::Abort)
        );
    }

    #[test]
    fn infinite_loop_hangs() {
        let (m, w) = vm_for("void spin() { while (1) { } }");
        let mut vm = Vm::new(&m, w);
        vm.step_budget = 10_000;
        assert_eq!(vm.call("spin", &[]).unwrap_err(), VmHalt::Hang);
    }

    #[test]
    fn absurd_sleep_hangs() {
        let (m, w) = vm_for("void nap(int s) { sleep(s); }");
        let mut vm = Vm::new(&m, w);
        vm.sleep_budget = 100;
        assert_eq!(vm.call("nap", &[Value::Int(50)]).unwrap(), Value::Int(0));
        assert_eq!(
            vm.call("nap", &[Value::Int(1000)]).unwrap_err(),
            VmHalt::Hang
        );
    }

    #[test]
    fn atoi_semantics_match_c() {
        let (m, w) = vm_for("int conv(char* s) { return atoi(s); }");
        let mut vm = Vm::new(&m, w);
        let conv = |vm: &mut Vm, s: &str| vm.call("conv", &[Value::str(s)]).unwrap();
        assert_eq!(conv(&mut vm, "42"), Value::Int(42));
        assert_eq!(conv(&mut vm, "-7"), Value::Int(-7));
        assert_eq!(conv(&mut vm, "  19 trailing"), Value::Int(19));
        // Figure 5(a): unit suffix silently ignored.
        assert_eq!(conv(&mut vm, "9G"), Value::Int(9));
        // Garbage gives zero.
        assert_eq!(conv(&mut vm, "oops"), Value::Int(0));
        // 32-bit wrap-around on overflow.
        assert_eq!(
            conv(&mut vm, "9000000000"),
            Value::Int(9000000000i64 as i32 as i64)
        );
    }

    #[test]
    fn strtol_keeps_64_bits() {
        let (m, w) = vm_for("long conv(char* s) { return strtol(s, NULL, 10); }");
        let mut vm = Vm::new(&m, w);
        assert_eq!(
            vm.call("conv", &[Value::str("9000000000")]).unwrap(),
            Value::Int(9_000_000_000)
        );
    }

    #[test]
    fn file_system_calls() {
        let (m, mut w) = vm_for(
            r#"
            int try_open(char* path) { return open(path, 0); }
            int try_mkdir(char* path) { return mkdir(path, 493); }
            "#,
        );
        w.add_file("/etc/app.conf", "x = 1");
        let mut vm = Vm::new(&m, w);
        assert!(vm
            .call("try_open", &[Value::str("/etc/app.conf")])
            .unwrap()
            .as_int()
            .unwrap()
            .is_positive());
        assert_eq!(
            vm.call("try_open", &[Value::str("/missing")]).unwrap(),
            Value::Int(-1)
        );
        assert_eq!(
            vm.call("try_open", &[Value::str("/etc")]).unwrap(),
            Value::Int(-1),
            "opening a directory read-only fails"
        );
        assert_eq!(
            vm.call("try_mkdir", &[Value::str("/data/cache")]).unwrap(),
            Value::Int(0)
        );
        assert_eq!(
            vm.call("try_mkdir", &[Value::str("/no/parent/here")])
                .unwrap(),
            Value::Int(-1)
        );
    }

    #[test]
    fn port_binding_through_vm() {
        let (m, mut w) = vm_for("int grab(int p) { return bind(socket(0,0,0), p); }");
        w.occupy_port(80);
        let mut vm = Vm::new(&m, w);
        assert_eq!(vm.call("grab", &[Value::Int(80)]).unwrap(), Value::Int(-1));
        assert_eq!(vm.call("grab", &[Value::Int(8080)]).unwrap(), Value::Int(0));
        assert_eq!(vm.call("grab", &[Value::Int(0)]).unwrap(), Value::Int(-1));
        assert_eq!(
            vm.call("grab", &[Value::Int(99999)]).unwrap(),
            Value::Int(-1)
        );
    }

    #[test]
    fn logging_is_captured_with_formatting() {
        let (m, w) = vm_for(
            r#"
            void report(char* name, int v) {
                fprintf(stderr, "bad value %d for %s", v, name);
                log_error("param %s rejected", name);
            }
            "#,
        );
        let mut vm = Vm::new(&m, w);
        vm.call("report", &[Value::str("threads"), Value::Int(99)])
            .unwrap();
        let text = vm.log_text();
        assert!(text.contains("bad value 99 for threads"));
        assert!(text.contains("ERROR: param threads rejected"));
        assert_eq!(vm.logs[0].stream, LogStream::Stderr);
        assert_eq!(vm.logs[1].stream, LogStream::Syslog);
    }

    #[test]
    fn sscanf_leaves_target_on_mismatch() {
        let (m, w) = vm_for(
            r#"
            int parse(char* s) {
                int v = 1234;
                sscanf(s, "%i", &v);
                return v;
            }
            "#,
        );
        let mut vm = Vm::new(&m, w);
        assert_eq!(
            vm.call("parse", &[Value::str("77")]).unwrap(),
            Value::Int(77)
        );
        // Mismatch: v keeps its previous (garbage) value — Figure 6(d).
        assert_eq!(
            vm.call("parse", &[Value::str("abc")]).unwrap(),
            Value::Int(1234)
        );
    }

    #[test]
    fn strcmp_family() {
        let (m, w) = vm_for(
            r#"
            int eq(char* a, char* b) { return strcmp(a, b) == 0; }
            int ieq(char* a, char* b) { return strcasecmp(a, b) == 0; }
            "#,
        );
        let mut vm = Vm::new(&m, w);
        assert_eq!(
            vm.call("eq", &[Value::str("on"), Value::str("ON")])
                .unwrap(),
            Value::Int(0)
        );
        assert_eq!(
            vm.call("ieq", &[Value::str("on"), Value::str("ON")])
                .unwrap(),
            Value::Int(1)
        );
    }

    #[test]
    fn strcmp_on_null_is_segv() {
        let (m, w) = vm_for("int f(char* a) { return strcmp(a, \"x\"); }");
        let mut vm = Vm::new(&m, w);
        assert_eq!(
            vm.call("f", &[Value::Null]).unwrap_err(),
            VmHalt::Fatal(Signal::Segv)
        );
    }

    #[test]
    fn getpwnam_and_hosts() {
        let (m, w) = vm_for(
            r#"
            int user_ok(char* u) { return getpwnam(u) != NULL; }
            int host_ok(char* h) { return gethostbyname(h) != NULL; }
            "#,
        );
        let mut vm = Vm::new(&m, w);
        assert_eq!(
            vm.call("user_ok", &[Value::str("nobody")]).unwrap(),
            Value::Int(1)
        );
        assert_eq!(
            vm.call("user_ok", &[Value::str("ghost")]).unwrap(),
            Value::Int(0)
        );
        assert_eq!(
            vm.call("host_ok", &[Value::str("localhost")]).unwrap(),
            Value::Int(1)
        );
    }

    #[test]
    fn inet_addr_parsing() {
        let (m, w) = vm_for("int ip(char* s) { return inet_addr(s) != -1; }");
        let mut vm = Vm::new(&m, w);
        assert_eq!(
            vm.call("ip", &[Value::str("192.168.0.1")]).unwrap(),
            Value::Int(1)
        );
        assert_eq!(
            vm.call("ip", &[Value::str("999.1.1.1")]).unwrap(),
            Value::Int(0)
        );
        assert_eq!(
            vm.call("ip", &[Value::str("not-an-ip")]).unwrap(),
            Value::Int(0)
        );
    }

    #[test]
    fn malloc_budget_returns_null() {
        let (m, mut w) = vm_for("int big(long n) { return malloc(n) != NULL; }");
        w.mem_limit = 1024;
        let mut vm = Vm::new(&m, w);
        assert_eq!(vm.call("big", &[Value::Int(512)]).unwrap(), Value::Int(1));
        assert_eq!(
            vm.call("big", &[Value::Int(100_000)]).unwrap(),
            Value::Int(0)
        );
    }

    #[test]
    fn string_char_indexing() {
        let (m, w) = vm_for(
            r#"
            int first_lower(char* s) {
                int c = s[0];
                return c >= 97 && c <= 122;
            }
            "#,
        );
        let mut vm = Vm::new(&m, w);
        assert_eq!(
            vm.call("first_lower", &[Value::str("abc")]).unwrap(),
            Value::Int(1)
        );
        assert_eq!(
            vm.call("first_lower", &[Value::str("ABC")]).unwrap(),
            Value::Int(0)
        );
    }

    #[test]
    fn htons_truncates_like_c() {
        let (m, w) = vm_for("int conv(int p) { return htons(p); }");
        let mut vm = Vm::new(&m, w);
        // 70000 wraps into u16 range — the classic invalid-port confusion.
        assert_eq!(
            vm.call("conv", &[Value::Int(70000)]).unwrap(),
            Value::Int(70000 % 65536)
        );
    }
}
