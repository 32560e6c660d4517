//! SPEX: automatic inference of configuration constraints from source code.
//!
//! This crate is the reproduction of the paper's core contribution (§2).
//! Given a lowered module and a handful of *annotations* describing how the
//! project maps configuration parameters to program variables (§2.2.1,
//! Figure 4), SPEX:
//!
//! 1. extracts the parameter→variable mapping using one of three template
//!    toolkits (structure-, comparison- and container-based);
//! 2. tracks each parameter's data flow with the engine from
//!    [`spex_dataflow`];
//! 3. infers five kinds of configuration constraints (§2.1, Figure 3):
//!    basic type, semantic type, data range, control dependency and value
//!    relationship.
//!
//! The results feed the misconfiguration-injection tester (`spex-inj`, §3.1)
//! and the error-prone-design detectors (`spex-design`, §3.2).
//!
//! # Examples
//!
//! ```
//! use spex_core::{annotations::Annotation, Spex};
//!
//! let src = r#"
//!     int listener_threads = 16;
//!     struct config_int { char* name; int* var; };
//!     struct config_int options[] = { { "listener-threads", &listener_threads } };
//!     void startup() {
//!         if (listener_threads > 16) { exit(1); }
//!         listen(0, listener_threads);
//!     }
//! "#;
//! let program = spex_lang::parse_program(src).unwrap();
//! let module = spex_ir::lower_program(&program).unwrap();
//! let ann = Annotation::parse(
//!     "{ @STRUCT = options\n  @PAR = [config_int, 1]\n  @VAR = [config_int, 2] }",
//! )
//! .unwrap();
//! let analysis = Spex::analyze(module, &ann);
//! let report = analysis.param("listener-threads").unwrap();
//! assert!(!report.constraints.is_empty());
//! ```

pub mod accuracy;
pub mod annotations;
pub mod apispec;
pub mod constraint;
pub mod fingerprint;
pub mod infer;
pub mod mapping;

pub use accuracy::{evaluate_accuracy, AccuracyReport};
pub use annotations::Annotation;
pub use constraint::{
    BasicType, CmpOp, Constraint, ConstraintKind, ControlDep, DiagCode, EnumAlternative, EnumValue,
    NumericRange, RangeSegment, SemType, SizeUnit, TimeUnit, ValueRel,
};
pub use fingerprint::{diff_fingerprints, FingerprintDiff};
pub use infer::{
    CountField, CountKind, Incremental, ParamReport, PassCache, PassCounts, Spex, SpexAnalysis,
};
pub use mapping::MappedParam;
