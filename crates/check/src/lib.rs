//! `spex-check` — constraint-driven configuration validation.
//!
//! The paper's thesis is that *systems, not users, should catch
//! misconfigurations*. The sibling crates infer configuration constraints
//! from source code (`spex-core`) and use them to attack a system with
//! generated misconfigurations (`spex-inj`). This crate closes the loop in
//! the other, proactive direction: it vets real configuration files
//! *before deployment* against the inferred constraints, so the
//! misconfiguration never reaches the system at all.
//!
//! The pipeline is **infer → persist → check**:
//!
//! 1. [`ConstraintDb`] — run inference once per system, persist the
//!    constraints in a compact, canonically ordered text format, and
//!    never pay for inference again;
//! 2. [`CheckSession`] — the *borrowed* validation engine: constructed
//!    over `&ConstraintDb` with zero copies, it validates parsed
//!    [`spex_conf::ConfFile`]s (basic- and semantic-type conformance,
//!    unit-aware values, numeric/enumerative ranges, control
//!    dependencies, value relationships, unknown-key detection) for one
//!    file, many in-memory texts, or streamed directory trees;
//! 3. [`Diagnostic`] — structured findings bearing a stable [`DiagCode`]
//!    (`SPEX-Rxxx`), severity, config line, the violated constraint's
//!    provenance (module + function + span) and, where computable, a
//!    machine-applicable [`Fix`];
//! 4. [`Report`] — per-file results plus statistics, rendered through any
//!    [`Renderer`] ([`HumanRenderer`], [`JsonLinesRenderer`],
//!    [`SarifRenderer`]) and mapped to stable exit codes.
//!
//! [`Workspace`] ties it together as a long-lived session: incremental
//! re-inference on edit, checking straight off the owned database (which
//! is its own parameter index), and database merging for sharded
//! analysis.
//! (The pre-0.3 `BatchEngine`/`Checker` wrappers were removed in 0.4;
//! batch work goes through [`CheckSession::check_texts`] /
//! [`CheckSession::check_paths`] or the workspace equivalents.)
//!
//! # Examples
//!
//! ```
//! use spex_check::{CheckSession, ConstraintDb};
//! use spex_conf::Dialect;
//! use spex_core::constraint::{
//!     Constraint, ConstraintKind, NumericRange, RangeSegment,
//! };
//!
//! // Persisted once by the inference stage (here: built by hand).
//! let mut db = ConstraintDb::new("demo", Dialect::KeyValue);
//! db.add(Constraint {
//!     param: "listener-threads".into(),
//!     kind: ConstraintKind::Range(NumericRange {
//!         cutpoints: vec![1, 16],
//!         segments: vec![
//!             RangeSegment { lo: None, hi: Some(0), valid: false },
//!             RangeSegment { lo: Some(1), hi: Some(16), valid: true },
//!             RangeSegment { lo: Some(17), hi: None, valid: false },
//!         ],
//!     }),
//!     in_function: "startup".into(),
//!     span: spex_lang::diag::Span::new(40, 9),
//! });
//! let db = ConstraintDb::load_from_str(&db.save_to_string()).unwrap();
//!
//! // Checked on every deployment: the session borrows the database.
//! let diags = CheckSession::new(&db).check_text("listener-threads = 9999\n");
//! assert_eq!(diags.len(), 1);
//! assert_eq!(diags[0].code.as_str(), "SPEX-R003");
//! assert!(diags[0].to_string().contains("[1, 16]"));
//! ```

pub mod db;
pub mod diag;
pub mod env;
pub use spex_obs::json;
mod pool;
pub mod report;
pub mod session;
pub mod workspace;

pub use db::{ConstraintDb, DbError, MergeConflict, MergeError, MergeReport, ParamEntry, Params};
pub use diag::{Diagnostic, Fix, Origin, Severity};
pub use env::{Environment, FsEnv, StaticEnv};
pub use report::{
    BatchStats, ColorMode, FileReport, HumanRenderer, JsonLinesRenderer, Renderer, Report,
    SarifRenderer,
};
pub use session::CheckSession;
pub use spex_core::constraint::DiagCode;
pub use spex_react::{ReactionClass, ReactionFinding, Sink, SinkKind};
pub use workspace::{ReanalyzeReport, Workspace, WorkspaceError};
