//! # SPEX — "Do Not Blame Users for Misconfigurations" (SOSP 2013)
//!
//! A from-scratch Rust reproduction of Xu et al.'s SPEX system: automatic
//! inference of configuration constraints from source code, constraint-
//! guided misconfiguration injection (SPEX-INJ), and detection of
//! error-prone configuration design.
//!
//! This facade re-exports the workspace crates:
//!
//! * [`lang`] — the mini-C front-end (standing in for Clang);
//! * [`ir`] — the CFG/SSA intermediate representation (standing in for
//!   LLVM IR);
//! * [`dataflow`] — the inter-procedural, field-sensitive data-flow engine;
//! * [`core`] — SPEX itself: mapping toolkits and the five constraint
//!   inference passes;
//! * [`conf`] — the configuration-file abstract representation;
//! * [`vm`] — the IR interpreter with a modelled OS;
//! * [`inject`] — SPEX-INJ: generation, injection, reaction classification;
//! * [`design`] — the error-prone-design detectors;
//! * [`systems`] — the seven generated subject systems of the evaluation;
//! * [`react`] — static reaction analysis: predicts each parameter's
//!   reaction path for invalid values (`SPEX-V001..V004`) from the IR,
//!   no injection run required;
//! * [`check`] — the constraint-driven configuration validation engine
//!   (infer → persist → check);
//! * [`obs`] — std-only telemetry: structured spans, a metrics registry,
//!   and snapshot renderers, threaded through the whole stack (enable it
//!   per workspace with [`Workspace::enable_telemetry`] and read it back
//!   with [`Workspace::telemetry`]).
//!
//! # The primary entry point: [`Workspace`]
//!
//! A [`Workspace`] is a long-lived session owning sources, annotations and
//! a persisted constraint database. It keys each function by its tokens,
//! re-infers only what a change dirtied, merges results into a versioned
//! database, and streams whole configuration trees through the batch
//! checker:
//!
//! ```
//! use spex::conf::Dialect;
//! use spex::Workspace;
//!
//! let mut ws = Workspace::new("demo", Dialect::KeyValue);
//! ws.add_module(
//!     "config.c",
//!     r#"
//!     int index_intlen = 4;
//!     struct opt { char* name; int* var; };
//!     struct opt options[] = { { "index_intlen", &index_intlen } };
//!     void config_generic() {
//!         if (index_intlen < 4) { index_intlen = 4; }
//!         else if (index_intlen > 255) { index_intlen = 255; }
//!     }
//!     "#,
//!     "{ @STRUCT = options\n  @PAR = [opt, 1]\n  @VAR = [opt, 2] }",
//! )
//! .unwrap();
//! ws.reanalyze();
//! assert!(!ws.check_text("index_intlen = 1024\n").is_empty());
//!
//! // Later edits re-infer only what they touched:
//! // ws.update_module("config.c", edited)?; ws.reanalyze();
//! ```
//!
//! Checking runs on a **borrowed** [`CheckSession`] that
//! [`Workspace::session`] builds anew on every call: the database is its
//! own parameter index, so a session builds nothing and copies no
//! constraint. Every finding carries a stable [`DiagCode`] (`SPEX-Rxxx`),
//! the violated constraint's provenance, and — where computable — a
//! machine-applicable fix; whole runs leave the system as a [`Report`]
//! renderable as human text, JSON Lines or a SARIF-style document (see
//! [`Renderer`]).
//!
//! The one-shot pipeline (`Spex::analyze` on a hand-lowered module) is
//! still available through [`core`], but new code should hold a
//! `Workspace` so re-analysis stays proportional to the change.

pub use spex_check as check;
pub use spex_conf as conf;
pub use spex_core as core;
pub use spex_dataflow as dataflow;
pub use spex_design as design;
pub use spex_inj as inject;
pub use spex_ir as ir;
pub use spex_lang as lang;
pub use spex_obs as obs;
pub use spex_react as react;
pub use spex_systems as systems;
pub use spex_vm as vm;

pub use spex_check::{
    CheckSession, ColorMode, DiagCode, HumanRenderer, JsonLinesRenderer, ReanalyzeReport, Renderer,
    Report, SarifRenderer, Workspace, WorkspaceError,
};
pub use spex_obs::{Recorder, TelemetrySnapshot};
