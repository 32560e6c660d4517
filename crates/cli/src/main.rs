//! The `spex` command line — SPEX (SOSP 2013, "Do not blame users for
//! misconfigurations") as a tool operators actually run: one-shot
//! analysis and checking (scaled across cores with `--threads`), a warm
//! check daemon, and an incremental watch loop.
//!
//! Exit codes are part of the contract: `0` clean, `1` errors (invalid
//! values, unreadable or unvalidated files), `2` warnings only, `3`
//! usage or operational failure. `analyze`, `db merge` and `fleet-gen`
//! return `0`/`3`; `check` and `react` surface the report's verdict.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod analyze;
mod checkcmd;
mod daemon;
mod dbcmd;
mod driver;
mod fleetgen;
mod watch;

/// Top-level usage. Golden-tested: `spex --help` must print exactly this.
const HELP: &str = "\
spex — do not blame users for misconfigurations (SOSP 2013)

USAGE:
    spex <SUBCOMMAND> [OPTIONS] [PATHS...]

SUBCOMMANDS:
    analyze      Infer configuration constraints from source, persist a database
    check        Validate configuration files against a constraint database
    react        Predict how the system would react to invalid values
    db merge     Merge constraint databases, tightest constraint wins
    daemon       Warm workspace answering JSON-Lines requests (stdio/socket)
    watch        Re-analyze and re-check on file changes (mtime polling)
    fleet-gen    Materialize the synthetic fleet corpus as fixtures

OPTIONS:
    -h, --help       Print help (or `spex <SUBCOMMAND> --help`)
    -V, --version    Print version

EXIT CODES:
    0 clean · 1 errors · 2 warnings only · 3 usage/operational failure
";

/// Per-subcommand usage, printed by `spex <SUBCOMMAND> --help`.
fn sub_help(cmd: &str) -> Option<&'static str> {
    Some(match cmd {
        "analyze" => {
            "USAGE: spex analyze [OPTIONS] SRC...\n\
             Infer constraints from mini-C sources (files, or directories walked\n\
             for *.c; sibling *.spex files supply mapping annotations).\n\n\
             OPTIONS:\n\
             \x20   --db PATH        Persist the constraint database here\n\
             \x20   --system NAME    Subject-system name [default: spex]\n\
             \x20   --dialect D      key-value | directive | space [default: key-value]\n\
             \x20   --threads N      Parallel inference threads [default: workspace]\n\
             \x20   --telemetry      Print the telemetry span tree after analysis\n\
             \x20   --quiet          Suppress the analysis summary\n"
        }
        "check" => {
            "USAGE: spex check --db PATH [OPTIONS] CONFIGS...\n\
             Validate config files (or directories, walked recursively) against\n\
             a persisted constraint database.\n\n\
             OPTIONS:\n\
             \x20   --db PATH        Constraint database to check against (required)\n\
             \x20   --format F       human | jsonl | sarif [default: human]\n\
             \x20   --color M        auto | always | never [default: auto]\n"
        }
        "react" => {
            "USAGE: spex react [OPTIONS] SRC...\n\
             Analyze sources, then report each parameter's predicted reaction\n\
             to an invalid value (SPEX-V001..V004).\n\n\
             OPTIONS: as `spex analyze`, plus --format / --color as `spex check`.\n"
        }
        "db" => {
            "USAGE: spex db merge --out PATH IN1 IN2...\n\
             Merge constraint databases in argument order; on conflicting\n\
             constraints for one parameter the tightest wins. Prints the merge\n\
             report and persists the result.\n"
        }
        "daemon" => {
            "USAGE: spex daemon (--stdio | --socket PATH) [OPTIONS]\n\
             Hold a warm workspace and answer versioned JSON-Lines requests\n\
             (analyze / check / react / status / shutdown) — see docs/protocol.md.\n\n\
             OPTIONS:\n\
             \x20   --stdio          Serve requests on stdin/stdout (EOF shuts down)\n\
             \x20   --socket PATH    Serve a Unix domain socket (connections served\n\
             \x20                    sequentially against the same warm state)\n\
             \x20   --system NAME    Subject-system name [default: spex]\n\
             \x20   --dialect D      key-value | directive | space [default: key-value]\n\
             \x20   --threads N      Parallel inference threads\n\
             \x20   --db PATH        Seed the workspace from a persisted database\n"
        }
        "watch" => {
            "USAGE: spex watch --src PATH [--src PATH...] [OPTIONS]\n\
             Poll sources and configs for changes (mtime+size, std-only),\n\
             debounce, re-analyze only what the edit dirtied, re-check.\n\n\
             OPTIONS:\n\
             \x20   --src PATH         Source file/dir to watch (repeatable, required)\n\
             \x20   --conf PATH        Config file/dir to re-check (repeatable)\n\
             \x20   --system NAME      Subject-system name [default: spex]\n\
             \x20   --dialect D        key-value | directive | space [default: key-value]\n\
             \x20   --threads N        Parallel inference threads\n\
             \x20   --poll-ms N        Poll interval [default: 200]\n\
             \x20   --debounce-ms N    Quiet window before applying [default: 150]\n\
             \x20   --max-events N     Exit after N applied events (0 = forever)\n\
             \x20   --format F         human | jsonl | sarif [default: human]\n\
             \x20   --color M          auto | always | never [default: auto]\n"
        }
        "fleet-gen" => {
            "USAGE: spex fleet-gen --out DIR [OPTIONS]\n\
             Write the deterministic synthetic fleet (sources + annotations\n\
             under DIR/src, config corpus under DIR/configs).\n\n\
             OPTIONS:\n\
             \x20   --out DIR                 Output directory (required)\n\
             \x20   --modules N               Fleet size [default: 24]\n\
             \x20   --configs-per-module N    Config files per module [default: 7]\n\
             \x20   --seed N                  Generation seed [default: 989927]\n"
        }
        _ => return None,
    })
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first().cloned() else {
        eprint!("{HELP}");
        std::process::exit(3);
    };
    match cmd.as_str() {
        "-h" | "--help" | "help" => {
            print!("{HELP}");
            return;
        }
        "-V" | "--version" => {
            println!("spex {}", env!("CARGO_PKG_VERSION"));
            return;
        }
        _ => {}
    }
    if args.iter().any(|a| a == "-h" || a == "--help") {
        match sub_help(&cmd) {
            Some(h) => {
                print!("{h}");
                return;
            }
            None => {
                eprintln!("spex: error: unknown subcommand {cmd:?}");
                eprint!("{HELP}");
                std::process::exit(3);
            }
        }
    }
    let rest: Vec<String> = args.split_off(1);
    install_pipe_quiet_hook();
    let result = std::panic::catch_unwind(move || match cmd.as_str() {
        "analyze" => analyze::run(rest.into_iter()),
        "check" => checkcmd::run(rest.into_iter()),
        "react" => analyze::run_react(rest.into_iter()),
        "db" => dbcmd::run(rest.into_iter()),
        "daemon" => daemon::run(rest.into_iter()),
        "watch" => watch::run(rest.into_iter()),
        "fleet-gen" => fleetgen::run(rest.into_iter()),
        other => {
            eprintln!("spex: error: unknown subcommand {other:?}");
            eprint!("{HELP}");
            std::process::exit(3);
        }
    });
    match result {
        Ok(Ok(code)) => std::process::exit(code),
        Ok(Err(e)) => {
            eprintln!("spex: error: {e}");
            std::process::exit(3);
        }
        Err(payload) => {
            if is_broken_pipe(payload.as_ref()) {
                // Downstream closed the pipe (`spex ... | head`): a normal
                // early exit, reported the way a SIGPIPE death would be.
                std::process::exit(128 + 13);
            }
            std::panic::resume_unwind(payload);
        }
    }
}

/// `println!` panics on EPIPE; without this, `spex check | head` ends in a
/// backtrace. The hook silences that one panic class (the unwind is then
/// converted to exit 141 in [`main`]); everything else keeps the default
/// report.
fn install_pipe_quiet_hook() {
    let default = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if !is_broken_pipe(info.payload()) {
            default(info);
        }
    }));
}

/// Whether a panic payload is std's "failed printing to stdout: Broken
/// pipe" (the payload is always the formatted `String`).
fn is_broken_pipe(payload: &dyn std::any::Any) -> bool {
    payload
        .downcast_ref::<String>()
        .is_some_and(|s| s.contains("Broken pipe"))
}
