//! End-to-end tests against the built `spex` binary
//! (`CARGO_BIN_EXE_spex`): golden help/version output, the 0/1/2/3 exit
//! code contract, color toggles, daemon round-trips (including the
//! byte-identity guarantee against one-shot `check --format jsonl` and
//! the incremental pass-cache counters), db merge, load-error context,
//! and the watch loop.

use std::io::Write as _;
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};

use spex::check::json::Json;

/// The control-dependency fixture: `commit_siblings` only matters while
/// `fsync` is on, so `fsync = 0` plus `commit_siblings = 5` draws exactly
/// one SPEX-R005 warning (exit 2) and an unknown key draws a SPEX-R007
/// error (exit 1).
const GUARDED_C: &str = r#"
int fsync_on = 1;
int commit_siblings = 5;
struct opt { char* name; int* var; };
struct opt options[] = { { "fsync", &fsync_on }, { "commit_siblings", &commit_siblings } };
void flush() { if (commit_siblings > 0) { sleep(commit_siblings); } }
void main_loop() { if (fsync_on) { flush(); } }
"#;

const GUARDED_SPEX: &str = "{ @STRUCT = options\n  @PAR = [opt, 1]\n  @VAR = [opt, 2] }";

/// A two-function module whose `fa` edit leaves `fb` (and so `beta`'s
/// taint slice) warm — the incremental daemon test's subject.
const TWO_FN_C_V1: &str = r#"
int alpha = 4;
int beta = 7;
struct bopt { char* name; int* var; };
struct bopt boptions[] = { { "alpha", &alpha }, { "beta", &beta } };
void fa() { if (alpha < 1) { alpha = 1; } }
void fb() { if (beta > 64) { beta = 64; } }
"#;

/// V1 with only `fa`'s body changed.
const TWO_FN_C_V2: &str = r#"
int alpha = 4;
int beta = 7;
struct bopt { char* name; int* var; };
struct bopt boptions[] = { { "alpha", &alpha }, { "beta", &beta } };
void fa() { if (alpha < 2) { alpha = 2; } }
void fb() { if (beta > 64) { beta = 64; } }
"#;

const TWO_FN_SPEX: &str = "{ @STRUCT = boptions\n  @PAR = [bopt, 1]\n  @VAR = [bopt, 2] }";

/// A did-you-mean tie: `port_c` is one edit from both keys, and the
/// option table lists `port_b` first. A workspace holds its entries in
/// first-seen order, a loaded database in name order.
const PORT_TIE_C: &str = r#"
int port_b = 8081;
int port_a = 8080;
struct opt { char* name; int* var; };
struct opt options[] = { { "port_b", &port_b }, { "port_a", &port_a } };
void serve() { listen(0, port_a); listen(0, port_b); }
"#;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_spex"))
}

/// A fresh scratch directory, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        static SEQ: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "spex-cli-test-{}-{}-{tag}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }

    fn path(&self, rel: &str) -> PathBuf {
        self.0.join(rel)
    }

    fn write(&self, rel: &str, text: &str) -> PathBuf {
        let path = self.path(rel);
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent).unwrap();
        }
        std::fs::write(&path, text).unwrap();
        path
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn stdout_str(out: &Output) -> &str {
    std::str::from_utf8(&out.stdout).unwrap()
}

fn stderr_str(out: &Output) -> &str {
    std::str::from_utf8(&out.stderr).unwrap()
}

/// Writes the guarded fixture and analyzes it into `demo.spexdb`;
/// returns the database path.
fn analyzed_guarded_db(s: &Scratch) -> PathBuf {
    let src = s.write("guarded.c", GUARDED_C);
    s.write("guarded.spex", GUARDED_SPEX);
    let db = s.path("demo.spexdb");
    let out = bin()
        .args(["analyze", "--system", "demo", "--db"])
        .arg(&db)
        .arg(&src)
        .output()
        .unwrap();
    assert!(out.status.success(), "analyze failed: {}", stderr_str(&out));
    db
}

#[test]
fn help_and_version_are_golden() {
    let help = bin().arg("--help").output().unwrap();
    assert!(help.status.success());
    let text = stdout_str(&help);
    assert!(text.starts_with("spex — do not blame users for misconfigurations (SOSP 2013)\n"));
    for needle in [
        "USAGE:",
        "analyze",
        "check",
        "react",
        "db merge",
        "daemon",
        "watch",
        "fleet-gen",
        "0 clean · 1 errors · 2 warnings only · 3 usage/operational failure",
    ] {
        assert!(text.contains(needle), "--help misses {needle:?}:\n{text}");
    }
    // `-h`, `help` and `--help` agree byte-for-byte.
    for alias in ["-h", "help"] {
        let out = bin().arg(alias).output().unwrap();
        assert_eq!(stdout_str(&out), text, "{alias} diverged from --help");
    }

    let version = bin().arg("--version").output().unwrap();
    assert!(version.status.success());
    assert_eq!(
        stdout_str(&version),
        format!("spex {}\n", env!("CARGO_PKG_VERSION"))
    );

    assert!(!text.contains("shard"), "--help still lists shard:\n{text}");

    // No arguments / unknown subcommands are usage failures: exit 3,
    // usage on stderr, nothing on stdout. `shard` is gone: `--threads`
    // scales analysis, `db merge` combines databases analyzed apart.
    for args in [&[][..], &["frobnicate"][..], &["shard"][..]] {
        let out = bin().args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(3));
        assert!(stdout_str(&out).is_empty());
        assert!(stderr_str(&out).contains("USAGE:"));
    }

    // Every subcommand answers --help on stdout with exit 0.
    for cmd in [
        "analyze",
        "check",
        "react",
        "db",
        "daemon",
        "watch",
        "fleet-gen",
    ] {
        let out = bin().args([cmd, "--help"]).output().unwrap();
        assert!(out.status.success(), "{cmd} --help failed");
        assert!(
            stdout_str(&out).starts_with("USAGE: spex "),
            "{cmd} --help has no usage line"
        );
    }
    let daemon_help = bin().args(["daemon", "--help"]).output().unwrap();
    assert!(stdout_str(&daemon_help).contains("docs/protocol.md"));
}

#[test]
fn check_exit_codes_cover_clean_warn_error() {
    let s = Scratch::new("exit-codes");
    let db = analyzed_guarded_db(&s);
    let cases = [
        ("clean.conf", "fsync = 1\ncommit_siblings = 5\n", 0),
        ("warn.conf", "fsync = 0\ncommit_siblings = 5\n", 2),
        ("err.conf", "nonsense = 1\n", 1),
    ];
    for (name, text, code) in cases {
        let conf = s.write(name, text);
        let out = bin()
            .args(["check", "--db"])
            .arg(&db)
            .arg(&conf)
            .output()
            .unwrap();
        assert_eq!(
            out.status.code(),
            Some(code),
            "{name}: wrong exit\nstdout: {}\nstderr: {}",
            stdout_str(&out),
            stderr_str(&out)
        );
    }
    // The warning is the control-dependency code, and jsonl output is
    // structurally valid.
    let warn = s.path("warn.conf");
    let out = bin()
        .args(["check", "--format", "jsonl", "--db"])
        .arg(&db)
        .arg(&warn)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let text = stdout_str(&out);
    assert!(
        text.contains("\"code\":\"SPEX-R005\""),
        "no SPEX-R005 in: {text}"
    );
    for line in text.lines() {
        Json::parse(line).unwrap_or_else(|e| panic!("bad jsonl line {line:?}: {e}"));
    }
}

#[test]
fn color_flag_and_no_color_control_escapes() {
    let s = Scratch::new("color");
    let db = analyzed_guarded_db(&s);
    let conf = s.write("err.conf", "nonsense = 1\n");

    // Piped stdout is not a terminal: auto must stay plain.
    let auto = bin()
        .args(["check", "--db"])
        .arg(&db)
        .arg(&conf)
        .output()
        .unwrap();
    assert!(!stdout_str(&auto).contains('\x1b'), "auto colored a pipe");

    // An explicit --color always wins, even against NO_COLOR.
    let always = bin()
        .args(["check", "--color", "always", "--db"])
        .arg(&db)
        .arg(&conf)
        .env("NO_COLOR", "1")
        .output()
        .unwrap();
    let text = stdout_str(&always);
    assert!(
        text.contains("\x1b[31;1merror[SPEX-R007]\x1b[0m"),
        "--color always missing escapes: {text}"
    );

    let never = bin()
        .args(["check", "--color", "never", "--db"])
        .arg(&db)
        .arg(&conf)
        .output()
        .unwrap();
    assert_eq!(stdout_str(&auto), stdout_str(&never));

    let bad = bin()
        .args(["check", "--color", "sometimes", "--db"])
        .arg(&db)
        .arg(&conf)
        .output()
        .unwrap();
    assert_eq!(bad.status.code(), Some(3));
    assert!(stderr_str(&bad).contains("color"));
}

/// Runs a scripted `daemon --stdio` session: writes every request line,
/// closes stdin, returns full stdout.
fn daemon_session(extra_args: &[&str], requests: &[String]) -> String {
    let mut child = bin()
        .arg("daemon")
        .arg("--stdio")
        .args(extra_args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let mut stdin = child.stdin.take().unwrap();
    for line in requests {
        writeln!(stdin, "{line}").unwrap();
    }
    drop(stdin);
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success(), "daemon exited with {}", out.status);
    String::from_utf8(out.stdout).unwrap()
}

/// Splits a daemon reply stream into (header, body) pairs using each
/// header's `lines` count.
fn split_replies(stream: &str) -> Vec<(Json, String)> {
    let mut lines = stream.lines();
    let mut replies = Vec::new();
    while let Some(header) = lines.next() {
        let parsed = Json::parse(header).unwrap_or_else(|e| panic!("bad header {header:?}: {e}"));
        let count = parsed.get("lines").and_then(Json::as_f64).unwrap_or(0.0) as usize;
        let mut body = String::new();
        for _ in 0..count {
            body.push_str(lines.next().expect("body shorter than header's lines"));
            body.push('\n');
        }
        replies.push((parsed, body));
    }
    replies
}

#[test]
fn daemon_check_is_byte_identical_to_one_shot() {
    let s = Scratch::new("daemon-identity");
    let fleet = s.path("fleet");
    let out = bin()
        .args(["fleet-gen", "--modules", "4", "--out"])
        .arg(&fleet)
        .output()
        .unwrap();
    assert!(out.status.success(), "fleet-gen: {}", stderr_str(&out));
    let db = s.path("fleet.spexdb");
    let out = bin()
        .args(["analyze", "--quiet", "--system", "fleet", "--db"])
        .arg(&db)
        .arg(fleet.join("src"))
        .output()
        .unwrap();
    assert!(out.status.success(), "analyze: {}", stderr_str(&out));

    let configs = fleet.join("configs").join("m0000");
    let one_shot = bin()
        .args(["check", "--format", "jsonl", "--db"])
        .arg(&db)
        .arg(&configs)
        .output()
        .unwrap();
    assert_eq!(one_shot.status.code(), Some(1), "corpus has a bogus key");

    let stream = daemon_session(
        &["--db", db.to_str().unwrap()],
        &[
            format!(
                "{{\"v\":1,\"id\":1,\"op\":\"check\",\"paths\":[{}]}}",
                spex::check::json::quote(configs.to_str().unwrap())
            ),
            "{\"v\":1,\"id\":2,\"op\":\"shutdown\"}".into(),
        ],
    );
    let replies = split_replies(&stream);
    assert_eq!(replies.len(), 2);
    let (header, body) = &replies[0];
    assert_eq!(header.get("ok"), Some(&Json::Bool(true)));
    assert_eq!(header.get("exit_code").and_then(Json::as_f64), Some(1.0));
    assert_eq!(
        body.as_bytes(),
        one_shot.stdout.as_slice(),
        "daemon check body diverged from one-shot jsonl output"
    );
    assert_eq!(
        replies[1].0.get("op").and_then(Json::as_str),
        Some("shutdown")
    );

    // A daemon that built its database through `analyze` must break a
    // suggestion tie the way the one-shot check over the saved db does.
    let src = s.write("tie/ports.c", PORT_TIE_C);
    s.write("tie/ports.spex", GUARDED_SPEX);
    let tie_db = s.path("tie.spexdb");
    let out = bin()
        .args(["analyze", "--quiet", "--system", "tie", "--db"])
        .arg(&tie_db)
        .arg(&src)
        .output()
        .unwrap();
    assert!(out.status.success(), "analyze: {}", stderr_str(&out));
    let conf = s.write("tie-conf/a.conf", "port_c = 1\n");
    let one_shot = bin()
        .args(["check", "--format", "jsonl", "--db"])
        .arg(&tie_db)
        .arg(&conf)
        .output()
        .unwrap();
    assert!(
        stdout_str(&one_shot).contains(r#"did you mean \"port_a\"?"#),
        "{}",
        stdout_str(&one_shot)
    );
    let quote = spex::check::json::quote;
    let stream = daemon_session(
        &["--system", "tie"],
        &[
            format!(
                "{{\"v\":1,\"id\":1,\"op\":\"analyze\",\"modules\":[{{\"name\":{},\"source\":{},\"annotations\":{}}}]}}",
                quote(src.to_str().unwrap()),
                quote(PORT_TIE_C),
                quote(GUARDED_SPEX)
            ),
            format!(
                "{{\"v\":1,\"id\":2,\"op\":\"check\",\"paths\":[{}]}}",
                quote(conf.to_str().unwrap())
            ),
            "{\"v\":1,\"id\":3,\"op\":\"shutdown\"}".into(),
        ],
    );
    let replies = split_replies(&stream);
    assert_eq!(replies.len(), 3);
    assert_eq!(replies[0].0.get("ok"), Some(&Json::Bool(true)));
    assert_eq!(
        replies[1].1,
        stdout_str(&one_shot),
        "a workspace-ordered db broke the tie differently"
    );
}

#[test]
fn daemon_rejects_malformed_and_unversioned_requests() {
    let stream = daemon_session(
        &["--system", "demo"],
        &[
            "this is not json".into(),
            "{\"id\":7,\"op\":\"status\"}".into(),
            "{\"v\":99,\"id\":8,\"op\":\"status\"}".into(),
            "{\"v\":1,\"id\":9,\"op\":\"frobnicate\"}".into(),
            "{\"v\":1,\"id\":10,\"op\":\"shutdown\"}".into(),
        ],
    );
    let replies = split_replies(&stream);
    assert_eq!(replies.len(), 5);
    let (malformed, _) = &replies[0];
    assert_eq!(malformed.get("ok"), Some(&Json::Bool(false)));
    assert_eq!(malformed.get("id"), Some(&Json::Null));
    assert!(malformed
        .get("error")
        .and_then(Json::as_str)
        .unwrap()
        .contains("malformed request"));
    // A parseable request still gets its id echoed on the error path.
    assert_eq!(replies[1].0.get("id").and_then(Json::as_f64), Some(7.0));
    assert!(replies[1]
        .0
        .get("error")
        .and_then(Json::as_str)
        .unwrap()
        .contains("version"));
    assert!(replies[2]
        .0
        .get("error")
        .and_then(Json::as_str)
        .unwrap()
        .contains("version"));
    assert!(replies[3]
        .0
        .get("error")
        .and_then(Json::as_str)
        .unwrap()
        .contains("frobnicate"));
    assert_eq!(replies[4].0.get("ok"), Some(&Json::Bool(true)));
}

#[test]
fn daemon_answers_hostile_nesting_and_keeps_serving() {
    // Source nested far past the parser's limit, then a request nested far
    // past the JSON reader's: each draws one error reply, and the daemon
    // answers the next request.
    let source = format!(
        "int f() {{ return {}1{}; }}",
        "(".repeat(10_000),
        ")".repeat(10_000)
    );
    let stream = daemon_session(
        &["--system", "demo"],
        &[
            format!(
                "{{\"v\":1,\"id\":1,\"op\":\"analyze\",\
                 \"modules\":[{{\"name\":\"deep.c\",\"source\":\"{source}\"}}]}}"
            ),
            format!(
                "{{\"v\":1,\"id\":2,\"op\":\"status\",\"x\":{}{}}}",
                "[".repeat(50_000),
                "]".repeat(50_000)
            ),
            "{\"v\":1,\"id\":3,\"op\":\"status\"}".into(),
        ],
    );
    let replies = split_replies(&stream);
    let ok: Vec<_> = replies.iter().map(|(h, _)| h.get("ok")).collect();
    let (yes, no) = (Json::Bool(true), Json::Bool(false));
    assert_eq!(ok, [Some(&no), Some(&no), Some(&yes)]);
    for (header, _) in &replies[..2] {
        let error = header.get("error").and_then(Json::as_str).unwrap();
        assert!(error.contains("nesting deeper than"), "{error}");
    }
    assert_eq!(replies[2].0.get("id").and_then(Json::as_f64), Some(3.0));
}

#[test]
fn daemon_second_analyze_reinfers_only_dirty_parameters() {
    let stream = daemon_session(
        &["--system", "demo"],
        &[
            format!(
                "{{\"v\":1,\"id\":1,\"op\":\"analyze\",\"modules\":[{}]}}",
                module_json("b.c", TWO_FN_C_V1, Some(TWO_FN_SPEX))
            ),
            "{\"v\":1,\"id\":2,\"op\":\"check\",\"configs\":[{\"name\":\"a.conf\",\"text\":\"alpha = 5\\nbeta = 8\\n\"}]}".into(),
            format!(
                "{{\"v\":1,\"id\":3,\"op\":\"analyze\",\"modules\":[{}]}}",
                module_json("b.c", TWO_FN_C_V2, None)
            ),
            "{\"v\":1,\"id\":4,\"op\":\"check\",\"configs\":[{\"name\":\"a.conf\",\"text\":\"alpha = 5\\nbeta = 8\\n\"}]}".into(),
            "{\"v\":1,\"id\":5,\"op\":\"status\"}".into(),
            "{\"v\":1,\"id\":6,\"op\":\"shutdown\"}".into(),
        ],
    );
    let replies = split_replies(&stream);
    assert_eq!(replies.len(), 6);
    let first = &replies[0].0;
    assert_eq!(
        first.get("params_reinferred").and_then(Json::as_f64),
        Some(2.0)
    );
    assert_eq!(
        replies[1].0.get("exit_code").and_then(Json::as_f64),
        Some(0.0)
    );

    // The edit touched only `fa`, so only `alpha` re-infers...
    let second = &replies[2].0;
    assert_eq!(
        second.get("modules_analyzed").and_then(Json::as_f64),
        Some(1.0)
    );
    assert_eq!(second.get("params_total").and_then(Json::as_f64), Some(2.0));
    assert_eq!(
        second.get("params_reinferred").and_then(Json::as_f64),
        Some(1.0)
    );
    assert_eq!(
        replies[3].0.get("exit_code").and_then(Json::as_f64),
        Some(0.0)
    );

    // ...and status shows the pass caches carrying the untouched half.
    let status = &replies[4].0;
    let last = status.get("last").expect("status.last");
    assert_eq!(
        last.get("params_reinferred").and_then(Json::as_f64),
        Some(1.0)
    );
    assert_eq!(
        last.get("mapping_cache_hits").and_then(Json::as_f64),
        Some(1.0)
    );
    assert_eq!(
        last.get("taint_cache_hits").and_then(Json::as_f64),
        Some(1.0)
    );
    assert_eq!(
        last.get("react_cache_hits").and_then(Json::as_f64),
        Some(1.0)
    );
    assert_eq!(status.get("checks").and_then(Json::as_f64), Some(2.0));
    assert_eq!(status.get("modules").and_then(Json::as_f64), Some(1.0));
    let total = status.get("total").expect("status.total");
    assert_eq!(
        total.get("params_reinferred").and_then(Json::as_f64),
        Some(3.0)
    );
}

/// One `analyze` module entry, its annotations optional.
fn module_json(name: &str, source: &str, annotations: Option<&str>) -> String {
    let quote = spex::check::json::quote;
    let mut obj = format!("{{\"name\":{},\"source\":{}", quote(name), quote(source));
    if let Some(a) = annotations {
        obj.push_str(&format!(",\"annotations\":{}", quote(a)));
    }
    obj.push('}');
    obj
}

fn analyze_request(id: usize, modules: &[String]) -> String {
    format!(
        "{{\"v\":1,\"id\":{id},\"op\":\"analyze\",\"modules\":[{}]}}",
        modules.join(",")
    )
}

/// An `analyze` that updates one module and adds three builds the
/// database a one-shot `spex analyze` builds: `check` and `react` bodies
/// are byte-identical.
#[test]
fn daemon_multi_module_analyze_equals_one_shot() {
    let s = Scratch::new("daemon-multi");
    let fleet = s.path("fleet");
    let out = bin()
        .args(["fleet-gen", "--modules", "4", "--out"])
        .arg(&fleet)
        .output()
        .unwrap();
    assert!(out.status.success(), "fleet-gen: {}", stderr_str(&out));
    let src = fleet.join("src");
    let db = s.path("fleet.spexdb");
    let out = bin()
        .args(["analyze", "--quiet", "--system", "fleet", "--db"])
        .arg(&db)
        .arg(&src)
        .output()
        .unwrap();
    assert!(out.status.success(), "analyze: {}", stderr_str(&out));
    let configs = fleet.join("configs").join("m0002");
    let check = bin()
        .args(["check", "--format", "jsonl", "--db"])
        .arg(&db)
        .arg(&configs)
        .output()
        .unwrap();
    let react = bin()
        .args(["react", "--system", "fleet", "--format", "jsonl"])
        .arg(&src)
        .output()
        .unwrap();

    let entries: Vec<String> = (0..4)
        .map(|i| {
            let path = src.join(format!("m{i:04}.c"));
            let text = |p: &PathBuf| std::fs::read_to_string(p).unwrap();
            let annotations = text(&path.with_extension("spex"));
            module_json(
                &path.display().to_string(),
                &text(&path),
                Some(&annotations),
            )
        })
        .collect();
    let quote = spex::check::json::quote;
    let stream = daemon_session(
        &["--system", "fleet"],
        &[
            analyze_request(1, &entries[1..2]),
            analyze_request(2, &entries),
            format!(
                "{{\"v\":1,\"id\":3,\"op\":\"check\",\"paths\":[{}]}}",
                quote(configs.to_str().unwrap())
            ),
            "{\"v\":1,\"id\":4,\"op\":\"react\"}".into(),
        ],
    );
    let replies = split_replies(&stream);
    assert_eq!(replies.len(), 4);
    assert_eq!(replies[1].0.get("ok"), Some(&Json::Bool(true)));
    assert_eq!(
        replies[1].0.get("modules_analyzed").and_then(Json::as_f64),
        Some(3.0),
        "the re-sent module is unchanged"
    );
    assert_eq!(replies[2].1, stdout_str(&check), "check bodies differ");
    assert_eq!(replies[3].1, stdout_str(&react), "react bodies differ");
}

/// Every entry is checked before any is applied, so a repeated name
/// changes nothing; new modules join in one batch and stop at the first
/// that fails, whose error is the reply.
#[test]
fn daemon_analyze_reports_the_failing_module() {
    let good = |name: &str| module_json(name, TWO_FN_C_V1, Some(TWO_FN_SPEX));
    let stream = daemon_session(
        &["--system", "demo"],
        &[
            analyze_request(1, &[good("a.c"), good("b.c"), good("a.c")]),
            "{\"v\":1,\"id\":2,\"op\":\"status\"}".into(),
            analyze_request(
                2,
                &[
                    good("a.c"),
                    module_json("bad.c", "int = ;", None),
                    good("c.c"),
                ],
            ),
            "{\"v\":1,\"id\":3,\"op\":\"status\"}".into(),
        ],
    );
    let replies = split_replies(&stream);
    let error = |i: usize| replies[i].0.get("error").and_then(Json::as_str).unwrap();
    let modules = |i: usize| replies[i].0.get("modules").and_then(Json::as_f64);
    assert!(error(0).contains("\"a.c\" given twice"), "{}", error(0));
    assert_eq!(modules(1), Some(0.0), "nothing applied");
    assert!(error(2).starts_with("module \"bad.c\": "), "{}", error(2));
    assert_eq!(modules(3), Some(1.0), "`a.c` joined before `bad.c` failed");
}

/// Annotations re-sent with other spacing parse to the stored ones and
/// re-infer nothing; a changed annotation re-infers the module.
#[test]
fn daemon_resent_annotations_reinfer_only_when_changed() {
    let respaced = TWO_FN_SPEX.replace("@PAR = ", "@PAR =  ");
    let changed = format!("{TWO_FN_SPEX}\n{{ @GETTER = get_i32\n  @PAR = 1\n  @VAR = $RET }}");
    let stream = daemon_session(
        &["--system", "demo"],
        &[
            analyze_request(1, &[module_json("b.c", TWO_FN_C_V1, Some(TWO_FN_SPEX))]),
            analyze_request(2, &[module_json("b.c", TWO_FN_C_V1, Some(&respaced))]),
            analyze_request(3, &[module_json("b.c", TWO_FN_C_V1, Some(&changed))]),
        ],
    );
    let reinferred: Vec<Option<f64>> = split_replies(&stream)
        .iter()
        .map(|(h, _)| h.get("params_reinferred").and_then(Json::as_f64))
        .collect();
    assert_eq!(reinferred, [Some(2.0), Some(0.0), Some(2.0)]);
}

/// A request line longer than the daemon's bound draws an error reply
/// without being buffered whole, and the next request is served.
#[test]
fn daemon_rejects_an_overlong_line_and_keeps_serving() {
    let mut child = bin()
        .args(["daemon", "--stdio", "--system", "demo"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let mut stdin = child.stdin.take().unwrap();
    // A valid `status` request padded past 64 MiB.
    stdin
        .write_all(b"{\"v\":1,\"id\":1,\"op\":\"status\",\"pad\":\"")
        .unwrap();
    let chunk = vec![b'x'; 1 << 20];
    for _ in 0..65 {
        stdin.write_all(&chunk).unwrap();
    }
    stdin
        .write_all(b"\"}\n{\"v\":1,\"id\":2,\"op\":\"status\"}\n")
        .unwrap();
    drop(stdin);
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success(), "daemon exited with {}", out.status);
    let replies = split_replies(stdout_str(&out));
    let ok: Vec<_> = replies.iter().map(|(h, _)| h.get("ok")).collect();
    assert_eq!(ok, [Some(&Json::Bool(false)), Some(&Json::Bool(true))]);
    let error = replies[0].0.get("error").and_then(Json::as_str).unwrap();
    assert!(error.contains("longer than"), "{error}");
    assert_eq!(replies[1].0.get("id").and_then(Json::as_f64), Some(2.0));
}

#[test]
fn db_merge_halves_reproduces_the_whole() {
    let s = Scratch::new("merge");
    let fleet = s.path("fleet");
    bin()
        .args(["fleet-gen", "--modules", "4", "--out"])
        .arg(&fleet)
        .output()
        .unwrap();
    let whole = s.path("whole.spexdb");
    let out = bin()
        .args(["analyze", "--quiet", "--system", "fleet", "--db"])
        .arg(&whole)
        .arg(fleet.join("src"))
        .output()
        .unwrap();
    assert!(out.status.success(), "analyze: {}", stderr_str(&out));

    // Analyze each half separately (same module paths, so provenance
    // matches the whole-run database).
    for (half, range) in [("a", 0..2), ("b", 2..4)] {
        let db = s.path(&format!("{half}.spexdb"));
        let mut cmd = bin();
        cmd.args(["analyze", "--quiet", "--system", "fleet", "--db"])
            .arg(&db);
        for i in range {
            cmd.arg(fleet.join("src").join(format!("m{i:04}.c")));
        }
        let out = cmd.output().unwrap();
        assert!(out.status.success(), "half {half}: {}", stderr_str(&out));
    }

    let merged = s.path("merged.spexdb");
    let out = bin()
        .args(["db", "merge", "--out"])
        .arg(&merged)
        .arg(s.path("a.spexdb"))
        .arg(s.path("b.spexdb"))
        .output()
        .unwrap();
    assert!(out.status.success(), "merge: {}", stderr_str(&out));
    assert!(
        stdout_str(&out).contains("new parameter(s)"),
        "no merge report: {}",
        stdout_str(&out)
    );
    assert_eq!(
        std::fs::read(&whole).unwrap(),
        std::fs::read(&merged).unwrap(),
        "merged halves differ from the whole-run db"
    );
}

#[test]
fn operational_failures_name_the_problem_and_exit_3() {
    let s = Scratch::new("op-errors");
    let conf = s.write("x.conf", "a = 1\n");

    // Missing database file: the path appears in the error.
    let missing = s.path("missing.spexdb");
    let out = bin()
        .args(["check", "--db"])
        .arg(&missing)
        .arg(&conf)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(3));
    assert!(
        stderr_str(&out).contains("missing.spexdb"),
        "{}",
        stderr_str(&out)
    );

    // Corrupt database: path and 1-based line number appear.
    let corrupt = s.write(
        "corrupt.spexdb",
        "spex-constraint-db v2\nsystem X\ndialect key-value\nc basic bool | f 1 1\n",
    );
    let out = bin()
        .args(["check", "--db"])
        .arg(&corrupt)
        .arg(&conf)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(3));
    let err = stderr_str(&out);
    assert!(err.contains("corrupt.spexdb"), "no path in: {err}");
    assert!(err.contains("line 4"), "no line number in: {err}");

    // Unknown options and missing required options are usage failures.
    let out = bin().args(["check", "--frobnicate"]).output().unwrap();
    assert_eq!(out.status.code(), Some(3));
    let out = bin().args(["check", "x.conf"]).output().unwrap();
    assert_eq!(out.status.code(), Some(3));
    assert!(stderr_str(&out).contains("--db"));
    let out = bin()
        .args(["analyze", "--dialect", "yaml", "x.c"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(3));
    assert!(stderr_str(&out).contains("dialect"));

    // `--threads 0` is a usage error wherever the flag is accepted (it
    // never silently means "the default"). `watch` gets a missing source
    // so that accepting the flag fails on the message, not by hanging.
    let src = s.write("src/x.c", "int x = 1;\n");
    let src_dir = src.parent().unwrap().to_str().unwrap();
    let missing = s.path("missing");
    let missing = missing.to_str().unwrap();
    for args in [
        &["analyze", "--threads", "0", src_dir][..],
        &["react", "--threads", "0", src_dir][..],
        &["watch", "--src", missing, "--threads", "0"][..],
        &["daemon", "--stdio", "--threads", "0"][..],
    ] {
        let out = bin().args(args).stdin(Stdio::null()).output().unwrap();
        assert_eq!(out.status.code(), Some(3), "{args:?}");
        assert!(
            stderr_str(&out).contains("--threads: must be at least 1"),
            "{args:?}: {}",
            stderr_str(&out)
        );
        assert!(
            stdout_str(&out).is_empty(),
            "{args:?}: {}",
            stdout_str(&out)
        );
    }
}

#[test]
fn react_reports_reaction_findings() {
    let s = Scratch::new("react");
    let src = s.write("guarded.c", GUARDED_C);
    s.write("guarded.spex", GUARDED_SPEX);
    let out = bin()
        .args(["react", "--system", "demo", "--format", "jsonl"])
        .arg(&src)
        .output()
        .unwrap();
    // The unchecked sleep(commit_siblings) is an error-grade reaction.
    assert_eq!(out.status.code(), Some(1), "stderr: {}", stderr_str(&out));
    let text = stdout_str(&out);
    assert!(
        text.contains("\"code\":\"SPEX-V003\""),
        "no SPEX-V003: {text}"
    );
    assert!(text.contains("sleep-duration sink"), "{text}");
}

#[test]
fn watch_applies_a_debounced_edit_and_exits_at_max_events() {
    let s = Scratch::new("watch");
    let src_dir = s.path("src");
    std::fs::create_dir_all(&src_dir).unwrap();
    s.write("src/guarded.c", GUARDED_C);
    s.write("src/guarded.spex", GUARDED_SPEX);
    let conf = s.write("conf/warn.conf", "fsync = 0\ncommit_siblings = 5\n");

    let mut child = bin()
        .arg("watch")
        .arg("--src")
        .arg(&src_dir)
        .arg("--conf")
        .arg(conf.parent().unwrap())
        .args([
            "--system",
            "demo",
            "--poll-ms",
            "50",
            "--debounce-ms",
            "100",
            "--max-events",
            "1",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();

    // Let the initial analyze+check land, then make one edit.
    std::thread::sleep(std::time::Duration::from_millis(1500));
    s.write(
        "src/guarded.c",
        &GUARDED_C.replace("commit_siblings > 0", "commit_siblings > 1"),
    );

    // --max-events 1 exits after applying that edit.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    loop {
        match child.try_wait().unwrap() {
            Some(_) => break,
            None if std::time::Instant::now() > deadline => {
                let _ = child.kill();
                panic!("watch did not exit after the edit");
            }
            None => std::thread::sleep(std::time::Duration::from_millis(100)),
        }
    }
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success(), "watch: {}", stderr_str(&out));
    let text = stdout_str(&out);
    assert!(text.contains("-- event 0\n"), "no initial event: {text}");
    assert!(text.contains("-- event 1\n"), "no applied event: {text}");
    assert!(
        text.contains("SPEX-R005"),
        "re-check lost the warning: {text}"
    );
    assert!(text.contains("exit: 2"), "no exit line: {text}");
}

#[cfg(unix)]
#[test]
fn daemon_socket_survives_reconnects_until_shutdown() {
    use std::io::{BufRead, BufReader};
    use std::os::unix::net::UnixStream;

    let s = Scratch::new("socket");
    let sock = s.path("d.sock");
    let mut child = bin()
        .args(["daemon", "--socket"])
        .arg(&sock)
        .args(["--system", "demo"])
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    while !sock.exists() {
        assert!(
            std::time::Instant::now() < deadline,
            "socket never appeared"
        );
        std::thread::sleep(std::time::Duration::from_millis(50));
    }

    // First connection: a status round-trip, then plain EOF.
    let mut conn = UnixStream::connect(&sock).unwrap();
    writeln!(conn, "{{\"v\":1,\"id\":1,\"op\":\"status\"}}").unwrap();
    let mut line = String::new();
    BufReader::new(conn.try_clone().unwrap())
        .read_line(&mut line)
        .unwrap();
    let reply = Json::parse(line.trim_end()).unwrap();
    assert_eq!(reply.get("op").and_then(Json::as_str), Some("status"));
    drop(conn);

    // The daemon outlives the connection: a second one can shut it down.
    let mut conn = UnixStream::connect(&sock).unwrap();
    writeln!(conn, "{{\"v\":1,\"id\":2,\"op\":\"shutdown\"}}").unwrap();
    let mut line = String::new();
    BufReader::new(conn.try_clone().unwrap())
        .read_line(&mut line)
        .unwrap();
    assert!(line.contains("\"op\":\"shutdown\""), "{line}");
    drop(conn);

    loop {
        match child.try_wait().unwrap() {
            Some(status) => {
                assert!(status.success());
                break;
            }
            None if std::time::Instant::now() > deadline => {
                let _ = child.kill();
                panic!("daemon did not exit after shutdown");
            }
            None => std::thread::sleep(std::time::Duration::from_millis(50)),
        }
    }
    assert!(!sock.exists(), "socket file not cleaned up");
}

#[test]
fn analyze_telemetry_prints_span_tree() {
    let s = Scratch::new("telemetry");
    let src = s.write("guarded.c", GUARDED_C);
    s.write("guarded.spex", GUARDED_SPEX);
    let out = bin()
        .args(["analyze", "--system", "demo", "--telemetry"])
        .arg(&src)
        .output()
        .unwrap();
    assert!(out.status.success(), "stderr: {}", stderr_str(&out));
    let text = stdout_str(&out);
    assert!(text.contains("spans:"), "no span tree: {text}");
    assert!(
        text.contains("workspace.reanalyze"),
        "no reanalyze span: {text}"
    );
}
