//! The infer → persist → check pipeline end to end.
//!
//! Infers constraints for one generated subject system, persists them to a
//! constraint database on disk, reloads the database, and validates both a
//! clean and a broken configuration file — the proactive workflow the
//! paper argues for: the system, not the user, catches the mistake before
//! deployment. Checking runs on a borrowed [`CheckSession`]: the database
//! is never copied, whether one file or a whole fleet is validated.
//!
//! ```text
//! cargo run --example check_config [system]
//! ```

use spex::check::{CheckSession, ConstraintDb, Report, StaticEnv};
use spex::core::{Annotation, Spex};
use spex::systems::BuiltSystem;
use spex::HumanRenderer;

fn main() {
    let name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "OpenLDAP".to_string());
    let spec = spex::systems::system_by_name(&name).unwrap_or_else(|| {
        eprintln!("unknown system {name:?}; try OpenLDAP, Apache, MySQL, ...");
        std::process::exit(2);
    });

    // 1. Infer: the expensive pass, run once per system.
    let built = BuiltSystem::build(spec);
    let anns = Annotation::parse(&built.gen.annotations).expect("annotations parse");
    let analysis = Spex::analyze(built.module.clone(), &anns);

    // 2. Persist: save the constraints, then work only from the reloaded
    //    database (a deployment pipeline would ship this file, not the
    //    source tree).
    let mut db = ConstraintDb::from_analysis(built.spec.name, built.gen.dialect, &analysis);
    db.note_params(built.spec.params.iter().map(|p| p.name.as_str()));
    let path = std::env::temp_dir().join(format!("{}.spexdb", built.spec.name));
    db.save(&path).expect("db saves");
    let db = ConstraintDb::load(&path).expect("db loads");
    println!(
        "persisted {} constraints for {} parameters to {}",
        db.constraint_count(),
        db.params.len(),
        path.display()
    );

    // Environment model: what exists on the target host.
    let mut env = StaticEnv::new();
    env.occupy_port(80);
    for (f, _) in &built.gen.world_files {
        env.add_file(f);
    }
    for d in &built.gen.world_dirs {
        env.add_dir(d);
    }
    for u in ["root", "nobody", "daemon"] {
        env.add_user(u);
    }

    // 3. Check: one borrowed session serves every check below — building
    //    it copies nothing (the database is its own name index).
    let session = CheckSession::new(&db).with_env(&env);
    let clean = session.check_text(&built.gen.template_conf);
    println!(
        "\npristine {}.conf: {} diagnostic(s)",
        built.spec.name,
        clean.len()
    );

    // ...and a hand-broken copy is not. Corrupt the first few settings in
    // representative ways.
    let mut conf = spex::conf::ConfFile::parse(&built.gen.template_conf, built.gen.dialect);
    let names: Vec<String> = conf.settings().map(|(n, _)| n.to_string()).collect();
    let breakages = ["not_a_number", "-5", "99999999", "9G"];
    for (name, bad) in names.iter().zip(breakages.iter()) {
        conf.set(name, bad);
    }
    conf.set("typo_paramater", "1");
    let broken = conf.serialize();
    let diags = session.check(&conf);
    println!("\nbroken copy: {} diagnostic(s)", diags.len());
    for d in diags.iter().take(8) {
        println!("  {d}");
    }

    // Machine-applicable fixes: apply every computed repair and re-check.
    let fixable = diags.iter().filter_map(|d| d.fix.as_ref());
    let mut repaired = conf.clone();
    let applied = fixable.map(|f| f.apply(&mut repaired)).count();
    println!(
        "applied {applied} machine fix(es); repaired copy: {} diagnostic(s)",
        session.check(&repaired).len()
    );

    // 4. Scale out: validate a whole fleet's worth of files at once, on
    //    all cores, through the same borrowed session.
    let files: Vec<(String, String)> = (0..64)
        .map(|i| {
            (
                format!("host{i:02}.conf"),
                if i % 4 == 0 {
                    broken.clone()
                } else {
                    built.gen.template_conf.clone()
                },
            )
        })
        .collect();
    let report = session.check_texts(&files);
    println!(
        "\nbatch validation of a 64-host fleet:\n{}",
        report.stats.render()
    );

    // 5. Stream: the same fleet on disk, walked lazily with bounded
    //    memory (each worker holds one file text at a time), rendered as
    //    a deployment gate would consume it.
    let fleet = std::env::temp_dir().join(format!("{}_fleet", built.spec.name));
    std::fs::create_dir_all(&fleet).expect("fleet dir");
    for (file, text) in &files {
        std::fs::write(fleet.join(file), text).expect("fleet file");
    }
    let report: Report = session
        .check_paths(std::slice::from_ref(&fleet))
        .expect("fleet walks");
    println!(
        "streaming validation of the on-disk fleet (exit code {}):\n{}",
        report.exit_code(),
        report.stats.render()
    );
    // Human rendering of the first flagged file, as a CI log would show it.
    if let Some(first_bad) = report.files.iter().find(|f| !f.is_clean()) {
        print!(
            "{}",
            Report::single(first_bad.clone()).render(&HumanRenderer::plain())
        );
    }
    std::fs::remove_dir_all(&fleet).ok();

    std::fs::remove_file(&path).ok();
}
