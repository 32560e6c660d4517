//! `spex fleet-gen` — materialize the deterministic synthetic fleet
//! (`spex::systems::fleet`) on disk as a source tree plus a deployment
//! config corpus. This is the fixture generator the CI smoke tests and
//! the e2e byte-identity checks run against.

use std::path::PathBuf;

use crate::driver::{value_of, CliError, CliResult};
use spex::systems::fleet::{config_corpus, generate_fleet, FleetSpec};

/// Runs `spex fleet-gen`.
pub fn run(mut args: std::vec::IntoIter<String>) -> CliResult {
    let mut out: Option<PathBuf> = None;
    let mut spec = FleetSpec {
        modules: 24,
        configs_per_module: 7,
        seed: 0xf1ee7,
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => out = Some(PathBuf::from(value_of("--out", &mut args)?)),
            "--modules" => {
                let v = value_of("--modules", &mut args)?;
                spec.modules = v
                    .parse()
                    .map_err(|_| CliError(format!("--modules: not a number: {v:?}")))?;
            }
            "--configs-per-module" => {
                let v = value_of("--configs-per-module", &mut args)?;
                spec.configs_per_module = v
                    .parse()
                    .map_err(|_| CliError(format!("--configs-per-module: not a number: {v:?}")))?;
            }
            "--seed" => {
                let v = value_of("--seed", &mut args)?;
                spec.seed = v
                    .parse()
                    .map_err(|_| CliError(format!("--seed: not a number: {v:?}")))?;
            }
            other => return Err(CliError(format!("unknown option {other:?}"))),
        }
    }
    let out = out.ok_or_else(|| CliError("--out is required".into()))?;

    let fleet = generate_fleet(&spec);
    let src_dir = out.join("src");
    std::fs::create_dir_all(&src_dir)
        .map_err(|e| CliError(format!("{}: {e}", src_dir.display())))?;
    for m in &fleet {
        let c_path = src_dir.join(&m.name);
        std::fs::write(&c_path, &m.source)
            .map_err(|e| CliError(format!("{}: {e}", c_path.display())))?;
        let spex_path = c_path.with_extension("spex");
        std::fs::write(&spex_path, &m.annotations)
            .map_err(|e| CliError(format!("{}: {e}", spex_path.display())))?;
    }
    let corpus = config_corpus(&fleet, &spec);
    let conf_dir = out.join("configs");
    for (name, text) in &corpus {
        let path = conf_dir.join(name);
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)
                .map_err(|e| CliError(format!("{}: {e}", parent.display())))?;
        }
        std::fs::write(&path, text).map_err(|e| CliError(format!("{}: {e}", path.display())))?;
    }
    println!(
        "fleet-gen: {} module(s), {} config file(s) -> {}",
        fleet.len(),
        corpus.len(),
        out.display()
    );
    Ok(0)
}
