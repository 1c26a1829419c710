//! The `coyote-lint` CLI: lint shell specs, bitstream blobs and — with
//! `--source` — the workspace's own Rust code.
//!
//! ```text
//! coyote-lint [OPTIONS] <PATH>...
//!
//! PATHs ending in .json are shell specifications, each given one pass
//! over every spec rule family (config, floorplan and the PG/WF/CAP/ISO
//! platform families); a directory is scanned for its .json specs in
//! sorted order. PATHs ending in .bin are bitstreams.
//!
//! With --source, PATHs are .rs files or directories scanned recursively
//! by the coyote-detlint determinism analyzer. Each PATH is one workspace,
//! walked and lexed once: the per-line hazards (SRC001-SRC007) plus the
//! interprocedural taint they seed into the determinism sinks and the
//! suppression-drift audit (IPA001-IPA005).
//!
//! Options:
//!   --source        treat paths as Rust source (files or directories)
//!   --json          machine-readable JSON report on stdout
//!   --allow <RULE>  suppress a rule (repeatable)
//!   --deny <RULE>   promote a rule to error severity (repeatable)
//!   --strict        exit 2 (gate failure) on any error-severity finding
//!   --catalog       print the rule catalog and exit
//!   -h, --help      this text
//!
//! Exit status: 0 clean or warnings only, 1 error-severity findings,
//! 2 usage or I/O failure — or, under --strict, any deny-level finding
//! (the CI gate keys on 2).
//! ```

use coyote_lint::{
    lint_bitstream, lint_shell_spec, lint_source, lint_source_tree, LintConfig, Report, ShellSpec,
};
use std::path::Path;
use std::process::ExitCode;

const USAGE: &str = "usage: coyote-lint [--source] [--json] [--allow RULE]... \
                     [--deny RULE]... [--strict] [--catalog] <path>...";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut json = false;
    let mut source = false;
    let mut strict = false;
    let mut config = LintConfig::new();
    let mut paths: Vec<String> = Vec::new();

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--source" => source = true,
            "--strict" => strict = true,
            "--catalog" => {
                print!("{}", coyote_lint::render_catalog());
                return ExitCode::SUCCESS;
            }
            "--allow" | "--deny" => {
                let Some(id) = it.next() else {
                    eprintln!("{arg} needs a rule id\n{USAGE}");
                    return ExitCode::from(2);
                };
                if coyote_lint::rule(id).is_none() {
                    eprintln!("unknown rule '{id}' (see --catalog)");
                    return ExitCode::from(2);
                }
                config = if arg == "--allow" {
                    config.allow(id)
                } else {
                    config.deny(id)
                };
            }
            "-h" | "--help" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            flag if flag.starts_with('-') => {
                eprintln!("unknown option '{flag}'\n{USAGE}");
                return ExitCode::from(2);
            }
            path => paths.push(path.to_string()),
        }
    }

    if paths.is_empty() {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    }

    let mut report = Report::new();
    for path in &paths {
        let result = if source {
            lint_source_path(path)
        } else {
            lint_path(path)
        };
        match result {
            Ok(r) => report.extend(r),
            Err(e) => {
                eprintln!("coyote-lint: {path}: {e}");
                return ExitCode::from(2);
            }
        }
    }
    let report = config.apply(report);

    if json {
        println!("{}", report.render_json());
    } else {
        print!("{}", report.render_human());
    }
    if report.has_errors() {
        if strict {
            ExitCode::from(2)
        } else {
            ExitCode::FAILURE
        }
    } else {
        ExitCode::SUCCESS
    }
}

fn lint_path(path: &str) -> Result<Report, String> {
    let p = Path::new(path);
    if p.is_dir() {
        // Deterministic scan order: sorted .json entries.
        let mut specs: Vec<std::path::PathBuf> = std::fs::read_dir(p)
            .map_err(|e| e.to_string())?
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|path| path.extension().is_some_and(|ext| ext == "json"))
            .collect();
        specs.sort();
        if specs.is_empty() {
            return Err("directory holds no .json shell specs".to_string());
        }
        let mut report = Report::new();
        for spec in specs {
            report.extend(lint_path(&spec.to_string_lossy())?);
        }
        Ok(report)
    } else if path.ends_with(".json") {
        let text = std::fs::read_to_string(p).map_err(|e| e.to_string())?;
        let spec = ShellSpec::from_json(&text).map_err(|e| format!("bad shell spec: {e}"))?;
        Ok(lint_shell_spec(&spec))
    } else if path.ends_with(".bin") {
        let bytes = std::fs::read(p).map_err(|e| e.to_string())?;
        let name = path.rsplit('/').next().unwrap_or(path);
        Ok(lint_bitstream(name, &bytes))
    } else {
        Err(
            "unsupported path (expected a .json shell spec, a directory of them, or a .bin \
             bitstream)"
                .to_string(),
        )
    }
}

fn lint_source_path(path: &str) -> Result<Report, String> {
    let p = Path::new(path);
    if p.is_dir() {
        lint_source_tree(p).map_err(|e| e.to_string())
    } else if path.ends_with(".rs") {
        let text = std::fs::read_to_string(p).map_err(|e| e.to_string())?;
        Ok(lint_source(path, &text))
    } else {
        Err("unsupported source path (expected a .rs file or a directory)".to_string())
    }
}
