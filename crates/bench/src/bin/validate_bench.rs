//! Validates the persisted `BENCH_*.json` perf-trajectory files at the
//! repository root against the schema in [`wmp_bench::report`]. Exits
//! non-zero (listing every violation) when any file is missing, unparsable,
//! or schema-invalid — the CI gate that keeps the trajectory machine-readable.
//!
//! Usage: `validate_bench [file ...]` — with no arguments, validates every
//! `BENCH_*.json` found at the root of the checkout the working directory
//! is in (see [`repo_root`]; at least one must exist).

use wmp_bench::report::{repo_root, validate_report};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let files: Vec<std::path::PathBuf> = if args.is_empty() {
        let root = repo_root();
        let mut found: Vec<_> = std::fs::read_dir(&root)
            .map(|entries| {
                entries
                    .filter_map(Result::ok)
                    .map(|e| e.path())
                    .filter(|p| {
                        p.file_name()
                            .and_then(|n| n.to_str())
                            .is_some_and(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
                    })
                    .collect()
            })
            .unwrap_or_default();
        found.sort();
        found
    } else {
        args.iter().map(std::path::PathBuf::from).collect()
    };

    if files.is_empty() {
        eprintln!("no BENCH_*.json files found at {}", repo_root().display());
        std::process::exit(2);
    }

    let mut failures = 0;
    for path in &files {
        let verdict = std::fs::read_to_string(path)
            .map_err(|e| format!("unreadable: {e}"))
            .and_then(|text| validate_report(&text));
        match verdict {
            Ok(()) => println!("ok      {}", path.display()),
            Err(e) => {
                println!("INVALID {}: {e}", path.display());
                failures += 1;
            }
        }
    }
    if failures > 0 {
        eprintln!("{failures} invalid bench report(s)");
        std::process::exit(1);
    }
}
