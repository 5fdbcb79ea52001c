//! Experiment harness: regenerates every table and figure of the paper.
//!
//! Usage:
//! ```text
//! experiments [--list] [--csv] [--out DIR] [id …]
//! ```
//! With no ids, all experiments run in the order `--list` prints them.
//! `--csv` prints CSV to stdout instead of markdown; `--out DIR`
//! additionally writes one CSV file per table into DIR.

use bbncg_bench::experiments;
use std::path::PathBuf;

fn slugify(title: &str) -> String {
    let mut s: String = title
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '-'
            }
        })
        .collect();
    while s.contains("--") {
        s = s.replace("--", "-");
    }
    s.trim_matches('-').chars().take(60).collect()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--list") {
        for id in experiments::ALL_IDS {
            println!("{id}");
        }
        return;
    }
    let csv = args.iter().any(|a| a == "--csv");
    let out_dir: Option<PathBuf> = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map(PathBuf::from);
    if let Some(dir) = &out_dir {
        std::fs::create_dir_all(dir).expect("cannot create --out directory");
    }
    let mut skip_next = false;
    let ids: Vec<&str> = args
        .iter()
        .filter(|a| {
            if skip_next {
                skip_next = false;
                return false;
            }
            if *a == "--out" {
                skip_next = true;
                return false;
            }
            !a.starts_with("--")
        })
        .map(String::as_str)
        .collect();
    let ids: Vec<&str> = if ids.is_empty() {
        experiments::ALL_IDS.to_vec()
    } else {
        ids
    };

    let mut failed = false;
    for id in ids {
        match experiments::run(id) {
            Some(tables) => {
                eprintln!("=== {id} ===");
                for t in tables {
                    if csv {
                        println!("# {}", t.title);
                        print!("{}", t.to_csv());
                    } else {
                        println!("{}", t.to_markdown());
                    }
                    if let Some(dir) = &out_dir {
                        let path = dir.join(format!("{}.csv", slugify(&t.title)));
                        std::fs::write(&path, t.to_csv())
                            .unwrap_or_else(|e| panic!("cannot write {path:?}: {e}"));
                    }
                }
            }
            None => {
                eprintln!(
                    "unknown experiment id '{id}'; known ids: {}",
                    experiments::ALL_IDS.join(", ")
                );
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(2);
    }
}
