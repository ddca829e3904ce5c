//! Workspace maintenance tasks, invoked as `cargo xtask <command>`.
//!
//! `lint` — source-level policy checks the compiler can't express, all
//! banned in library code:
//!
//! * `.unwrap()` / `panic!` — every abort point must either be impossible
//!   by construction (use `expect`/`assert!` with a message naming the
//!   invariant) or a `Result` the caller can handle.
//! * truncating numeric `as` casts (`as u8/u16/u32/i8/i16/i32`) — these
//!   silently wrap out-of-range values; use `try_from` with a handled
//!   error, or widen the type.
//! * `std::process::exit` — library code must return errors, not kill the
//!   process (skipping destructors and the caller's cleanup).
//! * `env::var` — a setting read from the environment is one no caller
//!   wrote down: configs are set in code, and the few process-wide
//!   settings that stay (`HARP_THREADS`, the `HARP_OBS*` sink, the
//!   lifecycle's deployment paths and child marker) carry a waiver each.
//!
//! Exempt: `#[cfg(test)]` modules, `tests/`, `benches/`, `examples/`,
//! binary targets under `src/bin/`, and lines waived with an explicit
//! `lint: allow(unwrap|panic|as-cast|exit|env) — reason` comment on the
//! same or preceding line.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => lint(),
        Some(other) => {
            eprintln!("unknown xtask command `{other}`\n");
            usage();
            ExitCode::FAILURE
        }
        None => {
            usage();
            ExitCode::FAILURE
        }
    }
}

fn usage() {
    eprintln!(
        "usage: cargo xtask <command>\n\ncommands:\n  \
         lint       ban unwrap()/panic!/narrowing casts/process::exit/env::var in library code"
    );
}

/// A single policy violation.
struct Finding {
    file: PathBuf,
    line: usize,
    what: &'static str,
    text: String,
}

fn lint() -> ExitCode {
    let root = workspace_root();
    let mut files = Vec::new();
    // Library source only: each crate's src/ tree plus the root facade.
    for dir in crate_src_dirs(&root) {
        collect_rs(&dir, &mut files);
    }
    files.sort();

    let mut findings = Vec::new();
    let mut scanned = 0usize;
    for file in &files {
        if is_exempt_path(file) {
            continue;
        }
        scanned += 1;
        match std::fs::read_to_string(file) {
            Ok(src) => scan_source(file, &src, &mut findings),
            Err(e) => {
                eprintln!("error: read {}: {e}", file.display());
                return ExitCode::FAILURE;
            }
        }
    }

    if findings.is_empty() {
        println!("xtask lint: {scanned} library file(s) clean");
        ExitCode::SUCCESS
    } else {
        for f in &findings {
            println!(
                "{}:{}: banned `{}` in library code: {}",
                f.file.display(),
                f.line,
                f.what,
                f.text.trim()
            );
        }
        println!(
            "xtask lint: {} violation(s) in {} file(s) scanned",
            findings.len(),
            scanned
        );
        println!("fix by returning Result, using expect/assert! with an invariant message,");
        println!("taking a config field instead of an env read,");
        println!("or waiving the line with `// lint: allow(unwrap|…|env) — reason`");
        ExitCode::FAILURE
    }
}

/// The workspace root: xtask is always launched by cargo with the
/// manifest dir set, and lives one level below the root.
fn workspace_root() -> PathBuf {
    let manifest = std::env::var("CARGO_MANIFEST_DIR").unwrap_or_else(|_| ".".into());
    Path::new(&manifest)
        .parent()
        .map(Path::to_path_buf)
        .unwrap_or_else(|| PathBuf::from("."))
}

/// `src/` directories of library crates: `crates/*/src` and the root
/// facade's `src`. `xtask` itself and `vendor/` are not library code.
fn crate_src_dirs(root: &Path) -> Vec<PathBuf> {
    let mut dirs = vec![root.join("src")];
    if let Ok(entries) = std::fs::read_dir(root.join("crates")) {
        for e in entries.flatten() {
            let src = e.path().join("src");
            if src.is_dir() {
                dirs.push(src);
            }
        }
    }
    dirs
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            collect_rs(&p, out);
        } else if p.extension().is_some_and(|x| x == "rs") {
            out.push(p);
        }
    }
}

/// Binary targets are CLI code, not library surface.
fn is_exempt_path(p: &Path) -> bool {
    p.components().any(|c| {
        let c = c.as_os_str();
        c == "bin" || c == "tests" || c == "benches" || c == "examples"
    })
}

fn scan_source(file: &Path, src: &str, findings: &mut Vec<Finding>) {
    let lines: Vec<&str> = src.lines().collect();
    let mut in_test_mod = false;
    // Brace depth inside a #[cfg(test)] item; meaningful only while inside.
    let mut test_depth = 0i64;
    let mut pending_test_attr = false;
    let mut prev_waiver = false;

    for (i, raw) in lines.iter().enumerate() {
        let line = strip_comments_and_strings(raw);
        let trimmed = raw.trim_start();

        // Track #[cfg(test)] items (the attribute may sit lines above the
        // opening brace).
        if trimmed.starts_with("#[cfg(test)]") {
            pending_test_attr = true;
        }
        if pending_test_attr && !in_test_mod && line.contains('{') {
            in_test_mod = true;
            test_depth = 0;
            pending_test_attr = false;
        }
        if in_test_mod {
            test_depth += brace_delta(&line);
            if test_depth <= 0 {
                in_test_mod = false;
            }
            prev_waiver = false;
            continue;
        }

        // Doc comments hold example code compiled as tests.
        let is_doc = trimmed.starts_with("///") || trimmed.starts_with("//!");
        let waived = prev_waiver || has_waiver(raw);
        // Only a comment-only waiver line covers the line after it.
        prev_waiver = has_waiver(raw) && trimmed.starts_with("//");
        if is_doc || waived {
            continue;
        }

        for (needle, what) in [(".unwrap()", ".unwrap()"), ("panic!", "panic!")] {
            if line.contains(needle) {
                findings.push(Finding {
                    file: file.to_path_buf(),
                    line: i + 1,
                    what,
                    text: (*raw).to_string(),
                });
            }
        }
        for what in ["process::exit", "env::var"] {
            if line.contains(what) {
                findings.push(Finding {
                    file: file.to_path_buf(),
                    line: i + 1,
                    what,
                    text: (*raw).to_string(),
                });
            }
        }
        if let Some(what) = narrowing_cast(&line) {
            findings.push(Finding {
                file: file.to_path_buf(),
                line: i + 1,
                what,
                text: (*raw).to_string(),
            });
        }
    }
}

/// First truncating numeric `as` cast on a (comment/string-stripped)
/// line: `as u8/u16/u32/i8/i16/i32` silently wraps out-of-range values.
/// Widening (`u64`, `i64`, `usize`…) and float casts stay allowed.
fn narrowing_cast(stripped: &str) -> Option<&'static str> {
    const NARROW: [(&str, &str); 6] = [
        ("u8", "as u8"),
        ("u16", "as u16"),
        ("u32", "as u32"),
        ("i8", "as i8"),
        ("i16", "as i16"),
        ("i32", "as i32"),
    ];
    let mut from = 0;
    while let Some(pos) = stripped[from..].find(" as ") {
        let tok_start = from + pos + 4;
        let tok: &str = &stripped[tok_start..];
        let end = tok
            .find(|c: char| !c.is_alphanumeric() && c != '_')
            .unwrap_or(tok.len());
        let tok = &tok[..end];
        if let Some((_, what)) = NARROW.iter().find(|(t, _)| *t == tok) {
            return Some(what);
        }
        from = tok_start;
    }
    None
}

/// `lint: allow(unwrap|panic|as-cast|exit|env)` comment waiver.
fn has_waiver(raw: &str) -> bool {
    ["unwrap", "panic", "as-cast", "exit", "env"]
        .iter()
        .any(|k| raw.contains(&format!("lint: allow({k})")))
}

/// Remove `//` comments and the contents of string literals so banned
/// tokens inside them don't count. Char literals and raw strings are rare
/// enough in this workspace that the simple state machine suffices.
fn strip_comments_and_strings(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len());
    let mut chars = raw.chars().peekable();
    let mut in_str = false;
    while let Some(c) = chars.next() {
        if in_str {
            match c {
                '\\' => {
                    chars.next();
                }
                '"' => in_str = false,
                _ => {}
            }
            continue;
        }
        match c {
            '"' => in_str = true,
            '/' if chars.peek() == Some(&'/') => break,
            _ => out.push(c),
        }
    }
    out
}

fn brace_delta(stripped: &str) -> i64 {
    let mut d = 0i64;
    for c in stripped.chars() {
        match c {
            '{' => d += 1,
            '}' => d -= 1,
            _ => {}
        }
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(src: &str) -> Vec<(usize, &'static str)> {
        let mut f = Vec::new();
        scan_source(Path::new("t.rs"), src, &mut f);
        f.into_iter().map(|x| (x.line, x.what)).collect()
    }

    #[test]
    fn flags_unwrap_and_panic_in_library_code() {
        let src = "fn f() {\n    let x = y.unwrap();\n    panic!(\"boom\");\n}\n";
        assert_eq!(scan(src), vec![(2, ".unwrap()"), (3, "panic!")]);
    }

    #[test]
    fn ignores_test_modules_docs_comments_and_strings() {
        let src = concat!(
            "/// let v = o.unwrap();\n",
            "fn f() {\n",
            "    // a comment: x.unwrap()\n",
            "    let s = \"panic! inside a string\";\n",
            "    let _ = s;\n",
            "}\n",
            "#[cfg(test)]\n",
            "mod tests {\n",
            "    fn g() {\n",
            "        h().unwrap();\n",
            "    }\n",
            "}\n",
        );
        assert_eq!(scan(src), vec![]);
    }

    #[test]
    fn waiver_exempts_same_or_next_line() {
        let src = concat!(
            "fn f() {\n",
            "    // lint: allow(panic) — documented contract\n",
            "    panic!(\"rank\");\n",
            "    x.unwrap(); // lint: allow(unwrap) — reason\n",
            "    y.unwrap();\n",
            "}\n",
        );
        assert_eq!(scan(src), vec![(5, ".unwrap()")]);
    }

    #[test]
    fn flags_narrowing_casts_but_not_widening_ones() {
        let src = concat!(
            "fn f(x: f64, n: usize) {\n",
            "    let a = x as u32;\n",
            "    let b = n as u64;\n",
            "    let c = n as i32;\n",
            "    let d = x as f32;\n",
            "    let e = n as usize;\n",
            "}\n",
        );
        assert_eq!(scan(src), vec![(2, "as u32"), (4, "as i32")]);
    }

    #[test]
    fn cast_rule_ignores_strings_comments_and_identifiers() {
        let src = concat!(
            "fn f() {\n",
            "    // converts as u8 eventually\n",
            "    let s = \"stored as u16\";\n",
            "    let alias = s;\n",
            "    let _ = atlas_u32(alias);\n",
            "}\n",
        );
        assert_eq!(scan(src), vec![]);
    }

    #[test]
    fn flags_process_exit_with_waiver_escape() {
        let src = concat!(
            "fn f() {\n",
            "    std::process::exit(2);\n",
            "    // lint: allow(exit) — CLI-only helper\n",
            "    std::process::exit(3);\n",
            "    n as u16; // lint: allow(as-cast) — bounded by protocol\n",
            "}\n",
        );
        assert_eq!(scan(src), vec![(2, "process::exit")]);
    }

    #[test]
    fn flags_env_reads_with_waiver_escape() {
        let src = concat!(
            "fn f() {\n",
            "    let a = std::env::var(\"HARP_KNOB\");\n",
            "    // lint: allow(env) — process-wide setting\n",
            "    let b = std::env::var(\"HARP_THREADS\");\n",
            "    let c = env::var_os(\"X\"); // lint: allow(env) — reason\n",
            "    let s = \"std::env::var in a string\";\n",
            "}\n",
        );
        assert_eq!(scan(src), vec![(2, "env::var")]);
    }

    #[test]
    fn code_resumes_after_test_module_closes() {
        let src = concat!(
            "#[cfg(test)]\n",
            "mod tests {\n",
            "    fn g() { h().unwrap(); }\n",
            "}\n",
            "fn f() { i().unwrap(); }\n",
        );
        assert_eq!(scan(src), vec![(5, ".unwrap()")]);
    }
}
