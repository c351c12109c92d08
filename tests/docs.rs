//! Docs that cannot rot silently. README.md, DESIGN.md, EXPERIMENTS.md,
//! docs/WALKTHROUGH.md and the verify notes name source files, items in
//! them and command lines; this test extracts every back-ticked `path.rs`,
//! `path.rs::symbol` and `voltron-<crate>::<module>[::symbol]` token,
//! every `--bin name [-- subcommand]` mention and every `voltron <command>`
//! line, and fails on one that no longer resolves — to a file in the tree
//! (a module to `crates/<crate>/src/<module>.rs` or `<module>/mod.rs`), to
//! a `fn`/`struct`/`const` (or `enum`/`trait`/`type`/`static`/`mod`) of
//! that name in that file, to a `src/bin/<name>.rs`, or to an entry of the
//! `voltron` binary's `COMMANDS` table.
//!
//! Two documents are excluded on purpose: ROADMAP.md narrates files and
//! items that PRs deleted (that is its job), and benchmark/README.md
//! belongs to the benchmark package, which a product PR may not edit.
//!
//! CHANGES.md gets a size rule instead (ROADMAP 3(e)): an entry numbered
//! 24 or later is a headline, at most 15 lines, and its benchmark table,
//! which from PR 36 on holds at most 4 data rows; the mechanism belongs in
//! DESIGN.md, once.

use std::path::{Path, PathBuf};

use voltron_bench::cli::COMMANDS;

const DOCS: [&str; 5] = [
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    "docs/WALKTHROUGH.md",
    ".claude/skills/verify/SKILL.md",
];

/// Every `.rs` file of the repository (build outputs excluded), relative
/// to its root.
fn source_files(root: &Path) -> Vec<String> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir).expect("readable directory") {
            let path: PathBuf = entry.expect("directory entry").path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if path.is_dir() {
                if !name.starts_with('.') && name != "target" {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                let rel = path.strip_prefix(root).expect("under the root");
                out.push(rel.to_string_lossy().replace('\\', "/"));
            }
        }
    }
    out
}

fn is_path_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || "_./-".contains(c)
}

fn is_ident(s: &str) -> bool {
    !s.is_empty() && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// `token` as `(path.rs, symbol)`, when it has that shape.
fn path_token(token: &str) -> Option<(&str, Option<&str>)> {
    let (path, symbol) = match token.split_once("::") {
        Some((path, symbol)) => (path, Some(symbol)),
        None => (token, None),
    };
    let shaped =
        path.ends_with(".rs") && path.chars().all(is_path_char) && symbol.is_none_or(is_ident);
    shaped.then_some((path, symbol))
}

/// `token` as `(crates/<crate>/src/<module>, symbol)`, when it names a
/// module of a workspace crate: `voltron-<crate>::<module>[::symbol]`.
fn module_token(token: &str) -> Option<(String, Option<&str>)> {
    let mut parts = token.strip_prefix("voltron-")?.split("::");
    let (krate, module, symbol) = (parts.next()?, parts.next()?, parts.next());
    let shaped = parts.next().is_none() && [krate, module].into_iter().chain(symbol).all(is_ident);
    shaped.then(|| (format!("crates/{krate}/src/{module}"), symbol))
}

/// Whether `source` declares an item called `symbol`.
fn declares(source: &str, symbol: &str) -> bool {
    const KINDS: [&str; 8] = [
        "fn", "struct", "const", "enum", "trait", "type", "static", "mod",
    ];
    let mut words = source
        .split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .filter(|w| !w.is_empty());
    let mut previous = "";
    words.any(|w| {
        let hit = w == symbol && KINDS.contains(&previous);
        previous = w;
        hit
    })
}

#[test]
fn every_path_symbol_and_command_the_docs_name_resolves() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let sources = source_files(root);
    let files_named = |path: &str| -> Vec<&String> {
        let suffix = format!("/{path}");
        let named = |s: &&String| s.as_str() == path || s.ends_with(&suffix);
        sources.iter().filter(named).collect()
    };
    let is_command = |name: &str| COMMANDS.iter().any(|c| c.name == name);
    let mut broken = Vec::new();
    let mut checked = 0usize;
    for doc in DOCS {
        let text = std::fs::read_to_string(root.join(doc)).expect("a committed document");
        let mut fenced = false;
        for (n, line) in text.lines().enumerate() {
            let at = format!("{doc}:{}", n + 1);
            if line.trim_start().starts_with("```") {
                fenced = !fenced;
            }
            // `voltron <command> ...`, back-ticked or on a fenced line.
            let spans = line.split('`').skip(1).step_by(2);
            for code in spans.chain(fenced.then_some(line)) {
                if let Some(rest) = code.trim_start().strip_prefix("voltron ") {
                    checked += 1;
                    let sub = rest.split_whitespace().next().unwrap_or("");
                    if !(is_command(sub) || sub == "help" || sub.starts_with('<')) {
                        broken.push(format!("{at}: voltron {sub}: not in COMMANDS"));
                    }
                }
            }
            // Back-ticked spans are the odd pieces of a split on '`'.
            for token in line.split('`').skip(1).step_by(2) {
                let (files, symbol) = if let Some((path, symbol)) = path_token(token) {
                    (files_named(path), symbol)
                } else if let Some((module, symbol)) = module_token(token) {
                    let mut files = files_named(&format!("{module}.rs"));
                    files.extend(files_named(&format!("{module}/mod.rs")));
                    (files, symbol)
                } else {
                    continue;
                };
                checked += 1;
                if files.is_empty() {
                    broken.push(format!("{at}: `{token}`: no such file"));
                } else if let Some(symbol) = symbol {
                    let read = |f: &&String| std::fs::read_to_string(root.join(f)).ok();
                    if !files.iter().filter_map(read).any(|s| declares(&s, symbol)) {
                        broken.push(format!("{at}: `{token}`: no item {symbol}"));
                    }
                }
            }
            // `--bin name`, optionally followed by `-- subcommand`.
            let mut words = line
                .split(|c: char| c.is_whitespace() || c == '`')
                .filter(|w| !w.is_empty());
            while let Some(word) = words.next() {
                if word != "--bin" {
                    continue;
                }
                checked += 1;
                let name = words.next().unwrap_or("");
                if files_named(&format!("src/bin/{name}.rs")).is_empty() {
                    broken.push(format!("{at}: --bin {name}: no src/bin/{name}.rs"));
                    continue;
                }
                let mut rest = words.clone();
                if name == "voltron" && rest.next() == Some("--") {
                    let sub = rest.next().unwrap_or("");
                    if !is_command(sub) {
                        broken.push(format!("{at}: voltron {sub}: not in COMMANDS"));
                    }
                }
            }
        }
    }
    assert!(
        broken.is_empty(),
        "stale references in the docs:\n{}",
        broken.join("\n")
    );
    // The extraction itself must not rot into matching nothing.
    assert!(checked > 60, "only {checked} references were found");
}

#[test]
fn the_extractor_recognises_the_three_token_shapes() {
    let shape = |t| path_token(t);
    assert_eq!(shape("tests/docs.rs"), Some(("tests/docs.rs", None)));
    assert_eq!(
        shape("harness.rs::run_workloads"),
        Some(("harness.rs", Some("run_workloads")))
    );
    assert_eq!(shape("src/bin/fig*.rs"), None, "globs are not paths");
    assert_eq!(shape("Experiment::run_on"), None);
    assert_eq!(shape("cargo test --test docs.rs"), None);
    for (token, module) in [
        ("voltron-ir::hash", Some("crates/ir/src/hash")),
        ("voltron-ir::cfg::Cfg", Some("crates/ir/src/cfg")),
        ("voltron-sim", None),
        ("voltron-sim::a::b::c", None),
        ("voltron-sim::cache.rs", None),
    ] {
        assert_eq!(module_token(token).map(|m| m.0).as_deref(), module);
    }
    assert_eq!(module_token("voltron-ir::cfg::Cfg").unwrap().1, Some("Cfg"));
    let source = "pub fn run() {}\nconst COMMANDS: [u8; 0] = [];";
    assert!(declares(source, "run") && declares(source, "COMMANDS"));
    assert!(!declares(source, "pub") && !declares(source, "missing"));
}

/// The PR number of the CHANGES.md entry `line` opens (`- **PR 24 (…`).
fn entry_number(line: &str) -> Option<u32> {
    let rest = line.strip_prefix("- **PR ")?;
    let digits = rest.split(|c: char| !c.is_ascii_digit()).next()?;
    digits.parse().ok()
}

/// Entries that exceed [`MAX_ENTRY_LINES`] lines of at most
/// [`MAX_LINE_BYTES`] bytes outside their table, among those numbered
/// `from` or later, or (from PR 36 on) [`MAX_ROWS`] data rows: table
/// lines below a table's header and `|---|` rule.
fn oversized_entries(changes: &str, from: u32) -> Vec<String> {
    const MAX_ENTRY_LINES: usize = 15;
    const MAX_LINE_BYTES: usize = 400;
    const MAX_ROWS: usize = 4;
    const TABLE_RULE_FROM: u32 = 36;
    let mut broken = Vec::new();
    let (mut number, mut lines, mut rows, mut table_lines) = (0, 0, 0, 0);
    for line in changes.lines() {
        if let Some(n) = entry_number(line) {
            (number, lines, rows) = (n, 0, 0);
        }
        let row = line.trim_start().starts_with('|');
        table_lines = if row { table_lines + 1 } else { 0 };
        if row && table_lines > 2 && number >= from.max(TABLE_RULE_FROM) {
            rows += 1;
            if rows == MAX_ROWS + 1 {
                broken.push(format!("PR {number}: more than {MAX_ROWS} table rows"));
            }
        }
        if number < from || row || line.trim().is_empty() {
            continue;
        }
        lines += 1;
        if lines == MAX_ENTRY_LINES + 1 {
            broken.push(format!("PR {number}: more than {MAX_ENTRY_LINES} lines"));
        }
        if line.len() > MAX_LINE_BYTES {
            broken.push(format!("PR {number}: a line of {} bytes", line.len()));
        }
    }
    broken
}

#[test]
fn changes_entries_from_pr_24_on_are_a_headline_fifteen_lines_and_a_table() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let changes = std::fs::read_to_string(root.join("CHANGES.md")).expect("CHANGES.md");
    let broken = oversized_entries(&changes, 24);
    assert!(broken.is_empty(), "CHANGES.md:\n{}", broken.join("\n"));
    // The rule bites: the older entries are what it was written against.
    assert!(!oversized_entries(&changes, 15).is_empty());
    let long = format!("- **PR 30 (x): y.**\n{}| a | b |\n", "  line\n".repeat(15));
    assert_eq!(oversized_entries(&long, 24), ["PR 30: more than 15 lines"]);
    let table = |n, rows| format!("- **PR {n}: y.**\n| a |\n|---|\n{}", "| 1 |\n".repeat(rows));
    assert_eq!(
        oversized_entries(&table(36, 5), 24),
        ["PR 36: more than 4 table rows"]
    );
    assert!(oversized_entries(&table(36, 4), 24).is_empty());
    assert!(oversized_entries(&table(35, 5), 24).is_empty());
    assert_eq!(entry_number("- **PR 24 (simplicity): one**"), Some(24));
    assert_eq!(entry_number("  | fig_sweep | pass_s |"), None);
}
