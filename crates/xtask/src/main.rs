//! CLI driver: `cargo run -p xtask -- tidy [flags]`.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use xtask::{Audit, Finding, RULES};

const USAGE: &str = "usage: cargo run -p xtask -- <command>

commands:
  tidy [flags]   audit the workspace; exit 1 on any violation
  rules          list every rule with its family and rationale

tidy flags:
  --fix-hints        print the suggested replacement under each finding
  --root DIR         audit DIR instead of this workspace
  --format text|json findings format (default text)
  --out FILE         also write the findings (in --format) to FILE

exit codes: 0 clean, 1 findings, 2 usage/io error";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("tidy") => tidy(&args[1..]),
        Some("rules") => {
            for r in RULES {
                println!("{:<22} [{}] {}", r.name, r.family, r.summary);
            }
            ExitCode::SUCCESS
        }
        _ => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn tidy(flags: &[String]) -> ExitCode {
    let mut fix_hints = false;
    let mut root: Option<PathBuf> = None;
    let mut format = "text".to_string();
    let mut out_file: Option<PathBuf> = None;
    let mut it = flags.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--fix-hints" => fix_hints = true,
            "--root" | "--format" | "--out" => {
                let Some(value) = it.next() else {
                    eprintln!("{flag} needs a value\n{USAGE}");
                    return ExitCode::from(2);
                };
                match flag.as_str() {
                    "--root" => root = Some(PathBuf::from(value)),
                    "--out" => out_file = Some(PathBuf::from(value)),
                    "--format" => {
                        if value != "text" && value != "json" {
                            eprintln!("--format must be text or json\n{USAGE}");
                            return ExitCode::from(2);
                        }
                        format = value.clone();
                    }
                    _ => unreachable!(),
                }
            }
            other => {
                eprintln!("unknown flag `{other}`\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    // Default: the workspace this binary was built from.
    let root = root.unwrap_or_else(|| {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("..")
            .join("..")
    });
    let audit = match xtask::tidy(&root) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("tidy: {e}");
            return ExitCode::from(2);
        }
    };

    let rendered = match format.as_str() {
        "json" => render_json(&audit.findings),
        _ => render_text(&audit, fix_hints),
    };
    print!("{rendered}");
    if let Some(out) = out_file {
        if let Some(dir) = out.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        if let Err(e) = std::fs::write(&out, &rendered) {
            eprintln!("tidy: write {}: {e}", out.display());
            return ExitCode::from(2);
        }
    }
    if audit.findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn render_text(audit: &Audit, fix_hints: bool) -> String {
    let findings = &audit.findings;
    if findings.is_empty() {
        return format!("{}\n", audit.summary());
    }
    let mut out = String::new();
    for f in findings {
        out.push_str(&format!("{}:{}: [{}] {}\n", f.path, f.line, f.rule, f.message));
        if fix_hints && !f.hint.is_empty() {
            out.push_str(&format!("    fix: {}\n", f.hint));
        }
    }
    let files: std::collections::BTreeSet<&str> =
        findings.iter().map(|f| f.path.as_str()).collect();
    out.push_str(&format!(
        "tidy: {} violation(s) across {} file(s)\n",
        findings.len(),
        files.len()
    ));
    out
}

/// Renders findings as a deterministic JSON document, so artifacts
/// from identical trees are byte-identical and diff cleanly.
fn render_json(findings: &[Finding]) -> String {
    let mut out = String::from("{\n  \"findings\": [");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"path\": {}, \"line\": {}, \"rule\": {}, \"message\": {}, \"hint\": {}}}",
            json_str(&f.path),
            f.line,
            json_str(f.rule),
            json_str(&f.message),
            json_str(f.hint)
        ));
    }
    if !findings.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str(&format!(
        "],\n  \"total\": {},\n  \"rules_enforced\": {}\n}}\n",
        findings.len(),
        RULES.len()
    ));
    out
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
