//! End-to-end CLI contract tests for the `fcn-analyze` binary.
//!
//! Everything here runs the real binary (`CARGO_BIN_EXE_fcn-analyze`)
//! against throwaway scratch workspaces, pinning the parts of the tool
//! that CI and editor integrations script against: the 0/1/2 exit-code
//! contract, `--rule` filtering, the sorted `--list` table, SARIF output,
//! and baselines.

use std::path::PathBuf;
use std::process::{Command, Output};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_fcn-analyze")
}

/// A throwaway workspace under the OS temp dir, removed on drop.
struct Scratch {
    root: PathBuf,
}

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let root =
            std::env::temp_dir().join(format!("fcn-analyze-cli-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).expect("scratch root");
        std::fs::write(root.join("Cargo.toml"), "[workspace]\n").expect("manifest");
        Scratch { root }
    }

    fn write(&self, rel: &str, text: &str) {
        let p = self.root.join(rel);
        std::fs::create_dir_all(p.parent().expect("parent")).expect("mkdirs");
        std::fs::write(p, text).expect("write scratch file");
    }

    fn run(&self, args: &[&str]) -> Output {
        Command::new(bin())
            .arg("--root")
            .arg(&self.root)
            .args(args)
            .output()
            .expect("spawn fcn-analyze")
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

fn code(out: &Output) -> i32 {
    out.status.code().expect("exit code")
}

fn stdout(out: &Output) -> String {
    String::from_utf8(out.stdout.clone()).expect("utf8 stdout")
}

/// The declared lock order, in the shape the indexer scans for.
const RANKS_FIXTURE: &str = "\
pub const SERVE_ADMISSION: LockRank = LockRank::new(10, \"serve.admission\");
pub const SERVE_REGISTRY: LockRank = LockRank::new(20, \"serve.registry\");
";

// ----------------------------------------------------------- exit contract

#[test]
fn clean_tree_exits_zero() {
    let s = Scratch::new("clean");
    s.write(
        "crates/routing/src/ok.rs",
        "use std::collections::BTreeMap;\npub fn f() -> BTreeMap<u32, u32> { BTreeMap::new() }\n",
    );
    let out = s.run(&[]);
    assert_eq!(
        code(&out),
        0,
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(stdout(&out), "", "clean run prints no findings");
}

#[test]
fn findings_exit_one() {
    let s = Scratch::new("findings");
    s.write(
        "crates/routing/src/bad.rs",
        "use std::collections::HashMap;\n",
    );
    let out = s.run(&[]);
    assert_eq!(code(&out), 1);
    assert!(stdout(&out).contains("[DET-HASH]"));
    assert!(stdout(&out).contains("crates/routing/src/bad.rs:1"));
}

#[test]
fn usage_errors_exit_two() {
    let s = Scratch::new("usage");
    assert_eq!(code(&s.run(&["--definitely-not-a-flag"])), 2);
    assert_eq!(code(&s.run(&["--rule", "NO-SUCH-RULE"])), 2);
    assert_eq!(code(&s.run(&["--format", "xml"])), 2);
}

// ----------------------------------------------------------- rule filtering

#[test]
fn rule_filter_limits_findings_and_exit() {
    let s = Scratch::new("filter");
    s.write(
        "crates/routing/src/bad.rs",
        "use std::collections::HashMap;\npub fn f(x: Option<u32>) -> u32 { x.unwrap() }\n",
    );
    let all = s.run(&[]);
    assert_eq!(code(&all), 1);
    assert!(stdout(&all).contains("[DET-HASH]"));
    assert!(stdout(&all).contains("[ERR-UNWRAP]"));

    let only_hash = s.run(&["--rule", "DET-HASH"]);
    assert_eq!(code(&only_hash), 1);
    assert!(stdout(&only_hash).contains("[DET-HASH]"));
    assert!(!stdout(&only_hash).contains("[ERR-UNWRAP]"));

    // Filtering to a rule this tree never violates is a clean run.
    let only_time = s.run(&["--rule", "DET-TIME"]);
    assert_eq!(code(&only_time), 0);
    assert_eq!(stdout(&only_time), "");
}

// ----------------------------------------------------------------- --list

#[test]
fn list_is_sorted_and_pins_the_rule_table() {
    let out = Command::new(bin()).arg("--list").output().expect("spawn");
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8(out.stdout).expect("utf8");
    let ids: Vec<&str> = text
        .lines()
        .map(|l| l.split_whitespace().next().expect("rule id column"))
        .collect();
    let expected = vec![
        "ATOMIC-DOC",
        "BLOCKING-IN-HANDLER",
        "DET-HASH",
        "DET-RNG",
        "DET-TIME",
        "ERR-UNWRAP",
        "LOCK-ORDER",
        "SCHEMA-DRIFT",
        "SCHEMA-TAG",
        "SERVE-DEADLINE",
        "TEL-DEAD",
        "TEL-NAME",
    ];
    assert_eq!(ids, expected, "--list must stay sorted and complete");
    for line in text.lines() {
        assert!(
            line.split_whitespace().count() > 1,
            "every rule carries a one-line summary: {line:?}"
        );
    }
}

// ------------------------------------------------------------- LOCK-ORDER

#[test]
fn seeded_lock_order_violation_exits_one() {
    // The same scenario the CI `analysis` job seeds: a scratch tree whose
    // declared order says ADMISSION(10) < REGISTRY(20), with a function
    // that nests them inverted.
    let s = Scratch::new("lockorder");
    s.write("crates/telemetry/src/lockdep.rs", RANKS_FIXTURE);
    s.write(
        "crates/serve/src/bad.rs",
        "pub fn inverted(&self) {\n    let r = lock_ranked(&self.registry, ranks::SERVE_REGISTRY);\n    let a = lock_ranked(&self.admission, ranks::SERVE_ADMISSION);\n    drop(a);\n    drop(r);\n}\n",
    );
    let out = s.run(&["--rule", "LOCK-ORDER"]);
    assert_eq!(code(&out), 1);
    let text = stdout(&out);
    assert!(text.contains("[LOCK-ORDER]"), "got: {text}");
    assert!(
        text.contains("SERVE_ADMISSION"),
        "names the bad acquisition"
    );
    assert!(text.contains("crates/serve/src/bad.rs:3"), "points at it");

    // Same tree, correctly ordered nesting: clean.
    s.write(
        "crates/serve/src/bad.rs",
        "pub fn ordered(&self) {\n    let a = lock_ranked(&self.admission, ranks::SERVE_ADMISSION);\n    let r = lock_ranked(&self.registry, ranks::SERVE_REGISTRY);\n    drop(r);\n    drop(a);\n}\n",
    );
    assert_eq!(code(&s.run(&["--rule", "LOCK-ORDER"])), 0);
}

// ------------------------------------------------------------------ SARIF

#[test]
fn sarif_output_validates_and_carries_findings() {
    let s = Scratch::new("sarif");
    s.write(
        "crates/routing/src/bad.rs",
        "use std::collections::HashMap;\n",
    );
    let out = s.run(&["--format", "sarif"]);
    assert_eq!(code(&out), 1, "SARIF format keeps the exit contract");
    let text = stdout(&out);
    fcn_analyze::report::validate_sarif(&text).expect("emitted SARIF validates");
    assert!(text.contains("\"ruleId\":\"DET-HASH\""));
    assert!(text.contains("\"uri\":\"crates/routing/src/bad.rs\""));
    assert!(text.contains("\"startLine\":1"));

    // A clean tree still emits a valid (empty-results) log, exit 0.
    let s2 = Scratch::new("sarif-clean");
    s2.write("crates/routing/src/ok.rs", "pub fn f() {}\n");
    let out2 = s2.run(&["--format", "sarif"]);
    assert_eq!(code(&out2), 0);
    fcn_analyze::report::validate_sarif(&stdout(&out2)).expect("clean SARIF validates");
    assert!(stdout(&out2).contains("\"results\":[]"));
}

// --------------------------------------------------------------- baseline

#[test]
fn write_baseline_then_rerun_is_clean() {
    let s = Scratch::new("baseline");
    s.write(
        "crates/routing/src/bad.rs",
        "use std::collections::HashMap;\nuse std::collections::HashMap;\n",
    );
    assert_eq!(code(&s.run(&[])), 1);
    assert_eq!(code(&s.run(&["--write-baseline"])), 0);
    let out = s.run(&[]);
    assert_eq!(code(&out), 0, "baselined tree is clean");
    let stderr = String::from_utf8_lossy(&out.stderr).to_string();
    assert!(
        stderr.contains("2 baselined"),
        "both duplicates masked: {stderr}"
    );
    // --no-baseline resurfaces everything.
    assert_eq!(code(&s.run(&["--no-baseline"])), 1);
}
