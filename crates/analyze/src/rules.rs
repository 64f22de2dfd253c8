//! The rule set: twelve invariant checks (eight per-file, four cross-file).
//!
//! | id | invariant it pins |
//! |----|-------------------|
//! | `DET-HASH`   | no hash-ordered containers in simulation crates |
//! | `DET-TIME`   | wall clock only in allowlisted measurement files |
//! | `DET-RNG`    | all randomness flows from explicit seeds |
//! | `ERR-UNWRAP` | no `unwrap`/`expect`/`panic!` in library code |
//! | `SCHEMA-TAG` | every JSON emitter stamps a versioned `fcn-*/N` tag |
//! | `TEL-NAME`   | telemetry metric names come from one const table |
//! | `ATOMIC-DOC` | every atomic `Ordering::` carries a justification |
//! | `SERVE-DEADLINE` | service-crate sockets speak only through the framed I/O layer |
//! | `LOCK-ORDER` | `lock_ranked` nesting follows the declared lockdep rank order |
//! | `TEL-DEAD`   | every telemetry name is recorded somewhere, every record site named |
//! | `SCHEMA-DRIFT` | emitter, validator, and CI gate agree on every tag's version |
//! | `BLOCKING-IN-HANDLER` | no blocking I/O reachable from fcn-serve handlers |
//!
//! Per-file rules run over the scrubbed planes of [`SourceFile`]; matches
//! inside strings, comments, and `#[cfg(test)]` regions never fire (except
//! where a rule explicitly reads the string or comment plane). The four
//! cross-file rules live in [`crate::graph`] and run over the phase-1
//! [`crate::index::FileIndex`] set.

use crate::report::Finding;
use crate::source::{FileKind, SourceFile};

/// Crates whose code runs *inside* the simulation: any nondeterminism here
/// changes table bytes.
pub const SIM_CRATES: &[&str] = &[
    "topology",
    "routing",
    "bandwidth",
    "core",
    "faults",
    "multigraph",
];

/// Files allowed to read the wall clock: the measurement harness itself.
pub const TIME_ALLOWLIST: &[&str] = &[
    // span timers are wall-clock by definition and are stripped from
    // determinism comparisons by `MetricsSnapshot::without_wall_clock`
    "crates/telemetry/src/span.rs",
    // pool busy/idle accounting + the watchdog deadline
    "crates/exec/src/lib.rs",
];

/// All rule ids with one-line rationales (drives `--list` and the docs).
pub const RULES: &[(&str, &str)] = &[
    (
        "DET-HASH",
        "no HashMap/HashSet in simulation crates: hash iteration order is nondeterministic",
    ),
    (
        "DET-TIME",
        "Instant::now/SystemTime/thread::sleep only in allowlisted measurement files",
    ),
    (
        "DET-RNG",
        "no entropy-seeded RNG: all randomness must flow from explicit seed parameters",
    ),
    (
        "ERR-UNWRAP",
        "no unwrap()/expect()/panic! in non-test library code: use the typed error enums",
    ),
    (
        "SCHEMA-TAG",
        "every serde_json emitter stamps a versioned fcn-*/N schema tag with a matching validator",
    ),
    (
        "TEL-NAME",
        "telemetry metric names must come from the fcn_telemetry::names const table",
    ),
    (
        "ATOMIC-DOC",
        "every atomic Ordering:: use carries an `// ordering:` justification comment",
    ),
    (
        "SERVE-DEADLINE",
        "raw socket reads/writes in fcn-serve only inside the framed I/O layer (io.rs): \
         every other path must go through FramedConn so no request can outlive its \
         deadline or wedge a drain on a stalled peer",
    ),
    (
        "LOCK-ORDER",
        "lock_ranked nesting must follow the declared lockdep::ranks order: every \
         acquisition made while other ranked locks are held strictly increases the \
         rank, the acquisition graph is acyclic, and a condvar wait holds only the \
         waited lock",
    ),
    (
        "TEL-DEAD",
        "every const in the telemetry names table is recorded somewhere, and every \
         names:: reference resolves to the table: dead names are schema noise, \
         unknown names are unvalidated drift",
    ),
    (
        "SCHEMA-DRIFT",
        "every fcn-*/N schema tag carries one version everywhere it appears — \
         emitters, validators, and CI gate files — so a bump cannot leave a stale \
         reader or gate behind",
    ),
    (
        "BLOCKING-IN-HANDLER",
        "no blocking socket/fs/process call reachable from an fcn-serve request \
         handler outside the framed I/O layer (io.rs): handlers run under the \
         request deadline and must never wedge on the OS",
    ),
];

/// The one file in fcn-serve allowed to call raw socket reads/writes: the
/// deadline-wrapping framed I/O layer itself.
pub const SERVE_IO_ALLOWLIST: &[&str] = &["crates/serve/src/io.rs"];

/// True if `id` names a known rule.
pub fn known_rule(id: &str) -> bool {
    RULES.iter().any(|(r, _)| *r == id)
}

/// Byte offsets of `pat` in `code` honoring identifier boundaries on
/// whichever ends of the pattern are identifier characters.
pub(crate) fn token_hits(code: &str, pat: &str) -> Vec<usize> {
    let mut hits = Vec::new();
    let bytes = code.as_bytes();
    let first_ident = pat
        .chars()
        .next()
        .map(|c| c.is_alphanumeric() || c == '_')
        .unwrap_or(false);
    let last_ident = pat
        .chars()
        .last()
        .map(|c| c.is_alphanumeric() || c == '_')
        .unwrap_or(false);
    let is_ident = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
    let mut from = 0usize;
    while let Some(pos) = code[from..].find(pat) {
        let at = from + pos;
        let ok_before = !first_ident || at == 0 || !is_ident(bytes[at - 1]);
        let end = at + pat.len();
        let ok_after = !last_ident || end >= bytes.len() || !is_ident(bytes[end]);
        if ok_before && ok_after {
            hits.push(at);
        }
        from = at + pat.len().max(1);
    }
    hits
}

/// Does `code` contain `pat` as the *prefix* of an identifier/path (word
/// boundary before, free continuation after)? Used for validator detection,
/// where `validate_report`, `from_jsonl`, `from_str` all count.
pub(crate) fn has_prefix_token(code: &str, pat: &str) -> bool {
    let bytes = code.as_bytes();
    let is_ident = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
    let mut from = 0usize;
    while let Some(pos) = code[from..].find(pat) {
        let at = from + pos;
        if at == 0 || !is_ident(bytes[at - 1]) {
            return true;
        }
        from = at + pat.len().max(1);
    }
    false
}

fn finding(sf: &SourceFile, line: usize, rule: &'static str, message: String) -> Finding {
    Finding {
        path: sf.path.clone(),
        line,
        rule,
        message,
    }
}

/// DET-HASH: hash-ordered containers inside simulation crates.
fn det_hash(sf: &SourceFile, out: &mut Vec<Finding>) {
    if sf.kind != FileKind::Lib || !SIM_CRATES.contains(&sf.crate_name.as_str()) {
        return;
    }
    for (i, line) in sf.lines.iter().enumerate() {
        let ln = i + 1;
        if sf.is_test_line(ln) {
            continue;
        }
        for pat in ["HashMap", "HashSet", "hash_map", "hash_set"] {
            if !token_hits(&line.code, pat).is_empty() {
                out.push(finding(
                    sf,
                    ln,
                    "DET-HASH",
                    format!(
                        "`{pat}` in simulation crate `{}`: hash iteration order is \
                         nondeterministic; use BTreeMap/BTreeSet or a documented sort",
                        sf.crate_name
                    ),
                ));
                break; // one finding per line
            }
        }
    }
}

/// DET-TIME: wall-clock reads outside the measurement allowlist.
fn det_time(sf: &SourceFile, out: &mut Vec<Finding>) {
    if sf.kind == FileKind::Test || sf.kind == FileKind::Bench {
        return;
    }
    if sf.crate_name == "bench" || TIME_ALLOWLIST.contains(&sf.path.as_str()) {
        return;
    }
    for (i, line) in sf.lines.iter().enumerate() {
        let ln = i + 1;
        if sf.is_test_line(ln) {
            continue;
        }
        for pat in ["Instant::now", "SystemTime", "thread::sleep"] {
            if !token_hits(&line.code, pat).is_empty() {
                out.push(finding(
                    sf,
                    ln,
                    "DET-TIME",
                    format!(
                        "`{pat}` outside the measurement allowlist: simulation output \
                         must not depend on the wall clock"
                    ),
                ));
                break;
            }
        }
    }
}

/// DET-RNG: entropy-seeded randomness anywhere (tests included — the
/// reproducibility contract covers them too).
fn det_rng(sf: &SourceFile, out: &mut Vec<Finding>) {
    for (i, line) in sf.lines.iter().enumerate() {
        let ln = i + 1;
        for pat in [
            "thread_rng",
            "from_entropy",
            "from_os_rng",
            "OsRng",
            "rand::random",
            "RandomState",
        ] {
            if !token_hits(&line.code, pat).is_empty() {
                out.push(finding(
                    sf,
                    ln,
                    "DET-RNG",
                    format!(
                        "`{pat}` is entropy-seeded: all randomness must flow from \
                         job_seed/retry_seed or an explicit seed parameter"
                    ),
                ));
                break;
            }
        }
    }
}

/// ERR-UNWRAP: panicking escape hatches in non-test library code.
fn err_unwrap(sf: &SourceFile, out: &mut Vec<Finding>) {
    if sf.kind != FileKind::Lib {
        return;
    }
    for (i, line) in sf.lines.iter().enumerate() {
        let ln = i + 1;
        if sf.is_test_line(ln) {
            continue;
        }
        for pat in [".unwrap()", ".expect(", "panic!", "todo!", "unimplemented!"] {
            if !token_hits(&line.code, pat).is_empty() {
                out.push(finding(
                    sf,
                    ln,
                    "ERR-UNWRAP",
                    format!(
                        "`{}` in library code: return the crate's typed error \
                         (CmdError/RouteError convention) instead of panicking",
                        pat.trim_start_matches('.')
                    ),
                ));
                break;
            }
        }
    }
}

/// The `fcn-xyz/N` schema-tag pattern, scanned over the string plane.
pub(crate) fn schema_tags_in(strings: &str) -> Vec<String> {
    let mut tags = Vec::new();
    let bytes = strings.as_bytes();
    let mut from = 0usize;
    while let Some(pos) = strings[from..].find("fcn-") {
        let start = from + pos;
        let mut end = start + 4;
        while end < bytes.len()
            && (bytes[end].is_ascii_lowercase()
                || bytes[end].is_ascii_digit()
                || bytes[end] == b'-')
        {
            end += 1;
        }
        if end < bytes.len() && bytes[end] == b'/' {
            let mut v = end + 1;
            while v < bytes.len() && bytes[v].is_ascii_digit() {
                v += 1;
            }
            if v > end + 1 && end > start + 4 {
                tags.push(strings[start..v].to_string());
                from = v;
                continue;
            }
        }
        from = start + 4;
    }
    tags
}

/// SCHEMA-TAG, per-file half: a serde_json emit call in a file with no
/// versioned tag anywhere in its (non-test) string literals.
fn schema_tag_file(sf: &SourceFile, out: &mut Vec<Finding>) {
    if sf.kind != FileKind::Lib && sf.kind != FileKind::Bin {
        return;
    }
    // A file is "tagged" if it carries an `fcn-*/N` literal itself or
    // references a shared `*SCHEMA*` const (the bench bins stamp rows via
    // consts exported from the bench library).
    let has_tag = sf.lines.iter().enumerate().any(|(i, l)| {
        !sf.is_test_line(i + 1)
            && (!schema_tags_in(&l.strings).is_empty() || l.code.contains("SCHEMA"))
    });
    if has_tag {
        return;
    }
    for (i, line) in sf.lines.iter().enumerate() {
        let ln = i + 1;
        if sf.is_test_line(ln) {
            continue;
        }
        for pat in ["serde_json::to_string", "to_writer("] {
            if !token_hits(&line.code, pat).is_empty() {
                out.push(finding(
                    sf,
                    ln,
                    "SCHEMA-TAG",
                    "serde_json emitter in a file with no versioned `fcn-*/N` schema \
                     tag: stamp the payload and validate it on read"
                        .to_string(),
                ));
                break;
            }
        }
    }
}

/// TEL-NAME, per-file half: string literals fed straight into telemetry
/// calls instead of `fcn_telemetry::names` consts.
fn tel_name(sf: &SourceFile, out: &mut Vec<Finding>) {
    if sf.kind != FileKind::Lib && sf.kind != FileKind::Bin {
        return;
    }
    if sf.path == "crates/telemetry/src/names.rs" {
        return; // the table itself
    }
    for (i, line) in sf.lines.iter().enumerate() {
        let ln = i + 1;
        if sf.is_test_line(ln) {
            continue;
        }
        for pat in [
            ".add(\"",
            ".inc(\"",
            ".record(\"",
            ".set_gauge(\"",
            ".record_histogram(\"",
            ".record_span(\"",
            ".counter(\"",
            ".gauge(\"",
            ".histogram(\"",
            "Span::enter(\"",
        ] {
            if !token_hits(&line.code, pat).is_empty() {
                out.push(finding(
                    sf,
                    ln,
                    "TEL-NAME",
                    format!(
                        "metric name passed as a string literal to `{}`: use a const \
                         from fcn_telemetry::names so names cannot drift",
                        pat.trim_end_matches('"')
                    ),
                ));
                break;
            }
        }
    }
}

/// ATOMIC-DOC: atomic orderings without an `// ordering:` justification.
///
/// An `// ordering:` comment covers every `Ordering::` use in the
/// contiguous block that follows it: coverage starts at the comment and
/// ends at the first fully blank line (no code, no comment). This matches
/// how the comments are written in practice — one justification heads a
/// paragraph of related atomic operations (e.g. the bucket/count/sum triple
/// of a histogram record) without requiring the marker to be restated on
/// every statement.
fn atomic_doc(sf: &SourceFile, out: &mut Vec<Finding>) {
    if sf.kind == FileKind::Test {
        return;
    }
    let mut covered = false;
    for (i, line) in sf.lines.iter().enumerate() {
        let ln = i + 1;
        if line.code.trim().is_empty() && line.comment.trim().is_empty() {
            covered = false; // blank line ends the justified paragraph
            continue;
        }
        if line.comment.contains("ordering:") {
            covered = true;
        }
        if sf.is_test_line(ln) {
            continue;
        }
        let mut which = None;
        for pat in [
            "Ordering::Relaxed",
            "Ordering::Acquire",
            "Ordering::Release",
            "Ordering::AcqRel",
            "Ordering::SeqCst",
        ] {
            if !token_hits(&line.code, pat).is_empty() {
                which = Some(pat);
                break;
            }
        }
        let Some(pat) = which else { continue };
        if !covered {
            out.push(finding(
                sf,
                ln,
                "ATOMIC-DOC",
                format!(
                    "`{pat}` without an `// ordering:` justification comment \
                     heading its paragraph (same contiguous non-blank block)"
                ),
            ));
        }
    }
}

/// SERVE-DEADLINE: raw blocking socket calls in fcn-serve outside the
/// framed I/O layer. The service's liveness contract — a deadline-armed
/// watchdog can always cancel a request, and a drain can always finish —
/// holds only because every blocking read polls the stop flag and every
/// write runs under a timeout, and *that* holds only while all socket
/// traffic funnels through `FramedConn` in `io.rs`. A bare `.read(` /
/// `.write_all(` anywhere else is a path a stalled peer can wedge forever.
fn serve_deadline(sf: &SourceFile, out: &mut Vec<Finding>) {
    if sf.kind != FileKind::Lib || sf.crate_name != "serve" {
        return;
    }
    if SERVE_IO_ALLOWLIST.contains(&sf.path.as_str()) {
        return;
    }
    for (i, line) in sf.lines.iter().enumerate() {
        let ln = i + 1;
        if sf.is_test_line(ln) {
            continue;
        }
        for pat in [
            ".read(",
            ".read_exact(",
            ".read_to_end(",
            ".write(",
            ".write_all(",
            ".flush(",
        ] {
            if !token_hits(&line.code, pat).is_empty() {
                out.push(finding(
                    sf,
                    ln,
                    "SERVE-DEADLINE",
                    format!(
                        "raw socket call `{}` outside the framed I/O layer: route it \
                         through FramedConn (crates/serve/src/io.rs) so the read polls \
                         the stop flag and the write runs under a timeout",
                        pat.trim_start_matches('.')
                    ),
                ));
                break;
            }
        }
    }
}

/// Run every per-file rule over `sf`.
pub fn check_file(sf: &SourceFile) -> Vec<Finding> {
    let mut out = Vec::new();
    det_hash(sf, &mut out);
    det_time(sf, &mut out);
    det_rng(sf, &mut out);
    err_unwrap(sf, &mut out);
    schema_tag_file(sf, &mut out);
    tel_name(sf, &mut out);
    atomic_doc(sf, &mut out);
    serve_deadline(sf, &mut out);
    out
}

/// Cross-file checks now run in [`crate::graph::check_workspace`] over the
/// phase-1 index; this thin wrapper keeps the historical entry point for
/// callers holding parsed sources.
pub fn check_workspace(files: &[SourceFile]) -> Vec<Finding> {
    let indexes: Vec<crate::index::FileIndex> =
        files.iter().map(crate::index::build_index).collect();
    crate::graph::check_workspace(&indexes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_hits_respect_boundaries() {
        assert_eq!(token_hits("let m = HashMap::new();", "HashMap").len(), 1);
        assert!(token_hits("let m = MyHashMapx;", "HashMap").is_empty());
        assert_eq!(token_hits("x.unwrap();", ".unwrap()").len(), 1);
        assert!(token_hits("x.unwrap_or(0);", ".unwrap()").is_empty());
        assert!(token_hits("x.expect_err(e);", ".expect(").is_empty());
    }

    #[test]
    fn schema_tag_scanner_finds_versioned_tags() {
        assert_eq!(
            schema_tags_in("   fcn-telemetry/1   fcn-x/12 "),
            vec!["fcn-telemetry/1".to_string(), "fcn-x/12".to_string()]
        );
        assert!(schema_tags_in(" fcn-/1 fcn-abc ").is_empty());
    }
}
