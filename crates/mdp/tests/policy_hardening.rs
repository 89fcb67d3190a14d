//! Hostile-input hardening of the policy-artifact loader: byte-level
//! mutations of the *committed* artifacts — replacements, insertions,
//! deletions, truncations — must always come back as a typed
//! [`seleth_mdp::PolicyError`] or a well-formed table, never a panic and
//! never an absurd allocation. This is the library-crate contract the
//! workspace's `clippy::unwrap_used`/`clippy::panic` lints enforce
//! statically, exercised dynamically against real artifact bytes.

use std::path::PathBuf;
use std::sync::OnceLock;

use proptest::prelude::*;

use seleth_mdp::{Fork, PolicyError, PolicyTable};

/// The committed artifact texts, loaded once per test process.
fn artifacts() -> &'static Vec<(String, String)> {
    static CACHE: OnceLock<Vec<(String, String)>> = OnceLock::new();
    CACHE.get_or_init(|| {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results/policies");
        let mut found = Vec::new();
        for entry in std::fs::read_dir(&dir).expect("results/policies exists") {
            let path = entry.expect("readable dir entry").path();
            if path.extension().and_then(|e| e.to_str()) != Some("json") {
                continue;
            }
            let name = path.display().to_string();
            let text = std::fs::read_to_string(&path).expect("readable artifact");
            found.push((name, text));
        }
        assert!(found.len() >= 4, "expected the committed artifact set");
        found.sort();
        found
    })
}

/// Whatever the mutation produced, parsing must return — and a table that
/// *does* parse must answer decision queries without panicking (that is
/// the surface a replay executor touches).
fn parse_must_degrade_gracefully(text: &str) {
    if let Ok(table) = PolicyTable::from_json(text) {
        let m = table.max_len();
        for fork in [Fork::Irrelevant, Fork::Relevant, Fork::Active] {
            let _ = table.decide(0, 0, fork, 0);
            let _ = table.decide(m, m, fork, 8);
            let _ = table.decide(m + 1, 0, fork, 0);
        }
        let _ = table.is_legal_everywhere();
        let _ = table.to_json();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Replace one byte anywhere in a committed artifact.
    #[test]
    fn single_byte_replacement_never_panics(
        pick in any::<usize>(),
        pos in any::<usize>(),
        byte in any::<u8>(),
    ) {
        let (_, text) = &artifacts()[pick % artifacts().len()];
        let mut bytes = text.clone().into_bytes();
        let at = pos % bytes.len();
        bytes[at] = byte;
        parse_must_degrade_gracefully(&String::from_utf8_lossy(&bytes));
    }

    /// Insert one byte anywhere.
    #[test]
    fn single_byte_insertion_never_panics(
        pick in any::<usize>(),
        pos in any::<usize>(),
        byte in any::<u8>(),
    ) {
        let (_, text) = &artifacts()[pick % artifacts().len()];
        let mut bytes = text.clone().into_bytes();
        let at = pos % (bytes.len() + 1);
        bytes.insert(at, byte);
        parse_must_degrade_gracefully(&String::from_utf8_lossy(&bytes));
    }

    /// Delete a short span anywhere.
    #[test]
    fn span_deletion_never_panics(
        pick in any::<usize>(),
        pos in any::<usize>(),
        span in 1usize..64,
    ) {
        let (_, text) = &artifacts()[pick % artifacts().len()];
        let mut bytes = text.clone().into_bytes();
        let at = pos % bytes.len();
        let end = (at + span).min(bytes.len());
        bytes.drain(at..end);
        parse_must_degrade_gracefully(&String::from_utf8_lossy(&bytes));
    }

    /// Truncate to an arbitrary prefix (the torn-write case).
    #[test]
    fn truncation_never_panics(pick in any::<usize>(), keep in any::<usize>()) {
        let (_, text) = &artifacts()[pick % artifacts().len()];
        let mut bytes = text.clone().into_bytes();
        bytes.truncate(keep % (bytes.len() + 1));
        parse_must_degrade_gracefully(&String::from_utf8_lossy(&bytes));
    }

    /// Scramble a handful of scattered bytes at once — compound damage,
    /// not just single-fault.
    #[test]
    fn scattered_corruption_never_panics(
        pick in any::<usize>(),
        seeds in proptest::collection::vec((any::<usize>(), any::<u8>()), 1..16),
    ) {
        let (_, text) = &artifacts()[pick % artifacts().len()];
        let mut bytes = text.clone().into_bytes();
        for (pos, byte) in seeds {
            let at = pos % bytes.len();
            bytes[at] = byte;
        }
        parse_must_degrade_gracefully(&String::from_utf8_lossy(&bytes));
    }
}

/// Hostile `max_len` declarations are bounded *before* any allocation is
/// sized by them: the loader rejects out-of-limit truncations and
/// length-mismatched action tables with a typed error.
#[test]
fn hostile_max_len_is_rejected_before_allocation() {
    let (_, text) = &artifacts()[0];
    for hostile in ["4096", "1000000", "4294967295", "-3", "2.5", "1e30"] {
        let mutated = mutate_field(text, "max_len", hostile);
        assert!(
            PolicyTable::from_json(&mutated).is_err(),
            "max_len {hostile} must be rejected"
        );
    }
}

/// Every committed artifact parses, and its text round-trips (sanity
/// anchor for the mutation tests above: the *unmutated* baseline is Ok).
#[test]
fn unmutated_artifacts_parse() {
    for (name, text) in artifacts() {
        let table =
            PolicyTable::from_json(text).unwrap_or_else(|e| panic!("{name} fails to parse: {e}"));
        parse_must_degrade_gracefully(text);
        assert!(table.max_len() > 0, "{name}");
    }
}

/// The artifact is one object: trailing whitespace is fine, any other byte
/// after its closing `}` is a parse error.
#[test]
fn trailing_bytes_after_the_object_are_rejected() {
    for (name, text) in artifacts() {
        let padded = format!("{text} \t\r\n");
        assert!(PolicyTable::from_json(&padded).is_ok(), "{name}");
        let garbage = format!("{text}}} garbage [1,2");
        assert!(
            matches!(PolicyTable::from_json(&garbage), Err(PolicyError::Parse(_))),
            "{name} with trailing garbage must be rejected"
        );
    }
}

/// Replace the value of a numeric `"field": value` line.
fn mutate_field(text: &str, field: &str, value: &str) -> String {
    let marker = format!("\"{field}\": ");
    let start = text.find(&marker).expect("field present") + marker.len();
    let end = start + text[start..].find([',', '\n']).expect("value terminated");
    let mut out = text.to_string();
    out.replace_range(start..end, value);
    out
}
