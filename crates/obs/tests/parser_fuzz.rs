//! `RunManifest::from_json` and `DiffBudget::from_json` read files a user
//! hands to `obs diff` and `audit --manifest`. Arbitrary bytes and mutated
//! copies of the committed CI baseline and budget make them return a value
//! or an `Err`, never panic, and neither does auditing or diffing whatever
//! they accept.

use std::sync::OnceLock;

use metasim_audit::audit_value;
use metasim_obs::audit::audit_manifest;
use metasim_obs::diff::{diff_and_audit, DiffBudget};
use metasim_obs::manifest::RunManifest;
use proptest::prelude::*;

const BASELINE: &str = include_str!("../../../ci/perf-baseline.json");
const BUDGET: &str = include_str!("../../../ci/perf-budget.json");

/// Stand-ins for a number: each type's extremes, one past them, and the
/// spellings JSON forbids.
const EXTREMES: [&str; 16] = [
    "0",
    "-0",
    "-1",
    "4294967296",
    "18446744073709551615",
    "18446744073709551616",
    "-9223372036854775809",
    "1e308",
    "-1e308",
    "1e309",
    "5e-324",
    "1e-400",
    "99999999999999999999999999999999",
    "NaN",
    "-",
    "1e",
];

/// Text spliced in at a random place.
const SPLICES: [&str; 10] = ["{", "}", "[", "]", ",", ":", "\"", "\\u0000", "null", "é"];

/// `base` with each `(op, at, pick)` edit applied to its bytes: op 0
/// splices in text, op 1 deletes a byte, op 2 swaps the first number at or
/// after `at` for an extreme. Read back as lossy UTF-8, so a deletion
/// inside a multi-byte character is fair game.
fn mutate(base: &str, edits: &[(u8, usize, usize)]) -> String {
    let is_num = |b: u8| b.is_ascii_digit() || b"-+.eE".contains(&b);
    let mut text = base.as_bytes().to_vec();
    for &(op, at, pick) in edits {
        let at = at % (text.len() + 1);
        match op {
            0 => {
                text.splice(at..at, SPLICES[pick % SPLICES.len()].bytes());
            }
            1 if at < text.len() => {
                text.remove(at);
            }
            _ => {
                let start = (at..text.len()).find(|&i| {
                    (text[i].is_ascii_digit() || text[i] == b'-')
                        && (i == 0 || !is_num(text[i - 1]))
                });
                if let Some(start) = start {
                    let end = (start..text.len())
                        .find(|&i| !is_num(text[i]))
                        .unwrap_or(text.len());
                    text.splice(start..end, EXTREMES[pick % EXTREMES.len()].bytes());
                }
            }
        }
    }
    String::from_utf8_lossy(&text).into_owned()
}

fn baseline() -> &'static RunManifest {
    static PARSED: OnceLock<RunManifest> = OnceLock::new();
    PARSED.get_or_init(|| RunManifest::from_json(BASELINE).expect("the committed baseline parses"))
}

fn budget() -> DiffBudget {
    DiffBudget::from_json(BUDGET).expect("the committed budget parses")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Arbitrary bytes, read as lossy UTF-8, never make either parser
    /// panic.
    #[test]
    fn arbitrary_text_never_panics(bytes in prop::collection::vec(0u8..=255, 0..256)) {
        let text = String::from_utf8_lossy(&bytes);
        let _ = RunManifest::from_json(&text);
        let _ = DiffBudget::from_json(&text);
    }

    /// The committed budget, mutated, never makes the parser panic, nor
    /// does judging the baseline against itself under a budget it accepts.
    #[test]
    fn mutated_budget_never_panics(
        edits in prop::collection::vec((0u8..3, 0usize..1 << 10, 0usize..16), 1..6),
    ) {
        if let Ok(budget) = DiffBudget::from_json(&mutate(BUDGET, &edits)) {
            let _ = diff_and_audit(baseline(), baseline(), &budget);
        }
    }
}

proptest! {
    // The baseline is 190 KB, so fewer cases.
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The committed baseline manifest, mutated, never makes the parser
    /// panic, nor auditing, diffing or re-serializing what it accepts.
    #[test]
    fn mutated_manifest_never_panics(
        edits in prop::collection::vec((0u8..3, 0usize..1 << 18, 0usize..16), 1..6),
    ) {
        if let Ok(manifest) = RunManifest::from_json(&mutate(BASELINE, &edits)) {
            let _ = audit_value(|a| audit_manifest(&manifest, a));
            let _ = diff_and_audit(baseline(), &manifest, &budget());
            let _ = manifest.to_json();
        }
    }
}
