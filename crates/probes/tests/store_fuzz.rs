//! `ArtifactStore::load_validated` reads entry files that an earlier run,
//! another process or a damaged disk left behind. Arbitrary bytes and
//! mutated copies of a real stored probe entry, loaded with no fault plan
//! and under a certain torn read (`cache-corrupt:1.0`), never make it
//! panic: it returns a value that passes the probe suite's own validation,
//! or nothing, and then the entry is evicted.

use std::fs;
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};

use metasim_audit::audit_value;
use metasim_cache::{content_key, ArtifactKey, ArtifactStore};
use metasim_chaos::{with_plan, FaultPlan};
use metasim_machines::{fleet, MachineConfig, MachineId};
use metasim_probes::suite::PROBES_KIND;
use metasim_probes::{audit_probes, MachineProbes, ResolvedTier};
use proptest::prelude::*;

/// Text spliced in at a random place: JSON punctuation, a two-byte
/// character and numbers JSON forbids or no field can hold.
const SPLICES: [&str; 12] = [
    "{",
    "}",
    "[",
    "]",
    ",",
    ":",
    "\"",
    "null",
    "é",
    "1e309",
    "-1",
    "18446744073709551616",
];

fn machine() -> &'static MachineConfig {
    static MACHINE: OnceLock<MachineConfig> = OnceLock::new();
    MACHINE.get_or_init(|| fleet().get(MachineId::TARGETS[0]).clone())
}

/// The bytes of `machine()`'s probe entry as the store writes it.
fn entry() -> &'static [u8] {
    static ENTRY: OnceLock<Vec<u8>> = OnceLock::new();
    ENTRY.get_or_init(|| {
        let (store, key) = store("staged");
        let probes = MachineProbes::measure_tiered(machine(), ResolvedTier::Analytic);
        let path = store
            .store(PROBES_KIND, key, &probes)
            .expect("the staging store is writable");
        let bytes = fs::read(path).expect("the staged entry reads back");
        store.clear().expect("the staging store clears");
        bytes
    })
}

/// A store of its own for each test, and the key every case writes.
fn store(tag: &str) -> (ArtifactStore, ArtifactKey) {
    let dir: PathBuf = std::env::temp_dir().join(format!(
        "metasim-probes-store-fuzz-{tag}-{}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    (ArtifactStore::open(dir), content_key(&["fuzz"], &0u64))
}

/// The probe suite's audit-on-load: the right machine, no MS1xx error.
fn validate(probes: &MachineProbes) -> Result<(), String> {
    if probes.id != machine().id {
        return Err("wrong machine".into());
    }
    let report = audit_value(|a| audit_probes(machine(), probes, a));
    if report.has_errors() {
        return Err(report.summary_line());
    }
    Ok(())
}

/// Write `bytes` as the entry, load it with no plan and under a certain
/// torn read, and check each outcome.
fn load_both_ways(store: &ArtifactStore, key: ArtifactKey, bytes: &[u8]) -> Result<(), String> {
    let torn = Arc::new(FaultPlan::parse_spec(1, "cache-corrupt:1.0").expect("the plan parses"));
    for plan in [None, Some(torn)] {
        let path = store.entry_path(PROBES_KIND, key);
        fs::create_dir_all(path.parent().expect("entry path has a parent"))
            .map_err(|e| e.to_string())?;
        fs::write(&path, bytes).map_err(|e| e.to_string())?;
        let load = || store.load_validated(PROBES_KIND, key, validate);
        let loaded = match plan {
            Some(plan) => with_plan(plan, load),
            None => load(),
        };
        match loaded {
            Some(probes) => validate(&probes)?,
            None if store.contains(PROBES_KIND, key) => {
                return Err("a refused entry was not evicted".into());
            }
            None => {}
        }
    }
    Ok(())
}

#[test]
fn the_staged_entry_loads() {
    let (store, key) = store("clean");
    fs::create_dir_all(store.entry_path(PROBES_KIND, key).parent().unwrap()).unwrap();
    fs::write(store.entry_path(PROBES_KIND, key), entry()).unwrap();
    let loaded = store.load_validated(PROBES_KIND, key, validate);
    assert!(loaded.is_some(), "the unmutated entry passes validation");
    store.clear().unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Arbitrary bytes, valid UTF-8 or not.
    #[test]
    fn arbitrary_entry_bytes_never_panic(bytes in prop::collection::vec(0u8..=255, 0..256)) {
        let (store, key) = store("arbitrary");
        let checked = load_both_ways(&store, key, &bytes);
        store.clear().unwrap();
        prop_assert!(checked.is_ok(), "{checked:?}");
    }

    /// The real entry with each `(op, at, pick)` edit applied to its bytes:
    /// op 0 splices in text, op 1 deletes a byte (perhaps inside a
    /// character), op 2 overwrites one with any byte.
    #[test]
    fn mutated_probe_entries_never_panic(
        edits in prop::collection::vec((0u8..3, 0usize..1 << 16, 0usize..256), 1..6),
    ) {
        let mut bytes = entry().to_vec();
        for (op, at, pick) in edits {
            let at = at % (bytes.len() + 1);
            match op {
                0 => {
                    bytes.splice(at..at, SPLICES[pick % SPLICES.len()].bytes());
                }
                1 if at < bytes.len() => {
                    bytes.remove(at);
                }
                _ if at < bytes.len() => bytes[at] = pick as u8,
                _ => {}
            }
        }
        let (store, key) = store("mutated");
        let checked = load_both_ways(&store, key, &bytes);
        store.clear().unwrap();
        prop_assert!(checked.is_ok(), "{checked:?}");
    }
}
