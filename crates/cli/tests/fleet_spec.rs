//! The `metasim` binary refuses an ill-posed fleet spec with an `MS1002`
//! finding and exit status 1, never a panic.

use std::path::PathBuf;
use std::process::Command;

use metasim_fleet::{Dist, FleetSpec};

/// A spec file of its own for each test, removed on drop.
struct SpecFile(PathBuf);

impl SpecFile {
    fn new(name: &str, spec: &FleetSpec) -> Self {
        let path = std::env::temp_dir().join(format!(
            "metasim-fleet-spec-{name}-{}.json",
            std::process::id()
        ));
        std::fs::write(&path, spec.to_json_pretty()).expect("spec file written");
        Self(path)
    }
}

impl Drop for SpecFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// Run `fleet gen` and `fleet study` on `spec` and check that each exits 1
/// with an MS1002 finding on `field`, printing no result.
fn assert_refused(name: &str, spec: &FleetSpec, field: &str) {
    let file = SpecFile::new(name, spec);
    for sub in ["gen", "study"] {
        let out = Command::new(env!("CARGO_BIN_EXE_metasim"))
            .args(["fleet", sub, "--size", "2", "--seed", "1", "--spec"])
            .arg(&file.0)
            .output()
            .expect("metasim runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "fleet {sub}: {stderr}");
        assert!(stderr.contains("MS1002"), "fleet {sub}: {stderr}");
        assert!(stderr.contains(field), "fleet {sub}: {stderr}");
        assert!(out.stdout.is_empty(), "fleet {sub} printed a result");
    }
}

#[test]
fn an_associativity_beyond_u32_exits_1_with_ms1002() {
    let mut spec = FleetSpec::paper_space();
    spec.machines.associativity = vec![1 << 32];
    assert_refused("associativity", &spec, "associativity");
}

#[test]
fn tlb_entries_beyond_the_cap_exit_1_with_ms1002() {
    let mut spec = FleetSpec::paper_space();
    // One past `metasim_memsim::spec::MAX_TLB_ENTRIES`, and a count the
    // simulator's `u32` slot indices cannot hold.
    for entries in [(1 << 16) + 1, 1 << 32] {
        spec.machines.tlb_entries = vec![entries];
        assert_refused("tlb-entries", &spec, "tlb_entries");
    }
}

#[test]
fn working_sets_past_the_cache_tag_range_exit_1_with_ms1002() {
    let mut spec = FleetSpec::paper_space();
    // Up to about 10^15 bytes per process, past the 2^32 tags of any
    // sampled L1.
    spec.apps.bytes_per_cell = Dist::Uniform { lo: 16.0, hi: 1e9 };
    assert_refused("tag-range", &spec, "bytes_per_cell");
}

#[test]
fn a_line_and_associativity_past_64_bits_exit_1_with_ms1002() {
    let mut spec = FleetSpec::paper_space();
    spec.machines.line_bytes = vec![1 << 40];
    spec.machines.associativity = vec![1 << 31];
    assert_refused("line-ways", &spec, "line_bytes");
}
