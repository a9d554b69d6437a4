//! The GUPS probe (HPC Challenge Random Access).
//!
//! Random 8-byte updates over a table far larger than any cache. We report
//! both giga-updates/second and the effective random-access bandwidth the
//! convolver uses as the "random memory" rate for Metric #6.

use serde::{Deserialize, Serialize};

use metasim_machines::MachineConfig;
use metasim_memsim::analytic::{measure_bandwidth_tiered, ResolvedTier};
use metasim_memsim::bandwidth::{ProfileMemo, Workload, ELEMENT_BYTES};
use metasim_memsim::timing::{AccessKind, DependencyMode};
use metasim_units::{BytesPerSec, UpdatesPerSec};

/// Result of the GUPS probe.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GupsResult {
    /// Table size used, bytes.
    pub table_bytes: u64,
    /// Updates per second.
    pub updates_per_second: UpdatesPerSec,
}

impl GupsResult {
    /// Giga-updates per second — the headline GUPS figure.
    #[must_use]
    pub fn gups(&self) -> f64 {
        self.updates_per_second.get() / 1e9
    }

    /// Effective random-access bandwidth in bytes/second (8 B per update).
    #[must_use]
    pub fn effective_bandwidth(&self) -> BytesPerSec {
        BytesPerSec::new(self.updates_per_second.get() * ELEMENT_BYTES as f64)
    }
}

/// GUPS table size: 16× the outermost cache, clamped to [64 MiB, 512 MiB].
#[must_use]
pub fn gups_table_bytes(machine: &MachineConfig) -> u64 {
    let last_cache = machine
        .memory
        .levels
        .last()
        .map_or(1 << 20, |l| l.capacity_bytes);
    (last_cache * 16).clamp(64 << 20, 512 << 20)
}

/// Run the GUPS probe.
#[must_use]
pub fn measure_gups(machine: &MachineConfig) -> GupsResult {
    measure_gups_tiered(machine, ResolvedTier::Exact, &ProfileMemo::new())
}

/// [`measure_gups`] under an explicit resolved model tier (the exact tier
/// is byte-identical to [`measure_gups`]); the exact tier reads its profile
/// through `profiles`.
#[must_use]
pub fn measure_gups_tiered(
    machine: &MachineConfig,
    tier: ResolvedTier,
    profiles: &ProfileMemo,
) -> GupsResult {
    let table_bytes = gups_table_bytes(machine);
    let (sample, _) = measure_bandwidth_tiered(
        &machine.memory,
        &Workload::new(table_bytes, AccessKind::Random, DependencyMode::Independent),
        tier.as_tier(),
        profiles,
    );
    let updates = sample.profile.total_accesses() as f64;
    GupsResult {
        table_bytes,
        updates_per_second: if sample.seconds > 0.0 {
            UpdatesPerSec::new(updates / sample.seconds)
        } else {
            UpdatesPerSec::new(0.0)
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::measure_stream;
    use metasim_machines::{fleet, MachineId};

    #[test]
    fn gups_is_far_below_stream_everywhere() {
        let f = fleet();
        for m in f.all() {
            let g = measure_gups(m);
            let s = measure_stream(m);
            assert!(
                g.effective_bandwidth() < 0.3 * s.bandwidth,
                "{}: random {} vs stream {}",
                m.id,
                g.effective_bandwidth(),
                s.bandwidth
            );
            assert!(g.gups() > 0.0);
        }
    }

    #[test]
    fn opteron_low_latency_wins_gups() {
        let f = fleet();
        let opteron = measure_gups(f.get(MachineId::ArlOpteron)).gups();
        for id in MachineId::TARGETS {
            if id != MachineId::ArlOpteron {
                let g = measure_gups(f.get(id)).gups();
                assert!(opteron > g, "{id} beats Opteron at GUPS?");
            }
        }
    }

    #[test]
    fn gups_reflects_latency_and_mlp() {
        // Effective update rate should be within 2x of mlp/latency (TLB and
        // occasional cache hits move it around).
        let f = fleet();
        let m = f.get(MachineId::Navo655);
        let g = measure_gups(m);
        let ideal = m.memory.mlp / m.memory.memory.latency;
        assert!(g.updates_per_second < ideal * 1.2);
        assert!(g.updates_per_second > ideal * 0.3);
    }

    #[test]
    fn table_dwarfs_caches() {
        let f = fleet();
        for m in f.all() {
            assert!(
                gups_table_bytes(m) >= 8 * m.memory.levels.last().unwrap().capacity_bytes,
                "{}",
                m.id
            );
        }
    }
}
