//! The STREAM probe: sustainable main-memory unit-stride bandwidth.
//!
//! STREAM's rule is a working set of at least 4× the largest cache; we use
//! 8× (capped at 256 MiB) and drive a unit-stride sweep through the cache
//! simulator, reporting delivered bytes/second.

use serde::{Deserialize, Serialize};

use metasim_machines::MachineConfig;
use metasim_memsim::analytic::{measure_bandwidth_tiered, ResolvedTier};
use metasim_memsim::bandwidth::{ProfileMemo, Workload};
use metasim_memsim::timing::{AccessKind, DependencyMode};
use metasim_units::BytesPerSec;

/// Result of the STREAM probe.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StreamResult {
    /// Working set used, bytes.
    pub working_set: u64,
    /// Delivered bandwidth, bytes/second.
    pub bandwidth: BytesPerSec,
}

impl StreamResult {
    /// Bandwidth in GB/s.
    #[must_use]
    pub fn gb_per_second(&self) -> f64 {
        self.bandwidth.get() / 1e9
    }
}

/// STREAM working set for a machine: 8× the outermost cache, at least
/// 32 MiB, at most 256 MiB.
#[must_use]
pub fn stream_working_set(machine: &MachineConfig) -> u64 {
    let last_cache = machine
        .memory
        .levels
        .last()
        .map_or(1 << 20, |l| l.capacity_bytes);
    (last_cache * 8).clamp(32 << 20, 256 << 20)
}

/// Run the STREAM probe.
#[must_use]
pub fn measure_stream(machine: &MachineConfig) -> StreamResult {
    measure_stream_tiered(machine, ResolvedTier::Exact, &ProfileMemo::new())
}

/// [`measure_stream`] under an explicit resolved model tier (the exact tier
/// is byte-identical to [`measure_stream`]); the exact tier reads its profile
/// through `profiles`.
#[must_use]
pub fn measure_stream_tiered(
    machine: &MachineConfig,
    tier: ResolvedTier,
    profiles: &ProfileMemo,
) -> StreamResult {
    let working_set = stream_working_set(machine);
    let (sample, _) = measure_bandwidth_tiered(
        &machine.memory,
        &Workload::new(
            working_set,
            AccessKind::Sequential,
            DependencyMode::Independent,
        ),
        tier.as_tier(),
        profiles,
    );
    StreamResult {
        working_set,
        bandwidth: sample.bytes_per_second(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metasim_machines::{fleet, MachineId};

    #[test]
    fn stream_lands_below_but_near_dram_rate() {
        let f = fleet();
        for m in f.all() {
            let r = measure_stream(m);
            let dram = m.memory.memory.stream_bandwidth;
            assert!(r.bandwidth < dram, "{}: STREAM cannot beat DRAM", m.id);
            assert!(
                r.bandwidth > 0.55 * dram,
                "{}: STREAM {} too far below DRAM {}",
                m.id,
                r.bandwidth,
                dram
            );
        }
    }

    #[test]
    fn working_set_clears_all_caches() {
        let f = fleet();
        for m in f.all() {
            let ws = stream_working_set(m);
            let last = m.memory.levels.last().unwrap().capacity_bytes;
            assert!(ws >= 4 * last, "{}: STREAM rule violated", m.id);
        }
    }

    #[test]
    fn opteron_wins_stream() {
        let f = fleet();
        let opteron = measure_stream(f.get(MachineId::ArlOpteron)).bandwidth;
        for id in MachineId::TARGETS {
            if id != MachineId::ArlOpteron {
                let r = measure_stream(f.get(id)).bandwidth;
                assert!(opteron > r, "{id} out-streams the Opteron?");
            }
        }
    }

    #[test]
    fn gb_conversion() {
        let r = StreamResult {
            working_set: 1,
            bandwidth: BytesPerSec::new(2.5e9),
        };
        assert!((r.gb_per_second() - 2.5).abs() < 1e-12);
    }
}
