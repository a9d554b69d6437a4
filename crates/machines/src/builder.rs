//! A fluent builder for custom machine models.
//!
//! The study fleet is fixed, but the library is useful beyond it: the
//! `custom_machine` example builds a hypothetical procurement candidate and
//! predicts the TI-05 workload on it. The builder produces a
//! [`MachineConfig`] wearing an existing [`crate::MachineId`]'s identity slot
//! (callers typically start `from` a fleet machine and perturb it).

use metasim_memsim::spec::{LevelSpec, TlbSpec};
use metasim_netsim::spec::NetworkSpec;

use crate::config::{MachineConfig, ProcessorSpec};

/// Builder over a seed configuration.
#[derive(Debug, Clone)]
pub struct MachineBuilder {
    config: MachineConfig,
}

impl MachineBuilder {
    /// Start from an existing configuration (usually a fleet machine).
    #[must_use]
    pub fn from(config: MachineConfig) -> Self {
        Self { config }
    }

    /// Replace the processor.
    #[must_use]
    pub fn processor(mut self, p: ProcessorSpec) -> Self {
        self.config.processor = p;
        self
    }

    /// Scale the clock (and thus peak flops) by `factor`.
    #[must_use]
    pub fn scale_clock(mut self, factor: f64) -> Self {
        self.config.processor.clock_ghz *= factor;
        self
    }

    /// Replace the cache levels.
    #[must_use]
    pub fn cache_levels(mut self, levels: Vec<LevelSpec>) -> Self {
        self.config.memory.levels = levels;
        self
    }

    /// Scale main-memory stream bandwidth by `factor`.
    #[must_use]
    pub fn scale_memory_bandwidth(mut self, factor: f64) -> Self {
        self.config.memory.memory.stream_bandwidth *= factor;
        self
    }

    /// Scale DRAM latency by `factor`.
    #[must_use]
    pub fn scale_memory_latency(mut self, factor: f64) -> Self {
        self.config.memory.memory.latency *= factor;
        self
    }

    /// Replace the TLB.
    #[must_use]
    pub fn tlb(mut self, tlb: TlbSpec) -> Self {
        self.config.memory.tlb = tlb;
        self
    }

    /// Replace the network.
    #[must_use]
    pub fn network(mut self, net: NetworkSpec) -> Self {
        self.config.network = net;
        self
    }

    /// Scale network latency by `factor`.
    #[must_use]
    pub fn scale_network_latency(mut self, factor: f64) -> Self {
        self.config.network.latency *= factor;
        self
    }

    /// Finish, validating the result.
    pub fn build(self) -> Result<MachineConfig, String> {
        self.config
            .validate()
            .map_err(|report| report.to_string())?;
        Ok(self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hpcmp::fleet;
    use crate::ids::MachineId;

    #[test]
    fn perturbing_a_fleet_machine_builds() {
        let base = fleet().get(MachineId::ArlOpteron).clone();
        let fast = MachineBuilder::from(base.clone())
            .scale_clock(1.5)
            .scale_memory_bandwidth(1.3)
            .scale_network_latency(0.5)
            .build()
            .unwrap();
        assert!((fast.processor.clock_ghz - base.processor.clock_ghz * 1.5).abs() < 1e-12);
        assert!(
            (fast.memory.memory.stream_bandwidth - base.memory.memory.stream_bandwidth * 1.3).abs()
                < 1.0
        );
        assert!((fast.network.latency - base.network.latency * 0.5).abs() < 1e-15);
    }

    #[test]
    fn invalid_perturbation_is_rejected() {
        let base = fleet().get(MachineId::ArlOpteron).clone();
        // Boost memory above L2 bandwidth: hierarchy monotonicity violated.
        let result = MachineBuilder::from(base)
            .scale_memory_bandwidth(100.0)
            .build();
        assert!(result.is_err());
    }

    #[test]
    fn setters_replace_components() {
        let seed = fleet().get(MachineId::AscSc45).clone();
        let other = fleet().get(MachineId::ArlXeon).clone();
        let built = MachineBuilder::from(seed)
            .processor(other.processor)
            .network(other.network.clone())
            .build()
            .unwrap();
        assert_eq!(built.processor, other.processor);
        assert_eq!(built.network, other.network);
        assert_eq!(built.id, MachineId::AscSc45, "identity slot preserved");
    }

    #[test]
    fn scale_memory_latency_applies() {
        let seed = fleet().get(MachineId::ArlXeon).clone();
        let slowed = MachineBuilder::from(seed.clone())
            .scale_memory_latency(2.0)
            .build()
            .unwrap();
        assert!((slowed.memory.memory.latency - seed.memory.memory.latency * 2.0).abs() < 1e-15);
    }
}
