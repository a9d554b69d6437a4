//! The NETBENCH probe: interconnect latency, bandwidth, and `all_reduce`.
//!
//! NETBENCH "determines the interconnect bandwidth and latency" (§1) and
//! provides the `all_reduce` score the IDC balanced-rating comparison uses
//! (§4). Like real MPI microbenchmarks, it measures at the MPI level: the
//! reported latency therefore *includes* per-message software overhead, and
//! the reported bandwidth is the delivered large-message rate, not the wire
//! rate. Metric #8's network term is convolved from these measured values —
//! slightly coarser than the simulator's internal truth, which is one of the
//! organic error sources the study observes.

use serde::{Deserialize, Serialize};

use metasim_machines::MachineConfig;
use metasim_netsim::collectives::allreduce_time;
use metasim_netsim::p2p::ping_pong_time;
use metasim_units::{Bytes, BytesPerSec, Seconds};

/// Measured network characteristics for one machine.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NetbenchResult {
    /// Measured one-way small-message latency, seconds (half the zero-byte
    /// ping-pong round trip; includes software overhead).
    pub latency: Seconds,
    /// Measured large-message bandwidth, bytes/second.
    pub bandwidth: BytesPerSec,
    /// Measured 8-byte `all_reduce` time at 64 processes, seconds — the
    /// balanced-rating category score.
    pub allreduce_64p: Seconds,
}

/// Large-message size used for the bandwidth measurement.
const BW_MESSAGE: u64 = 4 << 20;

/// Run NETBENCH on one machine.
#[must_use]
pub fn measure_netbench(machine: &MachineConfig) -> NetbenchResult {
    let net = &machine.network;
    // Zero-byte ping-pong: latency = RTT/2.
    let latency = ping_pong_time(net, 0) / 2.0;
    // Large-message ping-pong: delivered bandwidth.
    let t = ping_pong_time(net, BW_MESSAGE) / 2.0;
    let bandwidth = Bytes::new(BW_MESSAGE as f64) / t;
    NetbenchResult {
        latency,
        bandwidth,
        allreduce_64p: allreduce_time(net, 64, 8),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metasim_machines::{fleet, MachineId};

    #[test]
    fn measured_latency_includes_overhead() {
        let f = fleet();
        for m in f.all() {
            let r = measure_netbench(m);
            assert!(
                r.latency > m.network.latency,
                "{}: measured latency must include software overhead",
                m.id
            );
            assert!(
                r.latency < m.network.latency * 3.0,
                "{}: but not absurdly",
                m.id
            );
        }
    }

    #[test]
    fn measured_bandwidth_below_wire_rate() {
        let f = fleet();
        for m in f.all() {
            let r = measure_netbench(m);
            assert!(r.bandwidth < m.network.bandwidth, "{}", m.id);
            assert!(r.bandwidth > 0.5 * m.network.bandwidth, "{}", m.id);
        }
    }

    #[test]
    fn family_ordering_survives_measurement() {
        let f = fleet();
        let altix = measure_netbench(f.get(MachineId::ArlAltix));
        let colony = measure_netbench(f.get(MachineId::MhpccP3));
        let federation = measure_netbench(f.get(MachineId::Navo655));
        assert!(altix.latency < colony.latency);
        assert!(federation.bandwidth > colony.bandwidth);
        assert!(altix.allreduce_64p < colony.allreduce_64p);
    }
}
