//! The nine synthetic metrics of the paper's Table 3.

use serde::{Deserialize, Serialize};

/// Simple (Equation 1 ratio) or predictive (trace convolution).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MetricKind {
    /// A single benchmark score scales the base runtime.
    Simple,
    /// Traced operation counts convolve with probe-measured rates.
    Predictive,
}

/// The nine metrics, numbered as in Table 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum MetricId {
    /// #1 — Simple: HPL.
    S1Hpl,
    /// #2 — Simple: STREAM.
    S2Stream,
    /// #3 — Simple: GUPS (HPC Challenge Random Access).
    S3Gups,
    /// #4 — Predictive: HPL for floating-point work.
    P4Hpl,
    /// #5 — Predictive: HPL + STREAM for memory access.
    P5HplStream,
    /// #6 — Predictive: HPL + STREAM (stride-1) + GUPS (random).
    P6HplStreamGups,
    /// #7 — Predictive: HPL + MAPS curves.
    P7HplMaps,
    /// #8 — Predictive: HPL + MAPS + NETBENCH.
    P8HplMapsNet,
    /// #9 — Predictive: HPL + ENHANCED MAPS + NETBENCH.
    P9HplMapsNetDep,
}

impl MetricId {
    /// All nine, in table order.
    pub const ALL: [MetricId; 9] = [
        MetricId::S1Hpl,
        MetricId::S2Stream,
        MetricId::S3Gups,
        MetricId::P4Hpl,
        MetricId::P5HplStream,
        MetricId::P6HplStreamGups,
        MetricId::P7HplMaps,
        MetricId::P8HplMapsNet,
        MetricId::P9HplMapsNetDep,
    ];

    /// Table 3 row number (1-based).
    #[must_use]
    pub fn number(self) -> usize {
        match self {
            MetricId::S1Hpl => 1,
            MetricId::S2Stream => 2,
            MetricId::S3Gups => 3,
            MetricId::P4Hpl => 4,
            MetricId::P5HplStream => 5,
            MetricId::P6HplStreamGups => 6,
            MetricId::P7HplMaps => 7,
            MetricId::P8HplMapsNet => 8,
            MetricId::P9HplMapsNetDep => 9,
        }
    }

    /// Simple or predictive.
    #[must_use]
    pub fn kind(self) -> MetricKind {
        if self.number() <= 3 {
            MetricKind::Simple
        } else {
            MetricKind::Predictive
        }
    }

    /// Table 3 name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            MetricId::S1Hpl => "HPL",
            MetricId::S2Stream => "STREAM",
            MetricId::S3Gups => "GUPS",
            MetricId::P4Hpl => "HPL",
            MetricId::P5HplStream => "HPL+STREAM",
            MetricId::P6HplStreamGups => "HPL+STREAM+GUPS",
            MetricId::P7HplMaps => "HPL+MAPS",
            MetricId::P8HplMapsNet => "HPL+MAPS+NET",
            MetricId::P9HplMapsNetDep => "HPL+MAPS+NET+DEP",
        }
    }

    /// Table 3 description.
    #[must_use]
    pub fn description(self) -> &'static str {
        match self {
            MetricId::S1Hpl => "HPL",
            MetricId::S2Stream => "STREAM",
            MetricId::S3Gups => "HPC Challenge Random Access (GUPS)",
            MetricId::P4Hpl => "HPL for floating point work",
            MetricId::P5HplStream => "HPL for floating point work; STREAM for memory access",
            MetricId::P6HplStreamGups => {
                "HPL for floating point work; STREAM for stride 1 memory access; \
                 GUPS for random stride memory access"
            }
            MetricId::P7HplMaps => "HPL for floating point work; MEMBENCH MAPS for memory access",
            MetricId::P8HplMapsNet => {
                "HPL for floating point work; MEMBENCH MAPS for memory access; \
                 NETBENCH for communications work"
            }
            MetricId::P9HplMapsNetDep => {
                "HPL for floating point work; ENHANCED MEMBENCH MAPS for memory \
                 access; NETBENCH for communications work"
            }
        }
    }

    /// Short row label in the paper's Table 4 style (`"6-P"`).
    #[must_use]
    pub fn short_label(self) -> String {
        let k = match self.kind() {
            MetricKind::Simple => "S",
            MetricKind::Predictive => "P",
        };
        format!("{}-{}", self.number(), k)
    }
}

impl std::fmt::Display for MetricId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "#{} {}", self.number(), self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nine_metrics_in_order() {
        assert_eq!(MetricId::ALL.len(), 9);
        for (i, m) in MetricId::ALL.iter().enumerate() {
            assert_eq!(m.number(), i + 1);
        }
    }

    #[test]
    fn kinds_split_three_six() {
        let simple = MetricId::ALL
            .iter()
            .filter(|m| m.kind() == MetricKind::Simple)
            .count();
        assert_eq!(simple, 3);
    }

    #[test]
    fn labels_match_table_style() {
        assert_eq!(MetricId::S1Hpl.short_label(), "1-S");
        assert_eq!(MetricId::P9HplMapsNetDep.short_label(), "9-P");
        assert_eq!(MetricId::P6HplStreamGups.to_string(), "#6 HPL+STREAM+GUPS");
    }

    #[test]
    fn descriptions_are_distinct() {
        let mut seen = std::collections::HashSet::new();
        for m in MetricId::ALL {
            seen.insert(m.description());
        }
        // #1 and #4 share the bare name "HPL" but have distinct descriptions.
        assert!(seen.len() >= 8);
    }
}
