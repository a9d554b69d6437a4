//! Seeded fleet defects for the `MS10xx` audit family. (The `MS5xx` and
//! `MS9xx` rules are pinned by test-only fixtures in `metasim-core`
//! instead.)
//!
//! Each mutation plants exactly one defect in the generation or study
//! pipeline and is pinned by a test asserting that exactly its rule fires
//! — the audit rules are load-bearing, not decorative.

use crate::spec::{Dist, FleetSpec};

/// A named, deliberately planted fleet defect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetMutation {
    /// Swap the first machine's L1/L2 capacities after sampling (or, on a
    /// single-level hierarchy, give it a 48-byte cache line): the generator
    /// emits a machine the `MS0xx` physics audits reject. Caught by
    /// **MS1001**.
    DegenerateHierarchy,
    /// Invert the spec's clock range (`lo > hi`) before validation: the
    /// sampled space is empty. Caught by **MS1002**.
    UnsatisfiableSpec,
    /// Derive the first machine's sampling stream from the study's
    /// `idiosyncrasy` labels instead of the `fleet` namespace: machine
    /// parameters become correlated with the ground-truth noise they are
    /// judged against. Caught by **MS1003**.
    SeedOverlap,
    /// Zero the reference (base) machine's application flop efficiency:
    /// every base runtime diverges and Equation 1's denominator is
    /// poisoned. Caught by **MS1004**.
    ReferenceCollapse,
}

impl FleetMutation {
    /// Every mutation, in rule order.
    pub const ALL: [FleetMutation; 4] = [
        FleetMutation::DegenerateHierarchy,
        FleetMutation::UnsatisfiableSpec,
        FleetMutation::SeedOverlap,
        FleetMutation::ReferenceCollapse,
    ];

    /// CLI name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            FleetMutation::DegenerateHierarchy => "degenerate-hierarchy",
            FleetMutation::UnsatisfiableSpec => "unsatisfiable-spec",
            FleetMutation::SeedOverlap => "seed-overlap",
            FleetMutation::ReferenceCollapse => "reference-collapse",
        }
    }

    /// The one rule code this mutation must trip.
    #[must_use]
    pub fn expected_code(self) -> &'static str {
        match self {
            FleetMutation::DegenerateHierarchy => "MS1001",
            FleetMutation::UnsatisfiableSpec => "MS1002",
            FleetMutation::SeedOverlap => "MS1003",
            FleetMutation::ReferenceCollapse => "MS1004",
        }
    }

    /// Parse a CLI mutation name.
    ///
    /// # Errors
    /// An error listing the valid names when `name` is not one of them.
    pub fn parse(name: &str) -> Result<FleetMutation, String> {
        Self::ALL
            .into_iter()
            .find(|m| m.name() == name)
            .ok_or_else(|| {
                let names: Vec<&str> = Self::ALL.into_iter().map(FleetMutation::name).collect();
                format!("unknown fleet mutation `{name}` (try {})", names.join(", "))
            })
    }

    /// Apply the spec-level part of the mutation (only
    /// [`UnsatisfiableSpec`](FleetMutation::UnsatisfiableSpec) has one; the
    /// rest act inside the generator or study driver).
    pub fn apply_to_spec(self, spec: &mut FleetSpec) {
        if self == FleetMutation::UnsatisfiableSpec {
            spec.machines.clock_ghz = Dist::Uniform { lo: 2.0, hi: 0.4 };
        }
    }
}
