//! Fault plans: the description of *which* faults a chaos run injects —
//! one format, the CLI's `--faults` spec, which [`FaultPlan::parse_spec`]
//! range-checks entry by entry — and the seeded, order-independent
//! decision function that makes every injection reproducible.
//!
//! A decision is a pure function of `(seed, site, labels)`: the labels are
//! hashed (FNV-1a, `0x1f`-separated so label boundaries cannot alias),
//! XORed into the plan seed, and mixed through xorshift64*. Nothing depends
//! on call order, thread scheduling, or how many *other* sites were
//! consulted first — which is what makes seeded chaos runs byte-identical
//! and lets memoized seams replay the same answer warm or cold.

use metasim_audit::registry::MS602;
use metasim_audit::{audit_value, AuditReport, Auditor};
use metasim_stats::rng::{fnv1a, fnv1a_labels};

use crate::site;

/// Largest probe-noise sigma the MS602 audit accepts without warning.
/// Beyond ±25%, perturbed probes stop resembling run-to-run variability
/// and start being a different machine.
pub const NOISE_TOLERANCE: f64 = 0.25;

/// One named fault to inject. Probabilities are per *decision coordinate*
/// (e.g. per machine per attempt), not per run.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultSpec {
    /// Multiplicative noise on probe results: each probe family of each
    /// machine is scaled by a factor drawn uniformly from
    /// `[1 - sigma, 1 + sigma]`.
    ProbeNoise {
        /// Half-width of the multiplicative perturbation interval.
        sigma: f64,
    },
    /// A probe measurement attempt fails transiently with this probability.
    MeasureFail {
        /// Per-attempt failure probability in `[0, 1]`.
        probability: f64,
    },
    /// A cache-entry read sees truncated bytes with this probability.
    CacheCorrupt {
        /// Per-read-attempt corruption probability in `[0, 1]`.
        probability: f64,
    },
    /// The named machine is unreachable for the whole run.
    MachineOutage {
        /// Fleet label of the machine taken down, e.g. `ARL_SC45`.
        machine: String,
    },
    /// A trace acquisition drops records with this probability.
    TraceDrop {
        /// Per-attempt drop probability in `[0, 1]`.
        probability: f64,
    },
}

/// A seeded fault plan: the single input that makes a chaos run
/// reproducible.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for every injection decision.
    pub seed: u64,
    /// The faults to inject; empty means "no faults" and behaves exactly
    /// like running with no plan installed.
    pub faults: Vec<FaultSpec>,
}

impl FaultPlan {
    /// A plan with no fault sites: installed, it is indistinguishable from
    /// no plan at all (pinned by tests here and in `metasim-core`).
    #[must_use]
    pub fn empty(seed: u64) -> Self {
        FaultPlan {
            seed,
            faults: Vec::new(),
        }
    }

    /// Whether this plan injects nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Parse the CLI `--faults` mini-language: a comma-separated list of
    /// `name:param` entries. Names: `probe-noise:SIGMA`, `measure-fail:P`,
    /// `cache-corrupt:P`, `trace-drop:P`, `outage:MACHINE_LABEL`. An empty
    /// spec yields an empty plan. Each probabilistic kind may appear once,
    /// and each machine in one `outage` entry; several `outage` entries
    /// naming distinct machines take them all down.
    ///
    /// ```
    /// use metasim_chaos::{FaultPlan, FaultSpec};
    /// let plan = FaultPlan::parse_spec(42, "probe-noise:0.05,outage:ARL_SC45").unwrap();
    /// assert_eq!(plan.seed, 42);
    /// assert_eq!(plan.faults.len(), 2);
    /// assert!(FaultPlan::parse_spec(1, "measure-fail:1.5").is_err());
    /// assert!(FaultPlan::parse_spec(1, "measure-fail:0.1,measure-fail:0.2").is_err());
    /// ```
    pub fn parse_spec(seed: u64, spec: &str) -> Result<Self, String> {
        let mut faults = Vec::new();
        for entry in spec.split(',').map(str::trim).filter(|e| !e.is_empty()) {
            let (name, param) = entry
                .split_once(':')
                .ok_or_else(|| format!("fault `{entry}` needs a `name:param` form"))?;
            let prob = |what: &str| -> Result<f64, String> {
                let p: f64 = param
                    .parse()
                    .map_err(|_| format!("{what} `{param}` is not a number"))?;
                if !(0.0..=1.0).contains(&p) {
                    return Err(format!("{what} `{param}` must be in [0, 1]"));
                }
                Ok(p)
            };
            let fault = match name {
                "probe-noise" => FaultSpec::ProbeNoise {
                    sigma: prob("probe-noise sigma")?,
                },
                "measure-fail" => FaultSpec::MeasureFail {
                    probability: prob("measure-fail probability")?,
                },
                "cache-corrupt" => FaultSpec::CacheCorrupt {
                    probability: prob("cache-corrupt probability")?,
                },
                "trace-drop" => FaultSpec::TraceDrop {
                    probability: prob("trace-drop probability")?,
                },
                "outage" => FaultSpec::MachineOutage {
                    machine: param.to_string(),
                },
                other => return Err(format!("unknown fault `{other}`")),
            };
            if let Some(earlier) = faults.iter().find(|f| repeats(f, &fault)) {
                let what = match earlier {
                    FaultSpec::MachineOutage { machine } => format!("the outage of `{machine}`"),
                    _ => format!("`{name}`"),
                };
                return Err(format!(
                    "fault `{entry}` repeats {what}: a plan takes each at most once"
                ));
            }
            faults.push(fault);
        }
        Ok(FaultPlan { seed, faults })
    }

    /// Audit the plan itself (scope `chaos-plan`): fires `MS602` when the
    /// probe-noise sigma exceeds [`NOISE_TOLERANCE`].
    #[must_use]
    pub fn audit(&self) -> AuditReport {
        audit_value(|a| a.scope("chaos-plan", |a| self.audit_into(a)))
    }

    /// The composable form of [`audit`](Self::audit).
    pub fn audit_into(&self, a: &mut Auditor) {
        for fault in &self.faults {
            if let FaultSpec::ProbeNoise { sigma } = fault {
                if *sigma > NOISE_TOLERANCE {
                    a.finding_at(
                        &MS602,
                        "probe-noise",
                        format!(
                            "sigma {sigma} exceeds the ±{NOISE_TOLERANCE} perturbation tolerance; \
                             predictions no longer describe the nominal machine"
                        ),
                    );
                }
            }
        }
    }

    /// Uniform draw in `[0, 1)` for a decision coordinate — pure in
    /// `(seed, site, labels)`, independent of call order.
    #[must_use]
    pub fn draw(&self, site: &str, labels: &[&str]) -> f64 {
        let h = fnv1a_labels(fnv1a(site.as_bytes()), labels, 0x1f);
        let mut x = self.seed ^ h;
        // A few extra rounds decorrelate nearby seeds and labels.
        for _ in 0..3 {
            x = xorshift64star(x);
        }
        // Top 53 bits → uniform double in [0, 1).
        (x >> 11) as f64 / (1u64 << 53) as f64
    }

    fn probability_for(&self, site: &str) -> f64 {
        // A parsed plan holds at most one spec per kind.
        self.faults
            .iter()
            .find_map(|f| match (site, f) {
                (site::MEASURE, FaultSpec::MeasureFail { probability })
                | (site::CACHE, FaultSpec::CacheCorrupt { probability })
                | (site::TRACE, FaultSpec::TraceDrop { probability }) => Some(*probability),
                _ => None,
            })
            .unwrap_or(0.0)
    }

    /// Does a fault fire at this `(site, labels)` coordinate?
    #[must_use]
    pub fn fires(&self, site: &str, labels: &[&str]) -> bool {
        if site == site::OUTAGE {
            return self.faults.iter().any(|f| {
                matches!(f, FaultSpec::MachineOutage { machine }
                    if labels.first() == Some(&machine.as_str()))
            });
        }
        let p = self.probability_for(site);
        p > 0.0 && self.draw(site, labels) < p
    }

    /// Multiplicative perturbation factor at this coordinate (1.0 = none).
    #[must_use]
    pub fn factor(&self, site: &str, labels: &[&str]) -> f64 {
        if site != site::PROBE_NOISE {
            return 1.0;
        }
        let sigma = self
            .faults
            .iter()
            .find_map(|f| match f {
                FaultSpec::ProbeNoise { sigma } => Some(*sigma),
                _ => None,
            })
            .unwrap_or(0.0);
        if sigma == 0.0 {
            return 1.0;
        }
        1.0 + sigma * (2.0 * self.draw(site, labels) - 1.0)
    }
}

/// Whether `b` names the same fault as `a`: the same probabilistic kind,
/// or an outage of the same machine.
fn repeats(a: &FaultSpec, b: &FaultSpec) -> bool {
    match (a, b) {
        (FaultSpec::MachineOutage { machine: x }, FaultSpec::MachineOutage { machine: y }) => {
            x == y
        }
        _ => std::mem::discriminant(a) == std::mem::discriminant(b),
    }
}

fn xorshift64star(mut x: u64) -> u64 {
    if x == 0 {
        // 0 is the xorshift fixed point; nudge it off with a golden-ratio
        // constant so seed^hash collisions at zero still produce draws.
        x = 0x9e37_79b9_7f4a_7c15;
    }
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    x.wrapping_mul(0x2545_f491_4f6c_dd1d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn spec_parsing_rejects_bad_entries() {
        assert!(FaultPlan::parse_spec(1, "nope:0.5").is_err());
        assert!(FaultPlan::parse_spec(1, "measure-fail").is_err());
        assert!(FaultPlan::parse_spec(1, "measure-fail:2.0").is_err());
        assert!(FaultPlan::parse_spec(1, "probe-noise:abc").is_err());
        assert!(FaultPlan::parse_spec(1, "probe-noise:-2.0").is_err());
        assert!(FaultPlan::parse_spec(1, "measure-fail:NaN").is_err());
        assert!(FaultPlan::parse_spec(1, "").unwrap().is_empty());
    }

    #[test]
    fn a_fault_named_twice_is_rejected_by_name() {
        for (spec, named) in [
            ("probe-noise:0.05,probe-noise:0.9", "`probe-noise`"),
            (
                "measure-fail:0.1,trace-drop:0.2,measure-fail:0.1",
                "`measure-fail`",
            ),
            ("cache-corrupt:1,cache-corrupt:0", "`cache-corrupt`"),
            ("trace-drop:0.5, trace-drop:0.5", "`trace-drop`"),
            (
                "outage:ARL_SC45,probe-noise:0.1,outage:ARL_SC45",
                "`ARL_SC45`",
            ),
        ] {
            let err = FaultPlan::parse_spec(1, spec).unwrap_err();
            assert!(
                err.contains(named) && err.contains("repeats"),
                "{spec}: {err}"
            );
        }
        let plan = FaultPlan::parse_spec(1, "outage:ARL_SC45,outage:ARL_Xeon").unwrap();
        assert!(plan.fires(site::OUTAGE, &["ARL_SC45"]));
        assert!(
            plan.fires(site::OUTAGE, &["ARL_Xeon"]),
            "distinct outages all hold"
        );
    }

    /// Whether `plan` holds at most one entry per probabilistic kind and
    /// per outage machine.
    fn at_most_once(plan: &FaultPlan) -> bool {
        let mut names: Vec<String> = plan
            .faults
            .iter()
            .map(|f| match f {
                FaultSpec::ProbeNoise { .. } => "probe-noise".to_string(),
                FaultSpec::MeasureFail { .. } => "measure-fail".to_string(),
                FaultSpec::CacheCorrupt { .. } => "cache-corrupt".to_string(),
                FaultSpec::TraceDrop { .. } => "trace-drop".to_string(),
                FaultSpec::MachineOutage { machine } => format!("outage:{machine}"),
            })
            .collect();
        let entries = names.len();
        names.sort();
        names.dedup();
        names.len() == entries
    }

    /// Whether every probability and sigma of `plan` lies in `[0, 1]`.
    fn in_unit_interval(plan: &FaultPlan) -> bool {
        plan.faults.iter().all(|f| match f {
            FaultSpec::ProbeNoise { sigma: p }
            | FaultSpec::MeasureFail { probability: p }
            | FaultSpec::CacheCorrupt { probability: p }
            | FaultSpec::TraceDrop { probability: p } => (0.0..=1.0).contains(p),
            FaultSpec::MachineOutage { .. } => true,
        })
    }

    /// Specs the parser accepts, the seeds of the mutation fuzz below.
    const VALID_SPECS: [&str; 5] = [
        "probe-noise:0.05,measure-fail:0.2,trace-drop:0.1,outage:ARL_Xeon",
        "cache-corrupt:1.0",
        " probe-noise:0 , measure-fail:1 ,",
        "trace-drop:0.5,outage:ARL_SC45,probe-noise:0.25",
        "outage:ARL_SC40,outage:ARL_SC49",
    ];

    /// Characters and number spellings a mutation splices into a spec.
    const SPLICES: [&str; 16] = [
        "-", "+", ".", ":", ",", " ", "e", "9", "0", "NaN", "inf", "-2.0", "1e400", "-0.0", "é",
        "\u{0}",
    ];

    #[test]
    fn decisions_are_pure_and_label_sensitive() {
        let plan = FaultPlan::parse_spec(42, "measure-fail:0.5").unwrap();
        let a = plan.draw(site::MEASURE, &["ARL_SC45", "1"]);
        let b = plan.draw(site::MEASURE, &["ARL_SC45", "1"]);
        assert_eq!(a, b, "same coordinate, same draw");
        let c = plan.draw(site::MEASURE, &["ARL_SC45", "2"]);
        assert_ne!(a, c, "attempt number must change the draw");
        // Label boundaries must not alias: ["ab","c"] != ["a","bc"].
        assert_ne!(
            plan.draw(site::MEASURE, &["ab", "c"]),
            plan.draw(site::MEASURE, &["a", "bc"])
        );
    }

    #[test]
    fn outage_matches_only_the_named_machine() {
        let plan = FaultPlan::parse_spec(1, "outage:ARL_SC45").unwrap();
        assert!(plan.fires(site::OUTAGE, &["ARL_SC45"]));
        assert!(!plan.fires(site::OUTAGE, &["NAVO_IBM_P4"]));
        assert!(!plan.fires(site::MEASURE, &["ARL_SC45", "1"]));
    }

    #[test]
    fn noise_factor_stays_within_sigma() {
        let plan = FaultPlan::parse_spec(9, "probe-noise:0.05").unwrap();
        for machine in ["a", "b", "c", "d"] {
            for family in ["hpl", "memory", "netbench"] {
                let f = plan.factor(site::PROBE_NOISE, &[family, machine]);
                assert!((0.95..=1.05).contains(&f), "factor {f} out of range");
            }
        }
    }

    #[test]
    fn oversized_noise_trips_ms602() {
        let report = FaultPlan::parse_spec(1, "probe-noise:0.5").unwrap().audit();
        assert_eq!(report.diagnostics.len(), 1);
        assert_eq!(report.diagnostics[0].rule.code, "MS602");
        assert!(FaultPlan::parse_spec(1, "probe-noise:0.25")
            .unwrap()
            .audit()
            .is_clean());
    }

    proptest! {
        /// The zero-fault-site half of the determinism contract: whatever
        /// the seed, an empty plan never fires and never perturbs, so the
        /// seams behave exactly as if no plan were installed.
        #[test]
        fn empty_plans_are_inert_for_every_seed(seed in 0u64..=u64::MAX) {
            let plan = FaultPlan::empty(seed);
            for (site, labels) in [
                (site::OUTAGE, vec!["ARL_SC45"]),
                (site::MEASURE, vec!["ARL_SC45", "1"]),
                (site::CACHE, vec!["probes", "deadbeef", "2"]),
                (site::TRACE, vec!["sweep3d", "mk25", "64", "1"]),
            ] {
                prop_assert!(!plan.fires(site, &labels));
            }
            prop_assert_eq!(plan.factor(site::PROBE_NOISE, &["hpl", "ARL_SC45"]), 1.0);
            prop_assert_eq!(plan.factor(site::PROBE_NOISE, &["memory", "x"]), 1.0);
        }

        /// Draws are probabilities: always in [0, 1).
        #[test]
        fn draws_are_unit_interval(seed in 0u64..=u64::MAX, attempt in 1u32..9) {
            let plan = FaultPlan::parse_spec(seed, "measure-fail:0.5").unwrap();
            let d = plan.draw(site::MEASURE, &["m", &attempt.to_string()]);
            prop_assert!((0.0..1.0).contains(&d));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// Arbitrary bytes, read as lossy UTF-8, never make the parser
        /// panic, and whatever it accepts is bounded noise.
        #[test]
        fn arbitrary_text_never_panics(bytes in prop::collection::vec(0u8..=255, 0..48)) {
            let text = String::from_utf8_lossy(&bytes);
            if let Ok(plan) = FaultPlan::parse_spec(1, &text) {
                prop_assert!(in_unit_interval(&plan), "{text:?} -> {plan:?}");
                prop_assert!(at_most_once(&plan), "{text:?} -> {plan:?}");
            }
        }

        /// Valid specs with characters inserted, deleted or replaced — or
        /// spliced in where a parameter starts — stay panic-free, and every
        /// accepted mutant is still bounded and names each fault once.
        #[test]
        fn mutated_specs_never_panic(
            base in 0usize..VALID_SPECS.len(),
            edits in prop::collection::vec((0u8..4, 0usize..128, 0usize..SPLICES.len()), 1..5),
        ) {
            let mut spec: Vec<char> = VALID_SPECS[base].chars().collect();
            for (op, at, splice) in edits {
                let splice = SPLICES[splice].chars();
                let params: Vec<usize> = (0..spec.len()).filter(|&i| spec[i] == ':').collect();
                let at = match op {
                    3 if !params.is_empty() => params[at % params.len()] + 1,
                    _ => at % (spec.len() + 1),
                };
                match op {
                    1 if at < spec.len() => {
                        spec.remove(at);
                    }
                    2 if at < spec.len() => {
                        spec.splice(at..=at, splice);
                    }
                    _ => {
                        spec.splice(at..at, splice);
                    }
                }
            }
            let text: String = spec.into_iter().collect();
            if let Ok(plan) = FaultPlan::parse_spec(1, &text) {
                prop_assert!(in_unit_interval(&plan), "{text:?} -> {plan:?}");
                prop_assert!(at_most_once(&plan), "{text:?} -> {plan:?}");
            }
        }
    }
}
