//! The rule registry: every stable `MSxxx` code, its default severity, and
//! the piece of the paper's methodology it enforces.
//!
//! Code blocks mirror the artifact layers: `MS0xx` machine configuration,
//! `MS1xx` probe curves (MAPS / ENHANCED MAPS / HPL), `MS2xx` application
//! traces, `MS3xx` study outputs and predictions, `MS4xx` run manifests,
//! `MS5xx` formula/dataflow lints, `MS6xx` robustness (fault injection,
//! partial coverage, retry budgets), `MS8xx` tiered-model fidelity,
//! `MS9xx` sensitivity analysis, `MS10xx` generated fleets (sampled
//! scenario spaces); `MS7xx` is retired. Codes are append-only —
//! a published code is never renumbered or reused, so `allow` lists in
//! config files stay meaningful across releases.

use crate::Severity;

/// Static description of one audit rule.
#[derive(Debug, PartialEq, Eq, Hash)]
pub struct Rule {
    /// Stable code, e.g. `MS002`.
    pub code: &'static str,
    /// Short kebab-case name, e.g. `efficiency-ordering`.
    pub name: &'static str,
    /// One-line statement of the invariant.
    pub summary: &'static str,
    /// Where in the paper's methodology the invariant comes from.
    pub paper: &'static str,
    /// Severity when the rule fires, unless escalated or overridden.
    pub default_severity: Severity,
}

macro_rules! rules {
    ($($ident:ident = {
        code: $code:literal,
        name: $name:literal,
        severity: $sev:ident,
        summary: $summary:literal,
        paper: $paper:literal $(,)?
    });* $(;)?) => {
        $(
            #[doc = $summary]
            pub static $ident: Rule = Rule {
                code: $code,
                name: $name,
                summary: $summary,
                paper: $paper,
                default_severity: Severity::$sev,
            };
        )*

        /// Every registered rule, in code order.
        pub static ALL: &[&Rule] = &[$(&$ident),*];
    };
}

rules! {
    MS001 = {
        code: "MS001",
        name: "processor-scalars",
        severity: Error,
        summary: "Processor clock and flops-per-cycle must be positive and finite",
        paper: "Table 1: machine peak floating-point rates",
    };
    MS002 = {
        code: "MS002",
        name: "efficiency-ordering",
        severity: Error,
        summary: "Efficiencies must satisfy 0 < app_flop_efficiency <= hpl_efficiency <= 1",
        paper: "Metrics #1/#4: HPL sustains more of peak than real applications",
    };
    MS003 = {
        code: "MS003",
        name: "cache-geometry",
        severity: Error,
        summary: "Cache line/set/capacity geometry must be internally consistent powers of two",
        paper: "MAPS probes walk real cache hierarchies; impossible geometry voids them",
    };
    MS004 = {
        code: "MS004",
        name: "hierarchy-monotonicity",
        severity: Error,
        summary: "Down the memory hierarchy, capacity grows while bandwidth falls and latency rises",
        paper: "MAPS curve plateaus exist because each level is bigger and slower",
    };
    MS005 = {
        code: "MS005",
        name: "memory-micro-parameters",
        severity: Error,
        summary: "MLP, prefetch fractions, and penalty cycles must be in their physical ranges",
        paper: "Cache simulator inputs behind metrics #5/#7-#9",
    };
    MS006 = {
        code: "MS006",
        name: "network-sanity",
        severity: Error,
        summary: "Network latency, bandwidth, and topology parameters must be positive and finite",
        paper: "Metric #8 adds measured network latency/bandwidth to the convolution",
    };
    MS007 = {
        code: "MS007",
        name: "fleet-completeness",
        severity: Error,
        summary: "The study fleet must contain exactly one config per machine id",
        paper: "Table 5: ten target systems plus the NAVO p690 base",
    };
    MS008 = {
        code: "MS008",
        name: "era-envelope",
        severity: Warn,
        summary: "Machine parameters should fall inside the 2005-era HPC plausibility envelope",
        paper: "Table 1: the study fleet spans 0.5-1.7 GHz and microsecond interconnects",
    };
    MS101 = {
        code: "MS101",
        name: "curve-shape",
        severity: Error,
        summary: "A MAPS curve needs >= 2 points, strictly increasing sizes, finite positive bandwidths",
        paper: "MAPS: achievable bandwidth as a function of working-set size",
    };
    MS102 = {
        code: "MS102",
        name: "curve-monotone",
        severity: Error,
        summary: "MAPS bandwidth must be non-increasing as the working set grows (5% tolerance)",
        paper: "MAPS: bandwidth falls at each cache-capacity boundary",
    };
    MS103 = {
        code: "MS103",
        name: "enhanced-dominance",
        severity: Error,
        summary: "ENHANCED MAPS chained/branchy curves cannot beat the independent-access curve",
        paper: "ENHANCED MAPS: dependence limits memory-level parallelism",
    };
    MS104 = {
        code: "MS104",
        name: "stride-ordering",
        severity: Error,
        summary: "Random-stride bandwidth cannot exceed unit-stride bandwidth at the same size",
        paper: "MAPS measures unit-stride vs random access; random is always slower",
    };
    MS105 = {
        code: "MS105",
        name: "hpl-within-peak",
        severity: Error,
        summary: "Measured HPL GFLOP/s must not exceed the machine's theoretical peak",
        paper: "Metric #1: HPL is a fraction of peak, never more",
    };
    MS106 = {
        code: "MS106",
        name: "plateau-ratio",
        severity: Warn,
        summary: "The main-memory plateau should sit well below the L1 plateau",
        paper: "MAPS: cache-to-memory bandwidth ratios of 3-100x across the fleet",
    };
    MS201 = {
        code: "MS201",
        name: "trace-shape",
        severity: Error,
        summary: "A trace needs blocks, a nonzero process count, and a matching MPI process count",
        paper: "MetaSim tracer + MPI trace drive the convolution",
    };
    MS202 = {
        code: "MS202",
        name: "block-integrity",
        severity: Error,
        summary: "Per-block instruction, memory, and flop counters must be individually coherent",
        paper: "Basic-block counters are the convolution's independent variables",
    };
    MS203 = {
        code: "MS203",
        name: "stride-conservation",
        severity: Error,
        summary: "Stride-class bins must exactly partition a block's memory references",
        paper: "MAPS convolution weights unit-stride vs random reference fractions",
    };
    MS204 = {
        code: "MS204",
        name: "hit-rate-bands",
        severity: Error,
        summary: "Simulated cache hit fractions must lie in [0, 1] and partition the access stream",
        paper: "Cache-simulator hit rates select the operative MAPS bandwidth",
    };
    MS301 = {
        code: "MS301",
        name: "error-accounting",
        severity: Error,
        summary: "Per-observation signed and absolute errors must agree with Equation 2",
        paper: "Equation 2: percent error of predicted vs measured runtime",
    };
    MS302 = {
        code: "MS302",
        name: "cpu-monotonicity",
        severity: Warn,
        summary: "Measured runtime should not increase with processor count for a fixed case/machine",
        paper: "Strong-scaling inputs: 5 cases x 3 CPU counts of shrinking runtimes",
    };
    MS303 = {
        code: "MS303",
        name: "dominance-paradox",
        severity: Warn,
        summary: "A machine that dominates another on every benchmark should not measure slower",
        paper: "Table 2/3: benchmark dominance vs observed runtimes",
    };
    MS304 = {
        code: "MS304",
        name: "prediction-finiteness",
        severity: Error,
        summary: "Every predicted and measured runtime must be finite and positive",
        paper: "Tables 4-5 average percent errors; one NaN poisons every mean",
    };
    MS305 = {
        code: "MS305",
        name: "metric-identity",
        severity: Error,
        summary: "Metric #4 predictions must equal metric #1 (same ratio, per Equation 1)",
        paper: "Metrics #1 and #4 share the HPL ratio in Equation 1",
    };
    MS401 = {
        code: "MS401",
        name: "manifest-schema",
        severity: Error,
        summary: "A run manifest's schema version must match the version this build reads",
        paper: "Provenance records are only comparable within one schema",
    };
    MS402 = {
        code: "MS402",
        name: "manifest-durations",
        severity: Error,
        summary: "Every span, phase, and total wall time in a manifest must be finite and non-negative",
        paper: "Cold/warm manifest comparisons break on impossible timings",
    };
    MS403 = {
        code: "MS403",
        name: "manifest-metrics",
        severity: Error,
        summary: "Manifest metric snapshots need coherent histogram shapes and finite values",
        paper: "The signed-error distribution backs the Table 4 error accounting",
    };
    MS404 = {
        code: "MS404",
        name: "phase-regression-beyond-budget",
        severity: Error,
        summary: "A phase's wall time in the candidate manifest must stay within the budget's allowance over the baseline",
        paper: "Cornebize & Legrand: point snapshots mislead; regressions are judged against an explicit variability budget",
    };
    MS405 = {
        code: "MS405",
        name: "counter-anomaly",
        severity: Warn,
        summary: "Work and cache-efficiency counters must not drift anomalously between baseline and candidate runs",
        paper: "Section 3 amortizes probes/traces through the cache; a hit-rate collapse silently changes what is measured",
    };
    MS406 = {
        code: "MS406",
        name: "missing-span-kind",
        severity: Warn,
        summary: "Every span kind present in the baseline manifest must appear in the candidate run",
        paper: "The 1,350-prediction pipeline has a fixed phase structure; a vanished span kind means skipped work",
    };
    MS501 = {
        code: "MS501",
        name: "formula-dimension",
        severity: Error,
        summary: "Every metric's prediction formula must reduce dimensionally to seconds",
        paper: "Equation 1: predicted time is a dimensionless cost ratio times a measured time",
    };
    MS502 = {
        code: "MS502",
        name: "unmeasured-quantity",
        severity: Error,
        summary: "A metric formula may only reference quantities some probe actually measures",
        paper: "Table 3: each transfer function convolves benchmark-measured rates",
    };
    MS503 = {
        code: "MS503",
        name: "unconsumed-measurement",
        severity: Warn,
        summary: "Every measured probe quantity should feed at least one metric formula",
        paper: "Table 3: the probes exist to parameterize the metrics' transfer functions",
    };
    MS504 = {
        code: "MS504",
        name: "unused-machine",
        severity: Warn,
        summary: "Every fleet machine should appear in the study's observation plan",
        paper: "Tables 4-5 span the base system plus all ten targets",
    };
    MS505 = {
        code: "MS505",
        name: "unreachable-branch",
        severity: Warn,
        summary: "Every transfer-function branch (ENHANCED MAPS curve flavor) must be reachable from some dependency class",
        paper: "Metric #9's curves exist per dependency class the analyzer can emit",
    };
    MS601 = {
        code: "MS601",
        name: "partial-study-coverage",
        severity: Warn,
        summary: "A study missing machines or observations must announce its partial coverage",
        paper: "Tables 4-5 average 150 observations; a silent gap skews every mean they report",
    };
    MS602 = {
        code: "MS602",
        name: "perturbation-exceeds-tolerance",
        severity: Warn,
        summary: "Injected probe noise should stay within the 25% multiplicative tolerance",
        paper: "Cornebize & Legrand: unmodeled measurement variability corrupts convolution predictions",
    };
    MS603 = {
        code: "MS603",
        name: "retry-budget-exhausted",
        severity: Warn,
        summary: "A run manifest whose chaos.retry.exhausted counter is nonzero reports degraded inputs",
        paper: "The probe methodology assumes measurements eventually succeed; exhausted retries mean holes",
    };
    // MS701–MS705 (parallel safety) are retired; the codes are never reused.
    MS801 = {
        code: "MS801",
        name: "tier-fidelity",
        severity: Error,
        summary: "Analytic-tier per-level hit fractions must stay within the error budget of the exact simulator on every machine spec",
        paper: "The paper's own question — how well a cheap proxy tracks a faithful model — applied to our analytic cache model",
    };
    MS901 = {
        code: "MS901",
        name: "ill-conditioned-prediction",
        severity: Error,
        summary: "A coherent probe miscalibration must cancel through Equation 1's base ratio; a condition number over budget means systematic probe bias reaches the prediction amplified",
        paper: "Equation 1: the base-system ratio exists so systematic measurement bias divides out of T'",
    };
    MS902 = {
        code: "MS902",
        name: "single-probe-dominated",
        severity: Warn,
        summary: "A multi-probe transfer function whose first-order sensitivity mass collapses onto one probe quantity degenerates into a simple metric — the other measurements are dead inputs",
        paper: "Table 3: the predictive metrics exist because no single benchmark rate explains application time",
    };
    MS903 = {
        code: "MS903",
        name: "non-lipschitz-node",
        severity: Error,
        summary: "Within the ±ε probe band a formula's denominator may vanish, or the static interval widens faster than the amplification budget — the prediction is not Lipschitz in its inputs",
        paper: "Tables 4/5 report bounded percentage errors; an unbounded transfer function could not",
    };
    MS904 = {
        code: "MS904",
        name: "interval-violation",
        severity: Error,
        summary: "An observed chaos probe-noise prediction landed outside the statically derived interval for its cell — the abstract interpretation is unsound or the noise model drifted",
        paper: "Cross-validates the static error propagation against the paper's measured-variation framing",
    };
    // MS905 (stale sensitivity budget file) is retired with the file; the
    // code is never reused.
    MS1001 = {
        code: "MS1001",
        name: "fleet-degenerate-hierarchy",
        severity: Error,
        summary: "A sampled machine's configuration fails the MS0xx physics audits — the generator emitted a degenerate cache hierarchy, processor, or network",
        paper: "Section 2: the study's conclusions rest on every machine being a physically coherent memory hierarchy; a sampler must only widen the grid, never break it",
    };
    MS1002 = {
        code: "MS1002",
        name: "fleet-unsatisfiable-spec",
        severity: Error,
        summary: "A fleet spec is unsatisfiable: an inverted range, empty choice list, zero size, or weights that cannot be normalized",
        paper: "Tables 4-5 generalized: a sampled design space must be well-posed before its error distribution means anything",
    };
    MS1003 = {
        code: "MS1003",
        name: "fleet-seed-overlap",
        severity: Error,
        summary: "A fleet sampler seed stream collides with a study RNG stream (idiosyncrasy / imbalance / run-jitter / workblock) — sampling would be correlated with the ground truth it is judged against",
        paper: "Equation 2: error statistics are only meaningful when the sampled inputs are independent of the measured noise",
    };
    MS1004 = {
        code: "MS1004",
        name: "fleet-reference-preflight",
        severity: Error,
        summary: "The fleet study's reference cell fails the MS9xx-style preflight: a base-side cost or runtime is non-finite, non-positive, or amplifies a coherent probe band beyond the sensitivity budget",
        paper: "Equation 1: every prediction divides by the base system's cost, so a degenerate reference poisons all of Tables 4-5 at once",
    };
}

/// Look up a rule by its stable code (`"MS002"`).
#[must_use]
pub fn by_code(code: &str) -> Option<&'static Rule> {
    ALL.iter().find(|r| r.code == code).copied()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_unique_and_sorted() {
        // Numeric order, not lexicographic: "MS1001" follows "MS904".
        let nums: Vec<u32> = ALL.iter().map(|r| r.code[2..].parse().unwrap()).collect();
        let mut sorted = nums.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(nums, sorted, "registry must stay unique and in code order");
    }

    #[test]
    fn lookup_by_code() {
        assert_eq!(by_code("MS002").unwrap().name, "efficiency-ordering");
        assert!(by_code("MS999").is_none());
    }

    #[test]
    fn every_rule_documents_itself() {
        for r in ALL {
            assert!(
                r.code.starts_with("MS") && (5..=6).contains(&r.code.len()),
                "{}",
                r.code
            );
            assert!(r.code[2..].parse::<u32>().is_ok(), "{}", r.code);
            assert!(!r.name.is_empty() && !r.summary.is_empty() && !r.paper.is_empty());
        }
    }

    /// Extract every `MSxxx`/`MSxxxx` code the README's rule table covers,
    /// expanding `MS001–MS005`-style ranges (en dash or hyphen). Codes are
    /// matched longest-first, so `MS1001` is never misread as `MS100`.
    fn readme_codes(readme: &str) -> std::collections::BTreeSet<u32> {
        let mut covered = std::collections::BTreeSet::new();
        let digits = |s: &str| -> Option<(u32, usize)> {
            let n = s.bytes().take(4).take_while(u8::is_ascii_digit).count();
            if n < 3 {
                return None;
            }
            s[..n].parse().ok().map(|v| (v, n))
        };
        let mut rest = readme;
        while let Some(pos) = rest.find("MS") {
            rest = &rest[pos + 2..];
            let Some((start, n)) = digits(rest) else {
                continue;
            };
            rest = &rest[n..];
            // A range like `MS001–MS005` (or with `-`): expand it.
            let tail = rest
                .strip_prefix('\u{2013}')
                .or_else(|| rest.strip_prefix('-'));
            let end = tail
                .and_then(|t| t.strip_prefix("MS"))
                .and_then(digits)
                .map_or(start, |(v, _)| v);
            covered.extend(start..=end.max(start));
        }
        covered
    }

    #[test]
    fn every_code_is_documented_in_the_readme() {
        let readme =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md"))
                .expect("repo README.md must be readable from crates/audit");
        let covered = readme_codes(&readme);
        for r in ALL {
            let n: u32 = r.code[2..].parse().unwrap();
            assert!(
                covered.contains(&n),
                "{} ({}) is not documented in the README rule table",
                r.code,
                r.name
            );
        }
    }

    #[test]
    fn readme_range_expansion_parses() {
        let covered = readme_codes("| MS001–MS003 | x | MS105 | MS201-MS202 | MS1001–MS1003 |");
        assert_eq!(
            covered.into_iter().collect::<Vec<_>>(),
            vec![1, 2, 3, 105, 201, 202, 1001, 1002, 1003]
        );
    }
}
