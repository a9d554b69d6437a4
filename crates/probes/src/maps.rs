//! The MEMBENCH MAPS probe: memory bandwidth versus working-set size.
//!
//! MAPS "is equivalent to launching multiple instances of both STREAM and
//! GUPS at various sizes in order to span the various levels of cache"
//! (paper §3). We sweep working sets from 4 KiB to 128 MiB at half-octave
//! spacing for unit-stride and random patterns. ENHANCED MAPS repeats the
//! sweep with loop-carried-dependency and branchy issue modes, "inducing
//! data and control-flow dependencies in the inner loop of both STREAM and
//! GUPS".
//!
//! A [`MapsCurve`] supports log-space interpolation so the convolver can ask
//! for the delivered bandwidth at any application working-set size —
//! exactly how the paper's Metrics #7–#9 consume the curves.

use std::sync::OnceLock;

use serde::{DeError, Deserialize, Serialize, Value};

use metasim_machines::MachineConfig;
use metasim_memsim::analytic::{measure_bandwidth_tiered, ResolvedTier};
use metasim_memsim::bandwidth::{ProfileMemo, Workload};
use metasim_memsim::timing::{AccessKind, DependencyMode};
use metasim_units::BytesPerSec;

/// Which inner-loop flavour a curve was measured with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DependencyFlavor {
    /// Plain MAPS: independent iterations.
    Independent,
    /// ENHANCED MAPS: loop-carried data dependency.
    Chained,
    /// ENHANCED MAPS: unpredictable branch in the loop body.
    Branchy,
}

impl DependencyFlavor {
    fn mode(self) -> DependencyMode {
        match self {
            DependencyFlavor::Independent => DependencyMode::Independent,
            DependencyFlavor::Chained => DependencyMode::Chained,
            DependencyFlavor::Branchy => DependencyMode::Branchy,
        }
    }
}

/// One measured bandwidth-versus-size curve.
///
/// Interpolation happens in log-size space; the knot logarithms are computed
/// once per curve (lazily, in a [`OnceLock`]) rather than on every
/// [`bandwidth_at`](MapsCurve::bandwidth_at) call — the convolver performs
/// two lookups per work block per curve-based metric, thousands per study.
/// Equality and serialization cover only the measured data (`kind`,
/// `flavor`, `points`); the log table is a derived cache.
#[derive(Debug, Clone)]
pub struct MapsCurve {
    /// Access pattern the curve was measured with.
    pub kind: AccessKind,
    /// Dependency flavour.
    pub flavor: DependencyFlavor,
    /// `(working_set_bytes, bytes_per_second)` points, ascending in size.
    /// Bandwidths may be adjusted in place (curve capping); sizes must not
    /// change after the first `bandwidth_at` call on a clone of the curve —
    /// [`MapsCurve::new`] a fresh curve instead.
    pub points: Vec<(u64, f64)>,
    /// Lazily built `ln(size)` per knot, index-aligned with `points`.
    log_sizes: OnceLock<Vec<f64>>,
}

impl PartialEq for MapsCurve {
    fn eq(&self, other: &Self) -> bool {
        self.kind == other.kind && self.flavor == other.flavor && self.points == other.points
    }
}

impl Serialize for MapsCurve {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("kind".to_string(), self.kind.to_value()),
            ("flavor".to_string(), self.flavor.to_value()),
            ("points".to_string(), self.points.to_value()),
        ])
    }
}

impl Deserialize for MapsCurve {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let Value::Object(pairs) = v else {
            return Err(DeError("MapsCurve expects an object".to_string()));
        };
        Ok(Self::new(
            serde::field(pairs, "kind", "MapsCurve")?,
            serde::field(pairs, "flavor", "MapsCurve")?,
            serde::field(pairs, "points", "MapsCurve")?,
        ))
    }
}

impl MapsCurve {
    /// A curve from measured points (ascending in working-set size).
    #[must_use]
    pub fn new(kind: AccessKind, flavor: DependencyFlavor, points: Vec<(u64, f64)>) -> Self {
        Self {
            kind,
            flavor,
            points,
            log_sizes: OnceLock::new(),
        }
    }

    /// The `ln(size)` table, built on first use.
    fn log_sizes(&self) -> &[f64] {
        self.log_sizes
            .get_or_init(|| self.points.iter().map(|&(s, _)| (s as f64).ln()).collect())
    }

    /// Delivered bandwidth at an arbitrary working-set size, by log-linear
    /// interpolation; clamps to the measured range.
    ///
    /// # Panics
    /// Panics if the curve is empty.
    #[must_use]
    pub fn bandwidth_at(&self, working_set: u64) -> BytesPerSec {
        assert!(!self.points.is_empty(), "empty MAPS curve");
        let ws = working_set.max(1) as f64;
        let first = self.points[0];
        let last = *self.points.last().expect("non-empty");
        if ws <= first.0 as f64 {
            return BytesPerSec::new(first.1);
        }
        if ws >= last.0 as f64 {
            return BytesPerSec::new(last.1);
        }
        let idx = self.points.partition_point(|&(size, _)| (size as f64) < ws);
        let (s0, b0) = self.points[idx - 1];
        let (s1, b1) = self.points[idx];
        if s0 == s1 {
            return BytesPerSec::new(b0);
        }
        let logs = self.log_sizes();
        let t = (ws.ln() - logs[idx - 1]) / (logs[idx] - logs[idx - 1]);
        BytesPerSec::new(b0 + t * (b1 - b0))
    }

    /// The main-memory plateau: the last (largest working set) point — this
    /// is "the lower right-hand portion" that matches STREAM/GUPS (§3).
    #[must_use]
    pub fn plateau(&self) -> BytesPerSec {
        BytesPerSec::new(self.points.last().map_or(0.0, |&(_, bw)| bw))
    }
}

/// The full MAPS measurement for one machine: unit and random curves, plus
/// the ENHANCED dependency/branch variants of each.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MapsSet {
    /// Unit-stride, independent (the Figure 1 curve).
    pub unit: MapsCurve,
    /// Random, independent.
    pub random: MapsCurve,
    /// Unit-stride with a loop-carried dependency (ENHANCED).
    pub unit_chained: MapsCurve,
    /// Unit-stride with an in-loop branch (ENHANCED).
    pub unit_branchy: MapsCurve,
    /// Random with a loop-carried dependency (ENHANCED).
    pub random_chained: MapsCurve,
}

impl MapsSet {
    /// Select the curve for a pattern/flavour pair as Metric #9 does.
    #[must_use]
    pub fn curve(&self, random: bool, flavor: DependencyFlavor) -> &MapsCurve {
        match (random, flavor) {
            (false, DependencyFlavor::Independent) => &self.unit,
            (false, DependencyFlavor::Chained) => &self.unit_chained,
            (false, DependencyFlavor::Branchy) => &self.unit_branchy,
            (true, DependencyFlavor::Independent) => &self.random,
            // Branchy random loops behave like chained ones at this model's
            // granularity.
            (true, DependencyFlavor::Chained | DependencyFlavor::Branchy) => &self.random_chained,
        }
    }
}

/// The working-set sizes MAPS sweeps: 4 KiB → 128 MiB at half-octave steps.
/// Computed once per process — every one of the 55 per-machine curve sweeps
/// shares this slice instead of rebuilding the grid.
#[must_use]
pub fn sweep_sizes() -> &'static [u64] {
    static SIZES: OnceLock<Vec<u64>> = OnceLock::new();
    SIZES.get_or_init(|| {
        let mut sizes = Vec::new();
        let mut s: u64 = 4 << 10;
        while s <= 128 << 20 {
            sizes.push(s);
            let next = s * 3 / 2;
            sizes.push(next.min(128 << 20));
            s *= 2;
        }
        sizes.dedup();
        sizes
    })
}

fn measure_curve(
    machine: &MachineConfig,
    kind: AccessKind,
    flavor: DependencyFlavor,
    tier: ResolvedTier,
    profiles: &ProfileMemo,
) -> MapsCurve {
    let points: Vec<(u64, f64)> = sweep_sizes()
        .iter()
        .map(|&ws| {
            let (sample, _) = measure_bandwidth_tiered(
                &machine.memory,
                &Workload::new(ws, kind, flavor.mode()),
                tier.as_tier(),
                profiles,
            );
            (ws, sample.bytes_per_second().get())
        })
        .collect();
    MapsCurve::new(kind, flavor, points)
}

/// Cap `curve` pointwise at `bound`. Curves share the [`sweep_sizes`] grid
/// and interpolate linearly between the same knots, so a pointwise cap
/// enforces the ordering at every interpolated working-set size too.
fn cap_curve(curve: &mut MapsCurve, bound: &MapsCurve) {
    debug_assert_eq!(curve.points.len(), bound.points.len(), "shared sweep grid");
    for (p, b) in curve.points.iter_mut().zip(&bound.points) {
        debug_assert_eq!(p.0, b.0, "shared sweep grid");
        p.1 = p.1.min(b.1);
    }
}

/// Run the full MAPS + ENHANCED MAPS measurement for one machine.
///
/// The random curves are capped at their unit-stride counterparts (and the
/// chained random curve at the independent random curve): while a working
/// set is cache-resident, random hits issue from the same load ports as
/// unit-stride hits, so a measured random sweep can never sit above the
/// unit sweep — the cap keeps the published curves on the physical side of
/// that bound where the simulator's latency/MLP regime would overshoot it
/// on high-MLP machines. Beyond cache the random curves are latency-bound
/// far below unit stride and the cap never binds.
#[must_use]
pub fn measure_maps(machine: &MachineConfig) -> MapsSet {
    measure_maps_tiered(machine, ResolvedTier::Exact, &ProfileMemo::new())
}

/// [`measure_maps`] under an explicit resolved model tier. The exact tier is
/// byte-identical to [`measure_maps`]; the analytic tier shares the same
/// sweep grid and curve-capping pipeline, only the per-point sample comes
/// from the closed-form model. Exact-tier profiles are read through
/// `profiles`.
#[must_use]
pub fn measure_maps_tiered(
    machine: &MachineConfig,
    tier: ResolvedTier,
    profiles: &ProfileMemo,
) -> MapsSet {
    let unit = measure_curve(
        machine,
        AccessKind::Sequential,
        DependencyFlavor::Independent,
        tier,
        profiles,
    );
    let mut random = measure_curve(
        machine,
        AccessKind::Random,
        DependencyFlavor::Independent,
        tier,
        profiles,
    );
    let unit_chained = measure_curve(
        machine,
        AccessKind::Sequential,
        DependencyFlavor::Chained,
        tier,
        profiles,
    );
    let unit_branchy = measure_curve(
        machine,
        AccessKind::Sequential,
        DependencyFlavor::Branchy,
        tier,
        profiles,
    );
    let mut random_chained = measure_curve(
        machine,
        AccessKind::Random,
        DependencyFlavor::Chained,
        tier,
        profiles,
    );
    cap_curve(&mut random, &unit);
    cap_curve(&mut random_chained, &unit_chained);
    cap_curve(&mut random_chained, &random);
    MapsSet {
        unit,
        random,
        unit_chained,
        unit_branchy,
        random_chained,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metasim_machines::{fleet, MachineId};

    fn maps_for(id: MachineId) -> MapsSet {
        measure_maps(fleet().get(id))
    }

    #[test]
    fn sweep_spans_l1_to_dram() {
        let sizes = sweep_sizes();
        assert_eq!(*sizes.first().unwrap(), 4 << 10);
        assert_eq!(*sizes.last().unwrap(), 128 << 20);
        assert!(sizes.windows(2).all(|w| w[0] < w[1]), "ascending");
        assert!(sizes.len() > 20, "enough resolution: {}", sizes.len());
    }

    #[test]
    fn unit_curve_is_monotone_decreasing_ish() {
        let set = maps_for(MachineId::Navo655);
        for w in set.unit.points.windows(2) {
            assert!(
                w[1].1 <= w[0].1 * 1.05,
                "unit curve rises: {:?} -> {:?}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn plateau_matches_stream_and_gups() {
        // §3: the lower-right of the unit curve is the STREAM score; of the
        // random curve, the GUPS score.
        let f = fleet();
        let m = f.get(MachineId::ArlOpteron);
        let set = measure_maps(m);
        let stream = crate::stream::measure_stream(m);
        let gups = crate::gups::measure_gups(m);
        let unit_plateau = set.unit.plateau();
        assert!(
            (unit_plateau - stream.bandwidth).abs() / stream.bandwidth < 0.15,
            "unit plateau {unit_plateau} vs STREAM {}",
            stream.bandwidth
        );
        let random_plateau = set.random.plateau();
        assert!(
            (random_plateau - gups.effective_bandwidth()).abs() / gups.effective_bandwidth() < 0.25,
            "random plateau {random_plateau} vs GUPS {}",
            gups.effective_bandwidth()
        );
    }

    #[test]
    fn interpolation_is_sane() {
        let curve = MapsCurve::new(
            AccessKind::Sequential,
            DependencyFlavor::Independent,
            vec![(1024, 10e9), (4096, 2e9)],
        );
        // Clamps at the ends.
        assert_eq!(curve.bandwidth_at(1), 10e9);
        assert_eq!(curve.bandwidth_at(1 << 30), 2e9);
        // Log-midpoint of 1024..4096 is 2048.
        let mid = curve.bandwidth_at(2048);
        assert!((mid.get() - 6e9).abs() / 6e9 < 1e-9, "got {mid}");
        // Monotone between the ends.
        assert!(curve.bandwidth_at(1500) > curve.bandwidth_at(3000));
    }

    #[test]
    #[should_panic(expected = "empty MAPS curve")]
    fn empty_curve_panics() {
        let curve = MapsCurve::new(
            AccessKind::Sequential,
            DependencyFlavor::Independent,
            vec![],
        );
        let _ = curve.bandwidth_at(1024);
    }

    #[test]
    fn enhanced_curves_are_slower_in_cache() {
        let set = maps_for(MachineId::Navo655);
        // At L1-resident sizes the chained curve must be far below plain.
        let plain = set.unit.bandwidth_at(8 << 10);
        let chained = set.unit_chained.bandwidth_at(8 << 10);
        let branchy = set.unit_branchy.bandwidth_at(8 << 10);
        assert!(chained < 0.5 * plain, "chained {chained} vs {plain}");
        assert!(branchy < plain, "branchy {branchy} vs {plain}");
    }

    #[test]
    fn figure1_crossovers_hold() {
        // Paper Figure 1: Opteron best from main memory; Altix best in the
        // L2 region; p655 best at L1-resident sizes (among those three).
        let p655 = maps_for(MachineId::Navo655);
        let altix = maps_for(MachineId::ArlAltix);
        let opteron = maps_for(MachineId::ArlOpteron);

        let l1 = 16 << 10;
        assert!(p655.unit.bandwidth_at(l1) > opteron.unit.bandwidth_at(l1));

        let l2 = 192 << 10;
        assert!(altix.unit.bandwidth_at(l2) > p655.unit.bandwidth_at(l2));
        assert!(altix.unit.bandwidth_at(l2) > opteron.unit.bandwidth_at(l2));

        let dram = 128 << 20;
        assert!(opteron.unit.bandwidth_at(dram) > altix.unit.bandwidth_at(dram));
        assert!(opteron.unit.bandwidth_at(dram) > p655.unit.bandwidth_at(dram));
    }

    #[test]
    fn curve_selector_routes_flavours() {
        let set = maps_for(MachineId::ArlXeon);
        assert_eq!(set.curve(false, DependencyFlavor::Independent), &set.unit);
        assert_eq!(set.curve(true, DependencyFlavor::Independent), &set.random);
        assert_eq!(
            set.curve(false, DependencyFlavor::Chained),
            &set.unit_chained
        );
        assert_eq!(
            set.curve(false, DependencyFlavor::Branchy),
            &set.unit_branchy
        );
        assert_eq!(
            set.curve(true, DependencyFlavor::Chained),
            &set.random_chained
        );
        assert_eq!(
            set.curve(true, DependencyFlavor::Branchy),
            &set.random_chained
        );
    }
}
