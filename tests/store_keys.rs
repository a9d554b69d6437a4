//! Every artifact-store key the paper study writes is distinct.
//!
//! A study run persists probe sets, traces, ground-truth cells and the
//! whole result in one content-addressed store. Two artifacts sharing a key
//! would silently serve one in place of the other, so this computes every
//! key a run can write and asserts no two agree. Nothing is measured or
//! executed, only hashed.

use std::collections::HashMap;

use metasim::apps::groundtruth::GroundTruth;
use metasim::apps::registry::all_test_cases;
use metasim::apps::tracing::TraceCache;
use metasim::cache::ArtifactKey;
use metasim::core::study::Study;
use metasim::machines::fleet;
use metasim::memsim::analytic::{ResolvedTier, Tier};
use metasim::probes::suite::ProbeSuite;

#[test]
fn every_store_key_the_paper_study_writes_is_distinct() {
    let f = fleet();
    let mut keys: Vec<(String, ArtifactKey)> = Vec::new();
    for m in f.all() {
        for tier in [ResolvedTier::Exact, ResolvedTier::Analytic] {
            keys.push((
                format!("probes {} {tier:?}", m.id),
                ProbeSuite::store_key_tiered(m, tier),
            ));
        }
    }
    for (case, p) in all_test_cases() {
        keys.push((
            format!("trace {case}@{p}"),
            TraceCache::store_key(&case.workload(p)),
        ));
        for m in f.all() {
            keys.push((
                format!("groundtruth {case}@{p} {}", m.id),
                GroundTruth::store_key(case, p, m),
            ));
        }
    }
    keys.push(("study".into(), Study::store_key(&f)));
    for tier in [Tier::Analytic, Tier::Auto] {
        keys.push((format!("study {tier}"), Study::store_key_tiered(&f, tier)));
    }
    // The exact tier reuses the untiered key: same artifact, same key.
    assert_eq!(
        Study::store_key_tiered(&f, Tier::Exact),
        Study::store_key(&f)
    );

    assert_eq!(keys.len(), 11 * 2 + 15 + 165 + 3);
    let mut seen: HashMap<ArtifactKey, &str> = HashMap::new();
    for (what, key) in &keys {
        if let Some(first) = seen.insert(*key, what) {
            panic!("{what} and {first} share store key {key}");
        }
    }
}
