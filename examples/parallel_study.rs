//! Parallel study: shard the cold 150-observation grid across a worker
//! pool and prove the output never moves a bit.
//!
//! This is the API behind `metasim study --jobs N`:
//!   1. run the study sharded across 4 workers,
//!   2. run it serially and compare the serialized artifacts byte-for-byte,
//!   3. show the shard layout the obs recorder captured.
//!
//! Run with: `cargo run --release --example parallel_study`

use std::sync::Arc;

use metasim::apps::groundtruth::GroundTruth;
use metasim::core::study::{Study, StudyError};
use metasim::machines::fleet;
use metasim::obs::manifest::{ManifestMeta, RunManifest};
use metasim::obs::{with_recorder, InMemoryRecorder};
use metasim::probes::suite::ProbeSuite;

fn main() -> Result<(), StudyError> {
    // 1. The sharded run, with a recorder attached so we can see the
    //    shard spans afterwards.
    let f = fleet();
    let suite = ProbeSuite::new();
    let gt = GroundTruth::new();
    let rec = Arc::new(InMemoryRecorder::new());
    let (parallel, _) = with_recorder(rec.clone(), || {
        Study::try_run_with_store_jobs(&f, &suite, &gt, None, 4)
    })?;
    println!(
        "sharded run (--jobs 4): {} observations in {:.1} s",
        parallel.observations.len(),
        RunManifest::build(&rec, ManifestMeta::default()).total_seconds
    );

    // 2. The serial reference, on fresh memos so nothing is shared with the
    //    sharded run — byte-identical, not just approximately equal.
    let (serial, _) =
        Study::try_run_with_store_jobs(&f, &ProbeSuite::new(), &GroundTruth::new(), None, 1)?;
    assert_eq!(
        serde_json::to_string(&parallel).expect("serialize"),
        serde_json::to_string(&serial).expect("serialize"),
        "sharding must not move a single output bit"
    );
    println!("serial reference: byte-identical artifact");

    // 3. The shard layout, straight from the span log.
    let spans = rec.span_records();
    for phase in spans.iter().filter(|s| s.name.starts_with("phase:")) {
        let shards = spans
            .iter()
            .filter(|s| s.parent == phase.id && s.name.starts_with("shard:"))
            .count();
        println!("  {}: {} shard spans", phase.name, shards);
    }
    Ok(())
}
