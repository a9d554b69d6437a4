//! Parallel study: shard the cold 150-observation grid across a worker
//! pool and prove the output never moves a bit.
//!
//! This is the API behind `metasim study --jobs N`:
//!   1. lint the study plan — MS701–MS705 certify the shard cut is safe,
//!   2. run the study sharded across 4 workers,
//!   3. run it serially and compare the serialized artifacts byte-for-byte,
//!   4. show the shard layout the obs recorder captured.
//!
//! Run with: `cargo run --release --example parallel_study`

use std::sync::Arc;

use metasim::apps::groundtruth::GroundTruth;
use metasim::audit::AuditPolicy;
use metasim::core::dataflow::DataflowModel;
use metasim::core::lint::{lint_all_with_policy, LintModel};
use metasim::core::study::Study;
use metasim::machines::fleet;
use metasim::obs::{with_recorder, InMemoryRecorder};
use metasim::probes::suite::ProbeSuite;

fn main() {
    // 1. The static certificate: the dataflow graph says the 150
    //    prediction cells are independent, seed streams are disjoint, and
    //    every shared memo is guarded. If this reports anything, sharding
    //    would not be safe.
    let report = lint_all_with_policy(
        &LintModel::shipped(),
        &DataflowModel::shipped(),
        AuditPolicy::default(),
    );
    let graph = DataflowModel::shipped().graph;
    println!(
        "lint: {} findings over {} nodes / {} edges ({} independent prediction cells)",
        report.diagnostics.len(),
        graph.nodes.len(),
        graph.edges.len(),
        graph.shard_cut().len(),
    );
    assert!(report.is_clean(), "the shipped plan must certify");

    // 2. The sharded run, with a recorder attached so we can see the
    //    shard spans afterwards.
    let f = fleet();
    let suite = ProbeSuite::new();
    let gt = GroundTruth::new();
    let rec = Arc::new(InMemoryRecorder::new());
    let (parallel, timings) = with_recorder(rec.clone(), || {
        Study::run_with_store_jobs(&f, &suite, &gt, None, 4)
    });
    println!(
        "sharded run (--jobs 4): {} observations in {:.1} s",
        parallel.observations.len(),
        timings.total_seconds
    );

    // 3. The serial reference (a process-wide memo, so later examples and
    //    tests share it) — byte-identical, not just approximately equal.
    let serial = Study::run_default();
    assert_eq!(
        serde_json::to_string(&parallel).expect("serialize"),
        serde_json::to_string(serial).expect("serialize"),
        "sharding must not move a single output bit"
    );
    println!("serial reference: byte-identical artifact");

    // 4. The shard layout, straight from the span log.
    let spans = rec.span_records();
    for phase in spans.iter().filter(|s| s.name.starts_with("phase:")) {
        let shards = spans
            .iter()
            .filter(|s| s.parent == phase.id && s.name.starts_with("shard:"))
            .count();
        println!("  {}: {} shard spans", phase.name, shards);
    }
}
