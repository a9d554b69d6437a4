//! Development aid: print the full Table 4/5 shape and balanced-rating
//! numbers in one run (used while calibrating the fleet and workloads).

use metasim_apps::groundtruth::GroundTruth;
use metasim_core::balanced::{fit_weights, idc_equal_weights};
use metasim_core::study::Study;
use metasim_machines::fleet;
use metasim_probes::suite::ProbeSuite;

fn main() {
    let f = fleet();
    let suite = ProbeSuite::new();
    let (study, _) = Study::run_with_store_jobs(&f, &suite, &GroundTruth::new(), None, 1);
    println!("Table 4:");
    for row in study.table4() {
        println!(
            "  {:4} {:22} mean_abs {:6.1}  sd {:6.1}  signed {:7.1}",
            row.metric.short_label(),
            row.metric.name(),
            row.mean_absolute,
            row.stddev,
            row.mean_signed
        );
    }
    println!("\nTable 5:");
    for row in study.table5() {
        print!("  {:14}", row.machine.label());
        for v in row.per_metric {
            print!(" {v:6.1}");
        }
        println!();
    }
    let idc = idc_equal_weights(&study, &suite, &f);
    println!(
        "\nIDC equal: err {:.1} sd {:.1}",
        idc.mean_absolute_error, idc.stddev
    );
    let fit = fit_weights(&study, &suite, &f);
    println!(
        "fitted: weights {:?} err {:.1} sd {:.1}",
        fit.weights, fit.mean_absolute_error, fit.stddev
    );
}
