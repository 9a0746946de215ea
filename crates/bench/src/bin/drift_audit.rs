//! `drift_audit` — the estimator-accuracy table (`EXPERIMENTS.md`): close
//! the PGO loop on every workload and measure how far the retuner's cycle
//! prediction drifts from a real run of the image it chose.
//!
//! Per workload: squash at θ = 1e-3 (the paper's operating point), run the
//! static image on the timing input with attribution to produce a telemetry
//! document, retune against it, then **re-run the retuned image on the same
//! input** and compare measured cycles against the `predicted_cycles` the
//! provenance section recorded. The simulator is deterministic and the
//! retune estimator replays the same machine, so on the tuning input the
//! relative error is expected to be near zero (the residue is the
//! estimator's per-region spreading of measured service cycles) — the
//! table is the evidence behind `audit::DEFAULT_DRIFT_THRESHOLD`.
//!
//! `BENCH_SMOKE=1` restricts to a three-workload subset for CI.

use squash::audit::{self, DEFAULT_DRIFT_THRESHOLD};
use squash::telemetry::{Recorder, SharedRecorder};
use squash::{pipeline, retune};
use std::process::ExitCode;

fn main() -> ExitCode {
    let smoke = squash_bench::report::smoke();
    let names: Option<&[&str]> = smoke.then_some(&["adpcm", "gsm", "jpeg_dec"][..]);
    let benches = squash_bench::load_benches(names);
    let options = squash_bench::opts(1e-3);

    println!("Estimator drift: retune predicted_cycles vs a re-run of the retuned image");
    println!();
    println!("| workload    |  predicted cycles |   measured cycles | rel. error |");
    println!("|-------------|------------------:|------------------:|-----------:|");
    let mut worst = 0.0f64;
    let mut rows = Vec::new();
    for b in &benches {
        // Static image, measured with attribution: the retuner's input.
        let squashed = b.squash(&options);
        let recorder = SharedRecorder::new(Recorder::attribution_only());
        let spec = pipeline::RunSpec { sink: Some(recorder.sink()), ..Default::default() };
        let (run, _) =
            pipeline::run_squashed_with(&squashed, &b.timing_input, spec).expect("static run");
        let mut telemetry = run.telemetry(&b.name);
        telemetry.attribution = Some(recorder.take().attribution.finish(run.cycles));

        // Close the loop and re-measure the winner on the same input.
        let retuned = retune::retune(&b.program, &b.profile, &options, &telemetry)
            .expect("retune");
        let rerun = pipeline::run_squashed(&retuned.squashed, &b.timing_input)
            .expect("retuned run");
        let row = audit::drift(
            &b.name,
            retuned.squashed.provenance.as_ref(),
            &rerun.telemetry(&b.name),
        )
        .expect("auditable provenance");
        println!(
            "| {:11} | {:17} | {:17} | {:9.4}% |",
            row.image,
            row.predicted,
            row.measured,
            row.rel_error() * 100.0,
        );
        worst = worst.max(row.rel_error());
        rows.push((row.image.clone(), row.rel_error()));
    }
    println!();
    println!(
        "(worst drift {:.4}%, default threshold {:.1}%{})",
        worst * 100.0,
        DEFAULT_DRIFT_THRESHOLD * 100.0,
        if smoke { "; BENCH_SMOKE subset" } else { "" },
    );
    squash_bench::report::write_named("BENCH_PR9.json", "drift_audit_rel_error", &rows);
    if worst > DEFAULT_DRIFT_THRESHOLD {
        eprintln!("drift_audit: worst drift exceeds the default threshold");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
