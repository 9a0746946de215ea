//! `squashrun` — load and execute a `.sqsh` image written by
//! `squashc --emit`, attaching the runtime decompressor service.
//!
//! ```text
//! squashrun <image.sqsh> [--input FILE] [--icache] [--stats]
//!           [--strict-integrity]
//!           [--trace FILE] [--trace-last N] [--report] [--metrics-json FILE]
//!           [--spans FILE] [--samples FILE] [--sample-every N]
//! ```
//!
//! `--trace FILE` streams every runtime event as one JSON line (JSONL) into
//! FILE; `--trace-last N` bounds the buffer to the last N events. `--report`
//! prints per-region cycle attribution (the per-region table, the top
//! regions by attributed cost, and the trap inter-arrival histogram) to
//! stderr. `--metrics-json FILE` writes the unified telemetry report — run,
//! runtime, instruction-cache and attribution sections — as one JSON
//! document with a stable schema (`DESIGN.md` §12); `-` writes it to stdout
//! after the guest's output.
//!
//! `--spans FILE` writes the run's hierarchical spans — every service trap
//! bracketed to its terminal event, with decompress and verify spans nested
//! inside, stamped in simulated cycles — as Chrome trace-event JSON
//! (load it in Perfetto or `chrome://tracing`). `--samples FILE` enables the
//! deterministic sampling profiler (pc recorded every `--sample-every` N
//! cycles, default 4096) and writes flamegraph-compatible collapsed stacks
//! attributing samples to text / decompressor / restore stubs / buffer
//! regions (`DESIGN.md` §16).
//!
//! Observability never perturbs the simulation: cycle counts are identical
//! with and without any of these flags.
//!
//! # Integrity
//!
//! `SQSH0003` images carry checksums: the header and metadata sections are
//! verified at load, each compressed region's payload at first use (the
//! verification cycles are part of the cost model and reported in
//! telemetry). Legacy `SQSH0002` images still run but carry no checksums; a
//! note (`integrity: none`) is printed to stderr. `--strict-integrity`
//! additionally verifies the whole compressed blob at load and refuses v2
//! images.
//!
//! # Exit status
//!
//! The runtime exit-code contract (`squash_repro::cli`, shared with
//! `squashd`):
//!
//! * Clean run: the guest program's exit status (0 for a conventional
//!   success).
//! * Typed integrity fault (corrupt image, checksum mismatch, machine
//!   check, deadline): **70**, with a one-line machine-check report on
//!   stderr (`kind=… region=… site=… cycle=…`) — never a panic or abort
//!   signal.
//! * Usage errors (bad flags, missing arguments): **2**.
//! * Host I/O errors (unreadable image or input, unwritable output): **74**.
//! * Any other (untyped) failure: 1.

use squash_repro::cli::CliError;
use squash_repro::squash::monitor::{self, AreaMap, SlotTimeline, SpanBuilder};
use squash_repro::squash::telemetry::{FaultCount, Recorder, SharedRecorder};
use squash_repro::squash::{image_file, pipeline, SquashError};
use squash_repro::vm::{ICacheConfig, JsonlRing};
use std::process::ExitCode;

/// Default sampling period when `--samples` is given without
/// `--sample-every`: coarse enough to keep sample files small on the
/// largest workloads, fine enough to see the decompressor on hot runs.
const DEFAULT_SAMPLE_PERIOD: u64 = 4096;

fn main() -> ExitCode {
    match run() {
        Ok(status) => ExitCode::from((status & 0xFF) as u8),
        Err(e) => {
            eprintln!("squashrun: {e}");
            ExitCode::from(e.exit_code())
        }
    }
}

fn usage() -> CliError {
    CliError::Usage(
        "usage: squashrun <image.sqsh> [--input FILE] [--icache] [--stats] \
         [--strict-integrity] [--trace FILE] [--trace-last N] [--report] \
         [--metrics-json FILE|-] [--spans FILE] [--samples FILE] \
         [--sample-every N]"
            .to_string(),
    )
}

fn run() -> Result<i64, CliError> {
    let mut image_path = None;
    let mut input_path = None;
    let mut icache = false;
    let mut stats = false;
    let mut strict = false;
    let mut trace_path: Option<String> = None;
    let mut trace_last: Option<usize> = None;
    let mut report = false;
    let mut metrics_path: Option<String> = None;
    let mut spans_path: Option<String> = None;
    let mut samples_path: Option<String> = None;
    let mut sample_every: Option<u64> = None;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |name: &str| {
            it.next().ok_or_else(|| CliError::Usage(format!("missing value for {name}")))
        };
        match a.as_str() {
            "--input" => input_path = Some(value("--input")?),
            "--icache" => icache = true,
            "--stats" => stats = true,
            "--strict-integrity" => strict = true,
            "--trace" => trace_path = Some(value("--trace")?),
            "--trace-last" => {
                trace_last = Some(
                    value("--trace-last")?
                        .parse()
                        .map_err(|e| CliError::Usage(format!("bad --trace-last: {e}")))?,
                )
            }
            "--report" => report = true,
            "--metrics-json" => metrics_path = Some(value("--metrics-json")?),
            "--spans" => spans_path = Some(value("--spans")?),
            "--samples" => samples_path = Some(value("--samples")?),
            "--sample-every" => {
                let n: u64 = value("--sample-every")?
                    .parse()
                    .map_err(|e| CliError::Usage(format!("bad --sample-every: {e}")))?;
                if n == 0 {
                    return Err(CliError::Usage("--sample-every must be nonzero".into()));
                }
                sample_every = Some(n);
            }
            "--help" | "-h" => return Err(usage()),
            other if !other.starts_with('-') => image_path = Some(other.to_string()),
            other => return Err(CliError::Usage(format!("unknown option `{other}`"))),
        }
    }
    let image_path =
        image_path.ok_or_else(|| CliError::Usage("no image given (try --help)".into()))?;
    let bytes = std::fs::read(&image_path).map_err(|e| CliError::io(&image_path, &e))?;
    let load = if strict { image_file::read_strict(&bytes) } else { image_file::read(&bytes) };
    let squashed = match load {
        Ok(s) => s,
        Err(e) => return Err(on_fault(&metrics_path, &image_path, e)),
    };
    if image_file::version(&bytes) == Some(2) {
        eprintln!("[squashrun] {image_path}: legacy SQSH0002 image, integrity: none");
    }
    let input = match input_path {
        Some(p) => std::fs::read(&p).map_err(|e| CliError::io(&p, &e))?,
        None => Vec::new(),
    };
    let cache = icache.then(ICacheConfig::default);

    // One shared recorder serves every telemetry flag: the ring buffers
    // JSONL lines for --trace, attribution feeds --report / --metrics-json,
    // the span builder feeds --spans, the slot timeline feeds --samples.
    let sampling = samples_path.is_some() || sample_every.is_some();
    let tracing = trace_path.is_some() || report || metrics_path.is_some()
        || spans_path.is_some()
        || sampling;
    let recorder = tracing.then(|| {
        let ring = trace_path.as_ref().map(|_| match trace_last {
            Some(n) => JsonlRing::last(n),
            None => JsonlRing::unbounded(),
        });
        SharedRecorder::new(Recorder {
            ring,
            attribution: Default::default(),
            spans: spans_path.as_ref().map(|_| SpanBuilder::new()),
            timeline: sampling.then(SlotTimeline::new),
        })
    });

    let spec = pipeline::RunSpec {
        icache: cache,
        sink: recorder.as_ref().map(|r| r.sink()),
        sample_every: sampling.then(|| sample_every.unwrap_or(DEFAULT_SAMPLE_PERIOD)),
        ..pipeline::RunSpec::default()
    };
    let (result, sampler) = match pipeline::run_squashed_with(&squashed, &input, spec) {
        Ok(r) => r,
        Err(e) => return Err(on_fault(&metrics_path, &image_path, e)),
    };
    use std::io::Write as _;
    std::io::stdout()
        .write_all(&result.output)
        .map_err(|e| CliError::io("stdout", &e))?;

    let mut telemetry = result.telemetry(&image_path);
    if let Some(recorder) = recorder {
        let recorder = recorder.take();
        if let (Some(path), Some(ring)) = (&trace_path, &recorder.ring) {
            let file = std::fs::File::create(path).map_err(|e| CliError::io(path, &e))?;
            let mut w = std::io::BufWriter::new(file);
            ring.write_to(&mut w).map_err(|e| CliError::io(path, &e))?;
            w.flush().map_err(|e| CliError::io(path, &e))?;
            if ring.dropped() > 0 {
                eprintln!(
                    "[squashrun] trace ring dropped {} oldest events (--trace-last {})",
                    ring.dropped(),
                    trace_last.unwrap_or(0)
                );
            }
            telemetry.trace_drops = ring.dropped();
        }
        if let (Some(path), Some(spans)) = (&spans_path, recorder.spans) {
            std::fs::write(path, spans.finish().to_chrome_json() + "\n")
                .map_err(|e| CliError::io(path, &e))?;
        }
        if let Some(path) = &samples_path {
            let sampler = sampler.as_ref().expect("sampling was enabled");
            let map = AreaMap::from_runtime(&squashed.runtime);
            let timeline = recorder.timeline.as_ref().expect("timeline recorded");
            let stacks =
                monitor::collapse_samples(&image_path, sampler.samples(), &map, timeline);
            std::fs::write(path, stacks.render()).map_err(|e| CliError::io(path, &e))?;
            if sampler.dropped() > 0 {
                eprintln!(
                    "[squashrun] sampler dropped {} samples past its buffer cap",
                    sampler.dropped()
                );
            }
        }
        // Sampler drops ride in the telemetry document (not just stderr), so
        // fleet merges can attribute truncated flame data per run.
        if let Some(sampler) = &sampler {
            telemetry.sampler_drops = sampler.dropped();
        }
        telemetry.attribution = Some(recorder.attribution.finish(result.cycles));
    }
    if let Some(path) = &metrics_path {
        let doc = telemetry.to_json_string() + "\n";
        if path == "-" {
            // The guest's bytes already went to stdout; keep the document on
            // its own line so `squashmon -` can find it.
            if !result.output.is_empty() && !result.output.ends_with(b"\n") {
                println!();
            }
            print!("{doc}");
        } else {
            std::fs::write(path, doc).map_err(|e| CliError::io(path, &e))?;
        }
    }

    if stats {
        eprintln!(
            "\n[squashrun] {} instructions, {} cycles, {} decompressions, {} restore stubs, exit {}",
            result.instructions,
            result.cycles,
            result.runtime.decompressions,
            result.runtime.stub_allocs,
            result.status
        );
        eprintln!(
            "[squashrun] region cache: {} slots, {} hits, {} misses, {} evictions",
            squashed.runtime.cache_slots,
            result.runtime.hits,
            result.runtime.misses,
            result.runtime.evictions
        );
        if !squashed.runtime.region_crcs.is_empty() {
            eprintln!(
                "[squashrun] integrity: {} regions verified, {} checksum cycles, {} reference-decoder fallbacks",
                result.runtime.regions_verified,
                result.runtime.checksum_cycles,
                result.runtime.ref_fallbacks
            );
        }
        if let Some(ic) = result.icache {
            eprintln!(
                "[squashrun] icache: {} hits, {} misses, {} flushes, {:.4} miss ratio",
                ic.hits,
                ic.misses,
                ic.flushes,
                ic.miss_ratio()
            );
        }
        eprintln!("[squashrun] footprint:\n{}", squashed.stats.footprint);
    }
    if report {
        eprint!("{}", telemetry.report());
        match &squashed.provenance {
            Some(p) => eprintln!("{p}"),
            None => eprintln!("provenance: none (static-profile image)"),
        }
    }
    Ok(result.status)
}

/// On a typed fault, still honour `--metrics-json`: write a document whose
/// `faults` section tallies the machine check, so harnesses get structured
/// data even from corrupt images. Returns the error for `main` to exit on.
fn on_fault(metrics_path: &Option<String>, image_path: &str, e: SquashError) -> CliError {
    if let (Some(path), Some(mc)) = (metrics_path, &e.fault) {
        let telemetry = squash_repro::squash::telemetry::Telemetry {
            name: image_path.to_string(),
            faults: vec![FaultCount { kind: mc.kind.name().to_string(), count: 1 }],
            ..Default::default()
        };
        // Best effort: the fault itself is the primary result.
        if path == "-" {
            println!("{}", telemetry.to_json_string());
        } else {
            let _ = std::fs::write(path, telemetry.to_json_string() + "\n");
        }
    }
    CliError::from_squash(e)
}
