//! Profiling and run-and-compare helpers tying the whole system together.
//!
//! These are the operations the evaluation performs over and over: link and
//! run a program to collect a profile (the paper's *profiling input*), run
//! original and squashed programs on a *timing input*, and compare size and
//! cycles.

use squash_cfg::link::{self, LinkOptions};
use squash_cfg::Program;
use squash_vm::{ICacheConfig, ICacheStats, TraceSink, Vm};

use crate::layout::Squashed;
use crate::runtime::{RuntimeStats, SquashRuntime};
use crate::telemetry::{RunMetrics, Telemetry};
use crate::{err, BlockProfile, SquashError};

/// Outcome of one program run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunResult {
    /// Exit status.
    pub status: i64,
    /// Bytes written to the output stream.
    pub output: Vec<u8>,
    /// Instructions executed.
    pub instructions: u64,
    /// Cycles consumed (instructions plus decompression charges).
    pub cycles: u64,
    /// Runtime decompressor statistics (zeroed for original runs).
    pub runtime: RuntimeStats,
    /// Instruction-cache statistics, when the model was enabled.
    pub icache: Option<ICacheStats>,
}

impl RunResult {
    /// Starts a [`Telemetry`] report from this run's metrics: fills the
    /// `run`, `runtime` and `icache` sections; the caller adds stages or
    /// attribution if it has them.
    pub fn telemetry(&self, name: &str) -> Telemetry {
        Telemetry {
            name: name.to_string(),
            run: Some(RunMetrics {
                status: self.status,
                instructions: self.instructions,
                cycles: self.cycles,
                output_bytes: self.output.len() as u64,
            }),
            runtime: (self.runtime != RuntimeStats::default()).then_some(self.runtime),
            icache: self.icache,
            ..Telemetry::default()
        }
    }
}

/// Links and runs `program` on each input, merging per-PC counts into a
/// per-block [`BlockProfile`] (§5's execution profile).
///
/// # Errors
///
/// Fails if the program cannot be linked or faults during any run.
pub fn profile(program: &Program, inputs: &[Vec<u8>]) -> Result<BlockProfile, SquashError> {
    profile_jobs(program, inputs, 1)
}

/// [`profile`] with the runs fanned out over `jobs` worker threads.
/// Per-input profiles are merged in input order, and block counts are
/// commutative sums, so the result is identical for any `jobs`.
///
/// # Errors
///
/// Fails if the program cannot be linked or faults during any run.
pub fn profile_jobs(
    program: &Program,
    inputs: &[Vec<u8>],
    jobs: usize,
) -> Result<BlockProfile, SquashError> {
    let image = link::link(program, &LinkOptions::default())
        .map_err(|e| SquashError::msg(e.message))?;
    let image = &image;
    let profiles: Vec<Result<squash_vm::Profile, SquashError>> =
        crate::par::map_indexed(jobs, inputs.len(), |i| {
            let mut vm = Vm::new(image.min_mem_size(1 << 18));
            for (base, bytes) in image.segments() {
                vm.write_bytes(base, &bytes);
            }
            vm.set_pc(image.entry);
            vm.set_input(inputs[i].clone());
            vm.enable_profile(image.text_base, image.text_words());
            vm.run().map_err(|e| SquashError::msg(format!("profiling run failed: {e}")))?;
            Ok(vm.take_profile().expect("profiling enabled"))
        });
    let mut merged: Option<squash_vm::Profile> = None;
    for p in profiles {
        let p = p?;
        match &mut merged {
            Some(m) => m.merge(&p),
            None => merged = Some(p),
        }
    }
    let Some(p) = merged else {
        return err("no profiling inputs given");
    };
    let freq = link::block_frequencies(image, program, &|pc| p.count_at(pc));
    Ok(BlockProfile {
        freq,
        total_instructions: p.total(),
    })
}

/// Links and runs the original (unsquashed) program on `input`.
///
/// # Errors
///
/// Fails on link errors or machine faults.
pub fn run_original(program: &Program, input: &[u8]) -> Result<RunResult, SquashError> {
    run_original_with(program, input, None)
}

/// [`run_original`] with an optional instruction-cache model.
///
/// # Errors
///
/// Fails on link errors or machine faults.
pub fn run_original_with(
    program: &Program,
    input: &[u8],
    icache: Option<ICacheConfig>,
) -> Result<RunResult, SquashError> {
    let image = link::link(program, &LinkOptions::default())
        .map_err(|e| SquashError::msg(e.message))?;
    let mut vm = Vm::new(image.min_mem_size(1 << 18));
    for (base, bytes) in image.segments() {
        vm.write_bytes(base, &bytes);
    }
    vm.set_pc(image.entry);
    vm.set_input(input.to_vec());
    if let Some(cfg) = icache {
        vm.enable_icache(cfg);
    }
    let out = vm.run().map_err(|e| SquashError::msg(format!("original run failed: {e}")))?;
    let icache_stats = vm.icache_stats();
    Ok(RunResult {
        status: out.status,
        output: vm.take_output(),
        instructions: out.instructions,
        cycles: out.cycles,
        runtime: RuntimeStats::default(),
        icache: icache_stats,
    })
}

/// Runs a squashed program on `input` with the decompressor service
/// attached.
///
/// # Errors
///
/// Fails on machine faults or runtime-decompressor errors (corrupt blob,
/// stub exhaustion).
pub fn run_squashed(squashed: &Squashed, input: &[u8]) -> Result<RunResult, SquashError> {
    run_squashed_with(squashed, input, RunSpec::default()).map(|(run, _)| run)
}

/// What a [`run_squashed_with`] run attaches; the default attaches nothing,
/// which is [`run_squashed`].
#[derive(Default)]
pub struct RunSpec {
    /// An instruction-cache model; the runtime decompressor flushes it
    /// after every decompression, as in the paper.
    pub icache: Option<ICacheConfig>,
    /// A trace sink on the runtime decompressor. Every runtime event
    /// (traps, decompressions, cache hits, stub churn, flushes) is emitted
    /// into it, stamped with the simulated cycle counter. Use a
    /// [`crate::telemetry::SharedRecorder`] to keep a handle on the
    /// recorded data.
    pub sink: Option<Box<dyn TraceSink>>,
    /// A deterministic sampling profiler: the VM records the executing pc
    /// at every n-th simulated cycle, and the filled
    /// [`squash_vm::Sampler`] is returned alongside the run. Collapse the
    /// samples with [`crate::monitor::collapse_samples`].
    pub sample_every: Option<u64>,
    /// A cycle budget, enforced inside the VM step loop and before every
    /// decompressor charge. Exceeding it is a typed `deadline_exceeded`
    /// machine check (`SquashError::fault`) at a cycle ≤ the budget, never a
    /// hang.
    pub deadline: Option<u64>,
    /// A shared decode-cache handle (the fleet's). It shares *host-side*
    /// decode work between instances of the same image; simulated cycle
    /// charges and per-instance runtime stats are unchanged, so a fleet run
    /// is byte/cycle-identical to a solo one (`tests/fleet.rs`).
    pub cache: Option<crate::fleet::cache::CacheHandle>,
}

/// [`run_squashed`] with the observers, models and limits `spec` attaches.
///
/// Tracing and sampling are purely observational: they read the cycle
/// counter and never advance it, so the run's outputs and cycle counts are
/// identical with and without them (`tests/differential.rs` asserts this on
/// every workload). A deadline the run does not exceed is likewise
/// zero-perturbation.
///
/// # Errors
///
/// Fails on machine faults (including `DeadlineExceeded`) or
/// runtime-decompressor errors.
pub fn run_squashed_with(
    squashed: &Squashed,
    input: &[u8],
    spec: RunSpec,
) -> Result<(RunResult, Option<squash_vm::Sampler>), SquashError> {
    let mut vm = Vm::new(squashed.min_mem_size(1 << 18));
    for (base, bytes) in &squashed.segments {
        vm.write_bytes(*base, bytes);
    }
    vm.set_pc(squashed.entry);
    vm.set_input(input.to_vec());
    if let Some(cfg) = spec.icache {
        vm.enable_icache(cfg);
    }
    if let Some(period) = spec.sample_every {
        vm.enable_sampling(period);
    }
    vm.set_deadline(spec.deadline);
    let mut service = SquashRuntime::new(squashed.runtime.clone());
    if let Some(sink) = spec.sink {
        service.set_sink(sink);
    }
    if let Some(handle) = spec.cache {
        service.set_decode_cache(handle);
    }
    let out = vm.run_with(&mut service).map_err(|e| {
        // Keep the structured machine check (region, site, cycle, kind)
        // alongside the human-readable message so `squashrun` can report a
        // typed fault instead of a bare string.
        let fault = match &e {
            squash_vm::VmError::MachineCheck(mc) => Some(mc.clone()),
            _ => None,
        };
        SquashError { message: format!("squashed run failed: {e}"), fault }
    })?;
    let icache_stats = vm.icache_stats();
    let samples = vm.take_samples();
    Ok((
        RunResult {
            status: out.status,
            output: vm.take_output(),
            instructions: out.instructions,
            cycles: out.cycles,
            runtime: *service.stats(),
            icache: icache_stats,
        },
        samples,
    ))
}

/// Convenience: profile on `profile_inputs`, squash at the given options,
/// and verify behavioural equivalence on `check_input`, returning the
/// squashed artifact and both run results.
///
/// # Errors
///
/// Fails if any stage fails or if the squashed program's observable
/// behaviour (status + output) differs from the original's.
pub fn squash_and_check(
    program: &Program,
    profile_inputs: &[Vec<u8>],
    options: &crate::SquashOptions,
    check_input: &[u8],
) -> Result<(Squashed, RunResult, RunResult), SquashError> {
    let prof = profile(program, profile_inputs)?;
    let squashed = crate::Squasher::new(program, &prof, options)?.finish()?;
    let original = run_original(program, check_input)?;
    let compressed = run_squashed(&squashed, check_input)?;
    if original.status != compressed.status || original.output != compressed.output {
        return err(format!(
            "behaviour diverged: status {} vs {}, output {} vs {} bytes",
            original.status,
            compressed.status,
            original.output.len(),
            compressed.output.len()
        ));
    }
    Ok((squashed, original, compressed))
}
