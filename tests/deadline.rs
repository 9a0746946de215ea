//! Cycle-budget deadlines mean exactly what they say.
//!
//! No instruction and no decompression charge may carry a run past its
//! budget: a run of exactly `budget` cycles completes, one cycle less
//! faults, and a budget that falls inside a decompression charge faults
//! *before* the charge — at a cycle ≤ the budget — rather than after it.

use std::sync::{Arc, Mutex};

use squash_repro::squash::layout::Squashed;
use squash_repro::squash::pipeline::{self, RunResult};
use squash_repro::squash::{SquashError, SquashOptions, Squasher};
use squash_repro::vm::{FaultKind, MachineCheck, TraceEvent, TraceSink};

/// A program whose cold helpers run once per input byte above 64, so at
/// θ = 1.0 its run decompresses regions again and again.
const SOURCE: &str = r#"
    int f(int x) { return x * 13 % 77; }
    int g(int x) { return x * 7 + 3; }
    int main() {
        int c = getb();
        int acc = 0;
        while (c >= 0) {
            if (c > 64) acc = acc + f(c); else acc = acc + g(c);
            c = getb();
        }
        putb(acc & 255);
        return acc & 127;
    }
"#;

const INPUT: &[u8] = b"hello world, squash! DEADLINES";

fn squashed() -> Squashed {
    let program = squash_repro::minicc::build_program(&[SOURCE]).expect("compiles");
    let profile = pipeline::profile(&program, &[b"ab".to_vec()]).expect("profile");
    let options = SquashOptions {
        theta: 1.0,
        ..Default::default()
    };
    Squasher::new(&program, &profile, &options)
        .expect("setup")
        .finish()
        .expect("squash")
}

/// Runs [`INPUT`] under a cycle budget of `budget`.
fn budgeted(squashed: &Squashed, budget: u64) -> Result<RunResult, SquashError> {
    let spec = pipeline::RunSpec { deadline: Some(budget), ..Default::default() };
    pipeline::run_squashed_with(squashed, INPUT, spec).map(|(run, _)| run)
}

fn deadline_fault(squashed: &Squashed, budget: u64) -> MachineCheck {
    match budgeted(squashed, budget) {
        Err(e) => {
            let mc = e
                .fault
                .unwrap_or_else(|| panic!("budget {budget}: untyped failure {}", e.message));
            assert_eq!(mc.kind, FaultKind::DeadlineExceeded, "budget {budget}");
            mc
        }
        Ok(run) => panic!("budget {budget}: run completed in {} cycles", run.cycles),
    }
}

#[test]
fn budget_of_exactly_the_run_completes() {
    let squashed = squashed();
    let plain = pipeline::run_squashed(&squashed, INPUT).expect("plain run");
    assert!(plain.runtime.decompressions > 1, "the run must decompress");
    let budgeted = budgeted(&squashed, plain.cycles)
        .expect("a budget of exactly the run's cycles completes");
    assert_eq!(
        (
            budgeted.status,
            &budgeted.output,
            budgeted.cycles,
            &budgeted.runtime
        ),
        (plain.status, &plain.output, plain.cycles, &plain.runtime)
    );
}

#[test]
fn one_cycle_short_faults_at_the_budget() {
    let squashed = squashed();
    let plain = pipeline::run_squashed(&squashed, INPUT).expect("plain run");
    let budget = plain.cycles - 1;
    assert_eq!(deadline_fault(&squashed, budget).cycle, Some(budget));
}

/// Records the cycle stamp and size of every decompression.
struct Decompressions(Arc<Mutex<Vec<(u64, u64, u64)>>>);

impl TraceSink for Decompressions {
    fn emit(&mut self, cycle: u64, event: &TraceEvent) {
        if let TraceEvent::DecompressEnd { bits, insts, .. } = *event {
            self.0.lock().expect("sink lock").push((cycle, bits, insts));
        }
    }
}

#[test]
fn budget_inside_a_decompression_charge_faults_before_the_charge() {
    let squashed = squashed();
    let log = Arc::new(Mutex::new(Vec::new()));
    let spec = pipeline::RunSpec {
        sink: Some(Box::new(Decompressions(log.clone()))),
        ..Default::default()
    };
    pipeline::run_squashed_with(&squashed, INPUT, spec).expect("traced run");
    let cost = squashed.runtime.cost;
    let ends = log.lock().expect("sink lock").clone();
    assert!(ends.len() > 1, "the run must decompress");
    for (end, bits, insts) in ends {
        // `DecompressEnd` is stamped right after the charge.
        let charge = cost.per_call + bits * cost.per_bit + insts * cost.per_inst;
        assert!(charge > 1);
        let start = end - charge;
        for budget in [start + 1, start + charge / 2, end - 1] {
            let mc = deadline_fault(&squashed, budget);
            assert_eq!(
                mc.cycle,
                Some(start),
                "budget {budget} inside the charge {start}..{end} must fault before it"
            );
        }
    }
}

#[test]
fn no_deadline_fault_reports_a_cycle_past_its_budget() {
    let squashed = squashed();
    let plain = pipeline::run_squashed(&squashed, INPUT).expect("plain run");
    let step = (plain.cycles / 97).max(1);
    for budget in (0..plain.cycles).step_by(step as usize) {
        let cycle = deadline_fault(&squashed, budget)
            .cycle
            .expect("deadline faults carry a cycle");
        assert!(cycle <= budget, "budget {budget}: fault at cycle {cycle}");
    }
}
