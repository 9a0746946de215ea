//! Cache sweep: execution cycles vs. decompressed-region cache slots N.
//!
//! The paper's runtime keeps exactly one decompressed region; our runtime
//! generalizes this to an N-slot LRU cache (`SquashOptions::cache_slots`).
//! This sweep measures what that buys: for each workload, squash at a θ that
//! produces real decompressor traffic, run the timing input at several N,
//! and report cycles plus the cache counters.
//!
//! Because LRU has the stack (inclusion) property and the guest's control
//! flow is independent of N, the miss count — and hence the cycle count —
//! is non-increasing as N grows. The sweep checks this invariant per row.
//!
//! A synthetic *ping-pong* workload rounds out the table: two cold
//! functions, each too large to share a 512-byte region, called alternately
//! from a hot loop. A single buffer thrashes (every call re-decompresses);
//! two slots absorb the alternation entirely.

use squash::pipeline;
use squash::telemetry::{Recorder, SharedRecorder};
use squash::SquashOptions;

const SLOTS: [usize; 4] = [1, 2, 4, 8];
const THETA: f64 = 1e-3;

struct Row {
    name: String,
    cycles: Vec<u64>,
    hits: Vec<u64>,
    misses: Vec<u64>,
    evictions: Vec<u64>,
    /// Service cycles attributed per-region by the telemetry layer, per N.
    /// Checked against `cycles_charged` — attribution must explain every
    /// charged cycle on every workload.
    attributed: Vec<u64>,
}

fn sweep(
    name: &str,
    program: &squash_cfg::Program,
    profile: &squash::BlockProfile,
    input: &[u8],
) -> Row {
    let mut row = Row {
        name: name.to_string(),
        cycles: Vec::new(),
        hits: Vec::new(),
        misses: Vec::new(),
        evictions: Vec::new(),
        attributed: Vec::new(),
    };
    for slots in SLOTS {
        let options = SquashOptions {
            theta: THETA,
            cache_slots: slots,
            ..SquashOptions::default()
        };
        let squashed = squash::Squasher::new(program, profile, &options)
            .expect("squasher setup")
            .finish()
            .expect("squash failed");
        let recorder = SharedRecorder::new(Recorder::attribution_only());
        let spec = pipeline::RunSpec { sink: Some(recorder.sink()), ..Default::default() };
        let (result, _) =
            pipeline::run_squashed_with(&squashed, input, spec).expect("squashed run");
        let attribution = recorder.take().attribution.finish(result.cycles);
        assert_eq!(
            attribution.attributed_cycles, result.runtime.cycles_charged,
            "{name} N={slots}: attribution must cover every charged cycle"
        );
        row.cycles.push(result.cycles);
        row.hits.push(result.runtime.hits);
        row.misses.push(result.runtime.misses);
        row.evictions.push(result.runtime.evictions);
        row.attributed.push(attribution.attributed_cycles);
    }
    row
}

/// Two cold functions that cannot share one 512-byte region, alternately
/// called: the adversarial case for a single buffer, the best case for two.
fn ping_pong_source() -> String {
    // ~160 instructions per function so each lands alone in its region.
    let mut body = String::new();
    for i in 0..40 {
        body.push_str(&format!("    x = (x * {} + {}) ^ (x / 3);\n", 2 * i + 3, i + 1));
    }
    format!(
        "int ping(int x) {{\n{body}    return x & 65535;\n}}\n\
         int pong(int x) {{\n{body}    return (x + 7) & 65535;\n}}\n\
         int main() {{\n\
             int c = getb();\n\
             int acc = 0;\n\
             while (c >= 0) {{\n\
                 acc = acc + ping(c);\n\
                 acc = acc + pong(acc);\n\
                 c = getb();\n\
             }}\n\
             putb(acc & 255);\n\
             return acc & 127;\n\
         }}\n"
    )
}

fn print_row(row: &Row) {
    print!("| {:14} |", row.name);
    for i in 0..SLOTS.len() {
        print!(" {:>11} |", row.cycles[i]);
    }
    let last = SLOTS.len() - 1;
    print!(" {:>6} |", row.hits[last]);
    let monotone = row.cycles.windows(2).all(|w| w[1] <= w[0]);
    println!(" {}", if monotone { "✓" } else { "✗ NOT MONOTONE" });
}

fn main() {
    println!("Cache sweep: cycles vs. region-cache slots (θ = {THETA})");
    println!();
    print!("| workload       |");
    for n in SLOTS {
        print!("  cycles N={n} |");
    }
    println!("   hits | non-incr.");
    print!("|----------------|");
    for _ in SLOTS {
        print!("------------:|");
    }
    println!("-------:|----------");

    let mut rows = Vec::new();
    for bench in squash_bench::load_benches(None) {
        let row = sweep(&bench.name, &bench.program, &bench.profile, &bench.timing_input);
        print_row(&row);
        rows.push(row);
    }

    // The synthetic ping-pong program: profile on an empty input (the loop
    // body never runs, so ping and pong are stone cold), time on one that
    // drives the alternation.
    let program = minicc::build_program(&[&ping_pong_source()]).expect("ping-pong compiles");
    let profile = pipeline::profile(&program, &[Vec::new()]).expect("profile");
    let input: Vec<u8> = (0..64u8).collect();
    let row = sweep("ping_pong", &program, &profile, &input);
    print_row(&row);
    rows.push(row);

    println!();
    let pp = rows.last().unwrap();
    assert!(
        pp.hits[1] > 0,
        "ping-pong must hit with two slots (got {} hits)",
        pp.hits[1]
    );
    assert!(
        pp.cycles.windows(2).all(|w| w[1] <= w[0]),
        "ping-pong cycles must be non-increasing across N: {:?}",
        pp.cycles
    );
    println!(
        "ping_pong: N=1 thrashes ({} misses); N=2 absorbs the alternation \
         ({} hits, {} misses) — {:.1}% fewer cycles",
        pp.misses[0],
        pp.hits[1],
        pp.misses[1],
        100.0 * (1.0 - pp.cycles[1] as f64 / pp.cycles[0] as f64),
    );
    for row in &rows {
        assert!(
            row.cycles.windows(2).all(|w| w[1] <= w[0]),
            "{}: cycles increased with a bigger cache: {:?}",
            row.name,
            row.cycles
        );
    }
    println!("all workloads: cycles non-increasing as N grows ✓");
    println!("all workloads: telemetry attributed 100% of service cycles at every N ✓");

    // Persist the sweep as machine-readable telemetry rows for the perf
    // trajectory (same BENCH_* convention as the other bench binaries).
    let mut entries = Vec::new();
    for row in &rows {
        for (i, n) in SLOTS.iter().enumerate() {
            entries.push((format!("{}_cycles_n{n}", row.name), row.cycles[i] as f64));
        }
        let last = SLOTS.len() - 1;
        entries.push((format!("{}_hits_n{}", row.name, SLOTS[last]), row.hits[last] as f64));
        entries.push((
            format!("{}_evictions_n{}", row.name, SLOTS[last]),
            row.evictions[last] as f64,
        ));
        entries.push((
            format!("{}_attributed_n{}", row.name, SLOTS[last]),
            row.attributed[last] as f64,
        ));
    }
    squash_bench::report::write_named("BENCH_PR4.json", "cache_sweep", &entries);
}
