//! # squash-obs — the observability backbone
//!
//! A std-only, dependency-free toolkit the rest of the workspace builds its
//! telemetry surfaces on. Three pillars, each a plain data structure with a
//! stable text encoding:
//!
//! * [`span::SpanLog`] — hierarchical begin/end spans with integer
//!   timestamps (wall-clock nanoseconds for the compile pipeline, simulated
//!   cycles for runtime services), rendered as Chrome trace-event JSON that
//!   opens directly in Perfetto or `chrome://tracing`;
//! * [`metrics::Registry`] — counters, gauges and fixed-bucket histograms
//!   keyed by sorted label sets, with Prometheus text-exposition and JSON
//!   encoders;
//! * [`stacks::Stacks`] — aggregated call-stack samples in the collapsed
//!   (folded) format every flamegraph renderer consumes.
//!
//! [`json`] is the workspace's one JSON value type and parser; the
//! encoders above share its escape loop.
//!
//! Nothing in this crate observes anything by itself: producers (the VM's
//! cycle sampler, the runtime decompressor's trace events, the staged
//! compile pipeline) push data in, and the encoders here render it. That
//! keeps the zero-perturbation contract where it belongs — in the emitters —
//! and makes every encoder unit-testable with synthetic data.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod json;
pub mod metrics;
pub mod span;
pub mod stacks;

pub use metrics::{Histogram, MetricKind, Registry};
pub use span::{SpanId, SpanLog};
pub use stacks::Stacks;

/// Escapes a string for embedding in a JSON string literal (quotes,
/// backslashes, and control characters).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(&mut out, s).expect("writing to a String cannot fail");
    out
}

/// The one escape loop: writes `s` with [`json_escape`]'s escapes into
/// `out`, copying runs that need none as whole slices.
fn escape_into(out: &mut impl std::fmt::Write, s: &str) -> std::fmt::Result {
    let mut run = 0;
    for (i, c) in s.char_indices() {
        if c != '"' && c != '\\' && c >= ' ' {
            continue;
        }
        out.write_str(&s[run..i])?;
        match c {
            '"' => out.write_str("\\\"")?,
            '\\' => out.write_str("\\\\")?,
            '\n' => out.write_str("\\n")?,
            '\r' => out.write_str("\\r")?,
            '\t' => out.write_str("\\t")?,
            c => write!(out, "\\u{:04x}", c as u32)?,
        }
        run = i + 1; // every escaped char is a single byte
    }
    out.write_str(&s[run..])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_escape("line\nfeed\ttab"), "line\\nfeed\\ttab");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}
