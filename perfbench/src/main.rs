//! The repository benchmark.
//!
//! ```bash
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload socket-read-zipf --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Workloads: `socket-read-zipf`, `mem-write-spread`, `sim-churn-10k`.
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! ones (and writes the spans under `perfbench/results/`). The last line
//! of standard output is one JSON object; the lines before it list every
//! metric by name with its unit and how it was measured. A hit whose bytes
//! do not match its version makes the run exit with code 1.

mod cluster;
mod driver;
mod procfs;
mod replay;
mod report;
mod sim;
mod stats;
mod trace;
mod values;

use dataflasks::prelude::{MessageKind, NodeStats};

use report::Report;
use stats::Samples;
use trace::Tracer;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(flag) = iter.next() {
        let value = iter.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad =
            |error: &dyn std::fmt::Display| format!("bad value {value:?} for {flag}: {error}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|e| bad(&e))? != 0,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(error) => {
            eprintln!("perfbench: {error}");
            eprintln!("usage: --workload socket-read-zipf|mem-write-spread|sim-churn-10k --seed N --seconds S --trace 0|1");
            std::process::exit(2);
        }
    };
    let mut report = match args.workload.as_str() {
        "socket-read-zipf" => cluster::run(
            &cluster::socket_read_zipf(),
            args.seed,
            args.seconds,
            args.trace,
        ),
        "mem-write-spread" => cluster::run(
            &cluster::mem_write_spread(),
            args.seed,
            args.seconds,
            args.trace,
        ),
        "sim-churn-10k" => sim::run(args.seed, args.trace),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    report.extra("workload", &args.workload);
    report.extra("seed", args.seed);
    report.extra("seconds", args.seconds);
    report.extra("traced", args.trace);
    for (name, value) in procfs::provenance() {
        report.extra(name, value);
    }
    print!("{}", report.table(args.trace));
    println!("{}", report.json_line(args.trace));
    if !report.correct() {
        eprintln!(
            "perfbench: {} reads returned bytes that do not match their version",
            report.wrong_values
        );
        std::process::exit(1);
    }
}

/// Sets the latency metrics: the medians (end-to-end) and the tails
/// (`client.*`, unbounded). `resolution` is the clock granularity of the
/// samples, µs.
pub fn latency_metrics(
    report: &mut Report,
    read_us: Vec<f64>,
    write_us: Vec<f64>,
    resolution: f64,
) {
    for (samples, p50, p99) in [
        (read_us, "read_p50_us", "client.read_p99_us"),
        (write_us, "write_p50_us", "client.write_p99_us"),
    ] {
        let samples = Samples::new(samples, resolution);
        let (median, tail, tail_p) = samples.median_and_tail(99.0);
        report.set_noted(p50, median, format!("p50 of {}", samples.len()));
        report.set_noted(p99, tail, format!("p{tail_p:.2} of {}", samples.len()));
    }
}

/// Sets the `node.*` metrics from the merged counters of `nodes` nodes
/// over `seconds` of life and `ops` client operations.
pub fn node_metrics(
    report: &mut Report,
    stats: &NodeStats,
    nodes: usize,
    seconds: f64,
    ops: f64,
    ae_period_s: f64,
) {
    let ratio = |a: u64, b: u64| a as f64 / b.max(1) as f64;
    let per_node_s = |kind| stats.sent(kind) as f64 / nodes.max(1) as f64 / seconds.max(1e-9);
    report.set(
        "node.duplicate_ratio",
        ratio(
            stats.requests_duplicate,
            stats.received(MessageKind::Request),
        ),
    );
    report.set("node.expired_per_op", stats.requests_expired as f64 / ops);
    report.set(
        "node.replies_per_op",
        stats.sent(MessageKind::Reply) as f64 / ops,
    );
    report.set(
        "node.puts_ignored_ratio",
        ratio(stats.puts_ignored, stats.puts_stored + stats.puts_ignored),
    );
    report.set(
        "node.membership_msgs_per_node_s",
        per_node_s(MessageKind::Membership),
    );
    report.set(
        "node.slicing_msgs_per_node_s",
        per_node_s(MessageKind::Slicing),
    );
    report.set(
        "node.ae_msgs_per_node_s",
        per_node_s(MessageKind::AntiEntropy),
    );
    let ae_rounds = nodes as f64 * seconds / ae_period_s;
    report.set_noted(
        "node.ae_chunks_skipped_ratio",
        stats.ae_chunks_skipped as f64 / ae_rounds.max(1.0),
        format!("of ~{ae_rounds:.0} rounds (nodes x life / period)"),
    );
    report.set("node.objects_repaired", stats.objects_repaired as f64);
    report.set("node.slice_changes", stats.slice_changes as f64);
}

/// Sets `proc.explained_cpu_share` (modelled over measured CPU, summed
/// over the windows) and `proc.reconcile_mape` (mean absolute relative
/// error per window) from `(window, measured ns, modelled ns)`.
pub fn set_reconciliation(report: &mut Report, windows: &[(&str, f64, f64)]) {
    if windows.is_empty() {
        report.set_opt("proc.explained_cpu_share", None);
        report.set_opt("proc.reconcile_mape", None);
        return;
    }
    let measured: f64 = windows.iter().map(|w| w.1).sum();
    let modelled: f64 = windows.iter().map(|w| w.2).sum();
    let mape = windows
        .iter()
        .map(|(_, measured, modelled)| (measured - modelled).abs() / measured.max(1.0))
        .sum::<f64>()
        / windows.len() as f64;
    report.set("proc.explained_cpu_share", modelled / measured.max(1.0));
    report.set("proc.reconcile_mape", mape);
    for (name, measured, modelled) in windows {
        report.extra(
            format!("reconcile {name}: measured / modelled CPU ms"),
            format!("{:.1} / {:.1}", measured / 1e6, modelled / 1e6),
        );
    }
}

/// Writes the spans as JSON lines under `perfbench/results/` and adds the
/// per-span summary (count, total, self time) to the report.
pub fn write_trace(tracer: &Tracer, report: &mut Report, label: &str) {
    for (name, (count, total, own)) in tracer.summary() {
        report.extra(
            format!("span {name}"),
            format!(
                "count {count}, total {:.3} ms, self {:.3} ms",
                total as f64 / 1e6,
                own as f64 / 1e6
            ),
        );
    }
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
    let path = dir.join(format!("trace-{label}.jsonl"));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, tracer.to_jsonl())) {
        Ok(()) => report.extra("trace file", path.display()),
        Err(error) => report.extra("trace file", format!("not written: {error}")),
    }
}
