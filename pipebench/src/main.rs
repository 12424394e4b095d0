//! pipebench: the tracing pipeline's benchmark.
//!
//! ```text
//! pipebench --workload <record|replay|serve|fabric> --seed <n>
//!           --seconds <s> --trace <0|1> --tracedump <path> --work <dir>
//!           [--corrupt]
//! ```
//!
//! With `--trace 0` a run measures the end-to-end metrics with no
//! spans recorded. With `--trace 1` it spends half its time untraced
//! and half traced, records a span around every call into a layer,
//! and prints the per-layer ledger and the tracing overhead. Either
//! way every answer is checked; the last line of standard output is
//! one JSON object with the keys `correct`, `attempted`, `failed` and
//! `metrics`. `--corrupt` corrupts every expectation the gates check
//! against, so a run must report every operation failed: the
//! self-check that each gate fires. See NOTES.md.

mod batch;
mod record;
mod replay;
mod serving;
mod spans;
mod util;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use spans::Spans;
use util::{median, Gates};

/// End-to-end metrics: name, unit. Every workload reports each.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("words_per_s", "words/s"),
    ("req_per_s", "req/s"),
    ("query_p50_us", "us"),
    ("scan_p50_us", "us"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: name, unit. A layer a workload does not run
/// reads 0 there.
const PER_LAYER: [(&str, &str); 49] = [
    ("kernel.build_ms", "ms"),
    ("kernel.drains", "count"),
    ("kernel.words_drained", "count"),
    ("machine.ns_per_inst", "ns/inst"),
    ("machine.run_ms", "ms"),
    ("machine.insts", "count"),
    ("machine.cycles", "count"),
    ("store.encode_ns_per_word", "ns/word"),
    ("store.bytes_per_word", "B/word"),
    ("store.load_ms", "ms"),
    ("store.decode_ns_per_word", "ns/word"),
    ("trace.parse_ns_per_word", "ns/word"),
    ("trace.events_per_word", "events/word"),
    ("trace.parse_errors", "count"),
    ("memsim.ns_per_event", "ns/event"),
    ("memsim.predict_us", "us"),
    ("memsim.sanity_violations", "count"),
    ("tracer.ns_per_word", "ns/word"),
    ("tracer.sinks_ns_per_event", "ns/event"),
    ("tracer.events_applied", "count"),
    ("tracer.failed_slots", "count"),
    ("serve.op.query.p50_us", "us"),
    ("serve.op.query.p99_us", "us"),
    ("serve.op.scan.p50_us", "us"),
    ("serve.op.scan.p99_us", "us"),
    ("serve.op.fetch.p50_us", "us"),
    ("serve.op.fetch.p99_us", "us"),
    ("serve.op.catalog.p50_us", "us"),
    ("serve.op.catalog.p99_us", "us"),
    ("serve.op.metrics.p50_us", "us"),
    ("serve.op.metrics.p99_us", "us"),
    ("serve.server_us.query", "us"),
    ("serve.server_us.fetch", "us"),
    ("serve.server_us.catalog", "us"),
    ("serve.server_us.metrics", "us"),
    ("serve.cache.hit_ratio", "ratio"),
    ("serve.pushdown.skip_ratio", "ratio"),
    ("serve.reject.busy", "count"),
    ("wire.ns_per_word", "ns/word"),
    ("fabric.subqueries_per_query", "ratio"),
    ("fabric.failover", "count"),
    ("fabric.threads", "count"),
    ("trace_overhead.us", "us"),
    ("trace_overhead.pct", "%"),
    ("trace_overhead.untraced_us", "us"),
    ("trace_overhead.traced_us", "us"),
    ("spans.recorded", "count"),
    ("spans.traced_ops", "count"),
    ("spans.untraced_ops", "count"),
];

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub corrupt: bool,
    pub tracedump: PathBuf,
    /// Scratch directory for stores, shards and span files.
    pub work: PathBuf,
}

/// What one workload run measured.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub gates: Gates,
    pub e2e: BTreeMap<&'static str, f64>,
    pub layer: BTreeMap<String, f64>,
    pub spans: Option<Spans>,
}

impl Report {
    /// Counts operations and the ones that failed a gate.
    pub fn tally(&mut self, oks: impl Iterator<Item = bool>) {
        for ok in oks {
            self.attempted += 1;
            self.failed += u64::from(!ok);
        }
    }

    /// The traced ops' median time minus the untraced ops'.
    pub fn overhead(&mut self, untraced_us: &[f64], traced_us: &[f64]) {
        let (u, t) = (median(untraced_us), median(traced_us));
        let pct = if u > 0.0 { 100.0 * (t - u) / u } else { 0.0 };
        self.layer.extend([
            ("trace_overhead.us".to_string(), t - u),
            ("trace_overhead.pct".to_string(), pct),
            ("trace_overhead.untraced_us".to_string(), u),
            ("trace_overhead.traced_us".to_string(), t),
            ("spans.traced_ops".to_string(), traced_us.len() as f64),
            ("spans.untraced_ops".to_string(), untraced_us.len() as f64),
        ]);
    }
}

fn usage() -> String {
    "usage: pipebench --workload <record|replay|serve|fabric> --seed <n> --seconds <s> \
     --trace <0|1> --tracedump <path> --work <dir> [--corrupt]"
        .to_string()
}

fn parse_args() -> Result<Args, String> {
    let mut opts: BTreeMap<String, String> = BTreeMap::new();
    let mut corrupt = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--corrupt" => corrupt = true,
            "--workload" | "--seed" | "--seconds" | "--trace" | "--tracedump" | "--work" => {
                let v = it.next().ok_or_else(usage)?;
                opts.insert(flag[2..].to_string(), v);
            }
            _ => return Err(usage()),
        }
    }
    let get = |k: &str| opts.get(k).cloned().ok_or_else(usage);
    let workload = get("workload")?;
    if !["record", "replay", "serve", "fabric"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}\n{}", usage()));
    }
    let seconds: f64 = get("seconds")?.parse().map_err(|_| usage())?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600]\n{}", usage()));
    }
    Ok(Args {
        workload,
        seed: get("seed")?.parse().map_err(|_| usage())?,
        seconds,
        trace: match get("trace")?.as_str() {
            "0" => false,
            "1" => true,
            _ => return Err(usage()),
        },
        corrupt,
        tracedump: get("tracedump")?.into(),
        work: get("work")?.into(),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let report = match args.workload.as_str() {
        "record" => Ok(record::run(&args)),
        "replay" => Ok(replay::run(&args)),
        "serve" => serving::run(&args, false),
        _ => serving::run(&args, true),
    };
    let mut report = match report {
        Ok(r) => r,
        Err(e) => {
            eprintln!("pipebench: {e}");
            return ExitCode::FAILURE;
        }
    };

    if report.attempted == 0 {
        eprintln!("pipebench: {} attempted no operation", args.workload);
        return ExitCode::FAILURE;
    }
    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    if args.trace {
        let spans = report.spans.take().expect("a traced run keeps its spans");
        report
            .layer
            .insert("spans.recorded".into(), spans.list.len() as f64);
        let path = args
            .work
            .join("spans")
            .join(format!("{}-seed{}.tsv", args.workload, args.seed));
        match spans.write(&path) {
            Ok(()) => eprintln!("pipebench: spans written to {}", path.display()),
            Err(e) => eprintln!("pipebench: {}: {e}", path.display()),
        }
        for (name, unit) in PER_LAYER {
            let v = report.layer.remove(name).unwrap_or(0.0);
            metrics.push((name.to_string(), v, unit));
        }
        if let Some(extra) = report.layer.keys().next() {
            eprintln!("pipebench: metric {extra:?} is not in the per-layer table");
            return ExitCode::FAILURE;
        }
    } else {
        for (name, unit) in END_TO_END {
            let Some(v) = report.e2e.remove(name) else {
                eprintln!("pipebench: {} measured no {name}", args.workload);
                return ExitCode::FAILURE;
            };
            metrics.push((name.to_string(), v, unit));
        }
    }
    if let Some((name, v, _)) = metrics.iter().find(|(_, v, _)| !v.is_finite()) {
        eprintln!("pipebench: {name} is not a number ({v})");
        return ExitCode::FAILURE;
    }

    let fail_ratio = report.failed as f64 / report.attempted as f64;
    println!(
        "pipebench workload={} seed={} seconds={} trace={}{}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        if args.corrupt { " corrupt=1" } else { "" }
    );
    println!("gates (fired/checked): {}", report.gates.render());
    println!(
        "fail_ratio = {fail_ratio} ratio ({} of {} ops failed)",
        report.failed, report.attempted
    );
    for (name, v, unit) in &metrics {
        println!("{name} = {v} {unit}");
    }
    let correct = if args.corrupt {
        let fired = report.gates.all_fired();
        println!(
            "self-check: every gate fired on corrupted expectations: {}",
            if fired { "yes" } else { "NO" }
        );
        false
    } else {
        report.failed == 0
    };
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", v))
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted,
        report.failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}
