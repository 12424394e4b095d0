//! `serve` and `fabric`: the query service under a closed loop.
//!
//! Set-up records the `record` mix, saves it as a v4 store and starts
//! `tracedump serve` on it (`serve`), or splits it with `tracedump
//! shard` into two shards, serves each, and starts `tracedump fabric`
//! in front of them (`fabric`). One client connection then sends a
//! seeded mix with zero think time: 70% windowed
//! 4096-word queries, 10% whole-trace ASID scans, 10% block fetches,
//! 5% catalog and 5% metrics requests. The two workloads send the
//! same stream; `fabric` adds only the coordinator hop, so `serve` is
//! the workload that bypasses coordinator changes.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use systrace::kernel::build_system;
use systrace::serve::wire::{decode_response, encode_response, CatalogEntry, Response};
use systrace::serve::{Client, ServeError};
use systrace::store::{filter_stream, BlockFormat, Predicate, TraceStore, DEFAULT_BLOCK_WORDS};
use systrace::trace::{classify, CtlOp, TraceWord};

use crate::record::{mach, workload, BUDGET};
use crate::spans::Spans;
use crate::util::{self, derive, median, status_field, tail, Gates, Rng};
use crate::{Args, Report};

const SETUP_REPS: usize = 2;
/// One connection: a second one on a 2-CPU host queues scans behind
/// each other and measures the scheduler more than the service.
const CLIENTS: usize = 1;
/// Words per windowed query.
const WINDOW: u64 = 4096;
/// Catalog name of the served trace (the saved file's stem).
const ARCHIVE: &str = "mix";
const OPS: [&str; 5] = ["query", "scan", "fetch", "catalog", "metrics"];
const QUERY: usize = 0;
const SCAN: usize = 1;
const FETCH: usize = 2;
const CATALOG: usize = 3;
const METRICS: usize = 4;

/// One deck of the request mix: 70% windowed queries, 10% scans, 10%
/// fetches, 5% catalog and 5% metrics requests. Each client deals
/// its requests from seeded shuffles of this deck, so every run sends
/// the mix in exact proportion.
const DECK: [usize; 20] = [
    QUERY, QUERY, QUERY, QUERY, QUERY, QUERY, QUERY, QUERY, QUERY, QUERY, QUERY, QUERY, QUERY,
    QUERY, SCAN, SCAN, FETCH, FETCH, CATALOG, METRICS,
];

/// Deals seeded shuffles of a deck of indices.
struct Dealer {
    rng: Rng,
    deck: Vec<usize>,
    hand: Vec<usize>,
}

impl Dealer {
    fn new(seed: u64, deck: Vec<usize>) -> Dealer {
        Dealer {
            rng: Rng::new(seed),
            deck,
            hand: Vec::new(),
        }
    }

    fn next(&mut self) -> usize {
        if self.hand.is_empty() {
            self.hand = self.deck.clone();
            for i in (1..self.hand.len()).rev() {
                let j = self.rng.below(i as u64 + 1) as usize;
                self.hand.swap(i, j);
            }
        }
        self.hand.pop().expect("the deck is not empty")
    }
}

/// One client's seeded request stream: which op comes next, which
/// ASID the next scan filters on, and the windows and block ranges.
struct Mix {
    ops: Dealer,
    asids: Dealer,
    rng: Rng,
}

impl Mix {
    fn new(seed: u64, n_asids: usize) -> Mix {
        Mix {
            ops: Dealer::new(derive(seed, 0), DECK.to_vec()),
            asids: Dealer::new(derive(seed, 1), (0..n_asids).collect()),
            rng: Rng::new(derive(seed, 2)),
        }
    }
}

/// A started `tracedump` process and the address its banner named.
struct Proc {
    child: Child,
    addr: String,
    /// Held open so the process never writes into a closed pipe.
    _out: BufReader<ChildStdout>,
}

impl Proc {
    fn start(tracedump: &Path, args: &[&str], banner: &str) -> Result<Proc, String> {
        let mut child = Command::new(tracedump)
            .args(args)
            .stdout(Stdio::piped())
            .stdin(Stdio::null())
            .spawn()
            .map_err(|e| format!("{}: {e}", tracedump.display()))?;
        let mut out = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        loop {
            line.clear();
            match out.read_line(&mut line) {
                Ok(0) | Err(_) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(format!("tracedump {} exited before its banner", args[0]));
                }
                Ok(_) => {
                    if let Some(rest) = line.trim().strip_prefix(banner) {
                        let addr = rest.rsplit(' ').next().unwrap_or_default().to_string();
                        return Ok(Proc {
                            child,
                            addr,
                            _out: out,
                        });
                    }
                }
            }
        }
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// What every answer is checked against.
struct Expect {
    words: Vec<u32>,
    /// The served store, for fetch bytes and the catalog row.
    store: TraceStore,
    /// `filter_stream` of the whole trace, per ASID present.
    scans: Vec<(u8, Vec<u32>)>,
    catalog: Vec<CatalogEntry>,
    metrics_schema: &'static str,
    /// Whether every expectation is corrupted (the self-check).
    corrupt: bool,
}

struct Fixture {
    expect: Expect,
    /// Where requests go: the node, or the coordinator.
    front: String,
    nodes: Vec<Proc>,
    coord: Option<Proc>,
    dir: PathBuf,
}

impl Drop for Fixture {
    fn drop(&mut self) {
        self.coord = None;
        self.nodes.clear();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn asids(words: &[u32]) -> Vec<u8> {
    let mut seen = [false; 256];
    let mut asid = 0u8;
    for &w in words {
        if let TraceWord::Ctl(c) = classify(w) {
            if c.op == CtlOp::CtxSwitch {
                asid = c.payload;
            }
        }
        seen[asid as usize] = true;
    }
    (0..=255u8).filter(|&a| seen[a as usize]).collect()
}

fn setup(args: &Args, fabric: bool, rep: usize) -> Result<Fixture, String> {
    let mut sys = build_system(
        &mach(args.seed).traced(),
        &[&workload("sed"), &workload("egrep")],
    );
    let run = sys.run(BUDGET);
    let store = TraceStore::from_archive_with(
        &sys.archive(&run),
        DEFAULT_BLOCK_WORDS,
        BlockFormat::Columnar,
    );
    drop(sys);
    let dir = args
        .work
        .join(format!("{}-{}-{rep}", args.workload, std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let file = dir.join(format!("{ARCHIVE}.w3kt"));
    store
        .save(&file)
        .map_err(|e| format!("{}: {e}", file.display()))?;
    let file = file.to_string_lossy().into_owned();

    let mut fx = Fixture {
        expect: expectations(run.trace_words, store, args.corrupt),
        front: String::new(),
        nodes: Vec::new(),
        coord: None,
        dir: dir.clone(),
    };
    let serve =
        |path: &str| Proc::start(&args.tracedump, &["serve", "127.0.0.1:0", path], "serving ");
    if fabric {
        let shard_dir = dir.join("shards").to_string_lossy().into_owned();
        let out = Command::new(&args.tracedump)
            .args(["shard", &file, &shard_dir, "2"])
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("tracedump shard: {e}"))?;
        if !out.status.success() {
            return Err(format!("tracedump shard failed: {}", out.status));
        }
        let text = String::from_utf8_lossy(&out.stdout);
        let mut manifest = None;
        for line in text.lines() {
            if let Some((path, _)) = line.trim().split_once(".w3kt: ") {
                fx.nodes.push(serve(&format!("{path}.w3kt"))?);
            } else if let Some((_, path)) = line.split_once(" -> ") {
                manifest = Some(path.trim().to_string());
            }
        }
        let manifest = manifest.ok_or("tracedump shard named no manifest")?;
        let mut coord_args = vec!["fabric", "127.0.0.1:0", manifest.as_str()];
        let eps: Vec<String> = fx.nodes.iter().map(|n| n.addr.clone()).collect();
        coord_args.extend(eps.iter().map(String::as_str));
        let coord = Proc::start(&args.tracedump, &coord_args, "coordinating on ")?;
        fx.front = coord.addr.clone();
        fx.coord = Some(coord);
    } else {
        fx.nodes.push(serve(&file)?);
        fx.front = fx.nodes[0].addr.clone();
    }
    if fx.nodes.is_empty() {
        return Err("no serve node started".into());
    }
    Ok(fx)
}

fn expectations(words: Vec<u32>, store: TraceStore, corrupt: bool) -> Expect {
    let mut scans: Vec<(u8, Vec<u32>)> = asids(&words)
        .into_iter()
        .map(|a| {
            let pred = Predicate {
                asid: Some(a),
                window: None,
            };
            (a, filter_stream(&words, &pred))
        })
        .collect();
    let mut row = CatalogEntry {
        name: ARCHIVE.to_string(),
        n_words: store.n_words,
        n_blocks: store.n_blocks() as u32,
        block_words: store.block_words,
        compressed_bytes: store.compressed_bytes(),
    };
    if corrupt {
        for (_, s) in &mut scans {
            if let Some(w) = s.first_mut() {
                *w ^= 1;
            } else {
                s.push(0);
            }
        }
        row.n_words += 1;
    }
    Expect {
        words,
        store,
        scans,
        catalog: vec![row],
        metrics_schema: if corrupt {
            "\"schema\": \"wrl-obs-metrics/v0\""
        } else {
            "\"schema\": \"wrl-obs-metrics/v1\""
        },
        corrupt,
    }
}

/// One timed request.
struct Sample {
    op: usize,
    us: f64,
    ok: bool,
    /// Trace words the answer carried.
    words: u64,
}

/// What one client thread brings back.
#[derive(Default)]
struct Tally {
    samples: Vec<Sample>,
    gates: Gates,
    /// Blocks skipped and considered by ASID scans.
    scan_blocks: (u64, u64),
    /// Words run through the wire codec, and its ns (traced only).
    codec: (u64, u64),
}

/// Sends the mix's next request, times the call, and checks the
/// answer.
fn request(
    client: &mut Client,
    ex: &Expect,
    mix: &mut Mix,
    id: u64,
    sp: &mut Spans,
    t: &mut Tally,
) -> Sample {
    let n_words = ex.words.len() as u64;
    let op = mix.ops.next();
    let rng = &mut mix.rng;
    let span = sp.begin(OPS[op], id);
    let t0 = Instant::now();
    let (ok, words, elapsed) = match op {
        QUERY | SCAN => {
            let (pred, want) = if op == QUERY {
                // A corrupted expectation is the window one word on.
                let shift = u64::from(ex.corrupt);
                let lo = rng.below(n_words - WINDOW - shift + 1);
                let at = (lo + shift) as usize..(lo + WINDOW + shift) as usize;
                let pred = Predicate {
                    asid: None,
                    window: Some((lo, lo + WINDOW)),
                };
                (pred, &ex.words[at])
            } else {
                let (asid, want) = &ex.scans[mix.asids.next()];
                let pred = Predicate {
                    asid: Some(*asid),
                    window: None,
                };
                (pred, want.as_slice())
            };
            let r = client.query(ARCHIVE, &pred);
            let elapsed = t0.elapsed();
            let ok = t
                .gates
                .check(OPS[op], matches!(&r, Ok(q) if q.words == want));
            if let Ok(q) = r {
                if op == SCAN {
                    t.scan_blocks.0 += u64::from(q.blocks_skipped);
                    t.scan_blocks.1 += u64::from(q.blocks_skipped + q.blocks_decoded);
                }
                if sp.on() {
                    // The wire layer's share: this answer encoded and
                    // decoded again as one frame.
                    let n = q.words.len() as u64;
                    let c0 = Instant::now();
                    let s = sp.begin("wire.codec", id);
                    let frame = encode_response(id, &Response::Query(q));
                    std::hint::black_box(decode_response(&frame[4..]).is_ok());
                    sp.end(s);
                    t.codec.0 += n;
                    t.codec.1 += c0.elapsed().as_nanos() as u64;
                }
            }
            (ok, want.len() as u64, elapsed)
        }
        FETCH => {
            let k = 1 + rng.below(4) as usize;
            let first = rng.below((ex.store.n_blocks() - k + 1) as u64) as usize;
            let r = client.fetch(ARCHIVE, first as u32, k as u32);
            let elapsed = t0.elapsed();
            let matches = |blocks: &[systrace::serve::wire::RawBlock]| {
                blocks.len() == k
                    && blocks.iter().enumerate().all(|(j, b)| {
                        let mut want = ex.store.block_bytes(first + j).map(<[u8]>::to_vec);
                        if let (true, Ok(w)) = (ex.corrupt, &mut want) {
                            w[0] ^= 1;
                        }
                        want.is_ok_and(|w| w == b.comp)
                            && b.first_word == ex.store.block_meta(first + j).first_word
                    })
            };
            let ok = t.gates.check(OPS[op], r.as_deref().is_ok_and(matches));
            let words = r.map_or(0, |b| b.iter().map(|b| u64::from(b.words)).sum());
            (ok, words, elapsed)
        }
        CATALOG => {
            let r = client.catalog();
            let elapsed = t0.elapsed();
            (
                t.gates.check(OPS[op], r.ok() == Some(ex.catalog.clone())),
                0,
                elapsed,
            )
        }
        _ => {
            let r = client.metrics();
            let elapsed = t0.elapsed();
            let ok = matches!(&r, Ok(json) if json.contains(ex.metrics_schema));
            (t.gates.check(OPS[op], ok), 0, elapsed)
        }
    };
    sp.end(span);
    Sample {
        op,
        us: elapsed.as_secs_f64() * 1e6,
        ok,
        words,
    }
}

/// Runs every client for `seconds`; returns the merged tally, the
/// spans, the measured wall time and the most threads the coordinator
/// ran meanwhile (sampled from `/proc` every 50 ms).
fn closed_loop(
    fx: &Fixture,
    args: &Args,
    seconds: f64,
    traced: bool,
    stream: u64,
    epoch: Instant,
) -> (Tally, Spans, f64, f64) {
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(seconds);
    let mut threads = 0.0f64;
    let results: Vec<Result<(Tally, Spans), String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS as u64)
            .map(|c| {
                s.spawn(move || {
                    let mut client = Client::connect(fx.front.as_str())
                        .map_err(|e| format!("connect {}: {e}", fx.front))?;
                    let seed = derive(args.seed, 16 + stream * 8 + c);
                    let mut mix = Mix::new(seed, fx.expect.scans.len());
                    let mut sp = Spans::new(traced, epoch);
                    let mut t = Tally::default();
                    let mut seq = 0u64;
                    while Instant::now() < deadline {
                        let id = (c << 48) | (stream << 40) | seq;
                        let sample =
                            request(&mut client, &fx.expect, &mut mix, id, &mut sp, &mut t);
                        t.samples.push(sample);
                        seq += 1;
                    }
                    Ok((t, sp))
                })
            })
            .collect();
        if let Some(c) = &fx.coord {
            let status = format!("/proc/{}/status", c.pid());
            while Instant::now() < deadline {
                threads = threads.max(status_field(&status, "Threads:"));
                std::thread::sleep(Duration::from_millis(50));
            }
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let secs = t0.elapsed().as_secs_f64();
    let mut all = Tally::default();
    let mut spans = Spans::new(traced, epoch);
    for r in results {
        match r {
            Ok((t, sp)) => {
                all.samples.extend(t.samples);
                all.gates.merge(t.gates);
                all.scan_blocks.0 += t.scan_blocks.0;
                all.scan_blocks.1 += t.scan_blocks.1;
                all.codec.0 += t.codec.0;
                all.codec.1 += t.codec.1;
                spans.absorb(sp);
            }
            Err(e) => {
                eprintln!("pipebench: {e}");
                all.gates.check("connect", false);
                all.samples.push(Sample {
                    op: QUERY,
                    us: 0.0,
                    ok: false,
                    words: 0,
                });
            }
        }
    }
    (all, spans, secs, threads)
}

/// Warm-up: every window of the trace once (filling the decoded-block
/// caches), every scan once, and one request of each other kind.
fn warm_up(fx: &Fixture) -> Result<(), String> {
    let mut c = Client::connect(fx.front.as_str()).map_err(|e| format!("connect: {e}"))?;
    let n = fx.expect.words.len() as u64;
    let fail = |e: ServeError| format!("warm-up: {e}");
    for lo in (0..n).step_by(WINDOW as usize) {
        let pred = Predicate {
            asid: None,
            window: Some((lo, (lo + WINDOW).min(n))),
        };
        c.query(ARCHIVE, &pred).map_err(fail)?;
    }
    for (a, _) in &fx.expect.scans {
        let pred = Predicate {
            asid: Some(*a),
            window: None,
        };
        c.query(ARCHIVE, &pred).map_err(fail)?;
    }
    c.fetch(ARCHIVE, 0, 1).map_err(fail)?;
    c.catalog().map_err(fail)?;
    c.metrics().map_err(fail)?;
    Ok(())
}

/// A numeric field of one metric row in a `wrl-obs-metrics/v1`
/// snapshot (one row per line); 0 when absent.
fn metric(json: &str, name: &str, key: &str) -> f64 {
    let tag = format!("\"name\": \"{name}\"");
    let key = format!("\"{key}\": ");
    json.lines()
        .find(|l| l.contains(&tag))
        .and_then(|l| {
            let at = l.find(&key)? + key.len();
            let end = l[at..]
                .find(|c: char| !(c.is_ascii_digit() || c == '.'))
                .map_or(l.len(), |e| at + e);
            l[at..end].parse().ok()
        })
        .unwrap_or(0.0)
}

/// The named fields summed over the snapshots of `addrs`.
fn snapshot(addrs: &[String], fields: &[(&str, &str)]) -> Vec<f64> {
    let mut out = vec![0.0; fields.len()];
    for addr in addrs {
        let json = Client::connect(addr.as_str())
            .ok()
            .and_then(|mut c| c.metrics().ok())
            .unwrap_or_default();
        for (o, (name, key)) in out.iter_mut().zip(fields) {
            *o += metric(&json, name, key);
        }
    }
    out
}

const NODE_FIELDS: [(&str, &str); 11] = [
    ("serve.latency.query", "sum"),
    ("serve.latency.query", "count"),
    ("serve.latency.fetch", "sum"),
    ("serve.latency.fetch", "count"),
    ("serve.latency.catalog", "sum"),
    ("serve.latency.catalog", "count"),
    ("serve.latency.metrics", "sum"),
    ("serve.latency.metrics", "count"),
    ("serve.query.cache.hits", "value"),
    ("serve.query.cache.misses", "value"),
    ("serve.reject.busy", "value"),
];
const COORD_FIELDS: [(&str, &str); 3] = [
    ("fabric.queries", "value"),
    ("fabric.subqueries", "value"),
    ("fabric.failover", "value"),
];

/// Summed peak resident set of the serving processes.
fn peak_rss_mb(fx: &Fixture) -> f64 {
    fx.nodes
        .iter()
        .chain(&fx.coord)
        .map(|p| util::peak_rss_mb(Some(p.pid())))
        .sum()
}

fn us_of(t: &Tally, op: usize) -> Vec<f64> {
    t.samples
        .iter()
        .filter(|s| s.op == op)
        .map(|s| s.us)
        .collect()
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

pub fn run(args: &Args, fabric: bool) -> Result<Report, String> {
    let mut setup_s = Vec::new();
    let mut fx = None;
    for rep in 0..SETUP_REPS {
        // Stop the previous repetition's processes first.
        drop(fx.take());
        let t = Instant::now();
        let f = setup(args, fabric, rep)?;
        warm_up(&f)?;
        setup_s.push(t.elapsed().as_secs_f64());
        fx = Some(f);
    }
    let fx = fx.expect("set-up ran at least once");
    let epoch = Instant::now();
    let nodes: Vec<String> = fx.nodes.iter().map(|n| n.addr.clone()).collect();
    let coord: Vec<String> = fx.coord.iter().map(|c| c.addr.clone()).collect();
    let mut report = Report::default();
    let done = if !args.trace {
        let (t, _, secs, _) = closed_loop(&fx, args, args.seconds, false, 0, epoch);
        let ok = t.samples.iter().filter(|s| s.ok);
        report.e2e = BTreeMap::from([
            ("setup_s", median(&setup_s)),
            (
                "words_per_s",
                ok.clone().map(|s| s.words).sum::<u64>() as f64 / secs,
            ),
            ("req_per_s", ok.count() as f64 / secs),
            ("query_p50_us", median(&us_of(&t, QUERY))),
            ("scan_p50_us", median(&us_of(&t, SCAN))),
            ("peak_rss_mb", peak_rss_mb(&fx)),
        ]);
        t
    } else {
        let half = args.seconds / 2.0;
        let (plain, _, _, _) = closed_loop(&fx, args, half, false, 0, epoch);
        let n0 = snapshot(&nodes, &NODE_FIELDS);
        let c0 = snapshot(&coord, &COORD_FIELDS);
        let (mut t, sp, _, threads) = closed_loop(&fx, args, half, true, 1, epoch);
        let n1 = snapshot(&nodes, &NODE_FIELDS);
        let c1 = snapshot(&coord, &COORD_FIELDS);
        let dn: Vec<f64> = n1.iter().zip(&n0).map(|(a, b)| a - b).collect();
        let dc: Vec<f64> = c1.iter().zip(&c0).map(|(a, b)| a - b).collect();
        let mut layer: BTreeMap<String, f64> = BTreeMap::new();
        for (op, name) in OPS.iter().enumerate() {
            let v = us_of(&t, op);
            layer.insert(format!("serve.op.{name}.p50_us"), median(&v));
            layer.insert(format!("serve.op.{name}.p99_us"), tail(&v));
        }
        for (i, name) in ["query", "fetch", "catalog", "metrics"].iter().enumerate() {
            let us = ratio(dn[2 * i], dn[2 * i + 1]) / 1e3;
            layer.insert(format!("serve.server_us.{name}"), us);
        }
        let mut fixed = vec![
            ("serve.cache.hit_ratio", ratio(dn[8], dn[8] + dn[9])),
            (
                "serve.pushdown.skip_ratio",
                ratio(t.scan_blocks.0 as f64, t.scan_blocks.1 as f64),
            ),
            ("serve.reject.busy", dn[10]),
            (
                "wire.ns_per_word",
                ratio(t.codec.1 as f64, t.codec.0 as f64),
            ),
        ];
        if fx.coord.is_some() {
            fixed.extend([
                ("fabric.subqueries_per_query", ratio(dc[1], dc[0])),
                ("fabric.failover", dc[2]),
                ("fabric.threads", threads),
            ]);
        }
        layer.extend(fixed.into_iter().map(|(k, v)| (k.to_string(), v)));
        report.layer = layer;
        report.overhead(&us_of(&plain, QUERY), &us_of(&t, QUERY));
        report.spans = Some(sp);
        t.samples.extend(plain.samples);
        t.gates.merge(plain.gates);
        t
    };
    report.tally(done.samples.iter().map(|s| s.ok));
    report.gates = done.gates;
    Ok(report)
}
