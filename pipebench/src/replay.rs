//! `replay`: the analysis side alone, over a stored trace.
//!
//! Set-up records a traced Mach `compress` run and encodes it as a
//! v4 store. Each job decodes the store's bytes and makes one
//! `Driver` pass over its blocks with a seven-sink stack. There is no
//! machine work: the parser and the sinks take nearly all of a job.
//! Compress is data-heavy with many TLB misses, unlike `record`'s
//! I/O and IPC mix, so the two workloads load the parser differently.

use std::collections::BTreeMap;
use std::time::Instant;

use systrace::isa::Width;
use systrace::kernel::build_system;
use systrace::memsim::PageMap;
use systrace::store::{BlockFormat, TraceStore, DEFAULT_BLOCK_WORDS};
use systrace::trace::{ParseStats, Space, TraceSink};
use systrace::tracer::{build_stack, Driver};

use crate::batch::{median_ms, per, Batch, Job};
use crate::record::{mach, workload, BUDGET};
use crate::spans::Spans;
use crate::util::{derive, Gates};
use crate::{Args, Report};

const SETUP_REPS: usize = 2;

struct Fixture {
    bytes: Vec<u8>,
    /// The recorded words, for the traced run's parse-only pass.
    words: Vec<u32>,
    pagemap: PageMap,
    spec: String,
}

fn setup(args: &Args) -> Fixture {
    let mut sys = build_system(&mach(args.seed).traced(), &[&workload("compress")]);
    let run = sys.run(BUDGET);
    let store = TraceStore::from_archive_with(
        &sys.archive(&run),
        DEFAULT_BLOCK_WORDS,
        BlockFormat::Columnar,
    );
    Fixture {
        bytes: store.encode(),
        words: run.trace_words,
        pagemap: sys.pagemap.clone(),
        spec: format!(
            "tlb,cache:16k:1,cache:64k:2,cache:256k:4,wset:4096,phase:4096,sampled:4k:12k:{}",
            derive(args.seed, 2) % (16 * 1024)
        ),
    }
}

/// Counts parsed events and does nothing else: the parse-only pass.
#[derive(Default)]
struct Count(u64);

impl TraceSink for Count {
    fn iref(&mut self, _: u32, _: Space, _: bool) {
        self.0 += 1;
    }
    fn dref(&mut self, _: u32, _: bool, _: Width, _: Space) {
        self.0 += 1;
    }
    fn ctx_switch(&mut self, _: u8) {
        self.0 += 1;
    }
    fn mode_transition(&mut self, _: bool) {
        self.0 += 1;
    }
}

/// What every job's stack report must repeat exactly.
#[derive(Clone, PartialEq)]
struct Signature {
    rendered: String,
    parse: ParseStats,
    words: u64,
    applied: u64,
}

#[derive(Default)]
struct Counts {
    words: u64,
    events: u64,
    applied: u64,
    failed_slots: u64,
    parse_errors: u64,
}

struct State {
    fx: Fixture,
    corrupt: bool,
    gates: Gates,
    reference: Option<Signature>,
    counts: Counts,
}

fn job(st: &mut State, id: u64, sp: &mut Spans) -> Job {
    let fx = &st.fx;
    let t0 = Instant::now();
    let root = sp.begin("replay.job", id);
    let store = sp.span("store.load", id, |_| TraceStore::decode(&fx.bytes));
    let Ok(store) = store else {
        st.gates.check("store_decodes", false);
        sp.end(root);
        return Job {
            ns: t0.elapsed().as_nanos() as u64,
            words: 0,
            ok: false,
        };
    };
    if sp.on() {
        sp.span("store.decode", id, |_| {
            let mut reader = store.block_reader();
            while let Some(block) = reader.next_block() {
                std::hint::black_box(block.ok());
            }
        });
        let mut count = Count::default();
        let mut parser = store.parser();
        sp.span("trace.parse", id, |_| {
            parser.parse_all(&fx.words, &mut count)
        });
        st.counts.events += count.0;
    }

    let stack = build_stack(&fx.spec, &fx.pagemap).expect("the sink spec is valid");
    let mut driver = Driver::new(store.parser(), stack);
    let mut reader = store.block_reader();
    let mut words = 0u64;
    let mut decoded = true;
    let pass = sp.begin("tracer.pass", id);
    loop {
        let s = sp.begin("store.block", id);
        let next = reader.next_block();
        sp.end(s);
        match next {
            None => break,
            Some(Err(_)) => {
                decoded = false;
                break;
            }
            Some(Ok(block)) => {
                words += block.len() as u64;
                let s = sp.begin("tracer.feed", id);
                driver.feed(block);
                sp.end(s);
            }
        }
    }
    let s = sp.begin("tracer.finish", id);
    let report = driver.finish();
    sp.end(s);
    sp.end(pass);
    sp.end(root);
    let ns = t0.elapsed().as_nanos() as u64;

    let sig = Signature {
        rendered: report.render(),
        parse: report.parse.clone(),
        words: report.words,
        applied: report.applied,
    };
    let mut ok = st.gates.check(
        "store_decodes",
        decoded && words == fx.words.len() as u64 + u64::from(st.corrupt),
    );
    ok &= st
        .gates
        .check("failed_slots", report.failed() == usize::from(st.corrupt));
    if st.reference.is_none() {
        let mut first = sig.clone();
        if st.corrupt {
            first.rendered.push('!');
        }
        st.reference = Some(first);
    }
    ok &= st
        .gates
        .check("repeatable", st.reference.as_ref() == Some(&sig));
    if sp.on() {
        let k = &mut st.counts;
        k.words += words;
        k.applied += report.applied;
        k.failed_slots += report.failed() as u64;
        k.parse_errors += report.parse.errors;
    }
    Job { ns, words, ok }
}

impl Batch for State {
    fn job(&mut self, id: u64, sp: &mut Spans) -> Job {
        job(self, id, sp)
    }

    fn layers(&self, sp: &Spans, jobs: u64) -> BTreeMap<&'static str, f64> {
        let k = &self.counts;
        let stack_ns = sp.total_ns("tracer.feed") + sp.total_ns("tracer.finish");
        let parse_ns = sp.total_ns("trace.parse");
        BTreeMap::from([
            ("store.load_ms", median_ms(sp, "store.load")),
            (
                "store.decode_ns_per_word",
                per(sp.total_ns("store.decode"), k.words),
            ),
            ("trace.parse_ns_per_word", per(parse_ns, k.words)),
            ("trace.events_per_word", per(k.events, k.words)),
            ("trace.parse_errors", k.parse_errors as f64),
            ("tracer.ns_per_word", per(stack_ns, k.words)),
            (
                "tracer.sinks_ns_per_event",
                per(stack_ns.saturating_sub(parse_ns), k.events),
            ),
            ("tracer.events_applied", per(k.applied, jobs)),
            ("tracer.failed_slots", k.failed_slots as f64),
        ])
    }

    fn into_gates(self) -> Gates {
        self.gates
    }
}

pub fn run(args: &Args) -> Report {
    crate::batch::run(args, SETUP_REPS, || State {
        fx: setup(args),
        corrupt: args.corrupt,
        gates: Gates::default(),
        reference: None,
        counts: Counts::default(),
    })
}
