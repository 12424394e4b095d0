//! `record`: the paper's system-trace case, end to end.
//!
//! Each job builds and runs a traced Mach system with two clients
//! (sed and egrep) and the user-level UNIX server, archives the
//! drained words, encodes them as a v4 columnar store, checks the
//! store decodes back bit-identical, parses the trace into the memory
//! simulator and predicts the run time. About two thirds of a job is
//! the simulated machine, and it is the only workload that writes the
//! store. Two clients, not three: every three-program mix probed
//! fails to halt (see NOTES.md), while the kernel tests cover this
//! mix.

use std::collections::BTreeMap;
use std::time::Instant;

use systrace::isa::Width;
use systrace::kernel::{build_system, KernelConfig};
use systrace::memsim::{predict, MemSim, Policy, SimCfg, SimStats, TimeModel, UtlbSynth};
use systrace::store::{crc32_words, BlockFormat, TraceStore, DEFAULT_BLOCK_WORDS};
use systrace::trace::{Space, TraceSink};
use systrace::workloads::Workload;

use crate::batch::{median_ms, per, Batch, Job};
use crate::spans::Spans;
use crate::util::{derive, Gates};
use crate::{Args, Report};

/// Instruction budget of one system run (the kernel tests' budget).
pub const BUDGET: u64 = 6_000_000_000;

/// The untraced reference run takes a fraction of a second, so set-up
/// repeats it more often than the other workloads repeat theirs.
const SETUP_REPS: usize = 5;

/// A Mach configuration whose random page placement follows `seed`.
pub fn mach(seed: u64) -> KernelConfig {
    let mut cfg = KernelConfig::mach();
    if let Policy::Random { seed: s, .. } = &mut cfg.page_policy {
        *s = derive(seed, 1);
    }
    cfg
}

pub fn workload(name: &str) -> Workload {
    systrace::workloads::by_name(name).expect("workload is built in")
}

/// The memory-simulator configuration the §5 prediction uses.
fn sim_cfg() -> SimCfg {
    SimCfg {
        utlb: Some(UtlbSynth::wrl_kernel()),
        ..SimCfg::default()
    }
}

struct Fixture {
    cfg: KernelConfig,
    programs: [Workload; 2],
    /// Exit code of the same mix run untraced.
    exit_code: u32,
}

fn setup(args: &Args) -> Fixture {
    let programs = [workload("sed"), workload("egrep")];
    let cfg = mach(args.seed);
    let mut sys = build_system(&cfg, &[&programs[0], &programs[1]]);
    let run = sys.run(BUDGET);
    Fixture {
        cfg: cfg.traced(),
        programs,
        exit_code: run.exit_code ^ u32::from(args.corrupt),
    }
}

/// Everything a job must reproduce exactly on every repetition.
#[derive(Clone, Debug, PartialEq)]
struct Signature {
    counters: [u64; 8],
    words: u64,
    crc: u32,
    sim: SimStats,
    prediction: [u64; 4],
}

/// One parsed event, buffered so the traced run can time the parser
/// and the simulator apart.
enum Ev {
    I(u32, Space, bool),
    D(u32, bool, Width, Space),
    Ctx(u8),
    Mode(bool),
}

#[derive(Default)]
struct Events(Vec<Ev>);

impl TraceSink for Events {
    fn iref(&mut self, vaddr: u32, space: Space, idle: bool) {
        self.0.push(Ev::I(vaddr, space, idle));
    }
    fn dref(&mut self, vaddr: u32, store: bool, width: Width, space: Space) {
        self.0.push(Ev::D(vaddr, store, width, space));
    }
    fn ctx_switch(&mut self, asid: u8) {
        self.0.push(Ev::Ctx(asid));
    }
    fn mode_transition(&mut self, generating: bool) {
        self.0.push(Ev::Mode(generating));
    }
}

impl Events {
    fn replay<S: TraceSink>(&self, sink: &mut S) {
        for ev in &self.0 {
            match *ev {
                Ev::I(v, s, i) => sink.iref(v, s, i),
                Ev::D(v, st, w, s) => sink.dref(v, st, w, s),
                Ev::Ctx(a) => sink.ctx_switch(a),
                Ev::Mode(g) => sink.mode_transition(g),
            }
        }
    }
}

/// Per-job counts the traced run keeps for the ledger.
#[derive(Default)]
struct Counts {
    insts: u64,
    cycles: u64,
    drains: u64,
    words: u64,
    bytes: u64,
    events: u64,
    parse_errors: u64,
    sanity: u64,
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
    let (ok, words) = sp.span("record.job", id, |sp| {
        let mut sys = sp.span("kernel.build_system", id, |_| {
            build_system(&fx.cfg, &[&fx.programs[0], &fx.programs[1]])
        });
        let run = sp.span("machine.run", id, |_| sys.run(BUDGET));
        let archive = sp.span("kernel.archive", id, |_| sys.archive(&run));
        let bytes = sp.span("store.encode", id, |_| {
            TraceStore::from_archive_with(&archive, DEFAULT_BLOCK_WORDS, BlockFormat::Columnar)
                .encode()
        });
        drop(archive);

        // The store must give back exactly the drained words.
        let store = sp.span("store.load", id, |_| TraceStore::decode(&bytes));
        let identical = sp.span("store.decode", id, |_| match &store {
            Ok(store) => {
                let mut reader = store.block_reader();
                let mut at = 0usize;
                let mut same = store.n_words == run.trace_words.len() as u64;
                while let Some(block) = reader.next_block() {
                    match block {
                        Ok(b) => {
                            let want = run.trace_words.get(at..at + b.len());
                            same &= want == Some(b) && !(st.corrupt && at == 0);
                            at += b.len();
                        }
                        Err(_) => same = false,
                    }
                }
                same && at == run.trace_words.len()
            }
            Err(_) => false,
        });

        let mut parser = sys.parser();
        let cfg = sim_cfg();
        let mut sim = MemSim::new(cfg.clone(), sys.pagemap.clone());
        let mut events = 0;
        if sp.on() {
            let mut buf = Events::default();
            sp.span("trace.parse", id, |_| {
                parser.parse_all(&run.trace_words, &mut buf)
            });
            events = buf.0.len() as u64;
            sp.span("memsim.replay", id, |_| buf.replay(&mut sim));
        } else {
            parser.parse_all(&run.trace_words, &mut sim);
        }
        let p = sp.span("memsim.predict", id, |_| {
            predict(&sim.stats, &cfg, 0, &TimeModel::default())
        });

        let c = &sys.machine.counters;
        let sig = Signature {
            counters: [
                c.insts(),
                c.cycles,
                c.utlb_misses,
                c.ktlb_misses,
                c.icache_misses,
                c.dcache_misses,
                c.interrupts,
                run.drains,
            ],
            words: run.trace_words.len() as u64,
            crc: crc32_words(&run.trace_words),
            sim: sim.stats.clone(),
            prediction: [
                p.cpu_cycles.to_bits(),
                p.mem_stall_cycles.to_bits(),
                p.arith_stall_cycles.to_bits(),
                p.io_stall_cycles.to_bits(),
            ],
        };
        let want_errors = u64::from(st.corrupt);
        let mut ok = st.gates.check("exit_code", run.exit_code == fx.exit_code);
        ok &= st
            .gates
            .check("parse_errors", parser.stats.errors == want_errors);
        ok &= st
            .gates
            .check("sanity", sim.stats.sanity_violations == want_errors);
        ok &= st.gates.check("store_identical", identical);
        if st.reference.is_none() {
            let mut first = sig.clone();
            first.crc ^= u32::from(st.corrupt);
            st.reference = Some(first);
        }
        ok &= st
            .gates
            .check("repeatable", st.reference.as_ref() == Some(&sig));

        if sp.on() {
            let k = &mut st.counts;
            k.insts += sig.counters[0];
            k.cycles += sig.counters[1];
            k.drains += run.drains;
            k.words += sig.words;
            k.bytes += bytes.len() as u64;
            k.events += events;
            k.parse_errors += parser.stats.errors;
            k.sanity += sim.stats.sanity_violations;
        }
        (ok, run.trace_words.len() as u64)
    });
    Job {
        ns: t0.elapsed().as_nanos() as u64,
        words,
        ok,
    }
}

impl Batch for State {
    fn job(&mut self, id: u64, sp: &mut Spans) -> Job {
        job(self, id, sp)
    }

    fn layers(&self, sp: &Spans, jobs: u64) -> BTreeMap<&'static str, f64> {
        let k = &self.counts;
        BTreeMap::from([
            ("kernel.build_ms", median_ms(sp, "kernel.build_system")),
            ("kernel.drains", per(k.drains, jobs)),
            ("kernel.words_drained", per(k.words, jobs)),
            (
                "machine.ns_per_inst",
                per(sp.total_ns("machine.run"), k.insts),
            ),
            ("machine.run_ms", median_ms(sp, "machine.run")),
            ("machine.insts", per(k.insts, jobs)),
            ("machine.cycles", per(k.cycles, jobs)),
            (
                "store.encode_ns_per_word",
                per(sp.total_ns("store.encode"), k.words),
            ),
            ("store.bytes_per_word", per(k.bytes, k.words)),
            ("store.load_ms", median_ms(sp, "store.load")),
            (
                "store.decode_ns_per_word",
                per(sp.total_ns("store.decode"), k.words),
            ),
            (
                "trace.parse_ns_per_word",
                per(sp.total_ns("trace.parse"), k.words),
            ),
            ("trace.events_per_word", per(k.events, k.words)),
            ("trace.parse_errors", k.parse_errors as f64),
            (
                "memsim.ns_per_event",
                per(sp.total_ns("memsim.replay"), k.events),
            ),
            ("memsim.predict_us", median_ms(sp, "memsim.predict") * 1e3),
            ("memsim.sanity_violations", k.sanity as f64),
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
