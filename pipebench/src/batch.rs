//! The job loop shared by the batch workloads (`record`, `replay`):
//! set up several times, run whole jobs for the allotted seconds, and
//! turn the job times into the end-to-end metrics, or, in the traced
//! run, into the per-layer ledger.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::spans::Spans;
use crate::util::{median, peak_rss_mb, Gates};
use crate::{Args, Report};

/// One finished job.
pub struct Job {
    pub ns: u64,
    /// Trace words the job carried.
    pub words: u64,
    pub ok: bool,
}

/// A batch workload after set-up.
pub trait Batch {
    /// Runs job `id`, recording spans into `sp` when tracing is on.
    fn job(&mut self, id: u64, sp: &mut Spans) -> Job;
    /// The per-layer ledger from the traced jobs' spans and counts.
    fn layers(&self, sp: &Spans, jobs: u64) -> BTreeMap<&'static str, f64>;
    fn into_gates(self) -> Gates;
}

/// Runs jobs until `seconds` have passed (at least one).
fn phase(b: &mut impl Batch, seconds: f64, first_id: u64, sp: &mut Spans) -> (Vec<Job>, f64) {
    let t0 = Instant::now();
    let mut jobs = Vec::new();
    while jobs.is_empty() || t0.elapsed().as_secs_f64() < seconds {
        jobs.push(b.job(first_id + jobs.len() as u64, sp));
    }
    (jobs, t0.elapsed().as_secs_f64())
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// Sets up `reps` times (keeping the last fixture), then measures.
pub fn run<B: Batch>(args: &Args, reps: usize, mut setup: impl FnMut() -> B) -> Report {
    let mut setup_s = Vec::new();
    let mut batch = None;
    for _ in 0..reps {
        let t = Instant::now();
        batch = Some(setup());
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut b = batch.expect("set-up ran at least once");
    let epoch = Instant::now();
    let mut report = Report::default();
    if !args.trace {
        let (jobs, secs) = phase(&mut b, args.seconds, 0, &mut Spans::new(false, epoch));
        let words: u64 = jobs.iter().map(|j| j.words).sum();
        let job_s: f64 = jobs.iter().map(|j| j.ns as f64 / 1e9).sum();
        // The mean, not the median, of the run's few jobs: when the
        // host's speed shifts within a run, the median snaps to one
        // side and spreads more between runs (see NOTES.md).
        let job_us = job_s * 1e6 / jobs.len() as f64;
        report.e2e = BTreeMap::from([
            ("setup_s", median(&setup_s)),
            ("words_per_s", words as f64 / job_s),
            ("req_per_s", jobs.len() as f64 / secs),
            ("query_p50_us", job_us),
            // A job reads the whole trace: it is also the scan.
            ("scan_p50_us", job_us),
            ("peak_rss_mb", peak_rss_mb(None)),
        ]);
        report.tally(jobs.iter().map(|j| j.ok));
    } else {
        let half = args.seconds / 2.0;
        let (plain, _) = phase(&mut b, half, 0, &mut Spans::new(false, epoch));
        let mut sp = Spans::new(true, epoch);
        let (traced, _) = phase(&mut b, half, plain.len() as u64, &mut sp);
        report.layer = b
            .layers(&sp, traced.len() as u64)
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect();
        report.overhead(
            &plain.iter().map(|j| us(j.ns)).collect::<Vec<_>>(),
            &traced.iter().map(|j| us(j.ns)).collect::<Vec<_>>(),
        );
        report.tally(plain.iter().chain(&traced).map(|j| j.ok));
        report.spans = Some(sp);
    }
    report.gates = b.into_gates();
    report
}

/// `ns / n`, or 0 when the layer did no work.
pub fn per(ns: u64, n: u64) -> f64 {
    if n == 0 {
        0.0
    } else {
        ns as f64 / n as f64
    }
}

/// Median of the spans named `name`, in ms.
pub fn median_ms(sp: &Spans, name: &str) -> f64 {
    let v: Vec<f64> = sp.durations(name).iter().map(|&d| d as f64 / 1e6).collect();
    median(&v)
}
