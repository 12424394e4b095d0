//! Seeded randomness, order statistics, process memory and the
//! correctness-gate tally shared by every workload.

use std::collections::BTreeMap;

/// SplitMix64: the benchmark's only source of randomness, so a seed
/// fixes every generated input.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Derives an independent stream's seed from the run seed.
pub fn derive(seed: u64, stream: u64) -> u64 {
    Rng::new(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f)).next_u64()
}

/// Median of `v`, averaging the middle pair of an even count (0 for
/// an empty slice).
pub fn median(v: &[f64]) -> f64 {
    let n = v.len();
    if n % 2 == 1 || n == 0 {
        return quantile(v, 0.5);
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    (s[n / 2 - 1] + s[n / 2]) / 2.0
}

/// Nearest-rank quantile `q` in `[0, 1]` (0 for an empty slice).
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

/// The p99 when at least ten samples lie beyond it (1000 samples or
/// more); otherwise the largest sample.
pub fn tail(v: &[f64]) -> f64 {
    if v.len() >= 1000 {
        quantile(v, 0.99)
    } else {
        v.iter().copied().fold(0.0, f64::max)
    }
}

/// Peak resident set (`VmHWM`) of a process in MB, from `/proc`.
pub fn peak_rss_mb(pid: Option<u32>) -> f64 {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    status_field(&path, "VmHWM:") / 1024.0
}

/// A numeric field of a `/proc/<pid>/status` file (0 when absent).
pub fn status_field(path: &str, key: &str) -> f64 {
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(key))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|n| n.parse().ok())
        })
        .unwrap_or(0.0)
}

/// The correctness gates of one run: how often each was checked and
/// how often it fired.
#[derive(Default)]
pub struct Gates {
    tally: BTreeMap<&'static str, (u64, u64)>,
}

impl Gates {
    /// Records one evaluation of gate `name`; returns `ok`.
    pub fn check(&mut self, name: &'static str, ok: bool) -> bool {
        let t = self.tally.entry(name).or_default();
        t.0 += 1;
        if !ok {
            t.1 += 1;
        }
        ok
    }

    pub fn merge(&mut self, other: Gates) {
        for (name, (n, f)) in other.tally {
            let t = self.tally.entry(name).or_default();
            t.0 += n;
            t.1 += f;
        }
    }

    /// Whether every gate that was evaluated fired at least once —
    /// what a run with corrupted expectations must show.
    pub fn all_fired(&self) -> bool {
        !self.tally.is_empty() && self.tally.values().all(|&(_, f)| f > 0)
    }

    pub fn render(&self) -> String {
        self.tally
            .iter()
            .map(|(name, (n, f))| format!("{name}={f}/{n}"))
            .collect::<Vec<_>>()
            .join(" ")
    }
}
