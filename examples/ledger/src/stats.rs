//! Sample statistics, span self time, digests and host facts.

/// Nearest-rank percentile `p` (0–100] of `sorted` (ascending); 0 when empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Percentile levels a tail is reported at, highest first.
const TAIL_LADDER: [f64; 2] = [99.0, 90.0];

/// The highest percentile of the ladder with at least ten of `n` samples
/// beyond its nearest rank; the median when no ladder level has that many.
pub fn tail_level(n: usize) -> f64 {
    TAIL_LADDER
        .into_iter()
        .find(|p| {
            let rank = ((p / 100.0) * n as f64).ceil() as usize;
            n.saturating_sub(rank) >= 10
        })
        .unwrap_or(50.0)
}

/// Ascending copy of `values`.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of unsorted `values`; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// `(q1, median, q3)` by the exclusive method of Python's
/// `statistics.quantiles(values, n=4)`, the rule the benchmark's spread is
/// judged by. A single value is its own quartiles; no values give zeros.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let data = sorted(values);
    let n = data.len();
    match n {
        0 => (0.0, 0.0, 0.0),
        1 => (data[0], data[0], data[0]),
        _ => {
            let m = n + 1;
            let q = |i: usize| {
                let j = (i * m / 4).clamp(1, n - 1);
                let delta = (i * m) as f64 / 4.0 - j as f64;
                data[j - 1] + (data[j] - data[j - 1]) * delta
            };
            (q(1), q(2), q(3))
        }
    }
}

/// The part of `parent` (start, duration) not covered by any of
/// `children`; children may overlap each other and stick out of the parent.
pub fn self_time(parent: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (p0, p1) = (parent.0, parent.0 + parent.1);
    let mut spans: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, d)| (s.max(p0), (s + d).min(p1)))
        .filter(|(s, e)| s < e)
        .collect();
    spans.sort_unstable();
    let mut covered = 0;
    let mut reach = p0;
    for (s, e) in spans {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    parent.1 - covered
}

/// FNV-1a 64 over a byte stream, fed incrementally.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Feeds `bytes`.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// The digest so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Peak resident set of this process in MiB (`VmHWM`); 0 where the kernel
/// does not report it.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail_level(1000), 99.0);
        assert_eq!(tail_level(999), 90.0);
        assert_eq!(tail_level(100), 90.0);
        assert_eq!(tail_level(99), 50.0);
        assert_eq!(tail_level(14), 50.0);
        assert_eq!(tail_level(0), 50.0);
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, tail_level(v.len())), 990.0);
        assert_eq!(percentile(&v, 50.0), 500.0);
        assert_eq!(percentile(&[], 99.0), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(median(&[4.0]), 4.0);
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        // Parent 100..200; children 90..130 and 120..150 overlap each other
        // and the parent's start; 180..260 sticks out of its end.
        let children = [(90, 40), (120, 30), (180, 80)];
        assert_eq!(self_time((100, 100), &children), 100 - 50 - 20);
        assert_eq!(self_time((100, 100), &[]), 100);
        assert_eq!(self_time((100, 100), &[(0, 50), (300, 5)]), 100);
        assert_eq!(self_time((100, 100), &[(100, 100), (110, 10)]), 0);
    }

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        let digest = |s: &[u8]| {
            let mut h = Fnv::default();
            h.write(s);
            h.finish()
        };
        assert_eq!(digest(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(digest(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(digest(b"foobar"), 0x8594_4171_f739_67e8);
    }
}
