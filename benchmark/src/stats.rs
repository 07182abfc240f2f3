//! Sample statistics and the process's own resource readings.
//!
//! `obs::Histogram` floors at 1 ms, so the benchmark keeps raw samples
//! and computes medians and tail percentiles itself.

/// Kernel clock ticks per second for `/proc/self/stat` times. Linux
/// fixes `USER_HZ` at 100 on every architecture this runs on.
const TICKS_PER_SEC: f64 = 100.0;

/// Median of `values` (mean of the two middle samples when even).
/// Returns 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Nearest-rank percentile of an ascending slice (`p` in 0..=100).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest of p90, p99, p99.9 and p99.99 that still has at least
/// ten samples beyond it, with its value; `None` below 100 samples.
pub fn tail(sorted: &[f64]) -> Option<(f64, f64)> {
    // In parts per ten thousand, so that "ten beyond" is whole-number
    // arithmetic: 100 × (1 − 0.9) is not 10 in floating point.
    [9_999usize, 9_990, 9_900, 9_000]
        .into_iter()
        .map(|parts| (parts, (sorted.len() * parts).div_ceil(10_000)))
        .find(|(_, rank)| sorted.len() - rank >= 10)
        .map(|(parts, rank)| (parts as f64 / 100.0, sorted[rank - 1]))
}

/// `values` sorted ascending.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut out = values.to_vec();
    out.sort_by(f64::total_cmp);
    out
}

/// Parses `utime + stime` (seconds) out of a `/proc/<pid>/stat` line.
/// The command name may itself contain spaces and parentheses, so the
/// fields are counted from the last `)`.
pub fn parse_stat_cpu_secs(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // After the command: state is field 3, utime 14, stime 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / TICKS_PER_SEC)
}

/// Parses `VmHWM` (peak resident set, MiB) out of `/proc/<pid>/status`.
pub fn parse_status_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_ascii_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// CPU seconds (user + system, all threads, exited ones included) this
/// process has used so far.
pub fn process_cpu_secs() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat_cpu_secs(&s))
        .expect("/proc/self/stat is readable on Linux")
}

/// Peak resident set size of this process so far, MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_status_hwm_mb(&s))
        .expect("/proc/self/status is readable on Linux")
}

/// SplitMix64: the benchmark's only randomness, so that a seed fixes
/// every generated input without depending on the workspace's RNG.
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (`bound > 0`); the modulo bias is below
    /// 2⁻⁴⁰ for the bounds used here.
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        let samples = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        assert_eq!(tail(&samples(99)), None);
        assert_eq!(tail(&samples(100)), Some((90.0, 90.0)));
        assert_eq!(tail(&samples(999)).unwrap().0, 90.0);
        assert_eq!(tail(&samples(1_000)), Some((99.0, 990.0)));
        assert_eq!(tail(&samples(10_000)), Some((99.9, 9_990.0)));
        assert_eq!(tail(&samples(100_000)), Some((99.99, 99_990.0)));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&s, 50.0), 2.0);
        assert_eq!(percentile(&s, 75.0), 3.0);
        assert_eq!(percentile(&s, 100.0), 4.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
    }

    #[test]
    fn stat_line_with_hostile_command_name_parses() {
        // utime = 250 ticks, stime = 50 ticks.
        let line = "4242 (e2e) bench (x) S 1 4242 4242 0 -1 4194304 100 0 0 0 250 50 0 0 20 0 3 0 1000 1 2";
        assert_eq!(parse_stat_cpu_secs(line), Some(3.0));
        assert_eq!(parse_stat_cpu_secs("garbage"), None);
        assert_eq!(parse_stat_cpu_secs("1 (x) S 1 2"), None);
    }

    #[test]
    fn status_hwm_parses() {
        let status = "Name:\te2ebench\nVmPeak:\t  900000 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_status_hwm_mb(status), Some(20.0));
        assert_eq!(parse_status_hwm_mb("Name: x\n"), None);
    }

    #[test]
    fn own_process_readings_are_positive() {
        assert!(process_cpu_secs() >= 0.0);
        assert!(peak_rss_mb() > 0.0);
    }

    #[test]
    fn splitmix_is_a_function_of_its_seed() {
        let draw = |seed| {
            let mut rng = SplitMix64::new(seed);
            (0..8).map(|_| rng.below(1_000)).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
    }
}
