//! Percentiles, process memory and host-noise readings.

/// Nearest-rank percentile `q` (0–100) of an ascending slice.
pub fn percentile(sorted: &[f64], q: u32) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (sorted.len() * q as usize).div_ceil(100).max(1);
    sorted[rank - 1]
}

/// Samples strictly above the nearest-rank percentile `q` of `n` samples.
pub fn beyond(n: usize, q: u32) -> usize {
    n - (n * q as usize).div_ceil(100).max(1)
}

/// The highest integer percentile of `n` samples with at least ten samples
/// beyond it (50 when `n` is too small for any).
pub fn tail_rank(n: usize) -> u32 {
    (50..=99).rev().find(|&q| beyond(n, q) >= 10).unwrap_or(50)
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Aggregate CPU tick counters from `/proc/stat`: `(steal, total)`.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuTicks {
    steal: u64,
    total: u64,
}

impl CpuTicks {
    /// Current host counters (zero where `/proc/stat` is unreadable).
    pub fn now() -> Self {
        let Ok(text) = std::fs::read_to_string("/proc/stat") else {
            return Self::default();
        };
        let Some(line) = text.lines().find(|l| l.starts_with("cpu ")) else {
            return Self::default();
        };
        // user nice system idle iowait irq softirq steal [guest guest_nice]
        let fields: Vec<u64> = line
            .split_whitespace()
            .skip(1)
            .take(8)
            .filter_map(|f| f.parse().ok())
            .collect();
        Self {
            steal: fields.get(7).copied().unwrap_or(0),
            total: fields.iter().sum(),
        }
    }

    /// Share of host ticks stolen by the hypervisor since `earlier`.
    pub fn steal_share_since(&self, earlier: &Self) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        if total == 0 {
            0.0
        } else {
            self.steal.saturating_sub(earlier.steal) as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50), 50.0);
        assert_eq!(percentile(&v, 90), 90.0);
        assert_eq!(beyond(100, 90), 10);
        assert_eq!(tail_rank(100), 90);
        assert_eq!(tail_rank(240), 95);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
