//! Sample collection and the end-to-end metrics computed from it.

use std::time::{Duration, Instant};

/// The `q`-quantile (0..=1) of `samples`, by linear interpolation
/// between the two nearest ranks. `samples` need not be sorted.
#[must_use]
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `samples`.
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Peak resident set (`VmHWM`) of process `pid` (`None` = this process),
/// in MiB, or 0 where `/proc` is unavailable.
#[must_use]
pub fn peak_rss_mb(pid: Option<u32>) -> f64 {
    let path = pid.map_or_else(|| String::from("/proc/self/status"), |p| format!("/proc/{p}/status"));
    std::fs::read_to_string(path)
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Resets the peak resident set of process `pid` (`None` = this
/// process) to its current size, so the next [`peak_rss_mb`] covers only
/// what runs after. A no-op where `/proc/PID/clear_refs` is unavailable.
pub fn reset_peak_rss(pid: Option<u32>) {
    let path = pid.map_or_else(|| String::from("/proc/self/clear_refs"), |p| format!("/proc/{p}/clear_refs"));
    let _ = std::fs::write(path, "5");
}

/// Fewest requests in a latency block: enough that at least 10 lie
/// beyond the block's 95th percentile. A phase is cut into blocks of
/// whole passes, and the latency percentiles are the median over blocks
/// of each block's percentile (see [`Phase::p95_ms`]).
pub const BLOCK_SAMPLES: usize = 200;

/// The time box of one phase: passes run until it expires (and at least
/// one pass runs).
pub struct Clock {
    start: Instant,
    length: Duration,
}

impl Clock {
    /// A time box of `length`, starting now.
    #[must_use]
    pub fn new(length: Duration) -> Clock {
        Clock {
            start: Instant::now(),
            length,
        }
    }

    /// Whether `phase` should run another pass.
    #[must_use]
    pub fn next_pass(&self, phase: &Phase) -> bool {
        phase.pass_walls_s.is_empty() || self.start.elapsed() < self.length
    }
}

/// What a timed phase observed: one latency per request, one wall time
/// per pass.
#[derive(Debug, Default)]
pub struct Phase {
    /// Request latencies, ms.
    pub latencies_ms: Vec<f64>,
    /// Index into `latencies_ms` where each complete block ends.
    block_ends: Vec<usize>,
    /// Pass wall times, s.
    pub pass_walls_s: Vec<f64>,
    /// Peak resident set of the serving process during each pass, MiB.
    pub pass_peak_rss_mb: Vec<f64>,
    /// Requests in one pass.
    pub requests_per_pass: usize,
    /// Requests issued.
    pub attempted: u64,
    /// Requests whose answer the oracle refused.
    pub failed: u64,
}

impl Phase {
    /// Records one request.
    pub fn request(&mut self, latency: Duration, accepted: bool) {
        self.latencies_ms.push(latency.as_secs_f64() * 1e3);
        self.attempted += 1;
        if !accepted {
            self.failed += 1;
        }
    }

    /// Ends a pass that started at `t0`.
    pub fn end_pass(&mut self, t0: Instant, requests: usize, pid: Option<u32>) {
        self.record_pass(t0.elapsed(), peak_rss_mb(pid), requests);
    }

    /// Records a finished pass of `requests` requests, closing the
    /// current latency block once it holds [`BLOCK_SAMPLES`].
    pub fn record_pass(&mut self, wall: Duration, peak_rss_mb: f64, requests: usize) {
        self.pass_walls_s.push(wall.as_secs_f64());
        self.pass_peak_rss_mb.push(peak_rss_mb);
        self.requests_per_pass = requests;
        let start = self.block_ends.last().copied().unwrap_or(0);
        if self.latencies_ms.len() - start >= BLOCK_SAMPLES {
            self.block_ends.push(self.latencies_ms.len());
        }
    }

    /// Median over passes of the serving process's peak resident set.
    #[must_use]
    pub fn peak_rss_mb(&self) -> f64 {
        median(&self.pass_peak_rss_mb)
    }

    /// The median over complete blocks of each block's `q`-quantile of
    /// request latency, ms (the pooled quantile if no block is complete).
    fn block_quantile(&self, q: f64) -> f64 {
        if self.block_ends.is_empty() {
            return quantile(&self.latencies_ms, q);
        }
        let starts = [0].into_iter().chain(self.block_ends.iter().copied());
        let per_block: Vec<f64> = starts
            .zip(&self.block_ends)
            .map(|(start, &end)| quantile(&self.latencies_ms[start..end], q))
            .collect();
        median(&per_block)
    }

    /// Median request latency, ms.
    #[must_use]
    pub fn p50_ms(&self) -> f64 {
        self.block_quantile(0.5)
    }

    /// 95th-percentile request latency, ms. A pass is a fixed multiset of
    /// requests, so its latency distribution has gaps between examples,
    /// and a pooled 95th percentile that sits near a gap jumps across it
    /// when a handful of requests are slowed from outside. The median
    /// over small blocks only moves when most blocks are disturbed.
    #[must_use]
    pub fn p95_ms(&self) -> f64 {
        self.block_quantile(0.95)
    }

    /// Requests per pass over the median pass wall time.
    #[must_use]
    pub fn verdicts_per_s(&self) -> f64 {
        let wall = median(&self.pass_walls_s);
        if wall > 0.0 {
            self.requests_per_pass as f64 / wall
        } else {
            0.0
        }
    }

    /// One stderr line describing the phase's sample counts.
    #[must_use]
    pub fn describe(&self, label: &str) -> String {
        let blocks = self.block_ends.len();
        let smallest = [0].into_iter().chain(self.block_ends.iter().copied()).zip(&self.block_ends).map(|(s, &e)| e - s).min();
        let beyond_p95 = smallest.unwrap_or(self.latencies_ms.len()) / 20;
        let wall_ms = |q| quantile(&self.pass_walls_s, q) * 1e3;
        format!(
            "{label}: {} requests in {} passes of {} and {} blocks; ≥ {} samples beyond p95 in every block; p50 {:.4} ms, p95 {:.4} ms, {:.2} verdicts/s; \
             pass wall q1/median/q3 {:.3}/{:.3}/{:.3} ms",
            self.latencies_ms.len(),
            self.pass_walls_s.len(),
            self.requests_per_pass,
            blocks,
            beyond_p95,
            self.p50_ms(),
            self.p95_ms(),
            self.verdicts_per_s(),
            wall_ms(0.25),
            wall_ms(0.5),
            wall_ms(0.75)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_percentiles_are_medians_over_blocks() {
        let mut phase = Phase::default();
        for (block, base) in [10.0, 20.0, 1000.0].into_iter().enumerate() {
            for i in 0..BLOCK_SAMPLES {
                let ms = base + i as f64 / BLOCK_SAMPLES as f64;
                phase.request(Duration::from_secs_f64(ms / 1e3), true);
            }
            phase.record_pass(Duration::from_secs(1), 1.0, BLOCK_SAMPLES);
            assert_eq!(phase.block_ends.len(), block + 1);
        }
        // The burst block (1000 ms) does not move either percentile.
        assert!((phase.p50_ms() - 20.4975).abs() < 1e-9, "{}", phase.p50_ms());
        assert!(phase.p95_ms() < 21.0, "{}", phase.p95_ms());
    }

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert!((median(&v) - 2.5).abs() < 1e-12);
        assert!((quantile(&v, 1.0) - 4.0).abs() < 1e-12);
        assert!((quantile(&v, 0.0) - 1.0).abs() < 1e-12);
    }
}
