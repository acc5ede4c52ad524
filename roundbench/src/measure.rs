//! Clocks, memory, and order statistics.

use std::time::{Duration, Instant};

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time consumed by every thread of this process so far.
pub fn process_cpu() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Wall and CPU time of one window.
pub struct Window {
    wall: Instant,
    cpu: Duration,
}

impl Window {
    pub fn open() -> Window {
        Window {
            cpu: process_cpu(),
            wall: Instant::now(),
        }
    }

    /// `(wall, cpu)` elapsed since [`Window::open`].
    pub fn close(self) -> (Duration, Duration) {
        let wall = self.wall.elapsed();
        (wall, process_cpu().saturating_sub(self.cpu))
    }
}

/// Peak resident set (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Duration samples in milliseconds.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    ms: Vec<f64>,
}

impl Samples {
    pub fn push(&mut self, d: Duration) {
        self.ms.push(d.as_secs_f64() * 1e3);
    }

    pub fn push_ms(&mut self, ms: f64) {
        self.ms.push(ms);
    }

    pub fn values(&self) -> &[f64] {
        &self.ms
    }

    pub fn len(&self) -> usize {
        self.ms.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ms.is_empty()
    }

    pub fn sum_ms(&self) -> f64 {
        self.ms.iter().sum()
    }

    /// Quantile `q` in `[0, 1]`, linear interpolation between order
    /// statistics.
    pub fn quantile(&self, q: f64) -> f64 {
        quantile(&self.ms, q)
    }

    pub fn p50(&self) -> f64 {
        self.quantile(0.5)
    }
}

/// Quantile of unsorted `values` (linear interpolation); 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}
