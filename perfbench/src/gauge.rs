//! A fixed reference kernel, timed between operations, that reads how fast
//! the host runs this process at that moment.
//!
//! On a shared host, other tenants slow a process by up to 2× for seconds
//! to minutes at a time, in wall and CPU time alike, with little steal
//! time to show for it. The end-to-end timings are therefore scaled by how
//! long this kernel took around the operation, relative to
//! [`REFERENCE_MS`]: a slowdown that hits the kernel and the program alike
//! cancels out, while a change to the program leaves the kernel alone (it
//! is the benchmark's own code and calls nothing in the library). The raw
//! timings are printed beside the scaled ones.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::stats::median;

/// What the kernel takes on a quiet host of the kind the benchmark was
/// written on (a 2-core x86-64 VM). Scaled times read as times on a host
/// where the kernel takes this long.
pub const REFERENCE_MS: f64 = 2.5;

/// Readings a scale factor is the median of: the latest and the two
/// before it, so one jittery reading does not set the factor alone.
const WINDOW: usize = 3;

/// The kernel's own memory (about 1.3 MB), allocated once, so a reading
/// never calls the allocator and does not depend on how the program left
/// the heap. It is not warmed up: every operation timed here evicts it
/// from the caches, and reloading it is part of what a busy host slows
/// down (a warmed-up kernel followed the program's slowdowns far worse).
#[derive(Debug)]
struct Kernel {
    counts: HashMap<u64, u64>,
    a: Vec<u64>,
    b: Vec<u64>,
    sorted: Vec<u64>,
}

impl Kernel {
    fn new() -> Self {
        Kernel {
            counts: HashMap::with_capacity(1 << 16),
            a: vec![0; 4096],
            b: vec![0; 4096],
            sorted: vec![0; 1 << 15],
        }
    }

    /// One run, in milliseconds: hashing into a small map, popcounts over
    /// two short bitmaps, and a sort, about what an audit's inner loops do.
    fn run_ms(&mut self) -> f64 {
        let start = Instant::now();
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        self.counts.clear();
        for _ in 0..1 << 15 {
            *self.counts.entry(next() & 0xffff).or_default() += 1;
        }
        self.a.iter_mut().for_each(|w| *w = next());
        self.b.iter_mut().for_each(|w| *w = next());
        let mut ones = 0u64;
        for _ in 0..200 {
            ones += black_box(&self.a)
                .iter()
                .zip(black_box(&self.b))
                .map(|(x, y)| u64::from((x & y).count_ones()))
                .sum::<u64>();
        }
        self.sorted.iter_mut().for_each(|w| *w = next());
        self.sorted.sort_unstable();
        black_box((self.counts.len(), ones, self.sorted[7]));
        start.elapsed().as_secs_f64() * 1e3
    }
}

/// `ms` measured while the kernel took `kernel_ms`, as it would read on
/// the reference host.
pub fn scaled(ms: f64, kernel_ms: f64) -> f64 {
    ms * REFERENCE_MS / kernel_ms.max(1e-9)
}

/// The kernel's readings over a run.
#[derive(Debug)]
pub struct Gauge {
    kernel: Kernel,
    readings: Vec<f64>,
    last: Option<Instant>,
}

impl Gauge {
    /// A gauge with no readings yet.
    pub fn new() -> Self {
        Gauge {
            kernel: Kernel::new(),
            readings: Vec::new(),
            last: None,
        }
    }

    /// Takes one reading of the kernel and keeps it.
    pub fn read(&mut self) {
        let ms = self.kernel.run_ms();
        self.push(ms);
        self.last = Some(Instant::now());
    }

    /// Reads unless the last reading is younger than `every`.
    pub fn read_every(&mut self, every: Duration) {
        if self.last.is_none_or(|t| t.elapsed() >= every) {
            self.read();
        }
    }

    fn push(&mut self, kernel_ms: f64) {
        self.readings.push(kernel_ms);
    }

    /// The kernel time now: the median of the latest [`WINDOW`] readings.
    pub fn current_ms(&self) -> f64 {
        let from = self.readings.len().saturating_sub(WINDOW);
        median(&self.readings[from..])
    }

    /// `ms` scaled by the current kernel time (see [`scaled`]).
    pub fn scale(&self, ms: f64) -> f64 {
        scaled(ms, self.current_ms())
    }

    /// Median of every reading of the run.
    pub fn median_ms(&self) -> f64 {
        median(&self.readings)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_slower_host_scales_back_to_the_reference() {
        // Twice the reference kernel time: a 10 ms operation reads 5 ms.
        assert_eq!(scaled(10.0, 2.0 * REFERENCE_MS), 5.0);
        assert_eq!(scaled(10.0, REFERENCE_MS), 10.0);
    }

    #[test]
    fn the_factor_is_the_median_of_the_latest_readings() {
        let mut g = Gauge::new();
        for r in [9.0, 2.0, 100.0, 3.0] {
            g.push(r);
        }
        // The latest three are 2, 100 and 3: one jittery reading does not
        // move the factor.
        assert_eq!(g.current_ms(), 3.0);
        assert_eq!(g.scale(6.0), 6.0 * REFERENCE_MS / 3.0);
        assert_eq!(g.median_ms(), 6.0);
    }

    #[test]
    fn a_reading_takes_time() {
        let mut g = Gauge::new();
        g.read();
        assert!(g.current_ms() > 0.0);
    }
}
