//! A fixed reference computation that measures the host's current speed.
//!
//! The host this benchmark was written on shares its cores with other
//! machines, and its speed drifts by up to ±25% within seconds to minutes:
//! a 35 s run can fall wholly inside a fast or a slow spell. The benchmark
//! therefore times this kernel on the operations' own thread before the
//! first operation and after every [`Bracket::INTERVAL`] of them, and also
//! divides each operation's wall time by the kernel's mean time at the two
//! ends of its interval. A host spell slows both alike, so the quotient
//! cancels it; the end-to-end timing metrics read in multiples of the
//! kernel's time (unit `ref`). The kernel is the benchmark's own code, so no
//! change to the program can move it.
//!
//! A kernel timed on another thread tracks the operations far worse: the
//! host's cores slow down separately.

use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::report::median;

/// Kernel runs per measurement; the measurement is their median.
const RUNS: usize = 3;

/// Seconds one run of the reference kernel takes right now (median of
/// three runs, about 20 ms in all on a 2 GHz core).
pub fn reference_s() -> f64 {
    let times: Vec<f64> = (0..RUNS)
        .map(|_| {
            let start = Instant::now();
            black_box(kernel());
            start.elapsed().as_secs_f64()
        })
        .collect();
    median(&times)
}

/// Reference measurements around groups of operations.
#[derive(Debug)]
pub struct Bracket {
    opened: Instant,
    before: f64,
}

impl Bracket {
    /// Operations run back to back for at least this long between two
    /// measurements.
    pub const INTERVAL: Duration = Duration::from_millis(250);

    /// Measures the kernel and opens the first interval.
    pub fn open() -> Self {
        Bracket {
            before: reference_s(),
            opened: Instant::now(),
        }
    }

    /// Whether the open interval has lasted [`Bracket::INTERVAL`].
    pub fn due(&self) -> bool {
        self.opened.elapsed() >= Self::INTERVAL
    }

    /// Measures the kernel, closes the open interval and returns the
    /// kernel's mean time at its two ends; the next interval opens now.
    pub fn close(&mut self) -> f64 {
        let after = reference_s();
        let mean = 0.5 * (self.before + after);
        self.before = after;
        self.opened = Instant::now();
        mean
    }
}

/// A Gauss-Newton normal matrix `JᵀJ` of a 512×160 Jacobian (a working set
/// the size of a calibration fit's) and a binary heap (an event queue's
/// work) — the two kinds of work the workloads do.
fn kernel() -> f64 {
    const ROWS: usize = 512;
    const COLS: usize = 160;
    let jac: Vec<f64> = (0..ROWS * COLS)
        .map(|i| ((i * 7919) % 1000) as f64 * 1e-3)
        .collect();
    let mut normal = vec![0.0; COLS * COLS];
    for r in 0..ROWS {
        let row = black_box(&jac[r * COLS..(r + 1) * COLS]);
        for (a, &ja) in row.iter().enumerate() {
            for (b, &jb) in row.iter().enumerate() {
                normal[a * COLS + b] += ja * jb;
            }
        }
    }
    let mut heap = BinaryHeap::with_capacity(4096);
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut acc = 0u64;
    for _ in 0..4 {
        for _ in 0..4096 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            heap.push(black_box(x));
        }
        while let Some(v) = heap.pop() {
            acc = acc.wrapping_add(v);
        }
    }
    normal.iter().sum::<f64>() + (acc % 1024) as f64
}
