//! Host-speed calibration. The machine the benchmark runs on is shared, and
//! its speed drifts by tens of percent over seconds to minutes as other
//! tenants come and go. A fixed kernel that owes nothing to the simulator
//! is timed before every run; its slowdown tracks the simulator's, so host
//! times are scaled by `REFERENCE_S / kernel time`, which expresses them at
//! the speed the machine had when the reference was taken. Medians track
//! better than minima: over five minutes of alternating kernel and
//! `wide-short` runs, median run time over median kernel time spread by
//! 2.6% across 20 s windows, the uncalibrated median by 4.2%, and the
//! minimum over the minimum by 10.7%.

use std::hint::black_box;
use std::time::Instant;

/// The kernel's median time on the reference machine in a quiet period
/// (see `README.md` for the hardware).
pub const REFERENCE_S: f64 = 0.0225;

/// Six sorts of 200,000 pseudo-random 64-bit keys.
pub struct Kernel {
    keys: Vec<u64>,
}

impl Kernel {
    pub fn new() -> Kernel {
        Kernel { keys: (0..200_000u64).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 7).collect() }
    }

    /// Host time of one pass of the kernel.
    pub fn time_s(&self) -> f64 {
        let t = Instant::now();
        for _ in 0..6 {
            let mut keys = black_box(self.keys.clone());
            keys.sort_unstable();
            black_box(&keys);
        }
        t.elapsed().as_secs_f64()
    }
}
