//! Host-speed calibration.
//!
//! On a shared host the same code can run 30–50% slower for tens of
//! seconds at a time while a neighbour loads the machine; the process is
//! on the CPU the whole time (no steal, no run-queue wait), it simply runs
//! slower. A reference kernel interleaved with the workload slows down with
//! it: a breadth-first search over a fixed random site lattice, branchy and
//! memory-touching like the percolation and mapping code, but frozen in
//! the benchmark's own source so that no change to the program under test
//! can move it. Every timing a run reports is scaled by
//! `NOMINAL_SLICE_S / (reference slice time around it)`, which puts it on
//! the scale of a host running the reference at its nominal speed. The
//! raw values are printed next to the scaled ones.
//!
//! The two vCPUs do not slow down together, so a reference measured on
//! one says little about work running on the other. A run whose work runs
//! on a session lane thread therefore pins itself, and every thread it
//! starts, to the CPU it began on ([`pin_to_current_cpu`]); every timed
//! phase has at most one busy thread at a time, so the pin costs no
//! parallelism.

use std::time::{Duration, Instant};

use crate::stats::median;

/// Reference slice time the scaled timings are expressed against: the
/// slice's median on the 2-vCPU host the benchmark was written on.
const NOMINAL_SLICE_S: f64 = 2.3e-3;
/// Operation time between two reference bursts.
const INTERVAL_S: f64 = 0.2;
/// Bursts this close to an operation set its scale factor.
const WINDOW_S: f64 = 0.5;
const SIDE: usize = 240;
/// Share of open sites, above the site-percolation threshold so that the
/// searches cover most of the lattice.
const OPEN_PERCENT: u64 = 62;
/// Searches per slice, started at evenly spaced sites of the first row.
const STARTS: usize = 8;
/// Slices per burst.
const BURST: usize = 3;

/// How much more the workloads slow down than the reference does: over
/// traces of several minutes on the 2-vCPU host, a workload's time went as
/// the reference's time to this power (≈ 1.3 for layer generation with
/// modular renormalization and for compiles alike).
const ELASTICITY: f64 = 1.3;

fn scale_to_nominal(slice_s: f64) -> f64 {
    if slice_s > 0.0 {
        (NOMINAL_SLICE_S / slice_s).powf(ELASTICITY)
    } else {
        1.0
    }
}

/// Pins the calling thread, and every thread it starts afterwards, to the
/// CPU it is running on. Returns that CPU, or `None` where the pin could
/// not be set (the run then goes on unpinned).
#[cfg(target_os = "linux")]
pub fn pin_to_current_cpu() -> Option<usize> {
    extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    // SAFETY: `sched_getcpu` takes no arguments and only reports the CPU
    // the calling thread runs on.
    let cpu = usize::try_from(unsafe { sched_getcpu() }).ok()?;
    // A `cpu_set_t`: 1024 bits.
    let mut mask = [0u64; 16];
    *mask.get_mut(cpu / 64)? |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live, initialised 128-byte CPU set and its exact
    // size is passed; pid 0 names the calling thread, whose affinity is the
    // only state the call changes.
    let status = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    (status == 0).then_some(cpu)
}

/// Pinning is only implemented on Linux.
#[cfg(not(target_os = "linux"))]
pub fn pin_to_current_cpu() -> Option<usize> {
    None
}

/// The reference kernel and the slice times measured in one run.
///
/// Slices run in bursts of `BURST`; a burst's time is the median of its
/// slices. Bursts are taken before a phase, between set-ups, and between
/// operations once every `INTERVAL_S` of operation time, so every
/// operation has a burst shortly before it starts and shortly after it
/// ends.
#[derive(Debug)]
pub struct Calibrator {
    open: Vec<bool>,
    seen: Vec<u32>,
    queue: Vec<u32>,
    epoch: u32,
    /// `(end of burst, median slice seconds)` in time order.
    bursts: Vec<(Instant, f64)>,
    since_burst_s: f64,
}

impl Default for Calibrator {
    fn default() -> Self {
        let mut x = 0x1234_5678_9ABC_DEF0u64;
        let open = (0..SIDE * SIDE)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x % 100 < OPEN_PERCENT
            })
            .collect();
        Calibrator {
            open,
            seen: vec![0; SIDE * SIDE],
            queue: Vec::with_capacity(SIDE * SIDE),
            epoch: 0,
            bursts: Vec::new(),
            since_burst_s: 0.0,
        }
    }
}

impl Calibrator {
    /// Runs one burst of reference slices and records its median.
    pub fn burst(&mut self) {
        let mut slices = [0.0; BURST];
        for slice in &mut slices {
            let t = Instant::now();
            std::hint::black_box(self.slice());
            *slice = t.elapsed().as_secs_f64();
        }
        self.bursts.push((Instant::now(), median(&slices)));
        self.since_burst_s = 0.0;
    }

    /// Accounts for `op_s` seconds of workload and runs a burst once every
    /// `INTERVAL_S` of it.
    pub fn after_op(&mut self, op_s: f64) {
        self.since_burst_s += op_s;
        if self.since_burst_s >= INTERVAL_S {
            self.burst();
        }
    }

    /// Bursts measured.
    pub fn burst_count(&self) -> usize {
        self.bursts.len()
    }

    /// Median burst time in seconds.
    pub fn median_slice_s(&self) -> f64 {
        let times: Vec<f64> = self.bursts.iter().map(|&(_, s)| s).collect();
        median(&times)
    }

    /// Multiplier that puts a whole run on the nominal host scale.
    pub fn factor(&self) -> f64 {
        scale_to_nominal(self.median_slice_s())
    }

    /// Multiplier for work that ran from `start` to `end`: from the median
    /// of the bursts taken within `WINDOW_S` of it, or, when fewer than two
    /// were, of the last burst before it and the first after it.
    pub fn factor_between(&self, start: Instant, end: Instant) -> f64 {
        let window = Duration::from_secs_f64(WINDOW_S);
        let from = start.checked_sub(window).unwrap_or(start);
        let near: Vec<f64> = self
            .bursts
            .iter()
            .filter(|&&(t, _)| t >= from && t <= end + window)
            .map(|&(_, s)| s)
            .collect();
        if near.len() >= 2 {
            return scale_to_nominal(median(&near));
        }
        let before = self.bursts.iter().rev().find(|&&(t, _)| t <= start);
        let after = self.bursts.iter().find(|&&(t, _)| t >= end);
        let nearest: Vec<f64> = before.into_iter().chain(after).map(|&(_, s)| s).collect();
        if nearest.is_empty() {
            self.factor()
        } else {
            scale_to_nominal(median(&nearest))
        }
    }

    /// Sites reached by breadth-first searches from `STARTS` fixed sites.
    fn slice(&mut self) -> usize {
        let mut reached = 0;
        for start in (0..STARTS).map(|i| i * SIDE / STARTS) {
            self.epoch += 1;
            let epoch = self.epoch;
            if !self.open[start] {
                continue;
            }
            self.queue.clear();
            self.queue.push(start as u32);
            self.seen[start] = epoch;
            let mut head = 0;
            while head < self.queue.len() {
                let v = self.queue[head] as usize;
                head += 1;
                let (x, y) = (v % SIDE, v / SIDE);
                let mut neighbours = [usize::MAX; 4];
                if x + 1 < SIDE {
                    neighbours[0] = v + 1;
                }
                if x > 0 {
                    neighbours[1] = v - 1;
                }
                if y + 1 < SIDE {
                    neighbours[2] = v + SIDE;
                }
                if y > 0 {
                    neighbours[3] = v - SIDE;
                }
                for u in neighbours {
                    if u != usize::MAX && self.open[u] && self.seen[u] != epoch {
                        self.seen[u] = epoch;
                        self.queue.push(u as u32);
                    }
                }
            }
            reached += self.queue.len();
        }
        reached
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_is_deterministic_and_covers_the_spanning_cluster() {
        let mut a = Calibrator::default();
        let mut b = Calibrator::default();
        let reached = a.slice();
        assert_eq!(reached, b.slice());
        assert_eq!(reached, a.slice(), "repeated slices do the same work");
        // Just above the site threshold (0.593) some searches land in the
        // spanning cluster, so a slice visits more than half a lattice.
        assert!(reached > SIDE * SIDE / 2, "reached only {reached} sites");
    }
}
