//! Host-speed calibration.
//!
//! On a shared host the CPUs run at speeds that drift by tens of percent
//! within minutes, so a raw host time says as much about the neighbours as
//! about the code. Every host time the benchmark reports is therefore
//! rescaled to a reference speed: a fixed kernel, written here and sharing
//! no code with the repository, is timed on the same CPU right before and
//! right after the measured work, and the work's time is divided by
//! `kernel time / REFERENCE_KERNEL_S`. A change to the repository moves the
//! work's time but not the kernel's, so it still shows in full; a host that
//! slows both down by the same factor cancels out.
//!
//! No single kernel slows down the way the simulator does on every kind
//! of contention, so the kernel mixes four parts, each a stand-in for one
//! kind of work the repository does: a binary-heap event queue with random
//! table updates and small allocations (the DES loop), float formatting and
//! parsing into a string (the JSON encoder and parser), hash-map updates
//! (report aggregation), and a pointer chase through a 4 MiB cycle, twice
//! the per-core L2 of the reference host, which waits on the shared
//! last-level cache. The cycle stays resident: [`RESIDENT_MIB`].
//!
//! On the shared 2-vCPU reference host, three recorded episodes of five to
//! seven minutes slowed a simulation, a JSON parse and encode and a
//! schedule by 40–90% between 20 s windows. Divided by weighted sums of
//! these parts' times, their times moved by a sixth to a half as much.
//! Which part alone tracked them best differed from episode to episode.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::fmt::Write as _;
use std::sync::OnceLock;
use std::time::Instant;

/// The scale of reported host times, s: a kernel reading this long counts
/// as slowdown 1. It is of the order of the kernel's time on an unloaded
/// 2-vCPU x86-64 host; changing it scales every reported host time by the
/// same factor.
pub const REFERENCE_KERNEL_S: f64 = 0.000_4;

/// Events the heap part pops and pushes.
const HEAP_EVENTS: u32 = 2_000;
/// Table the heap part reads and writes: 32 Ki entries of 8 bytes.
const TABLE_LEN: usize = 1 << 15;
/// Numbers the format part writes and parses back.
const FORMAT_NUMBERS: u32 = 400;
/// Updates of the hash-map part, over this many keys.
const HASH_UPDATES: u64 = 2_700;
const HASH_KEYS: u64 = 1_000;
/// Entries of the pointer-chase cycle: 4 MiB of `u64`.
const CHASE_LEN: usize = 1 << 19;
/// Memory the calibration keeps resident, MiB.
pub const RESIDENT_MIB: f64 = (CHASE_LEN * std::mem::size_of::<u64>()) as f64 / 1_048_576.0;
/// Dependent loads of the chase part.
const CHASE_STEPS: usize = 2_000;
/// Kernel runs per reading; the fastest one is kept, so a preemption in
/// one run does not read as a slow host.
const RUNS_PER_READING: usize = 3;

/// A random cyclic permutation of `0..CHASE_LEN` (Sattolo's algorithm),
/// built once and kept resident.
fn chase_cycle() -> &'static [u64] {
    static CYCLE: OnceLock<Vec<u64>> = OnceLock::new();
    CYCLE.get_or_init(|| {
        let mut next = xorshift(0x2545_f491_4f6c_dd1d);
        let mut cycle: Vec<u64> = (0..CHASE_LEN as u64).collect();
        for i in (1..CHASE_LEN).rev() {
            let j = (next() % i as u64) as usize;
            cycle.swap(i, j);
        }
        cycle
    })
}

fn xorshift(mut state: u64) -> impl FnMut() -> u64 {
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    }
}

/// One run of the fixed kernel; returns a checksum so that no part of it
/// can be optimised away.
#[must_use]
pub fn kernel() -> u64 {
    let mut next = xorshift(0x9e37_79b9_7f4a_7c15);

    let mut table = vec![0u64; TABLE_LEN];
    let mut heap = BinaryHeap::with_capacity(1024);
    for id in 0..1024u32 {
        heap.push(Reverse((next() % 1_000_000, id)));
    }
    let mut acc = 0.0f64;
    let mut sum = 0u64;
    for _ in 0..HEAP_EVENTS {
        let Reverse((t, id)) = heap.pop().expect("the queue never empties");
        let r = next();
        let slot = (r as usize) & (TABLE_LEN - 1);
        table[slot] = table[slot].wrapping_add(t ^ u64::from(id));
        sum = sum.wrapping_add(table[(slot * 7 + 3) & (TABLE_LEN - 1)]);
        acc += (r >> 11) as f64 * 1e-9;
        acc *= 0.999_999;
        if id % 16 == 0 {
            let buf: Vec<u8> = (0..64u8).map(|b| b ^ (r as u8)).collect();
            sum = sum.wrapping_add(buf.iter().map(|&b| u64::from(b)).sum::<u64>());
        }
        heap.push(Reverse((t + 1 + r % 10_000, id)));
    }

    let mut text = String::new();
    let mut x = 1.234_5f64;
    for i in 0..FORMAT_NUMBERS {
        text.clear();
        x = x * 1.000_173 + f64::from(i) * 0.37;
        let _ = write!(text, "{{\"k{i}\":{x},\"v\":[{},{i}]}}", x * 0.5);
        let value = &text[text.find(':').map_or(0, |p| p + 1)..text.find(',').unwrap_or(0)];
        acc += value.parse::<f64>().unwrap_or(0.0);
    }

    let mut counts: HashMap<u64, u64> = HashMap::new();
    for i in 0..HASH_UPDATES {
        *counts.entry(next() % HASH_KEYS).or_insert(0) += i;
    }
    sum = sum.wrapping_add(counts.len() as u64);

    let cycle = chase_cycle();
    let mut at = 0usize;
    for _ in 0..CHASE_STEPS {
        at = cycle[at] as usize;
    }
    std::hint::black_box(sum ^ acc.to_bits() ^ at as u64)
}

/// Wall time of one kernel run on the calling thread's CPU, seconds.
#[must_use]
pub fn kernel_once_s() -> f64 {
    let start = Instant::now();
    std::hint::black_box(kernel());
    start.elapsed().as_secs_f64()
}

/// Wall time of the fastest of a few kernel runs on the calling thread's
/// CPU, seconds.
#[must_use]
pub fn kernel_s() -> f64 {
    (0..RUNS_PER_READING)
        .map(|_| kernel_once_s())
        .fold(f64::INFINITY, f64::min)
}

/// How much slower than the reference host the calling thread's CPU ran
/// around a piece of work, from kernel readings taken before and after it.
#[must_use]
pub fn slowdown(before_s: f64, after_s: f64) -> f64 {
    0.5 * (before_s + after_s) / REFERENCE_KERNEL_S
}

/// Kernel time averaged over `cpus`, pinning the calling thread to each
/// in turn and releasing it afterwards: the reading for work that fans out
/// to threads on every CPU.
#[must_use]
pub fn kernel_s_on_all(cpus: &crate::sys::CpuRotation) -> f64 {
    let n = cpus.len().max(1);
    let total: f64 = (0..n)
        .map(|k| {
            cpus.pin(k);
            kernel_s()
        })
        .sum();
    cpus.release();
    total / n as f64
}

/// Time `f` and return its result with its wall time, its process CPU and
/// the slowdown around it, taken by `reading` before and after.
pub fn timed<R>(reading: impl Fn() -> f64, f: impl FnOnce() -> R) -> (R, Timing) {
    let before = reading();
    let cpu0 = crate::sys::process_cpu_ns();
    let start = Instant::now();
    let out = f();
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_s = crate::sys::process_cpu_ns().saturating_sub(cpu0) as f64 / 1e9;
    let after = reading();
    (
        out,
        Timing {
            wall_s,
            cpu_s,
            slowdown: slowdown(before, after),
        },
    )
}

/// Raw host times of one piece of work and the host slowdown around it.
#[derive(Debug, Clone, Copy, Default)]
pub struct Timing {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub slowdown: f64,
}

impl Timing {
    /// Wall time at the reference speed.
    #[must_use]
    pub fn wall_ref_s(&self) -> f64 {
        self.wall_s / self.slowdown
    }

    /// Process CPU at the reference speed.
    #[must_use]
    pub fn cpu_ref_s(&self) -> f64 {
        self.cpu_s / self.slowdown
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic() {
        assert_eq!(kernel(), kernel());
    }

    #[test]
    fn chase_visits_every_entry_in_one_cycle() {
        let cycle = chase_cycle();
        let mut at = 0usize;
        for step in 1..=CHASE_LEN {
            at = cycle[at] as usize;
            assert_eq!(
                at == 0,
                step == CHASE_LEN,
                "back at the start after {step} steps"
            );
        }
    }

    #[test]
    fn slowdown_is_relative_to_the_reference() {
        assert_eq!(slowdown(REFERENCE_KERNEL_S, REFERENCE_KERNEL_S), 1.0);
        assert_eq!(slowdown(REFERENCE_KERNEL_S, 3.0 * REFERENCE_KERNEL_S), 2.0);
        let t = Timing {
            wall_s: 4.0,
            cpu_s: 3.0,
            slowdown: 2.0,
        };
        assert_eq!(t.wall_ref_s(), 2.0);
        assert_eq!(t.cpu_ref_s(), 1.5);
    }
}
