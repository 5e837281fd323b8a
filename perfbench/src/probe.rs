//! The reference probe: a fixed computation timed just before and just
//! after each work item, on the same thread, so that the host's speed at
//! that moment can be divided out of the item's time.
//!
//! Other tenants of a shared host slow this benchmark by up to 2× for
//! seconds to minutes at a time, so the same work can take twice as long
//! in one run as in the next. The probe slows with it: the time metrics
//! are therefore reported in probe units (`ref`), an item's time over
//! the mean time of the probes around it. The probe does what the
//! workloads do at their core — an affine address stream over three
//! 256×256 arrays, generated in 64K-access segments and run through a
//! 512-line direct-mapped cache and a 32-set 16-way LRU cache — with no
//! code from the repository's crates, so it does not change when the
//! program does: a faster program gives smaller `ref` figures.

use std::cell::RefCell;
use std::hint::black_box;
use std::time::Instant;

/// Accesses per generated segment.
const SEGMENT: usize = 1 << 16;
/// Segments per probe: about 1.5 ms on a 2020s x86 core.
const SEGMENTS: usize = 4;
const N: u64 = 256;

thread_local! {
    /// Each thread's segment buffer, kept between probes: a buffer this
    /// size freed after every probe is unmapped, and unmapping memory
    /// interrupts the process's other threads, the pool's workers.
    static BUFFER: RefCell<Vec<u64>> = RefCell::new(vec![0; SEGMENT]);
}

/// The probe's work; returns its miss count so none of it is dead.
fn work() -> u64 {
    BUFFER.with_borrow_mut(|segment| simulate(segment))
}

fn simulate(segment: &mut [u64]) -> u64 {
    let mut direct = [u64::MAX; 512];
    let mut sets = [[u64::MAX; 16]; 32];
    let bases = [0, N * N * 8 + 64, 2 * N * N * 8 + 4096];
    let mut misses = 0u64;
    let mut position = 0u64;
    for _ in 0..SEGMENTS {
        for (k, address) in segment.iter_mut().enumerate() {
            let index = position + k as u64 / 3;
            *address = bases[k % 3] + (index / N % N * N + index % N) * 8;
        }
        position += SEGMENT as u64 / 3;
        for &address in black_box(&*segment) {
            let line = address >> 5;
            let slot = &mut direct[(line & 511) as usize];
            if *slot != line {
                *slot = line;
                misses += 1;
            }
            let set = &mut sets[(line & 31) as usize];
            match set.iter().position(|&tag| tag == line) {
                Some(way) => set[..=way].rotate_right(1),
                None => {
                    set.rotate_right(1);
                    set[0] = line;
                    misses += 1;
                }
            }
        }
    }
    misses
}

/// Runs one probe on the calling thread.
pub fn run() {
    black_box(work());
}

/// Seconds one probe takes on the calling thread.
pub fn time() -> f64 {
    let start = Instant::now();
    run();
    start.elapsed().as_secs_f64()
}

/// Mean seconds of one probe run on each of `threads` threads at once.
pub fn time_on(threads: usize) -> f64 {
    let total: f64 = std::thread::scope(|scope| {
        let runs: Vec<_> = (0..threads.max(1)).map(|_| scope.spawn(time)).collect();
        runs.into_iter()
            .map(|run| run.join().expect("probe thread panicked"))
            .sum()
    });
    total / threads.max(1) as f64
}
