//! Box-speed calibration for the workloads.
//!
//! A shared 2-vCPU box runs the simulator up to 2× slower for seconds to
//! minutes at a time as other tenants come and go, far beyond any bound
//! worth gating on. So between the ops of a workload the
//! benchmark times a reference kernel of its own — a small
//! set-associative LRU cache with data and a hash-map backing store,
//! replaying a fixed trace, on every thread the workloads use — and
//! scales each op's host time by how fast that kernel ran around it,
//! compared with [`REFERENCE_NS_PER_ACCESS`]. The kernel is this package's code and
//! its input is fixed, so no change to the program under test can move
//! it; it resembles the simulator closely enough to follow the box's
//! slow phases (a hash or table-walk loop does not).

use std::collections::HashMap;
use std::time::Instant;

use crate::inputs::mix;

/// Accesses in the calibration trace.
const ACCESSES: usize = 64 * 1024;

/// Lines the calibration trace touches: 128 KiB, twice the kernel's
/// cache, so it misses, evicts and writes back.
const FOOTPRINT_LINES: u64 = 2048;

/// The reference speed scaled host times are expressed at, as the
/// kernel's ns per access. A fixed round figure inside the range the
/// kernel ran at on the 2-vCPU Intel Xeon box the benchmark was tuned
/// on (36–52 ns per access); there, scaled times read between 23 %
/// below and 11 % above raw ones.
pub const REFERENCE_NS_PER_ACCESS: f64 = 40.0;

/// The factor a host time is multiplied by to express it at the
/// reference speed, given the calibration slots timed just before and
/// just after it (ns per access).
#[must_use]
pub fn factor(before: f64, after: f64) -> f64 {
    REFERENCE_NS_PER_ACCESS / ((before + after) / 2.0)
}

/// The fixed calibration trace: (line address, write value or `None`).
fn trace() -> Vec<(u64, Option<u64>)> {
    (0..ACCESSES as u64)
        .map(|i| {
            let r = mix(0xCA1B, i);
            // Product of two uniform draws: popularity skewed toward low
            // lines, like the workloads' hot sets.
            let line = (r % FOOTPRINT_LINES) * ((r >> 32) % FOOTPRINT_LINES) / FOOTPRINT_LINES;
            let addr = line * 64 + (r >> 20) % 8 * 8;
            let write = (r >> 40).is_multiple_of(5);
            (addr, write.then_some(r))
        })
        .collect()
}

/// Replays `trace` through a 32 KiB, 8-way, 64-byte-line LRU cache with
/// data; returns ns per access.
fn replay(trace: &[(u64, Option<u64>)]) -> f64 {
    const SETS: usize = 64;
    const WAYS: usize = 8;
    let mut tags = vec![u64::MAX; SETS * WAYS];
    let mut age = vec![0u32; SETS * WAYS];
    let mut dirty = vec![false; SETS * WAYS];
    let mut data = vec![0u64; SETS * WAYS * 8];
    let mut memory: HashMap<u64, [u64; 8]> = HashMap::new();
    let mut ones = 0u64;
    let t = Instant::now();
    for (clock, &(addr, write)) in trace.iter().enumerate() {
        let line = addr >> 6;
        let base = (line as usize % SETS) * WAYS;
        let way = match (0..WAYS).find(|&w| tags[base + w] == line) {
            Some(w) => w,
            None => {
                let victim = (0..WAYS)
                    .min_by_key(|&w| age[base + w])
                    .expect("ways are non-empty");
                let slot = base + victim;
                let words = &mut data[slot * 8..slot * 8 + 8];
                if dirty[slot] {
                    memory.insert(tags[slot], words.try_into().expect("eight words"));
                }
                words.copy_from_slice(&memory.get(&line).copied().unwrap_or([0; 8]));
                tags[slot] = line;
                dirty[slot] = false;
                victim
            }
        };
        let slot = base + way;
        age[slot] = clock as u32;
        let word = slot * 8 + (addr >> 3) as usize % 8;
        match write {
            Some(value) => {
                ones += u64::from((data[word] ^ value).count_ones());
                data[word] = value;
                dirty[slot] = true;
            }
            None => ones += u64::from(data[word].count_ones()),
        }
    }
    let ns = t.elapsed().as_secs_f64() * 1e9 / trace.len() as f64;
    std::hint::black_box(ones);
    ns
}

/// The reference kernel, ready to time.
pub struct Calibrator {
    trace: Vec<(u64, Option<u64>)>,
    threads: usize,
    samples: Vec<f64>,
}

impl Calibrator {
    /// A calibrator that times the kernel on `threads` threads at once.
    #[must_use]
    pub fn new(threads: usize) -> Calibrator {
        Calibrator {
            trace: trace(),
            threads: threads.max(1),
            samples: Vec::new(),
        }
    }

    /// Times one slot: the kernel on every thread at once; records and
    /// returns the mean ns per access.
    pub fn sample(&mut self) -> f64 {
        let trace = &self.trace;
        let per_thread: Vec<f64> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..self.threads)
                .map(|_| scope.spawn(|| replay(trace)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("calibration thread"))
                .collect()
        });
        let ns = per_thread.iter().sum::<f64>() / per_thread.len() as f64;
        self.samples.push(ns);
        ns
    }

    /// Slots timed so far.
    #[must_use]
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}
