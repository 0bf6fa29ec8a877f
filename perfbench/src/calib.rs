//! Host-speed calibration. On a shared host the speed of the whole
//! machine drifts by tens of percent over seconds to minutes, which
//! swamps any change worth measuring. The benchmark therefore times a
//! fixed kernel of its own right after every sample and reports timings
//! scaled to a reference host on which the kernel takes
//! [`REFERENCE_S`]: `reported = measured × REFERENCE_S / kernel`, with
//! the kernel time smoothed over neighbouring samples. The kernel is
//! benchmark code doing the enactor's kind of work (allocation, string
//! keys, hashing, sorting, shared nodes, a priority queue, dynamic
//! calls). It runs on the thread that just ran the program, so it meets
//! the same host. Raw wall times are printed beside the scaled ones.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Kernel time on the reference host, in seconds.
pub const REFERENCE_S: f64 = 0.013;

/// Work items of the kernel's two halves.
const KEYS: u64 = 12_000;
const NODES: u64 = 20_000;

/// String keys through a hash map and a sort.
fn strings() -> u64 {
    let mut map = HashMap::with_capacity(KEYS as usize);
    let mut keys = Vec::with_capacity(KEYS as usize);
    for i in 0..KEYS {
        let key = format!("gfn://calibration/{i}/{}", i.wrapping_mul(0x9E37_79B9));
        map.insert(key.clone(), i);
        keys.push(key);
    }
    keys.sort_unstable();
    keys.iter().fold(0, |acc, k| acc ^ map[k])
}

/// Small shared nodes, a bounded priority queue and dynamic calls.
fn nodes() -> u64 {
    let calls: [Box<dyn Fn(f64) -> f64>; 2] = [Box::new(|x| x * 2.0), Box::new(|x| x + 1.0)];
    let mut heap = BinaryHeap::new();
    let mut map: HashMap<u64, Arc<Vec<u64>>> = HashMap::new();
    let mut acc = 0u64;
    for i in 0..NODES {
        let parent = map.get(&(i / 2)).map_or(0, |p| p[0]);
        map.insert(i, Arc::new(vec![i, parent]));
        heap.push(Reverse((i.wrapping_mul(0x9E37_79B9) % 1000, i)));
        if heap.len() > 64 {
            if let Some(Reverse((_, j))) = heap.pop() {
                acc ^= j;
            }
        }
        acc = acc.wrapping_add(calls[(i % 2) as usize](i as f64) as u64);
        if i % 3 == 0 {
            map.remove(&(i / 3));
        }
    }
    acc
}

/// Run the kernel once; the factor that scales a timing taken now to
/// the reference host (`> 1` when this host is currently faster).
pub fn factor() -> f64 {
    let t0 = Instant::now();
    black_box(strings() ^ nodes());
    REFERENCE_S / t0.elapsed().as_secs_f64()
}

/// Smooth per-sample factors with a running median over `±3` samples,
/// so the kernel's own noise does not enter each scaled sample.
pub fn smooth(factors: &[f64]) -> Vec<f64> {
    (0..factors.len())
        .map(|i| crate::stats::median(&factors[i.saturating_sub(3)..(i + 4).min(factors.len())]))
        .collect()
}
