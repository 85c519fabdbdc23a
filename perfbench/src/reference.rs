//! A fixed reference workload that gauges how fast the host runs right now.
//!
//! On a shared host the same binary runs up to twice as fast in one minute
//! as in another, and the slow stretches last long enough to move a whole
//! pass. The untraced pass therefore runs one [`Reference`] round after
//! every configuration (and after every set-up synthesis) and reports host
//! time in *reference seconds*: host seconds scaled by how long the rounds
//! took against [`ROUND_S`]. A slow stretch slows the rounds in step with
//! the library, so the ratio holds still while the raw figures swing.
//!
//! A round fills a buffer with pseudo-random keys and sorts it: a mix of
//! ALU work, branches and cache traffic over a 1 MiB buffer, which tracked
//! the study's own slow-downs far more closely than a pure ALU loop, a DRAM
//! pointer chase or a binary-heap event loop did. The round is the
//! benchmark's own code and never calls the library, so a change to the
//! library cannot move it; its buffer is allocated once, before the heap
//! is measured.

use std::hint::black_box;
use std::time::Instant;

/// Keys sorted per round (1 MiB of `u64`).
const KEYS: usize = 1 << 17;
/// Nominal length of one round: a host second counts as one reference
/// second when a round takes this long.
pub const ROUND_S: f64 = 0.003;

/// The reference workload.
pub struct Reference {
    keys: Vec<u64>,
    rounds: u64,
}

impl Default for Reference {
    fn default() -> Self {
        Self::new()
    }
}

impl Reference {
    /// Allocates the buffer and runs one untimed warm-up round.
    pub fn new() -> Self {
        let mut r = Reference {
            keys: vec![0; KEYS],
            rounds: 0,
        };
        r.round();
        r
    }

    /// Runs one round and returns its host seconds. Round `k` sorts the
    /// keys of xorshift seed `k`, so every run does the same sequence.
    pub fn round(&mut self) -> f64 {
        let t = Instant::now();
        self.rounds += 1;
        let mut x = self.rounds.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        for (i, key) in self.keys.iter_mut().enumerate() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *key = i as u64 ^ x;
        }
        self.keys.sort_unstable_by_key(|k| k & 0xffff);
        black_box(&self.keys);
        t.elapsed().as_secs_f64()
    }
}
