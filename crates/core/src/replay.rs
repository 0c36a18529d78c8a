//! The replay loop: every access of every replay — in-memory traces,
//! struct-of-arrays batches, decoded `.ctr` chunks, observed or not —
//! reaches the simulator through [`replay_from`].

use std::borrow::Borrow;

use cnt_sim::trace::MemoryAccess;
use cnt_sim::AccessError;

use crate::{CntCache, CntHierarchy};

/// A simulator [`replay_from`] drives one demand access at a time.
pub trait Replay {
    /// Performs one demand access.
    ///
    /// # Errors
    ///
    /// Returns [`AccessError`] for malformed accesses.
    fn step(&mut self, access: &MemoryAccess) -> Result<(), AccessError>;
}

impl Replay for CntCache {
    fn step(&mut self, access: &MemoryAccess) -> Result<(), AccessError> {
        self.access(access).map(drop)
    }
}

impl Replay for CntHierarchy {
    fn step(&mut self, access: &MemoryAccess) -> Result<(), AccessError> {
        self.access(access).map(drop)
    }
}

/// Replays `accesses` through `target`, counting them from `start`, and
/// returns the count after the last one.
///
/// With `every = Some(e)`, `on_epoch(target, count)` runs each time the
/// count reaches a multiple of `e`. Boundaries are absolute, so a replay
/// split into pieces — chunk by chunk, or resumed from a checkpoint at
/// `start` — fires exactly where one uninterrupted pass would. Emitting
/// the trailing partial epoch is left to the caller
/// (`cnt_obs::EpochEmitter::finish`).
///
/// # Errors
///
/// Stops at and returns the first [`AccessError`].
///
/// # Panics
///
/// Panics if `every` is `Some(0)`.
pub fn replay_from<T, I>(
    target: &mut T,
    accesses: I,
    start: u64,
    every: Option<u64>,
    mut on_epoch: impl FnMut(&T, u64),
) -> Result<u64, AccessError>
where
    T: Replay,
    I: IntoIterator,
    I::Item: Borrow<MemoryAccess>,
{
    assert!(every != Some(0), "epoch length must be positive");
    let mut next = every.map(|every| start - start % every + every);
    let mut n = start;
    for access in accesses {
        target.step(access.borrow())?;
        n += 1;
        if next == Some(n) {
            on_epoch(target, n);
            next = every.map(|every| n + every);
        }
    }
    Ok(n)
}
