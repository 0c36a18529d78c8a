//! Epoch snapshots of replay state.
//!
//! A [`Snapshot`] is a point-in-time capture of everything a replay
//! accumulates — per-level hit/miss statistics, the energy-breakdown
//! accumulators, encoding/predictor decision counters, and deferred
//! update FIFO occupancy — tagged with the replay's deterministic id and
//! epoch number so interleaved parallel emission can be reordered at the
//! sink (see [`crate::sink`]).

use serde::{Deserialize, Serialize};

use std::borrow::Borrow;

use cnt_cache::{
    replay_from, CntCache, CntHierarchy, EncodingCounters, ReliabilityCounters, Replay,
};
use cnt_encoding::FifoStats;
use cnt_energy::EnergyBreakdown;
use cnt_sim::trace::MemoryAccess;
use cnt_sim::{AccessError, CacheStats};

use crate::{scope, sink};

/// Deferred-update FIFO occupancy at snapshot time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FifoSnapshot {
    /// Updates queued right now.
    pub len: u64,
    /// Queue capacity.
    pub capacity: u64,
    /// Cumulative push/drain/cancel/drop counters.
    pub stats: FifoStats,
}

/// Chunk-ingest counters for replays fed from a streamed `.ctr` trace
/// (see `cnt-trace` and `cnt_bench::stream`). All zero / absent for
/// in-memory replays.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct IngestSnapshot {
    /// Intact chunks read from the source so far.
    pub chunks_read: u64,
    /// Chunks fully fed to the simulator so far.
    pub chunks_consumed: u64,
    /// Damaged chunks stepped over (skip-with-report policy).
    pub chunks_skipped: u64,
    /// CRC32 mismatches seen.
    pub crc_failures: u64,
    /// Payload-shape decode failures seen.
    pub decode_failures: u64,
    /// Payload bytes read from the source (including skipped chunks).
    pub bytes_read: u64,
    /// Payload bytes decoded into access records.
    pub bytes_decoded: u64,
    /// Chunks sitting decoded-but-unconsumed in the prefetch window.
    pub prefetch_buffered: u64,
    /// High-water mark of buffered payload bytes — must stay within the
    /// reader's configured budget.
    pub peak_buffered_bytes: u64,
}

/// Everything one cache level has accumulated so far.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LevelSnapshot {
    /// Level name from the cache config (e.g. `L1D`).
    pub level: String,
    /// Hit/miss/write statistics.
    pub stats: CacheStats,
    /// Per-charge-kind energy accumulators.
    pub energy: EnergyBreakdown,
    /// Energy spent in this epoch alone: `energy` minus the previous
    /// epoch's `energy` (equal to `energy` at epoch 0). Filled by
    /// [`EpochEmitter::emit`].
    pub energy_delta: EnergyBreakdown,
    /// Predictor windows, flips taken/rejected, projected vs realized
    /// savings.
    pub encoding: EncodingCounters,
    /// Deferred-update FIFO occupancy and overflow stats.
    pub fifo: FifoSnapshot,
    /// Metadata-protection and fault-handling activity (all zero unless
    /// the level protects its direction bits or a campaign injects
    /// faults).
    pub reliability: ReliabilityCounters,
}

impl LevelSnapshot {
    /// Captures one cache level.
    pub fn capture(cache: &CntCache) -> Self {
        LevelSnapshot {
            level: cache.name().to_string(),
            stats: cache.stats().clone(),
            energy: cache.meter().breakdown().clone(),
            // Delta-from-zero until the emitter refines it.
            energy_delta: cache.meter().breakdown().clone(),
            encoding: *cache.encoding_counters(),
            fifo: FifoSnapshot {
                len: cache.fifo_len() as u64,
                capacity: cache.fifo_capacity() as u64,
                stats: *cache.fifo_stats(),
            },
            reliability: *cache.reliability_counters(),
        }
    }
}

/// One epoch snapshot of a replay, as emitted on the JSONL stream.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Snapshot {
    /// Deterministic replay id, e.g. `fig9/i0003/r0000` (see
    /// [`crate::scope`]).
    pub experiment: String,
    /// Zero-based epoch index within the replay.
    pub epoch: u64,
    /// Accesses replayed so far (cumulative, not per-epoch).
    pub accesses: u64,
    /// One entry per cache level.
    pub levels: Vec<LevelSnapshot>,
    /// Chunk-ingest counters when the replay streams a `.ctr` trace;
    /// `None` (JSON `null`) for in-memory replays.
    pub ingest: Option<IngestSnapshot>,
}

impl Snapshot {
    /// A snapshot with no levels — only useful as a sink-test fixture.
    pub fn empty(experiment: &str, epoch: u64, accesses: u64) -> Self {
        Snapshot {
            experiment: experiment.to_string(),
            epoch,
            accesses,
            levels: Vec::new(),
            ingest: None,
        }
    }
}

/// A replay target whose cache levels a [`Snapshot`] captures.
pub trait Observed: Replay {
    /// Registry counter bumped once per replay [`replay`] observes.
    const REPLAYS_COUNTER: &'static str;

    /// Captures every cache level, in a fixed order.
    fn levels(&self) -> Vec<LevelSnapshot>;
}

impl Observed for CntCache {
    const REPLAYS_COUNTER: &'static str = "obs.replays_observed";

    fn levels(&self) -> Vec<LevelSnapshot> {
        vec![LevelSnapshot::capture(self)]
    }
}

impl Observed for CntHierarchy {
    const REPLAYS_COUNTER: &'static str = "obs.hierarchy_replays_observed";

    /// L1I, L1D, and the L2 when present.
    fn levels(&self) -> Vec<LevelSnapshot> {
        let mut levels = vec![
            LevelSnapshot::capture(self.l1i()),
            LevelSnapshot::capture(self.l1d()),
        ];
        if let Some(l2) = self.l2() {
            levels.push(LevelSnapshot::capture(l2));
        }
        levels
    }
}

/// Emits one replay's epoch snapshots.
///
/// [`replay_from`] decides where epochs end; the emitter owns everything
/// else the epoch rule needs: the replay id, the next epoch index, the
/// previous epoch's energy (to turn cumulative energy into per-epoch
/// `energy_delta`), the destination (the global sink or a caller's
/// buffer), and — in [`finish`](Self::finish) — the trailing partial
/// epoch.
///
/// # Example
///
/// ```
/// use cnt_cache::{CntCache, CntCacheConfig};
/// use cnt_obs::EpochEmitter;
/// use cnt_sim::trace::{MemoryAccess, Trace};
/// use cnt_sim::Address;
///
/// let line = Address::new(0x40);
/// let trace = Trace::from_iter([
///     MemoryAccess::write(line, 8, 0xFF),
///     MemoryAccess::read(line, 8),
///     MemoryAccess::read(line, 8),
/// ]);
/// let mut cache = CntCache::new(CntCacheConfig::builder().build()?)?;
/// let mut out = Vec::new();
/// EpochEmitter::into_buffer("demo", 2, &mut out).replay(&mut cache, &trace)?;
/// // One full epoch, then the trailing partial one.
/// assert_eq!(out.iter().map(|s| s.accesses).collect::<Vec<_>>(), [2, 3]);
/// // Epoch 0's delta is its cumulative energy; epoch 1's is its own.
/// let (first, last) = (&out[0].levels[0], &out[1].levels[0]);
/// assert_eq!(first.energy_delta, first.energy);
/// assert_eq!(last.energy_delta, last.energy.clone() - first.energy.clone());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct EpochEmitter<'a> {
    every: u64,
    experiment: String,
    epoch: u64,
    /// Per-level cumulative energy at the last emitted epoch.
    delta_prev: Vec<EnergyBreakdown>,
    /// `None` records into the global sink.
    out: Option<&'a mut Vec<Snapshot>>,
}

impl EpochEmitter<'static> {
    /// An emitter for a fresh replay into the global sink, named by
    /// [`scope::next_replay_path`]. `None` — allocating no id — when
    /// tracing is disabled.
    pub fn global() -> Option<Self> {
        let every = sink::epoch_len()?;
        Some(EpochEmitter::resumed(
            every,
            scope::next_replay_path(),
            0,
            Vec::new(),
        ))
    }

    /// An emitter continuing replay `experiment` into the global sink at
    /// epoch `epoch`, measuring the next `energy_delta` from `delta_prev`:
    /// the state a checkpoint saved from [`experiment`](Self::experiment),
    /// [`epoch`](Self::epoch) and [`delta_prev`](Self::delta_prev).
    pub fn resumed(
        every: u64,
        experiment: String,
        epoch: u64,
        delta_prev: Vec<EnergyBreakdown>,
    ) -> Self {
        EpochEmitter {
            every,
            experiment,
            epoch,
            delta_prev,
            out: None,
        }
    }
}

impl<'a> EpochEmitter<'a> {
    /// An emitter collecting into `out` instead of the global sink —
    /// independent of process-wide state, so tests can run in parallel.
    pub fn into_buffer(experiment: &str, every: u64, out: &'a mut Vec<Snapshot>) -> Self {
        EpochEmitter {
            every,
            experiment: experiment.to_string(),
            epoch: 0,
            delta_prev: Vec::new(),
            out: Some(out),
        }
    }

    /// Accesses per epoch.
    pub fn every(&self) -> u64 {
        self.every
    }

    /// The replay id.
    pub fn experiment(&self) -> &str {
        &self.experiment
    }

    /// The index the next emitted epoch gets.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Per-level cumulative energy at the last emitted epoch.
    pub fn delta_prev(&self) -> &[EnergyBreakdown] {
        &self.delta_prev
    }

    /// Emits the epoch that ends after `accesses` accesses.
    pub fn emit(&mut self, target: &impl Observed, accesses: u64, ingest: Option<IngestSnapshot>) {
        let mut levels = target.levels();
        for (level, prev) in levels.iter_mut().zip(&self.delta_prev) {
            level.energy_delta = level.energy.clone() - prev.clone();
        }
        self.delta_prev = levels.iter().map(|level| level.energy.clone()).collect();
        let snapshot = Snapshot {
            experiment: self.experiment.clone(),
            epoch: self.epoch,
            accesses,
            levels,
            ingest,
        };
        self.epoch += 1;
        match self.out.as_deref_mut() {
            Some(out) => out.push(snapshot),
            None => sink::record(snapshot),
        }
    }

    /// Ends a replay of `accesses` accesses: emits the trailing partial
    /// epoch — or the only epoch of an empty replay — so the last
    /// accesses are never silently dropped.
    pub fn finish(mut self, target: &impl Observed, accesses: u64, ingest: Option<IngestSnapshot>) {
        if accesses == 0 || !accesses.is_multiple_of(self.every) {
            self.emit(target, accesses, ingest);
        }
    }

    /// Replays `accesses` through `target` from the first access,
    /// emitting every epoch and then [`finish`](Self::finish)ing.
    ///
    /// # Errors
    ///
    /// Propagates [`AccessError`] from the underlying replay.
    ///
    /// # Panics
    ///
    /// Panics if the epoch length is zero.
    pub fn replay<T, I>(mut self, target: &mut T, accesses: I) -> Result<usize, AccessError>
    where
        T: Observed,
        I: IntoIterator,
        I::Item: Borrow<MemoryAccess>,
    {
        let every = Some(self.every);
        let n = replay_from(target, accesses, 0, every, |t, n| self.emit(t, n, None))?;
        self.finish(target, n, None);
        Ok(n as usize)
    }
}

/// Replays `accesses` through `target` — a [`CntCache`] over a `&Trace`,
/// an `AccessBatch::iter()`, or a whole [`CntHierarchy`] — emitting one
/// snapshot per epoch to the global sink when tracing is enabled.
///
/// When the sink is disabled (the default) this adds exactly one relaxed
/// atomic load to the plain [`replay_from`] loop — the hot path stays
/// allocation-free (see `tests/no_alloc_disabled.rs`).
///
/// # Errors
///
/// Propagates [`AccessError`] from the underlying replay.
pub fn replay<T, I>(target: &mut T, accesses: I) -> Result<usize, AccessError>
where
    T: Observed,
    I: IntoIterator,
    I::Item: Borrow<MemoryAccess>,
{
    match EpochEmitter::global() {
        Some(emitter) => {
            sink::registry().counter(T::REPLAYS_COUNTER).inc();
            emitter.replay(target, accesses)
        }
        None => replay_from(target, accesses, 0, None, |_, _| {}).map(|n| n as usize),
    }
}

/// Like [`replay`] but collecting into a caller-supplied buffer instead
/// of the global sink.
///
/// # Errors
///
/// Propagates [`AccessError`] from the underlying replay.
///
/// # Panics
///
/// Panics if `every` is zero.
pub fn replay_into<T, I>(
    target: &mut T,
    accesses: I,
    experiment: &str,
    every: u64,
    out: &mut Vec<Snapshot>,
) -> Result<usize, AccessError>
where
    T: Observed,
    I: IntoIterator,
    I::Item: Borrow<MemoryAccess>,
{
    EpochEmitter::into_buffer(experiment, every, out).replay(target, accesses)
}

/// A summary of a validated JSONL metrics stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JsonlSummary {
    /// Total snapshot lines.
    pub snapshots: usize,
    /// Distinct experiment ids.
    pub experiments: usize,
}

/// Validates a JSONL metrics stream: every line must parse as a
/// [`Snapshot`] with at least one level, and within each experiment the
/// epochs must increase by exactly one from zero with non-decreasing
/// access counts. Snapshots carrying chunk-ingest counters must keep
/// them non-decreasing too, consumption can never outrun reading, and
/// the prefetch gauge must stay strictly below the read-but-unconsumed
/// chunk gap (counting the in-flight chunk as buffered was a real bug).
/// Per experiment and level, the running sum of `energy_delta` totals
/// must match the cumulative `energy` total within 1e-9 relative — a
/// stream of cumulative "deltas" fails on its second epoch.
///
/// # Errors
///
/// Returns a message naming the first offending line.
pub fn validate_jsonl(text: &str) -> Result<JsonlSummary, String> {
    // (experiment, last epoch, last accesses, per-level running delta
    // sums) per stream; linear scan is fine for lint-sized inputs and
    // keeps ordering deterministic.
    let mut streams: Vec<(String, u64, u64, Vec<f64>)> = Vec::new();
    let mut ingests: Vec<(String, IngestSnapshot)> = Vec::new();
    let mut snapshots = 0usize;
    for (idx, line) in text.lines().enumerate() {
        let lineno = idx + 1;
        if line.trim().is_empty() {
            return Err(format!("line {lineno}: blank line in metrics stream"));
        }
        let snapshot: Snapshot =
            serde_json::from_str(line).map_err(|e| format!("line {lineno}: {e}"))?;
        if snapshot.levels.is_empty() {
            return Err(format!(
                "line {lineno}: snapshot for `{}` has no cache levels",
                snapshot.experiment
            ));
        }
        if let Some(ingest) = snapshot.ingest {
            if ingest.chunks_consumed > ingest.chunks_read {
                return Err(format!(
                    "line {lineno}: experiment `{}` consumed {} chunks but only read {}",
                    snapshot.experiment, ingest.chunks_consumed, ingest.chunks_read
                ));
            }
            // Prefetch-gauge sanity. Read-but-unconsumed chunks split
            // into: fully buffered (the gauge), the one being consumed,
            // and decode-skipped ones. A snapshot is always emitted while
            // a chunk is mid-consumption, so the gauge must be *strictly*
            // less than the read/consumed gap — equality is exactly the
            // historical off-by-one that counted the current chunk as
            // buffered. With no gap there is nothing to buffer.
            let gap = ingest.chunks_read - ingest.chunks_consumed;
            if gap == 0 {
                if ingest.prefetch_buffered != 0 {
                    return Err(format!(
                        "line {lineno}: experiment `{}` reports {} buffered chunks \
                         with none unconsumed",
                        snapshot.experiment, ingest.prefetch_buffered
                    ));
                }
            } else if ingest.prefetch_buffered >= gap {
                return Err(format!(
                    "line {lineno}: experiment `{}` reports {} buffered chunks but only \
                     {} are read-but-unconsumed (gauge counts the in-flight chunk?)",
                    snapshot.experiment, ingest.prefetch_buffered, gap
                ));
            }
            match ingests
                .iter_mut()
                .find(|(id, _)| *id == snapshot.experiment)
            {
                None => ingests.push((snapshot.experiment.clone(), ingest)),
                Some((id, last)) => {
                    if ingest.chunks_read < last.chunks_read
                        || ingest.chunks_consumed < last.chunks_consumed
                        || ingest.chunks_skipped < last.chunks_skipped
                        || ingest.crc_failures < last.crc_failures
                        || ingest.decode_failures < last.decode_failures
                        || ingest.bytes_read < last.bytes_read
                        || ingest.bytes_decoded < last.bytes_decoded
                        || ingest.peak_buffered_bytes < last.peak_buffered_bytes
                    {
                        return Err(format!(
                            "line {lineno}: experiment `{id}` ingest counters went backwards"
                        ));
                    }
                    *last = ingest;
                }
            }
        }
        let deltas = snapshot
            .levels
            .iter()
            .map(|level| level.energy_delta.total().femtojoules());
        let sums = match streams
            .iter_mut()
            .find(|(id, _, _, _)| *id == snapshot.experiment)
        {
            None => {
                if snapshot.epoch != 0 {
                    return Err(format!(
                        "line {lineno}: experiment `{}` starts at epoch {} (expected 0)",
                        snapshot.experiment, snapshot.epoch
                    ));
                }
                streams.push((
                    snapshot.experiment.clone(),
                    0,
                    snapshot.accesses,
                    deltas.collect(),
                ));
                &streams.last().expect("just pushed").3
            }
            Some((id, last_epoch, last_accesses, sums)) => {
                if snapshot.epoch != *last_epoch + 1 {
                    return Err(format!(
                        "line {lineno}: experiment `{id}` jumps from epoch {last_epoch} to {}",
                        snapshot.epoch
                    ));
                }
                if snapshot.accesses < *last_accesses {
                    return Err(format!(
                        "line {lineno}: experiment `{id}` access count went backwards \
                         ({last_accesses} -> {})",
                        snapshot.accesses
                    ));
                }
                // A resumed stream spliced onto the wrong run changes the
                // hierarchy shape mid-experiment; an uninterrupted (or
                // correctly resumed) one never does.
                if snapshot.levels.len() != sums.len() {
                    return Err(format!(
                        "line {lineno}: experiment `{id}` changes from {} cache \
                         levels to {} mid-stream",
                        sums.len(),
                        snapshot.levels.len()
                    ));
                }
                *last_epoch = snapshot.epoch;
                *last_accesses = snapshot.accesses;
                for (sum, delta) in sums.iter_mut().zip(deltas) {
                    *sum += delta;
                }
                sums
            }
        };
        for (level, sum) in snapshot.levels.iter().zip(sums) {
            let total = level.energy.total().femtojoules();
            if (sum - total).abs() > 1e-9 * total.abs().max(sum.abs()) {
                return Err(format!(
                    "line {lineno}: experiment `{}` level {}: energy deltas sum to {sum} fJ \
                     but cumulative energy is {total} fJ",
                    snapshot.experiment, level.level
                ));
            }
        }
        snapshots += 1;
    }
    Ok(JsonlSummary {
        snapshots,
        experiments: streams.len(),
    })
}

/// A summary of a validated multiplexed (multi-session) JSONL stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionsSummary {
    /// Distinct session ids (`s0000`-style prefixes).
    pub sessions: usize,
    /// Total snapshot lines across all sessions.
    pub snapshots: usize,
    /// Distinct (session, replay) experiment ids.
    pub experiments: usize,
}

/// Validates a **multiplexed** per-session JSONL stream, as written by a
/// replay server that merges many tenants into one log. On top of every
/// [`validate_jsonl`] rule (which is already keyed per experiment id, so
/// per-session epoch monotonicity and ingest monotonicity follow from
/// session-scoped ids), this requires each experiment id to carry an
/// `sNNNN/` session prefix — an unprefixed id means some session leaked
/// into the log without scoping, the exact bug this mode exists to
/// catch.
///
/// # Errors
///
/// Returns a message naming the first offending line.
pub fn validate_sessions_jsonl(text: &str) -> Result<SessionsSummary, String> {
    let summary = validate_jsonl(text)?;
    let mut sessions: Vec<String> = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        let lineno = idx + 1;
        let snapshot: Snapshot =
            serde_json::from_str(line).map_err(|e| format!("line {lineno}: {e}"))?;
        let Some((session, rest)) = snapshot.experiment.split_once('/') else {
            return Err(format!(
                "line {lineno}: experiment `{}` has no session prefix",
                snapshot.experiment
            ));
        };
        let well_formed = session.len() >= 5
            && session.starts_with('s')
            && session[1..].bytes().all(|b| b.is_ascii_digit());
        if !well_formed || rest.is_empty() {
            return Err(format!(
                "line {lineno}: experiment `{}` is not session-scoped \
                 (expected an `sNNNN/` prefix)",
                snapshot.experiment
            ));
        }
        if !sessions.iter().any(|s| s == session) {
            sessions.push(session.to_string());
        }
    }
    Ok(SessionsSummary {
        sessions: sessions.len(),
        snapshots: summary.snapshots,
        experiments: summary.experiments,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(experiment: &str, epoch: u64, accesses: u64) -> String {
        let mut snapshot = Snapshot::empty(experiment, epoch, accesses);
        snapshot.levels.push(LevelSnapshot {
            level: "L1D".to_string(),
            stats: CacheStats::default(),
            energy: EnergyBreakdown::default(),
            energy_delta: EnergyBreakdown::default(),
            encoding: EncodingCounters::default(),
            fifo: FifoSnapshot {
                len: 0,
                capacity: 8,
                stats: FifoStats::default(),
            },
            reliability: ReliabilityCounters::default(),
        });
        serde_json::to_string(&snapshot).expect("snapshot serializes")
    }

    #[test]
    fn validate_accepts_interleaved_monotonic_streams() {
        let text = format!(
            "{}\n{}\n{}\n{}\n",
            line("a/r0000", 0, 25),
            line("b/r0000", 0, 25),
            line("a/r0000", 1, 50),
            line("b/r0000", 1, 30),
        );
        let summary = validate_jsonl(&text).expect("valid stream");
        assert_eq!(
            summary,
            JsonlSummary {
                snapshots: 4,
                experiments: 2
            }
        );
    }

    #[test]
    fn validate_rejects_epoch_gap_and_bad_start() {
        let gap = format!("{}\n{}\n", line("a", 0, 10), line("a", 2, 20));
        assert!(validate_jsonl(&gap).unwrap_err().contains("jumps"));
        let start = format!("{}\n", line("a", 3, 10));
        assert!(validate_jsonl(&start).unwrap_err().contains("expected 0"));
    }

    #[test]
    fn validate_rejects_garbage_and_empty_levels() {
        assert!(validate_jsonl("not json\n").is_err());
        let no_levels = serde_json::to_string(&Snapshot::empty("a", 0, 0)).expect("serializes");
        assert!(validate_jsonl(&format!("{no_levels}\n"))
            .unwrap_err()
            .contains("no cache levels"));
    }

    fn ingest_line(experiment: &str, epoch: u64, ingest: IngestSnapshot) -> String {
        let mut snapshot: Snapshot =
            serde_json::from_str(&line(experiment, epoch, (epoch + 1) * 10)).expect("parses");
        snapshot.ingest = Some(ingest);
        serde_json::to_string(&snapshot).expect("snapshot serializes")
    }

    #[test]
    fn validate_rejects_inflated_prefetch_gauge() {
        // The historical off-by-one: gauge equal to the read/consumed gap
        // means the chunk currently being replayed was counted as
        // buffered.
        let inflated = ingest_line(
            "a",
            0,
            IngestSnapshot {
                chunks_read: 4,
                chunks_consumed: 1,
                prefetch_buffered: 3,
                ..IngestSnapshot::default()
            },
        );
        let err = validate_jsonl(&format!("{inflated}\n")).unwrap_err();
        assert!(err.contains("buffered"), "{err}");

        // Nothing unconsumed: the gauge must read zero.
        let stale = ingest_line(
            "a",
            0,
            IngestSnapshot {
                chunks_read: 4,
                chunks_consumed: 4,
                prefetch_buffered: 1,
                ..IngestSnapshot::default()
            },
        );
        let err = validate_jsonl(&format!("{stale}\n")).unwrap_err();
        assert!(err.contains("none unconsumed"), "{err}");

        // A sane mid-stream gauge passes.
        let sane = ingest_line(
            "a",
            0,
            IngestSnapshot {
                chunks_read: 4,
                chunks_consumed: 1,
                prefetch_buffered: 2,
                ..IngestSnapshot::default()
            },
        );
        validate_jsonl(&format!("{sane}\n")).expect("valid gauge accepted");
    }

    #[test]
    fn validate_rejects_backwards_ingest_bytes() {
        let first = ingest_line(
            "a",
            0,
            IngestSnapshot {
                chunks_read: 2,
                chunks_consumed: 1,
                bytes_decoded: 100,
                peak_buffered_bytes: 64,
                ..IngestSnapshot::default()
            },
        );
        let second = ingest_line(
            "a",
            1,
            IngestSnapshot {
                chunks_read: 3,
                chunks_consumed: 2,
                bytes_decoded: 90, // went backwards
                peak_buffered_bytes: 64,
                ..IngestSnapshot::default()
            },
        );
        let err = validate_jsonl(&format!("{first}\n{second}\n")).unwrap_err();
        assert!(err.contains("went backwards"), "{err}");
    }

    #[test]
    fn validate_rejects_backwards_skip_counters() {
        // chunks_skipped and decode_failures are cumulative too — a
        // resumed stream that restarted them at zero must be rejected.
        let first = ingest_line(
            "a",
            0,
            IngestSnapshot {
                chunks_read: 4,
                chunks_consumed: 3,
                chunks_skipped: 2,
                decode_failures: 1,
                ..IngestSnapshot::default()
            },
        );
        let second = ingest_line(
            "a",
            1,
            IngestSnapshot {
                chunks_read: 6,
                chunks_consumed: 5,
                chunks_skipped: 0,
                decode_failures: 1,
                ..IngestSnapshot::default()
            },
        );
        let err = validate_jsonl(&format!("{first}\n{second}\n")).unwrap_err();
        assert!(err.contains("went backwards"), "{err}");
    }

    #[test]
    fn validate_rejects_level_count_change_mid_stream() {
        let two_levels = {
            let mut snapshot: Snapshot = serde_json::from_str(&line("a", 1, 20)).expect("parses");
            let extra = snapshot.levels[0].clone();
            snapshot.levels.push(extra);
            serde_json::to_string(&snapshot).expect("serializes")
        };
        let err = validate_jsonl(&format!("{}\n{two_levels}\n", line("a", 0, 10))).unwrap_err();
        assert!(err.contains("cache levels"), "{err}");
    }

    #[test]
    fn validate_rejects_cumulative_energy_deltas() {
        use cnt_energy::{ChargeKind, EnergyMeter, SramEnergyModel};

        // Two epochs of metered energy; `cumulative` reports each epoch's
        // running total as its delta, as fault campaigns once did.
        let mut meter = EnergyMeter::new(SramEnergyModel::cnfet_default());
        let mut epochs = Vec::new();
        for value in [0xFFFF_u64, 0x0F0F_0F0F] {
            meter.charge_write_word_kind(value, 64, ChargeKind::DataWrite);
            epochs.push(meter.breakdown().clone());
        }
        let stream = |cumulative: bool| {
            let mut text = String::new();
            for (epoch, energy) in epochs.iter().enumerate() {
                let mut snapshot: Snapshot =
                    serde_json::from_str(&line("a", epoch as u64, 10 * epoch as u64 + 10))
                        .expect("parses");
                snapshot.levels[0].energy = energy.clone();
                snapshot.levels[0].energy_delta = match epoch {
                    1 if !cumulative => energy.clone() - epochs[0].clone(),
                    _ => energy.clone(),
                };
                text.push_str(&serde_json::to_string(&snapshot).expect("serializes"));
                text.push('\n');
            }
            text
        };
        validate_jsonl(&stream(false)).expect("per-epoch deltas accepted");
        let err = validate_jsonl(&stream(true)).unwrap_err();
        assert!(
            err.contains("line 2") && err.contains("deltas sum"),
            "{err}"
        );
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let text = line("fig9/i0001/r0000", 3, 400);
        let parsed: Snapshot = serde_json::from_str(&text).expect("parses");
        assert_eq!(parsed.experiment, "fig9/i0001/r0000");
        assert_eq!(parsed.epoch, 3);
        assert_eq!(parsed.levels.len(), 1);
        assert_eq!(parsed.levels[0].fifo.capacity, 8);
    }
}
