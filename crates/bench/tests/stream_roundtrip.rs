//! End-to-end equivalence of streamed and in-memory replay.
//!
//! The contract under test: for any workload, JSON → `.ctr` → streamed
//! chunk-parallel replay produces an [`EnergyReport`] **byte-identical**
//! (after JSON serialization) to replaying the same accesses from
//! memory — and damaged inputs fail loudly instead of skewing energy
//! numbers silently.

use cnt_bench::runner::{dcache_config, run_dcache};
use cnt_bench::stream::{
    replay_stream, replay_stream_resumable, CheckpointEvery, ReplayCursor, StreamError,
};
use cnt_cache::{CntCache, EncodingPolicy, EnergyReport};
use cnt_obs::{replay_into, Snapshot};
use cnt_sim::trace::{AccessBatch, MemoryAccess, Trace};
use cnt_sim::Address;
use cnt_trace::{pack_trace, Checkpointable, CorruptionPolicy, ReadOptions, StreamReader};
use cnt_workloads::synthetic::{AddressPattern, SyntheticSpec};
use proptest::prelude::*;

fn pack(trace: &Trace, chunk: u32) -> Vec<u8> {
    let mut bytes = Vec::new();
    pack_trace(trace, &mut bytes, chunk).expect("packs");
    bytes
}

/// Streams packed bytes through a fresh D-Cache.
fn stream_replay(
    bytes: &[u8],
    policy: EncodingPolicy,
    opts: ReadOptions,
) -> Result<(EnergyReport, cnt_obs::IngestSnapshot), StreamError> {
    let mut reader = StreamReader::new(bytes, opts)?;
    let mut cache = CntCache::new(dcache_config("L1D", policy)).expect("valid config");
    let (ingest, _) = replay_stream(&mut cache, &mut reader)?;
    cache.flush();
    Ok((cache.into_report(), ingest))
}

fn adaptive_cache() -> CntCache {
    CntCache::new(dcache_config("L1D", EncodingPolicy::adaptive_default())).expect("valid config")
}

/// A budget of a chunk or two, so a stream spans many windows (and so
/// many checkpoint opportunities).
const SMALL_WINDOWS: ReadOptions = ReadOptions {
    budget_bytes: 512,
    corruption: CorruptionPolicy::FailFast,
};

/// Streams packed bytes under a thread-local sink of epoch `every`,
/// checkpointing every `checkpoint_chunks` chunks. Returns the snapshots
/// and the cache state and cursor of the first checkpoint, if any fired.
fn streamed_snapshots(
    bytes: &[u8],
    every: u64,
    checkpoint_chunks: u64,
) -> (Vec<Snapshot>, Option<(Vec<u8>, ReplayCursor)>) {
    let sink = cnt_obs::install_local(every, None);
    let mut saved = None;
    let mut hook = |cache: &CntCache, cursor: &ReplayCursor, _: u64| {
        if saved.is_none() {
            saved = Some((cache.encode_state()?, cursor.clone()));
        }
        Ok(())
    };
    let mut reader = StreamReader::new(bytes, SMALL_WINDOWS).expect("opens");
    let checkpoint = CheckpointEvery {
        chunks: checkpoint_chunks,
        write: &mut hook,
    };
    replay_stream_resumable(
        &mut adaptive_cache(),
        &mut reader,
        None,
        Some(checkpoint),
        None,
    )
    .expect("streams");
    (sink.finish(), saved)
}

/// Resumes a stream from a checkpoint, returning the snapshots emitted
/// after it.
fn resumed_snapshots(
    bytes: &[u8],
    every: u64,
    state: &[u8],
    cursor: ReplayCursor,
) -> Vec<Snapshot> {
    let sink = cnt_obs::install_local(every, None);
    let mut reader = StreamReader::new(std::io::Cursor::new(bytes), SMALL_WINDOWS).expect("opens");
    reader.seek_to_chunk(cursor.chunk).expect("seeks");
    let mut cache = adaptive_cache();
    cache.restore_state(state).expect("restores");
    replay_stream_resumable(&mut cache, &mut reader, Some(cursor), None, None).expect("resumes");
    sink.finish()
}

fn arb_access() -> impl Strategy<Value = MemoryAccess> {
    // Cache-valid accesses: naturally aligned, small footprint so lines
    // are reused and the adaptive policy actually switches directions.
    let width = prop::sample::select(vec![1u8, 2, 4, 8]);
    (0u64..16384, width, any::<u64>(), 0u8..3).prop_map(|(raw, width, value, kind)| {
        let addr = Address::new(raw & !(u64::from(width) - 1));
        match kind {
            0 => MemoryAccess::read(addr, width),
            1 => MemoryAccess::write(addr, width, value),
            // Instruction fetches are always 8 bytes wide.
            _ => MemoryAccess::ifetch(Address::new(raw & !7)),
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// JSON → `.ctr` → streamed replay == in-memory replay, to the byte.
    #[test]
    fn streamed_replay_equals_in_memory_replay(
        accesses in prop::collection::vec(arb_access(), 0..500),
        chunk in 1u32..64,
        budget_kib in 1usize..16,
    ) {
        let trace = Trace::from_iter(accesses);

        // JSON leg: the trace survives the text interchange format.
        let json = serde_json::to_string(&trace).expect("serializes");
        let from_json: Trace = serde_json::from_str(&json).expect("parses");
        prop_assert_eq!(&from_json, &trace);

        let bytes = pack(&from_json, chunk);
        let opts = ReadOptions {
            budget_bytes: budget_kib * 1024,
            corruption: CorruptionPolicy::FailFast,
        };
        for policy in [EncodingPolicy::None, EncodingPolicy::adaptive_default()] {
            let expected = run_dcache(policy, &trace);
            let (streamed, ingest) = stream_replay(&bytes, policy, opts)
                .expect("intact stream replays");
            prop_assert_eq!(&streamed, &expected);
            // Byte-identical after serialization, not merely PartialEq.
            prop_assert_eq!(
                serde_json::to_string(&streamed).expect("serializes"),
                serde_json::to_string(&expected).expect("serializes")
            );
            prop_assert!(
                ingest.peak_buffered_bytes <= (budget_kib * 1024) as u64,
                "peak {} exceeded budget {}",
                ingest.peak_buffered_bytes,
                budget_kib * 1024
            );
        }
    }

    /// Every replay source emits the same epoch snapshots: a streamed
    /// `.ctr` (ingest counters aside), the in-memory `Trace`, and its
    /// `AccessBatch` — for epochs shorter than, equal to, and longer
    /// than a chunk or the whole trace, with boundaries falling
    /// mid-chunk. A stream resumed from a mid-stream cursor emits exactly
    /// the uninterrupted stream's remaining snapshots, ingest included.
    #[test]
    fn every_replay_source_emits_the_same_snapshots(
        accesses in prop::collection::vec(arb_access(), 0..300),
        chunk in 2u32..24,
    ) {
        prop_assume!(chunk != 7);
        for trace in [Trace::new(), Trace::from_iter(accesses)] {
            let len = trace.len() as u64;
            let bytes = pack(&trace, chunk);
            let batch = AccessBatch::from_trace(&trace);
            let chunks = len.div_ceil(u64::from(chunk));
            for every in [1, 7, u64::from(chunk), len.max(1), len + 1] {
                let (streamed, checkpoint) = streamed_snapshots(&bytes, every, (chunks / 2).max(1));
                let experiment = streamed[0].experiment.clone();
                let mut from_trace = Vec::new();
                replay_into(&mut adaptive_cache(), &trace, &experiment, every, &mut from_trace)
                    .expect("replays");
                let mut from_batch = Vec::new();
                replay_into(&mut adaptive_cache(), batch.iter(), &experiment, every, &mut from_batch)
                    .expect("replays");
                prop_assert_eq!(&from_batch, &from_trace);
                let without_ingest: Vec<Snapshot> = streamed
                    .iter()
                    .cloned()
                    .map(|snapshot| Snapshot { ingest: None, ..snapshot })
                    .collect();
                prop_assert_eq!(&without_ingest, &from_trace);

                if let (7, Some((state, cursor))) = (every, checkpoint) {
                    let epoch = cursor.epoch as usize;
                    let resumed = resumed_snapshots(&bytes, every, &state, cursor);
                    prop_assert_eq!(&resumed[..], &streamed[epoch..]);
                }
            }
        }
    }

    /// A truncated `.ctr` file must error out of the replay — under both
    /// corruption policies — never produce a report.
    #[test]
    fn truncated_file_fails_the_replay(
        accesses in prop::collection::vec(arb_access(), 10..300),
        chunk in 1u32..32,
        cut_back in 1usize..11,
    ) {
        let trace = Trace::from_iter(accesses);
        let bytes = pack(&trace, chunk);
        prop_assume!(cut_back < bytes.len());
        let cut = &bytes[..bytes.len() - cut_back];
        for corruption in [CorruptionPolicy::FailFast, CorruptionPolicy::SkipWithReport] {
            let result = stream_replay(cut, EncodingPolicy::adaptive_default(), ReadOptions {
                corruption,
                ..ReadOptions::default()
            });
            prop_assert!(
                matches!(result, Err(StreamError::Trace(_))),
                "{corruption:?} must surface truncation"
            );
        }
    }

    /// A flipped CRC byte fails fast, and under the skip policy the
    /// replay completes over the intact remainder only.
    #[test]
    fn flipped_crc_fails_fast_and_skips_cleanly(
        accesses in prop::collection::vec(arb_access(), 50..300),
        flip_frac in 0.1f64..0.9,
    ) {
        let trace = Trace::from_iter(accesses);
        let chunk = 16u32;
        let mut bytes = pack(&trace, chunk);
        let flip_at = cnt_trace::HEADER_BYTES
            + ((bytes.len() - cnt_trace::HEADER_BYTES - 1) as f64 * flip_frac) as usize;
        bytes[flip_at] ^= 0x04;

        let fail = stream_replay(&bytes, EncodingPolicy::adaptive_default(), ReadOptions {
            corruption: CorruptionPolicy::FailFast,
            ..ReadOptions::default()
        });
        prop_assert!(fail.is_err(), "fail-fast must reject the damaged stream");

        if let Ok((_, ingest)) = stream_replay(
            &bytes,
            EncodingPolicy::adaptive_default(),
            ReadOptions {
                corruption: CorruptionPolicy::SkipWithReport,
                ..ReadOptions::default()
            },
        ) {
            // Some chunk was dropped and accounted for (a flip inside a
            // frame header can desync framing, which lands in the Err
            // arm instead — also acceptable).
            prop_assert!(ingest.chunks_skipped >= 1);
            prop_assert!(ingest.chunks_consumed < ingest.chunks_read + ingest.chunks_skipped);
        }
    }
}

/// The ISSUE acceptance bar: a ≥ 64 MiB trace streamed under an 8 MiB
/// reader budget must reproduce the in-memory report exactly, with
/// buffering bounded by the budget. Run with `--ignored --release`
/// (debug-mode replay of ~5M accesses is too slow for tier-1).
#[test]
#[ignore = "multi-GB-scale acceptance check; run in release"]
fn large_trace_streams_identically_under_8mib_budget() {
    let spec = SyntheticSpec {
        accesses: 4_800_000,
        footprint_lines: 4096,
        read_fraction: 0.5,
        ones_density: 0.3,
        pattern: AddressPattern::UniformRandom,
        seed: 0x64C7,
    };
    let mut bytes = Vec::new();
    let summary =
        cnt_trace::pack_accesses(spec.stream(), &mut bytes, 8192).expect("packs streamed");
    assert!(
        summary.payload_bytes >= 64 * 1024 * 1024,
        "trace must be at least 64 MiB, got {} bytes",
        summary.payload_bytes
    );

    let budget = 8 * 1024 * 1024;
    let opts = ReadOptions {
        budget_bytes: budget,
        corruption: CorruptionPolicy::FailFast,
    };
    let (streamed, ingest) =
        stream_replay(&bytes, EncodingPolicy::adaptive_default(), opts).expect("streams");
    assert!(ingest.peak_buffered_bytes <= budget as u64);
    assert!(
        ingest.peak_buffered_bytes > budget as u64 / 2,
        "windows should actually fill toward the budget"
    );
    assert_eq!(ingest.chunks_consumed, summary.chunks);

    let trace = spec.generate();
    let expected = run_dcache(EncodingPolicy::adaptive_default(), &trace);
    assert_eq!(streamed, expected);
    assert_eq!(
        serde_json::to_string(&streamed).expect("serializes"),
        serde_json::to_string(&expected).expect("serializes")
    );
}
