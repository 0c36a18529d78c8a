//! Generated inputs are a pure function of the seed.

use cnt_perfbench::inputs::{
    file_replay_spec, kernel_suite, serve_specs, DEFAULT_SEED, HELD_OUT_SEED,
};

fn packed(trace: &cnt_sim::trace::Trace) -> Vec<u8> {
    let mut bytes = Vec::new();
    cnt_trace::pack_trace(trace, &mut bytes, cnt_trace::DEFAULT_CHUNK_ACCESSES).expect("packs");
    bytes
}

#[test]
fn file_replay_trace_repeats_for_a_seed() {
    for seed in [DEFAULT_SEED, HELD_OUT_SEED, 1] {
        let a = file_replay_spec(seed).generate();
        let b = file_replay_spec(seed).generate();
        assert_eq!(a, b);
        assert_eq!(packed(&a), packed(&b), "packed bytes repeat too");
    }
    assert_ne!(
        file_replay_spec(1).generate(),
        file_replay_spec(2).generate(),
        "another seed gives another trace"
    );
}

#[test]
fn serve_uploads_repeat_for_a_seed() {
    let gen = |seed| {
        serve_specs(seed)
            .iter()
            .map(|spec| packed(&spec.generate()))
            .collect::<Vec<_>>()
    };
    assert_eq!(gen(HELD_OUT_SEED), gen(HELD_OUT_SEED));
    assert_ne!(gen(1), gen(2));
}

#[test]
fn kernel_suite_repeats_and_matches_the_reference_suite() {
    assert_eq!(kernel_suite(HELD_OUT_SEED), kernel_suite(HELD_OUT_SEED));
    assert_eq!(
        kernel_suite(DEFAULT_SEED),
        cnt_workloads::suite_extended(),
        "the default seed is the suite's own"
    );
    assert_ne!(kernel_suite(1), kernel_suite(2));
}
