//! The benchmark's own arithmetic: medians, quartiles, the tail rule,
//! failed-op accounting and span self time.

use cnt_perfbench::spans::{self_time_ns, Span};
use cnt_perfbench::stats::{beyond, median, quartiles, tail, Tally};

#[test]
fn median_matches_python() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(median(&ten), 5.5);
    assert_eq!(median(&[7.0]), 7.0);
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // Expected values from `statistics.quantiles(values, n=4)`.
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&ten), (2.75, 8.25));
    assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0]), (1.25, 4.75));
    // Two values: Python's exclusive method extrapolates.
    assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 22.5));
}

#[test]
fn beyond_counts_samples_past_the_interpolation_rank() {
    assert_eq!(beyond(100, 90.0), 10);
    assert_eq!(beyond(50, 90.0), 5);
    assert_eq!(beyond(91, 90.0), 9);
    assert_eq!(beyond(1000, 99.0), 10);
    assert_eq!(beyond(21, 50.0), 10);
    assert_eq!(beyond(0, 50.0), 0);
}

#[test]
fn tail_climbs_to_the_highest_rung_with_ten_beyond() {
    let values = |n: usize| (1..=n).map(|v| v as f64).collect::<Vec<_>>();

    // 100 samples: p90 leaves exactly 10 beyond; p99 would leave 1.
    let t = tail(&values(100)).expect("enough samples");
    assert_eq!(t.percentile, 90.0);
    assert_eq!(t.beyond, 10);
    assert!((t.value - 90.1).abs() < 1e-9);

    // p90's rank is 0.9·(n−1): 91 samples leave 9 beyond it (the
    // median is the tail), 92 leave 10.
    assert_eq!(tail(&values(91)).expect("enough").percentile, 50.0);
    assert_eq!(tail(&values(92)).expect("enough").percentile, 90.0);

    // 1000 samples reach p99, 10 000 reach p99.9.
    assert_eq!(tail(&values(1000)).expect("enough").percentile, 99.0);
    assert_eq!(tail(&values(10_000)).expect("enough").percentile, 99.9);

    // Too few samples for any rung.
    assert!(tail(&values(19)).is_none());
    assert_eq!(tail(&values(21)).expect("enough").percentile, 50.0);
}

#[test]
fn failed_ratio_counts_failed_refused_and_wrong_ops() {
    let mut t = Tally::default();
    assert_eq!(
        t.failed_ratio(),
        1.0,
        "nothing attempted vouches for nothing"
    );
    assert!(!t.all_ok());

    for ok in [true, true, false, true] {
        t.record(ok);
    }
    assert_eq!((t.attempted, t.failed), (4, 1));
    assert_eq!(t.failed_ratio(), 0.25);

    // A check outside the ops adds a failure but no attempt.
    let mut checks = Tally::default();
    checks.check(true);
    checks.check(false);
    assert_eq!((checks.attempted, checks.failed), (0, 1));
    t.merge(checks);
    assert_eq!((t.attempted, t.failed), (4, 2));
    assert_eq!(t.failed_ratio(), 0.5);
    assert!(!t.all_ok());

    let mut clean = Tally::default();
    clean.record(true);
    assert!(clean.all_ok());
    assert_eq!(clean.failed_ratio(), 0.0);

    // Never above 1, however many checks fail.
    let mut bad = Tally::default();
    bad.record(false);
    bad.check(false);
    assert_eq!(bad.failed_ratio(), 1.0);
}

fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
    Span {
        name: "x",
        id,
        parent,
        op: 1,
        start_ns,
        end_ns,
    }
}

#[test]
fn self_time_subtracts_the_union_of_children() {
    let root = span(1, 0, 0, 100);
    // Overlapping children (parallel workers) cover 10..60 once.
    let a = span(2, 1, 10, 40);
    let b = span(3, 1, 30, 60);
    // A child running past its parent is clipped.
    let c = span(4, 1, 90, 120);
    assert_eq!(self_time_ns(&root, &[&a, &b, &c]), 100 - 50 - 10);
    assert_eq!(self_time_ns(&root, &[]), 100);
}
