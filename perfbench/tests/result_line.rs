//! The result line and the run record are JSON of the shape the
//! benchmark's callers parse.

use std::collections::BTreeMap;

use cnt_perfbench::run::{Reported, ResultLine};
use cnt_perfbench::spans::Span;

#[test]
fn result_line_has_exactly_the_four_keys() {
    let mut metrics = BTreeMap::new();
    metrics.insert(
        "op_p50_ms".to_string(),
        Reported {
            value: 1.2034,
            unit: "ms",
        },
    );
    metrics.insert(
        "setup_s".to_string(),
        Reported {
            value: 0.5,
            unit: "s",
        },
    );
    let line = ResultLine {
        correct: true,
        attempted: 1000,
        failed: 0,
        metrics,
    };
    let text = serde_json::to_string(&line).expect("finite values serialise");
    assert_eq!(
        text,
        "{\"correct\":true,\"attempted\":1000,\"failed\":0,\"metrics\":{\
         \"op_p50_ms\":{\"value\":1.2034,\"unit\":\"ms\"},\
         \"setup_s\":{\"value\":0.5,\"unit\":\"s\"}}}"
    );
    assert!(!text.contains('\n'), "one line");
}

#[test]
fn spans_serialise_one_object_each() {
    let span = Span {
        name: "serve.connect",
        id: 7,
        parent: 3,
        op: 3,
        start_ns: 10,
        end_ns: 25,
    };
    assert_eq!(
        serde_json::to_string(&span).expect("serialises"),
        "{\"name\":\"serve.connect\",\"id\":7,\"parent\":3,\"op\":3,\"start_ns\":10,\"end_ns\":25}"
    );
}
