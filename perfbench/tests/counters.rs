//! The traced run's work counters repeat exactly for a seed, and match
//! the sums recorded for the default seed in `counters-default-seed.json`.

use std::path::Path;

use les3_net::json::Json;
use les3_perfbench::trace::counter_sums;
use les3_perfbench::workload::{Data, ALL, DEFAULT_SEED};

#[test]
fn counter_sums_repeat_and_match_the_record() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let work = root.join("..").join(".bench_out").join("test-counters");
    std::fs::create_dir_all(&work).unwrap();
    let text = std::fs::read_to_string(root.join("counters-default-seed.json")).unwrap();
    let record = Json::parse(&text).unwrap();
    assert_eq!(
        record.get("seed").and_then(Json::as_u64),
        Some(DEFAULT_SEED)
    );
    for workload in ALL {
        let ops = workload.replay_ops();
        let first = counter_sums(&Data::generate(workload, DEFAULT_SEED), ops, &work);
        let second = counter_sums(&Data::generate(workload, DEFAULT_SEED), ops, &work);
        assert_eq!(
            first,
            second,
            "{}: counters differ between runs",
            workload.name()
        );
        let recorded = record.get(workload.name()).unwrap();
        let field = |name: &str| recorded.get(name).and_then(Json::as_u64).unwrap();
        assert_eq!(
            (first.columns_checked, first.candidates, first.sims_computed),
            (
                field("columns_checked"),
                field("candidates"),
                field("sims_computed")
            ),
            "{}: counters moved from the record",
            workload.name()
        );
        assert_eq!(recorded.get("ops").and_then(Json::as_u64), Some(ops as u64));
    }
    std::fs::remove_dir_all(&work).unwrap();
}
