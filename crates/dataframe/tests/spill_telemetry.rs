//! The `dataframe.spill_bytes` counter lives in the process-global
//! telemetry registry, so any concurrent test that spills while
//! telemetry is on would move it. This file is its own test binary
//! holding exactly one test, so nothing else in the process spills.

use geotorch_dataframe::{Column, DataFrame, SpillStore};

#[test]
fn counts_spilled_bytes_in_telemetry() {
    let df = DataFrame::from_columns(vec![
        ("lat".into(), Column::F64(vec![40.7, 40.8, 40.9, 41.0])),
        ("count".into(), Column::I64(vec![1, 2, 3, 4])),
        ("zone".into(), Column::Str(vec!["a".into(), "".into(), "b".into(), "über".into()])),
    ])
    .unwrap();
    let dir = std::env::temp_dir().join(format!(
        "geotorch-spill-telemetry-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);

    geotorch_telemetry::reset();
    geotorch_telemetry::set_enabled(true);
    let store = SpillStore::from_frame(&dir, &df).unwrap();
    geotorch_telemetry::set_enabled(false);
    let snap = geotorch_telemetry::snapshot();
    let stat = snap
        .iter()
        .find(|s| s.name == "dataframe.spill_bytes")
        .expect("spill_bytes counter");
    assert!(store.spilled_bytes() > 0);
    assert_eq!(stat.count, store.spilled_bytes());
}
