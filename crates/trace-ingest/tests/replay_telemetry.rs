//! Telemetry of a trace replay, recorded as events.
//!
//! A test binary of its own: the event recorder is process-global, so
//! no other test may run walks while this one records.

use pad_cache_sim::{Access, CacheConfig};
use pad_telemetry::{install_recorder, summarize, uninstall, Mode, Value};
use pad_trace_ingest::replay::{ReplayRequest, Replayer};

#[test]
fn replay_files_heat_census_under_heat_and_takes_no_cache_samples() {
    let cache = CacheConfig::try_new(1024, 32, 1).unwrap();
    let request = ReplayRequest::new().with_heat(cache).with_reuse(32, 2);
    let trace: Vec<Access> = (0..20_000u64)
        .map(|i| Access::read(i * 96 % 8192))
        .collect();

    let recorder = install_recorder(Mode::Events);
    let mut replayer = Replayer::new(&request);
    for chunk in trace.chunks(4096) {
        replayer.feed(chunk);
    }
    let results = replayer.finish();
    uninstall();

    let events = recorder.snapshot();
    let heat: Vec<_> = events.iter().filter(|e| e.category == "heat").collect();
    assert_eq!(heat.len(), 1, "one heat census per heat sink");
    let census: u64 = ["very_hot_sets", "hot_sets", "cold_sets", "very_cold_sets"]
        .iter()
        .map(|k| heat[0].arg(k).and_then(Value::as_u64).expect("census key"))
        .sum();
    assert_eq!(census, results.heat[0].num_sets());
    assert!(events.iter().any(|e| e.category == "reuse"));

    let summary = summarize(&events);
    assert_eq!(
        summary.cache_samples, 0,
        "a heat census is not a cache sample"
    );
    let walk = summary
        .kernels
        .iter()
        .find(|k| k.name == "ingest")
        .expect("replay walk span");
    assert_eq!(walk.accesses, trace.len() as u64);
}
