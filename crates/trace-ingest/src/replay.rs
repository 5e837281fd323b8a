//! Replaying an ingested trace through the cache simulator.
//!
//! A [`Replayer`] is the batched engine's [`SinkSet`], fed chunk by chunk
//! from the streaming readers, plus the `pad_ingest_*` metrics. One pass
//! over the file answers every configured question in the memory of the
//! sinks plus one chunk. Replay and kernel walks share the sink set, so a
//! trace recorded from a built-in kernel replays to bit-identical counts.

use pad_cache_sim::{Access, CacheConfig, CacheStats, SetHeatReport, VictimStats};
use pad_trace::{BatchRequest, SinkSet};

use crate::metrics::ingest_metrics;

pub use pad_trace::ReuseOutcome;

/// What a replay should measure. Build with the `with_*` methods; an
/// empty request still counts records (useful as a format check).
#[derive(Debug, Clone, Default)]
pub struct ReplayRequest {
    batch: BatchRequest,
}

impl ReplayRequest {
    /// An empty request.
    pub fn new() -> Self {
        ReplayRequest::default()
    }

    /// Adds a plain cache simulation (any geometry, XOR-indexed
    /// included).
    pub fn with_plain(mut self, config: CacheConfig) -> Self {
        self.batch = self.batch.with_plain(config);
        self
    }

    /// Adds a victim-cache scenario: `config` backed by a
    /// `victim_lines`-entry fully-associative victim buffer.
    pub fn with_victim(mut self, config: CacheConfig, victim_lines: usize) -> Self {
        self.batch = self.batch.with_victim(config, victim_lines);
        self
    }

    /// Adds a per-set heat classification of `config`.
    pub fn with_heat(mut self, config: CacheConfig) -> Self {
        self.batch = self.batch.with_heat(config);
        self
    }

    /// Sets the reuse-distance analysis at `line_size`, sampled at rate
    /// `2^-sample_log2` (0 = exact), replacing any earlier one.
    pub fn with_reuse(mut self, line_size: u64, sample_log2: u32) -> Self {
        self.batch.sampled_reuse = vec![(line_size, sample_log2)];
        self
    }
}

/// Everything a finished replay measured.
#[derive(Debug, Clone)]
pub struct ReplayResults {
    /// Records replayed.
    pub accesses: u64,
    /// Statistics per [`ReplayRequest::with_plain`] entry, in order.
    pub plain: Vec<CacheStats>,
    /// Statistics per [`ReplayRequest::with_victim`] entry, in order.
    pub victim: Vec<VictimStats>,
    /// Reports per [`ReplayRequest::with_heat`] entry, in order.
    pub heat: Vec<SetHeatReport>,
    /// Reuse-distance outcome, if requested.
    pub reuse: Option<ReuseOutcome>,
}

/// The live sinks of an in-progress replay.
pub struct Replayer {
    sinks: SinkSet,
    start_us: u64,
}

impl Replayer {
    /// Instantiates the sinks of `request`.
    pub fn new(request: &ReplayRequest) -> Self {
        Replayer {
            sinks: SinkSet::new(&request.batch, "ingest"),
            start_us: pad_telemetry::now_us(),
        }
    }

    /// Feeds one decoded chunk to every sink. Chunk boundaries are
    /// invisible to the results — any split of the same trace produces
    /// identical outcomes.
    pub fn feed(&mut self, chunk: &[Access]) {
        if pad_telemetry::metrics_enabled() {
            ingest_metrics().records.add(chunk.len() as u64);
        }
        self.sinks.feed(chunk);
    }

    /// Closes the replay, emitting telemetry and collecting results.
    pub fn finish(self) -> ReplayResults {
        let accesses = self.sinks.accesses();
        let results = self.sinks.finish();
        if pad_telemetry::metrics_enabled() {
            let m = ingest_metrics();
            let elapsed = pad_telemetry::now_us().saturating_sub(self.start_us);
            m.replays.inc();
            m.replay_us.record(elapsed);
            if elapsed > 0 {
                let rate = (accesses as f64 * 1e6 / elapsed as f64) as i64;
                m.replay_records_per_sec.set(rate);
            }
        }
        ReplayResults {
            accesses,
            plain: results.plain,
            victim: results.victim,
            heat: results.heat,
            reuse: results.sampled_reuse.into_iter().next(),
        }
    }
}

/// One-call replay of an in-memory trace (tests, small traces).
pub fn replay_slice(trace: &[Access], request: &ReplayRequest) -> ReplayResults {
    let mut replayer = Replayer::new(request);
    replayer.feed(trace);
    replayer.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pad_cache_sim::{Cache, XorShift64Star};

    fn trace(n: usize) -> Vec<Access> {
        let mut rng = XorShift64Star::new(3);
        (0..n)
            .map(|_| {
                let addr = rng.below(1 << 13);
                if rng.below(4) == 0 {
                    Access::write(addr)
                } else {
                    Access::read(addr)
                }
            })
            .collect()
    }

    #[test]
    fn chunk_boundaries_do_not_change_results() {
        let t = trace(10_000);
        let request = ReplayRequest::new()
            .with_plain(CacheConfig::try_new(1024, 32, 1).unwrap())
            .with_victim(CacheConfig::try_new(1024, 32, 1).unwrap(), 8)
            .with_heat(CacheConfig::try_new(1024, 32, 2).unwrap())
            .with_reuse(32, 0);

        let whole = replay_slice(&t, &request);
        let mut split = Replayer::new(&request);
        for chunk in t.chunks(997) {
            split.feed(chunk);
        }
        let split = split.finish();

        assert_eq!(whole.accesses, split.accesses);
        assert_eq!(whole.plain, split.plain);
        assert_eq!(whole.victim, split.victim);
        assert_eq!(whole.heat, split.heat);
        assert_eq!(
            whole.reuse.as_ref().unwrap().histogram,
            split.reuse.as_ref().unwrap().histogram
        );
    }

    #[test]
    fn plain_replay_matches_direct_cache_run() {
        let t = trace(5000);
        let cfg = CacheConfig::try_new(2048, 32, 4).unwrap();
        let mut direct = Cache::new(cfg);
        direct.run_slice(&t);
        let results = replay_slice(&t, &ReplayRequest::new().with_plain(cfg));
        assert_eq!(&results.plain[0], direct.stats());
    }

    #[test]
    fn empty_request_counts_records() {
        let results = replay_slice(&trace(123), &ReplayRequest::new());
        assert_eq!(results.accesses, 123);
        assert!(results.plain.is_empty() && results.heat.is_empty());
    }
}
