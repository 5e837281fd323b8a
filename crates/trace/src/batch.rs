//! Batched simulation: every simulator a trace feeds, in one walk.
//!
//! A [`BatchRequest`] names every sink up front; a [`SinkSet`] tees each
//! chunk of accesses into all of them (a tight slice loop per simulator,
//! not a closure call per access per simulator). Any chunk source drives
//! it: a compiled kernel ([`simulate_batch`]) or a decoded trace file
//! (the `pad-trace-ingest` replayer).

use pad_cache_sim::{
    Access, Cache, CacheConfig, CacheStats, ClassifiedStats, ClassifyingCache, Hierarchy,
    LevelStats, ReuseAnalyzer, ReuseHistogram, SampledReuseAnalyzer, Sampler, SetHeatReport,
    SetHeatTracker, VictimCache, VictimStats,
};
use pad_core::DataLayout;
use pad_ir::Program;
use pad_telemetry::{registry, Counter, Event, Value};
use std::sync::{Arc, OnceLock};

use crate::compiled::CompiledTrace;

/// Chunk size used by the batched engine: big enough to amortize the
/// per-chunk sink loop, small enough to stay resident in L1/L2 while
/// several simulated caches touch it.
pub const BATCH_CHUNK: usize = 4096;

/// Everything one trace should be run through.
///
/// Build with the fluent `with_*` methods; empty requests are legal and
/// produce empty results.
#[derive(Debug, Clone, Default)]
pub struct BatchRequest {
    /// Plain single-level caches.
    pub plain: Vec<CacheConfig>,
    /// Caches with three-C miss classification.
    pub classified: Vec<CacheConfig>,
    /// Caches augmented with an `n`-line victim buffer.
    pub victim: Vec<(CacheConfig, usize)>,
    /// Multi-level hierarchies (each a list of levels, L1 first).
    pub hierarchy: Vec<Vec<CacheConfig>>,
    /// Reuse-distance (stack-distance) analyses, one per line size in
    /// bytes. Each yields a [`ReuseHistogram`] — the exact
    /// fully-associative LRU miss count for *every* capacity at once.
    pub reuse: Vec<u64>,
    /// SHARDS-sampled reuse-distance analyses, one per
    /// `(line_size, sample_log2)`: sampled at rate `2^-sample_log2`
    /// (0 = exact). Each yields a [`ReuseOutcome`].
    pub sampled_reuse: Vec<(u64, u32)>,
    /// Per-set heat classifications. Each yields a [`SetHeatReport`]
    /// naming which sets carry the conflict pressure — the evidence the
    /// XOR-indexing and victim-cache scenarios act on.
    pub heat: Vec<CacheConfig>,
}

impl BatchRequest {
    /// An empty request.
    pub fn new() -> Self {
        BatchRequest::default()
    }

    /// Adds a plain cache simulation.
    #[must_use]
    pub fn with_plain(mut self, config: CacheConfig) -> Self {
        self.plain.push(config);
        self
    }

    /// Adds several plain cache simulations.
    #[must_use]
    pub fn with_plain_configs<I: IntoIterator<Item = CacheConfig>>(mut self, configs: I) -> Self {
        self.plain.extend(configs);
        self
    }

    /// Adds a classified (three-C) simulation.
    #[must_use]
    pub fn with_classified(mut self, config: CacheConfig) -> Self {
        self.classified.push(config);
        self
    }

    /// Adds a victim-buffered simulation.
    #[must_use]
    pub fn with_victim(mut self, config: CacheConfig, victim_lines: usize) -> Self {
        self.victim.push((config, victim_lines));
        self
    }

    /// Adds a multi-level hierarchy simulation.
    #[must_use]
    pub fn with_hierarchy<I: IntoIterator<Item = CacheConfig>>(mut self, levels: I) -> Self {
        self.hierarchy.push(levels.into_iter().collect());
        self
    }

    /// Adds a reuse-distance analysis over lines of `line_size` bytes.
    #[must_use]
    pub fn with_reuse(mut self, line_size: u64) -> Self {
        self.reuse.push(line_size);
        self
    }

    /// Adds a reuse-distance analysis over lines of `line_size` bytes,
    /// SHARDS-sampled at rate `2^-sample_log2` (0 = exact).
    #[must_use]
    pub fn with_sampled_reuse(mut self, line_size: u64, sample_log2: u32) -> Self {
        self.sampled_reuse.push((line_size, sample_log2));
        self
    }

    /// Adds a per-set heat classification of `config`.
    #[must_use]
    pub fn with_heat(mut self, config: CacheConfig) -> Self {
        self.heat.push(config);
        self
    }

    /// Number of requested sinks.
    pub fn sinks(&self) -> usize {
        self.plain.len()
            + self.classified.len()
            + self.victim.len()
            + self.hierarchy.len()
            + self.reuse.len()
            + self.sampled_reuse.len()
            + self.heat.len()
    }

    /// True when no sink was requested.
    pub fn is_empty(&self) -> bool {
        self.sinks() == 0
    }
}

/// Results of a sampled reuse-distance sink.
#[derive(Debug, Clone)]
pub struct ReuseOutcome {
    /// The (rescaled, if sampled) distance histogram.
    pub histogram: ReuseHistogram,
    /// The sampling exponent the analysis ran with (0 = exact).
    pub sample_log2: u32,
    /// Accesses that entered the sampled sub-stream.
    pub sampled_accesses: u64,
}

/// Results of a batched walk, index-aligned with the request.
#[derive(Debug, Clone, Default)]
pub struct BatchResults {
    /// Per-[`BatchRequest::plain`] statistics, in request order.
    pub plain: Vec<CacheStats>,
    /// Per-[`BatchRequest::classified`] statistics, in request order.
    pub classified: Vec<ClassifiedStats>,
    /// Per-[`BatchRequest::victim`] statistics, in request order.
    pub victim: Vec<VictimStats>,
    /// Per-[`BatchRequest::hierarchy`] level statistics, in request order.
    pub hierarchy: Vec<Vec<LevelStats>>,
    /// Per-[`BatchRequest::reuse`] histograms, in request order.
    pub reuse: Vec<ReuseHistogram>,
    /// Per-[`BatchRequest::sampled_reuse`] outcomes, in request order.
    pub sampled_reuse: Vec<ReuseOutcome>,
    /// Per-[`BatchRequest::heat`] reports, in request order.
    pub heat: Vec<SetHeatReport>,
}

/// The live sinks of one walk, fed chunk by chunk from any access
/// source; any split of the same stream produces identical results.
///
/// With telemetry on, the set also owns the walk's instrumentation:
/// cache-counter samples every `RIVERA_SIM_SAMPLE` accesses (checked at
/// chunk boundaries, flushed at the end; victim buffers hide their main
/// cache and are not sampled), one end-of-walk counter per reuse and heat
/// sink, and one `sim` span named after the walk. With it off, the
/// sampler list is empty and every emit is a skipped closure.
pub struct SinkSet {
    name: String,
    plain: Vec<Cache>,
    classified: Vec<ClassifyingCache>,
    victim: Vec<VictimCache>,
    hierarchy: Vec<Hierarchy>,
    reuse: Vec<ReuseAnalyzer>,
    sampled_reuse: Vec<SampledReuseAnalyzer>,
    heat: Vec<SetHeatTracker>,
    samplers: Vec<Sampler>,
    sinks: u64,
    accesses: u64,
    chunks: u64,
    start_us: u64,
}

impl SinkSet {
    /// Instantiates every sink of `request`; `name` labels the walk's
    /// telemetry (the program name for kernel walks).
    pub fn new(request: &BatchRequest, name: &str) -> Self {
        let mut set = SinkSet {
            name: name.to_string(),
            plain: build(&request.plain, Cache::new),
            classified: build(&request.classified, ClassifyingCache::new),
            victim: build(&request.victim, |(c, n)| VictimCache::new(c, n)),
            hierarchy: build(&request.hierarchy, Hierarchy::new),
            reuse: build(&request.reuse, ReuseAnalyzer::new),
            sampled_reuse: build(&request.sampled_reuse, |(line, k)| {
                SampledReuseAnalyzer::new(line, k)
            }),
            heat: build(&request.heat, SetHeatTracker::new),
            samplers: Vec::new(),
            sinks: request.sinks() as u64,
            accesses: 0,
            chunks: 0,
            start_us: pad_telemetry::now_us(),
        };
        if pad_telemetry::enabled() {
            let interval = pad_telemetry::sample_interval();
            let levels = set.hierarchy.iter().enumerate().flat_map(|(i, h)| {
                (1..=h.levels().len()).map(move |l| format!("{name}/hier{i}.L{l}"))
            });
            // One sampler per `watched` cache, or none when sampling is
            // off, so the per-chunk sampler loop then iterates zero times.
            set.samplers = (0..set.plain.len())
                .map(|i| format!("{name}/plain{i}"))
                .chain((0..set.classified.len()).map(|i| format!("{name}/classified{i}")))
                .chain(levels)
                .filter_map(|label| Sampler::new(label, interval))
                .collect();
        }
        set
    }

    /// Runs one chunk of accesses through every sink.
    // Kept out of line: inlined into a walker's per-access closure, the
    // sink loops slow the hot generation loop (`bench_telemetry` gate).
    #[inline(never)]
    pub fn feed(&mut self, chunk: &[Access]) {
        self.accesses += chunk.len() as u64;
        self.chunks += 1;
        for cache in &mut self.plain {
            cache.run_slice(chunk);
        }
        for cache in &mut self.classified {
            cache.run_slice(chunk);
        }
        for cache in &mut self.victim {
            cache.run_slice(chunk);
        }
        for h in &mut self.hierarchy {
            h.run_slice(chunk);
        }
        for r in &mut self.reuse {
            r.run_slice(chunk);
        }
        for r in &mut self.sampled_reuse {
            r.run_slice(chunk);
        }
        for h in &mut self.heat {
            h.run_slice(chunk);
        }
        let caches = watched(&self.plain, &self.classified, &self.hierarchy);
        for (s, cache) in self.samplers.iter_mut().zip(caches) {
            s.tick(cache);
        }
    }

    /// Accesses fed so far.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Ends the walk: flushes the samplers, emits the end-of-walk
    /// counters and the `sim` span, and collects every sink's result.
    pub fn finish(self) -> BatchResults {
        let name = &self.name;
        // End-of-walk flush so short walks still yield one data point each.
        let caches = watched(&self.plain, &self.classified, &self.hierarchy);
        for (s, cache) in self.samplers.iter().zip(caches) {
            s.sample(cache);
        }
        for (i, r) in self.reuse.iter().enumerate() {
            pad_telemetry::emit(|| {
                let h = r.histogram();
                Event::counter(
                    "reuse",
                    format!("{name}/reuse{i}"),
                    vec![
                        ("accesses", Value::U64(h.accesses())),
                        ("distinct_lines", Value::U64(h.cold())),
                        ("max_distance", Value::U64(h.max_distance().unwrap_or(0))),
                        ("compactions", Value::U64(r.compactions())),
                    ],
                )
            });
        }
        for (i, r) in self.sampled_reuse.iter().enumerate() {
            pad_telemetry::emit(|| {
                Event::counter(
                    "reuse",
                    format!("{name}/sampled_reuse{i}"),
                    vec![
                        ("sample_log2", Value::U64(u64::from(r.sample_log2()))),
                        ("sampled", Value::U64(r.sampled_accesses())),
                        ("total", Value::U64(r.total_accesses())),
                        (
                            "distinct_sampled_lines",
                            Value::U64(r.distinct_sampled_lines() as u64),
                        ),
                    ],
                )
            });
        }
        let heat: Vec<SetHeatReport> = self.heat.iter().map(SetHeatTracker::report).collect();
        for (i, report) in heat.iter().enumerate() {
            pad_telemetry::emit(|| {
                let c = report.class_counts();
                Event::counter(
                    "heat",
                    format!("{name}/heat{i}"),
                    vec![
                        ("very_hot_sets", Value::U64(c[0])),
                        ("hot_sets", Value::U64(c[1])),
                        ("cold_sets", Value::U64(c[2])),
                        ("very_cold_sets", Value::U64(c[3])),
                        ("evictions", Value::U64(report.total_evictions())),
                    ],
                )
            });
        }
        pad_telemetry::emit(|| {
            let busy_us = pad_telemetry::now_us().saturating_sub(self.start_us).max(1);
            Event::span(
                self.start_us,
                "sim",
                name.clone(),
                vec![
                    ("accesses", Value::U64(self.accesses)),
                    ("chunks", Value::U64(self.chunks)),
                    ("sinks", Value::U64(self.sinks)),
                    (
                        "accesses_per_sec",
                        Value::F64(self.accesses as f64 / (busy_us as f64 / 1e6)),
                    ),
                ],
            )
        });
        // Live-metrics accounting happens once per walk, after it: the
        // per-chunk loop stays untouched in every mode.
        if self.accesses > 0 && pad_telemetry::metrics_enabled() {
            static ACCESSES: OnceLock<Arc<Counter>> = OnceLock::new();
            let help = "Accesses walked by the batched simulation engine.";
            ACCESSES
                .get_or_init(|| registry().counter("pad_sim_accesses_total", help))
                .add(self.accesses);
        }

        BatchResults {
            plain: self.plain.iter().map(|c| *c.stats()).collect(),
            classified: self.classified.iter().map(|c| *c.stats()).collect(),
            victim: self.victim.iter().map(|c| *c.stats()).collect(),
            hierarchy: self.hierarchy.iter().map(Hierarchy::stats).collect(),
            reuse: self
                .reuse
                .into_iter()
                .map(ReuseAnalyzer::into_histogram)
                .collect(),
            sampled_reuse: self
                .sampled_reuse
                .into_iter()
                .map(|r| ReuseOutcome {
                    sample_log2: r.sample_log2(),
                    sampled_accesses: r.sampled_accesses(),
                    histogram: r.into_histogram(),
                })
                .collect(),
            heat,
        }
    }
}

/// The caches counter samplers watch, in sampler order: each plain
/// cache, each classified sink's main cache, each hierarchy level.
fn watched<'a>(
    plain: &'a [Cache],
    classified: &'a [ClassifyingCache],
    hierarchy: &'a [Hierarchy],
) -> impl Iterator<Item = &'a Cache> {
    let levels = hierarchy.iter().flat_map(Hierarchy::levels);
    plain
        .iter()
        .chain(classified.iter().map(ClassifyingCache::main))
        .chain(levels)
}

/// One sink per request entry, in request order.
fn build<C: Clone, S>(entries: &[C], sink: impl FnMut(C) -> S) -> Vec<S> {
    entries.iter().cloned().map(sink).collect()
}

/// Compiles `program` × `layout` and runs the trace through every sink in
/// the request with a single walk.
///
/// Equivalent, sink for sink, to calling [`crate::simulate_program`],
/// [`crate::simulate_classified`], [`crate::simulate_victim`], and
/// [`crate::simulate_hierarchy`] separately (the `batch` test module and
/// the bench determinism suite assert this bit-for-bit).
///
/// # Example
///
/// ```
/// use pad_cache_sim::CacheConfig;
/// use pad_core::DataLayout;
/// use pad_trace::{simulate_batch, BatchRequest};
///
/// let program = pad_kernels::jacobi::spec(32);
/// let layout = DataLayout::original(&program);
/// let results = simulate_batch(
///     &program,
///     &layout,
///     &BatchRequest::new()
///         .with_plain(CacheConfig::paper_base())
///         .with_classified(CacheConfig::paper_base()),
/// );
/// assert_eq!(results.plain[0], results.classified[0].cache);
/// ```
pub fn simulate_batch(
    program: &Program,
    layout: &DataLayout,
    request: &BatchRequest,
) -> BatchResults {
    thread_local! {
        // One persistent chunk buffer per thread: sweep workers call
        // `simulate_batch` per cell, and reusing the allocation keeps
        // the chunk's backing store hot in cache across walks instead
        // of paying an allocator round-trip per call. Sinks never call
        // back into `simulate_batch`, so the borrow cannot be re-entered.
        static CHUNK_BUF: std::cell::RefCell<Vec<Access>> =
            const { std::cell::RefCell::new(Vec::new()) };
    }
    let compiled = CompiledTrace::compile(program, layout);
    CHUNK_BUF.with(|buf| {
        let mut buf = buf.borrow_mut();
        simulate_batch_compiled(&compiled, request, &mut buf)
    })
}

/// [`simulate_batch`] for an already-compiled trace, reusing a
/// caller-owned chunk buffer across calls (the experiment runner keeps
/// one buffer per worker thread).
pub fn simulate_batch_compiled(
    trace: &CompiledTrace,
    request: &BatchRequest,
    buf: &mut Vec<Access>,
) -> BatchResults {
    if request.is_empty() {
        return BatchResults::default();
    }
    let mut set = SinkSet::new(request, trace.name());
    trace.for_each_chunk(BATCH_CHUNK, buf, |chunk| set.feed(chunk));
    set.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::{simulate_classified, simulate_hierarchy, simulate_program, simulate_victim};

    #[test]
    fn batch_matches_individual_entry_points() {
        let program = pad_kernels::shal::spec(24);
        let layout = DataLayout::original(&program);
        let dm = CacheConfig::direct_mapped(1024, 32);
        let assoc = CacheConfig::set_associative(2048, 32, 2);
        let l2 = CacheConfig::set_associative(8 * 1024, 64, 4);

        let results = simulate_batch(
            &program,
            &layout,
            &BatchRequest::new()
                .with_plain(dm)
                .with_plain(assoc)
                .with_classified(dm)
                .with_victim(dm, 4)
                .with_hierarchy([dm, l2]),
        );

        assert_eq!(results.plain[0], simulate_program(&program, &layout, &dm));
        assert_eq!(
            results.plain[1],
            simulate_program(&program, &layout, &assoc)
        );
        assert_eq!(
            results.classified[0],
            simulate_classified(&program, &layout, &dm)
        );
        assert_eq!(
            results.victim[0],
            simulate_victim(&program, &layout, &dm, 4)
        );
        assert_eq!(
            results.hierarchy[0],
            simulate_hierarchy(&program, &layout, &[dm, l2])
        );
    }

    #[test]
    fn empty_request_yields_empty_results() {
        let program = pad_kernels::dot::spec(16);
        let layout = DataLayout::original(&program);
        let results = simulate_batch(&program, &layout, &BatchRequest::new());
        assert!(results.plain.is_empty());
        assert!(results.classified.is_empty());
        assert!(results.victim.is_empty());
        assert!(results.hierarchy.is_empty());
        assert!(results.reuse.is_empty());
        assert!(results.heat.is_empty());
    }

    #[test]
    fn batch_heat_matches_standalone_tracker_and_plain_stats() {
        use pad_cache_sim::SetHeatTracker;

        let program = pad_kernels::jacobi::spec(24);
        let layout = DataLayout::original(&program);
        let dm = CacheConfig::direct_mapped(1024, 32);
        let results = simulate_batch(
            &program,
            &layout,
            &BatchRequest::new().with_plain(dm).with_heat(dm),
        );

        let compiled = CompiledTrace::compile(&program, &layout);
        let mut reference = SetHeatTracker::new(dm);
        compiled.for_each(|a| reference.access(a));
        assert_eq!(results.heat[0], reference.report());

        // Per-set tallies reconcile with the plain simulation of the
        // same geometry.
        let accesses: u64 = results.heat[0].rows().iter().map(|r| r.accesses).sum();
        let misses: u64 = results.heat[0].rows().iter().map(|r| r.misses).sum();
        assert_eq!(accesses, results.plain[0].accesses);
        assert_eq!(misses, results.plain[0].misses);
    }

    #[test]
    fn instrumented_heat_sink_emits_class_census() {
        let program = pad_kernels::jacobi::spec(24);
        let layout = DataLayout::original(&program);
        let dm = CacheConfig::direct_mapped(1024, 32);
        let request = BatchRequest::new().with_heat(dm);

        let baseline = simulate_batch(&program, &layout, &request);
        let recorder = pad_telemetry::install_recorder(pad_telemetry::Mode::Events);
        let instrumented = simulate_batch(&program, &layout, &request);
        pad_telemetry::uninstall();

        assert_eq!(baseline.heat, instrumented.heat);
        let events = recorder.snapshot();
        let heat_counters: Vec<_> = events.iter().filter(|e| e.category == "heat").collect();
        assert_eq!(heat_counters.len(), 1);
        let census: u64 = ["very_hot_sets", "hot_sets", "cold_sets", "very_cold_sets"]
            .iter()
            .map(|k| {
                heat_counters[0]
                    .arg(k)
                    .and_then(pad_telemetry::Value::as_u64)
                    .expect("census key present")
            })
            .sum();
        assert_eq!(census, baseline.heat[0].num_sets());
        let sim_span = events
            .iter()
            .find(|e| e.category == "sim" && e.name == program.name())
            .expect("walk span");
        assert_eq!(
            sim_span.arg("sinks").and_then(pad_telemetry::Value::as_u64),
            Some(1)
        );
    }

    #[test]
    fn batch_reuse_matches_standalone_analyzer() {
        let program = pad_kernels::jacobi::spec(24);
        let layout = DataLayout::original(&program);
        let results = simulate_batch(
            &program,
            &layout,
            &BatchRequest::new().with_reuse(32).with_reuse(64),
        );

        let compiled = CompiledTrace::compile(&program, &layout);
        for (i, &line_size) in [32u64, 64].iter().enumerate() {
            let mut reference = ReuseAnalyzer::new(line_size);
            compiled.for_each(|a| reference.access(a));
            assert_eq!(
                results.reuse[i],
                *reference.histogram(),
                "line_size={line_size}"
            );
        }

        // The histogram agrees with a plain fully-associative simulation
        // at a spot-check capacity (64 lines of 32 B).
        let fa = CacheConfig::fully_associative(64 * 32, 32);
        let stats = simulate_program(&program, &layout, &fa);
        assert_eq!(results.reuse[0].misses_at(64), stats.misses);
        assert_eq!(results.reuse[0].accesses(), stats.accesses);
    }

    #[test]
    fn sampled_reuse_at_full_rate_matches_exact_reuse() {
        let program = pad_kernels::jacobi::spec(24);
        let layout = DataLayout::original(&program);
        let results = simulate_batch(
            &program,
            &layout,
            &BatchRequest::new()
                .with_reuse(32)
                .with_sampled_reuse(32, 0)
                .with_sampled_reuse(32, 2),
        );
        let exact = &results.sampled_reuse[0];
        assert_eq!(exact.histogram, results.reuse[0]);
        assert_eq!(exact.sampled_accesses, results.reuse[0].accesses());
        assert_eq!(results.sampled_reuse[1].sample_log2, 2);
        assert!(results.sampled_reuse[1].sampled_accesses < exact.sampled_accesses);
    }

    #[test]
    fn instrumented_walk_matches_plain_and_emits_events() {
        let program = pad_kernels::jacobi::spec(24);
        let layout = DataLayout::original(&program);
        let dm = CacheConfig::direct_mapped(1024, 32);
        let l2 = CacheConfig::set_associative(8 * 1024, 64, 4);
        let request = BatchRequest::new()
            .with_plain(dm)
            .with_classified(dm)
            .with_victim(dm, 4)
            .with_hierarchy([dm, l2])
            .with_reuse(32);

        let baseline = simulate_batch(&program, &layout, &request);
        let recorder = pad_telemetry::install_recorder(pad_telemetry::Mode::Events);
        let instrumented = simulate_batch(&program, &layout, &request);
        pad_telemetry::uninstall();

        assert_eq!(baseline.plain, instrumented.plain);
        assert_eq!(baseline.classified, instrumented.classified);
        assert_eq!(baseline.victim, instrumented.victim);
        assert_eq!(baseline.hierarchy, instrumented.hierarchy);
        assert_eq!(baseline.reuse, instrumented.reuse);

        let events = recorder.snapshot();
        let sim_spans: Vec<_> = events
            .iter()
            .filter(|e| e.category == "sim" && e.name == program.name())
            .collect();
        assert_eq!(sim_spans.len(), 1, "one walk span per batch");
        assert_eq!(
            sim_spans[0]
                .arg("sinks")
                .and_then(pad_telemetry::Value::as_u64),
            Some(5)
        );
        let accesses = sim_spans[0]
            .arg("accesses")
            .and_then(pad_telemetry::Value::as_u64)
            .expect("accesses recorded");
        assert_eq!(accesses, baseline.plain[0].accesses);
        // End-of-walk flush: one counter per sampled level (plain +
        // classified main + two hierarchy levels; victim is unsampled).
        let cache_counters = events.iter().filter(|e| e.category == "cache").count();
        assert_eq!(cache_counters, 4);
        // ...plus one end-of-walk reuse counter carrying the histogram
        // shape.
        let reuse_counters: Vec<_> = events.iter().filter(|e| e.category == "reuse").collect();
        assert_eq!(reuse_counters.len(), 1);
        assert_eq!(
            reuse_counters[0]
                .arg("accesses")
                .and_then(pad_telemetry::Value::as_u64),
            Some(baseline.reuse[0].accesses())
        );
        assert_eq!(
            reuse_counters[0]
                .arg("distinct_lines")
                .and_then(pad_telemetry::Value::as_u64),
            Some(baseline.reuse[0].cold())
        );
    }

    #[test]
    fn chunking_is_invisible() {
        // Walk the same compiled trace with pathological chunk sizes; the
        // concatenation must always equal the plain stream.
        let program = pad_kernels::jacobi::spec(20);
        let layout = DataLayout::original(&program);
        let compiled = CompiledTrace::compile(&program, &layout);
        let mut plain = Vec::new();
        compiled.for_each(|a| plain.push(a));
        for chunk in [1usize, 2, 3, 7, 1024, usize::MAX >> 32] {
            let mut buf = Vec::new();
            let mut chunked = Vec::new();
            compiled.for_each_chunk(chunk, &mut buf, |c| chunked.extend_from_slice(c));
            assert_eq!(plain, chunked, "chunk={chunk}");
        }
    }
}
