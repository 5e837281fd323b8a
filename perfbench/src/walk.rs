//! The two ways a workload runs a batched simulation.
//!
//! Untraced rounds call [`pad_trace::simulate_batch`], the fused engine
//! every experiment uses. Traced rounds call [`traced_batch`] instead:
//! the same compile, walk and sinks, but split at the layer boundaries
//! so each gets its own span — the walker fills segments of
//! [`SEGMENT`] accesses and every sink consumes each segment in turn.
//! Sinks see the same access stream in the same order, so both paths
//! produce identical statistics; the workloads check that they do.

use pad_bench::harness::Variant;
use pad_cache_sim::{Access, Cache, CacheConfig, ClassifyingCache, IndexFunction, ReuseAnalyzer};
use pad_core::DataLayout;
use pad_ir::Program;
use pad_trace::{BatchRequest, BatchResults, CompiledTrace};

use crate::trace;

/// Accesses per traced segment: large enough that one span covers
/// ~100 µs of work, small enough (1 MiB) to stay in the host's L2.
const SEGMENT: usize = 1 << 16;

/// A batched simulation: program × layout × sinks → statistics.
pub type Sim = fn(&Program, &DataLayout, &BatchRequest) -> BatchResults;

/// The sim a round uses: fused when untraced, decomposed when traced.
pub fn sim_for(traced: bool) -> Sim {
    if traced {
        traced_batch
    } else {
        pad_trace::simulate_batch
    }
}

/// Span and access-count names of a plain cache's stateful pass.
pub fn plain_layer(config: &CacheConfig) -> (&'static str, &'static str) {
    if config.index_function() == IndexFunction::Xor {
        return ("pad-cache-sim.xor", "pad-cache-sim.xor_accesses");
    }
    match config.ways() {
        1 => ("pad-cache-sim.dm", "pad-cache-sim.dm_accesses"),
        2 => ("pad-cache-sim.2w", "pad-cache-sim.2w_accesses"),
        4 => ("pad-cache-sim.4w", "pad-cache-sim.4w_accesses"),
        16 => ("pad-cache-sim.16w", "pad-cache-sim.16w_accesses"),
        _ => ("pad-cache-sim.nw", "pad-cache-sim.nw_accesses"),
    }
}

/// A variant's layout, under a `pad-core.layout` span.
pub fn layout(variant: Variant, program: &Program, cache: &CacheConfig) -> DataLayout {
    let _span = trace::span("pad-core.layout");
    trace::count("pad-core.layouts", 1.0);
    variant.layout(program, cache)
}

/// [`pad_trace::simulate_batch`] decomposed into spans: compile, walk,
/// and one span per sink per segment. Supports the plain, classified
/// and reuse sinks the kernel workloads request.
pub fn traced_batch(
    program: &Program,
    layout: &DataLayout,
    request: &BatchRequest,
) -> BatchResults {
    assert!(
        request.victim.is_empty() && request.hierarchy.is_empty() && request.heat.is_empty(),
        "traced_batch supports plain, classified and reuse sinks only"
    );
    let compiled = {
        let _span = trace::span("pad-trace.compile");
        CompiledTrace::compile(program, layout)
    };
    let mut plain: Vec<(Cache, (&'static str, &'static str))> = request
        .plain
        .iter()
        .map(|c| (Cache::new(*c), plain_layer(c)))
        .collect();
    let mut classified: Vec<ClassifyingCache> = request
        .classified
        .iter()
        .map(|c| ClassifyingCache::new(*c))
        .collect();
    let mut reuse: Vec<ReuseAnalyzer> = request
        .reuse
        .iter()
        .map(|&line| ReuseAnalyzer::new(line))
        .collect();
    let mut walked = 0u64;
    {
        let _walk = trace::span("pad-trace.walk");
        let mut buf: Vec<Access> = Vec::new();
        compiled.for_each_chunk(SEGMENT, &mut buf, |segment| {
            walked += segment.len() as u64;
            for (cache, (name, _)) in &mut plain {
                let _span = trace::span(name);
                cache.run_slice(segment);
            }
            for cache in &mut classified {
                let _span = trace::span("pad-cache-sim.classify");
                cache.run_slice(segment);
            }
            for analyzer in &mut reuse {
                let _span = trace::span("pad-cache-sim.reuse");
                analyzer.run_slice(segment);
            }
        });
    }
    let walked_f = walked as f64;
    trace::count("pad-trace.walk_accesses", walked_f);
    for (_, (_, accesses)) in &plain {
        trace::count(accesses, walked_f);
    }
    for analyzer in &reuse {
        trace::count("pad-cache-sim.reuse_accesses", walked_f);
        trace::count(
            "pad-cache-sim.reuse_distinct_lines",
            analyzer.distinct_lines() as f64,
        );
    }
    BatchResults {
        plain: plain.iter().map(|(c, _)| *c.stats()).collect(),
        classified: classified.iter().map(|c| *c.stats()).collect(),
        reuse: reuse
            .into_iter()
            .map(ReuseAnalyzer::into_histogram)
            .collect(),
        ..BatchResults::default()
    }
}
