//! `ingest`: replays PTRC trace files recorded at set-up.
//!
//! Set-up sizes each of eight bundled kernels to about a million
//! accesses, then records JACOBI512 in its original layout and each of
//! the eight, in seeded order and each in a seeded original or PAD
//! layout, to PTRC files. All eight are recorded because the peak memory
//! is that of the largest replay: with a seeded subset it depended on
//! whether the largest footprint was picked. A round replays every file,
//! each between two reference probes (see [`probe`](crate::probe)),
//! through `read_trace_file` into a `Replayer` with the sink set
//! `padtool ingest --xor --victim 8 --heat --mrc --sample 4` builds on
//! the 16K direct-mapped cache: plain and XOR-indexed caches, an 8-line
//! victim buffer, per-set heat, and SHARDS reuse sampling at 1/16.
//!
//! Checks: every replay's plain, XOR, victim and heat results equal
//! `pad_trace::simulate_batch` on the recorded program and layout, its
//! record count equals the recorded one, and its sampled reuse histogram
//! equals the first round's.

use std::fs::File;
use std::io::BufWriter;
use std::path::{Path, PathBuf};
use std::time::Instant;

use pad_bench::harness::Variant;
use pad_cache_sim::{
    Access, Cache, CacheConfig, CacheStats, IndexFunction, ReuseHistogram, SampledReuseAnalyzer,
    SetHeatReport, SetHeatTracker, VictimCache, VictimStats,
};
use pad_core::DataLayout;
use pad_ir::Program;
use pad_trace::{simulate_batch, BatchRequest, CompiledTrace};
use pad_trace_ingest::binary::BinaryTraceWriter;
use pad_trace_ingest::replay::{ReplayRequest, Replayer};
use pad_trace_ingest::{read_trace_file, TraceFormat};

use crate::common::{repeat_setup, round_loop, shuffle, Env, Report, Timed};
use crate::probe;
use crate::trace;

/// Recorded in every set-up.
const FIXED: &str = "JACOBI512";
/// Recorded in seeded order and layouts.
const SEEDED: [&str; 8] = [
    "EXPL512", "SHAL512", "ADI512", "RB512", "TOMCATV", "HYDRO2D", "DGEFA256", "MULT300",
];
/// Seeded traces are sized to at least this many accesses.
const TARGET_ACCESSES: u64 = 1_000_000;
const VICTIM_LINES: usize = 8;
const SAMPLE_LOG2: u32 = 4;

struct Recorded {
    label: String,
    path: PathBuf,
    program: Program,
    layout: DataLayout,
    records: u64,
}

/// What one replay produced.
#[derive(Clone, PartialEq, Debug)]
struct Replayed {
    records: u64,
    plain: Vec<CacheStats>,
    victim: VictimStats,
    heat: SetHeatReport,
    reuse: ReuseHistogram,
}

fn cache() -> CacheConfig {
    CacheConfig::paper_base()
}

fn request() -> ReplayRequest {
    let c = cache();
    ReplayRequest::new()
        .with_plain(c)
        .with_plain(c.with_index_function(IndexFunction::Xor))
        .with_victim(c, VICTIM_LINES)
        .with_heat(c)
        .with_reuse(c.line_size(), SAMPLE_LOG2)
}

/// The smallest size at which `spec` reaches `TARGET_ACCESSES`.
fn size_for_target(spec: fn(i64) -> Program) -> i64 {
    let count = |n: i64| {
        let p = spec(n);
        CompiledTrace::compile(&p, &DataLayout::original(&p)).count()
    };
    let (mut lo, mut hi) = (8i64, 8i64);
    while count(hi) < TARGET_ACCESSES {
        lo = hi;
        hi *= 2;
    }
    while hi - lo > 1 {
        let mid = (lo + hi) / 2;
        if count(mid) >= TARGET_ACCESSES {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    hi
}

fn record(program: &Program, layout: &DataLayout, path: &Path) -> Result<u64, String> {
    let err = |e: std::io::Error| format!("recording {}: {e}", path.display());
    let mut out = BufWriter::new(File::create(path).map_err(err)?);
    let mut writer = BinaryTraceWriter::new(&mut out).map_err(err)?;
    let mut failed = None;
    CompiledTrace::compile(program, layout).for_each(|a| {
        if failed.is_none() {
            failed = writer.write(a).err();
        }
    });
    if let Some(e) = failed {
        return Err(err(e));
    }
    let records = writer.records();
    writer.finish().map_err(err)?;
    Ok(records)
}

fn setup(env: &Env) -> Result<Vec<Recorded>, String> {
    let dir = env.out_dir.join("ingest");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let suite = pad_kernels::suite();
    let find = |name: &str| {
        suite
            .iter()
            .find(|k| k.name == name)
            .expect("ingest kernels are in the suite")
    };
    let mut seeded: Vec<(&str, i64)> = SEEDED
        .iter()
        .map(|&name| (name, size_for_target(find(name).spec)))
        .collect();
    let mut rng = env.rng(4);
    shuffle(&mut rng, &mut seeded);
    let mut traces = Vec::new();
    for (i, (name, n)) in std::iter::once((FIXED, find(FIXED).default_n))
        .chain(seeded.iter().copied())
        .enumerate()
    {
        let kernel = find(name);
        // JACOBI512, the longest replay and so the round's tail, is always
        // in its original layout, so the tail does not depend on the seed.
        let variant = if name == FIXED || rng.below(2) == 0 {
            Variant::Original
        } else {
            Variant::Pad
        };
        let program = (kernel.spec)(n);
        let layout = variant.layout(&program, &cache());
        let path = dir.join(format!("trace{i}.ptrc"));
        let records = record(&program, &layout, &path)?;
        traces.push(Recorded {
            label: format!("{name} n={n} {}", variant.label()),
            path,
            program,
            layout,
            records,
        });
    }
    Ok(traces)
}

fn replay(path: &Path) -> Result<Replayed, String> {
    let mut replayer = Replayer::new(&request());
    let records = read_trace_file(path, Some(TraceFormat::Binary), |chunk| {
        replayer.feed(chunk)
    })
    .map_err(|e| format!("{}: {e}", path.display()))?;
    let r = replayer.finish();
    Ok(Replayed {
        records,
        plain: r.plain,
        victim: r.victim[0],
        heat: r.heat.into_iter().next().expect("one heat sink"),
        reuse: r.reuse.expect("reuse requested").histogram,
    })
}

/// The replay split at the sink boundary: each chunk the reader decodes
/// goes to each sink in turn under its own span, as `Replayer::feed`
/// passes it, inside a `pad-trace-ingest.replay` span whose self time is
/// the reader's decoding.
fn replay_traced(path: &Path) -> Result<Replayed, String> {
    let c = cache();
    let _replay = trace::span("pad-trace-ingest.replay");
    let mut dm = Cache::new(c);
    let mut xor = Cache::new(c.with_index_function(IndexFunction::Xor));
    let mut victim = VictimCache::new(c, VICTIM_LINES);
    let mut heat = SetHeatTracker::new(c);
    let mut reuse = SampledReuseAnalyzer::new(c.line_size(), SAMPLE_LOG2);
    let records = read_trace_file(path, Some(TraceFormat::Binary), |chunk: &[Access]| {
        {
            let _s = trace::span("pad-cache-sim.dm");
            dm.run_slice(chunk);
        }
        {
            let _s = trace::span("pad-cache-sim.xor");
            xor.run_slice(chunk);
        }
        {
            let _s = trace::span("pad-cache-sim.victim");
            victim.run_slice(chunk);
        }
        {
            let _s = trace::span("pad-cache-sim.heat");
            heat.run_slice(chunk);
        }
        {
            let _s = trace::span("pad-cache-sim.sampled_reuse");
            reuse.run_slice(chunk);
        }
    })
    .map_err(|e| format!("{}: {e}", path.display()))?;
    let records_f = records as f64;
    trace::count("pad-cache-sim.dm_accesses", records_f);
    trace::count("pad-cache-sim.xor_accesses", records_f);
    Ok(Replayed {
        records,
        plain: vec![*dm.stats(), *xor.stats()],
        victim: *victim.stats(),
        heat: heat.report(),
        reuse: reuse.into_histogram(),
    })
}

/// The simulator's answer for a recorded trace, from the program itself.
fn expected(t: &Recorded) -> (Vec<CacheStats>, VictimStats, SetHeatReport) {
    let c = cache();
    let r = simulate_batch(
        &t.program,
        &t.layout,
        &BatchRequest::new()
            .with_plain(c)
            .with_plain(c.with_index_function(IndexFunction::Xor))
            .with_victim(c, VICTIM_LINES)
            .with_heat(c),
    );
    (r.plain, r.victim[0], r.heat[0].clone())
}

pub fn run(env: &Env) -> Result<Report, String> {
    let mut report = Report::default();
    let mut traces = Ok(Vec::new());
    repeat_setup(&mut report, 5, || traces = setup(env));
    let traces = traces?;
    let want: Vec<_> = traces.iter().map(expected).collect();
    let mut first: Vec<Option<Replayed>> = vec![None; traces.len()];
    round_loop(env, &mut report, |traced, report| {
        for (i, t) in traces.iter().enumerate() {
            let before = probe::time();
            let start = Instant::now();
            let got = if traced {
                replay_traced(&t.path)
            } else {
                replay(&t.path)
            };
            let secs = start.elapsed().as_secs_f64();
            let probe_s = (before + probe::time()) / 2.0;
            report.round_probes.push(probe_s);
            if !traced {
                report.cell_sample(i, Timed { secs, probe_s });
            }
            let checked = got.and_then(|got| {
                let (plain, victim, heat) = &want[i];
                if got.records != t.records {
                    return Err(format!("{} records, recorded {}", got.records, t.records));
                }
                if got.plain != *plain || got.victim != *victim || got.heat != *heat {
                    return Err(format!(
                        "replay differs from simulate_batch: {:?} {:?} vs {:?} {:?}",
                        got.plain, got.victim, plain, victim
                    ));
                }
                match &first[i] {
                    Some(f) if *f != got => Err("replay differs from the first round".into()),
                    Some(_) => Ok(()),
                    None => {
                        first[i] = Some(got);
                        Ok(())
                    }
                }
            });
            report.check(checked.is_ok(), || {
                format!("ingest {}: {}", t.label, checked.err().unwrap_or_default())
            });
        }
    });
    if env.traced {
        read_pass(&traces, &mut report)?;
    }
    Ok(report)
}

/// The reader alone: every file streamed into a counting sink, once, in
/// `pad-trace-ingest.read` spans. One pass equals one round's reading.
fn read_pass(traces: &[Recorded], report: &mut Report) -> Result<(), String> {
    trace::set_enabled(true);
    let start = Instant::now();
    let mut records = 0u64;
    for t in traces {
        let _read = trace::span("pad-trace-ingest.read");
        read_trace_file(&t.path, Some(TraceFormat::Binary), |chunk| {
            records += chunk.len() as u64;
        })
        .map_err(|e| format!("{}: {e}", t.path.display()))?;
    }
    trace::set_enabled(false);
    report
        .layer
        .insert("pad-trace-ingest.read_s", start.elapsed().as_secs_f64());
    report
        .layer
        .insert("pad-trace-ingest.records", records as f64);
    Ok(())
}
