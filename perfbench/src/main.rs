//! The repository benchmark: one workload per run, end-to-end metrics
//! with tracing off, per-layer metrics from a separate traced run.
//!
//! ```text
//! perfbench --workload <sweep|reuse|advisor|ingest> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root (it reads the committed `results/`
//! tables the outputs are checked against). The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed` and
//! `metrics`. A provenance line and a result file under
//! `perfbench/out/` record the host and build the numbers came from.
//!
//! Times that gate (`wall_ref`, `item_ref.*`) are in probe units: each
//! measured time over the mean time of the reference probes run just
//! before and after it, on the same threads (see [`probe`]), so that
//! they hold still while other tenants of a shared host change its
//! speed. The seconds they
//! came from are in the result file and, for rounds, in the traced
//! run's `perfbench.wall_s`.

mod advisor;
mod common;
mod ingest;
mod probe;
mod reuse;
mod sweep;
mod trace;
mod walk;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use common::{percentile, Env, Report, Timed};

/// End-to-end metrics (tracing off), with their units; `ref` is the
/// time of one reference probe.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_ref", "ref"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"),
    ("item_ref.p50", "ref"),
    ("item_ref.p99", "ref"),
];

/// Per-layer metrics (traced run), with their units. `_s` metrics are
/// a layer's self time per traced round; counts are per traced round.
const PER_LAYER: &[(&str, &str)] = &[
    ("pad-core.layout_s", "s"),
    ("pad-core.layouts", "count"),
    ("pad-trace.compile_s", "s"),
    ("pad-trace.walk_s", "s"),
    ("pad-trace.walk_accesses", "count"),
    ("pad-cache-sim.dm_s", "s"),
    ("pad-cache-sim.dm_accesses", "count"),
    ("pad-cache-sim.2w_s", "s"),
    ("pad-cache-sim.2w_accesses", "count"),
    ("pad-cache-sim.4w_s", "s"),
    ("pad-cache-sim.4w_accesses", "count"),
    ("pad-cache-sim.16w_s", "s"),
    ("pad-cache-sim.16w_accesses", "count"),
    ("pad-cache-sim.xor_s", "s"),
    ("pad-cache-sim.xor_accesses", "count"),
    ("pad-cache-sim.classify_s", "s"),
    ("pad-cache-sim.reuse_s", "s"),
    ("pad-cache-sim.reuse_accesses", "count"),
    ("pad-cache-sim.reuse_distinct_lines", "count"),
    ("pad-cache-sim.sampled_reuse_s", "s"),
    ("pad-cache-sim.victim_s", "s"),
    ("pad-cache-sim.heat_s", "s"),
    ("pad-bench.pool.cells", "count"),
    ("pad-bench.pool.dispatch_us.p50", "us"),
    ("pad-bench.pool.busy_frac", "ratio"),
    ("pad-bench.pool.straggler_s", "s"),
    ("pad-search.search_s", "s"),
    ("pad-search.fast_evals", "count"),
    ("pad-search.exact_evals", "count"),
    ("pad-advisor.parse_us", "us"),
    ("pad-advisor.advise_s", "s"),
    ("pad-advisor.cache_hit_frac", "ratio"),
    ("pad-advisor.simulations", "count"),
    ("pad-advisor.double_simulations", "count"),
    ("pad-advisor.degraded_frac", "ratio"),
    ("pad-advisor.over_budget_ms.p50", "ms"),
    ("pad-advisor.overhead_ms.p50", "ms"),
    ("pad-advisor.overhead_ms.p99", "ms"),
    ("pad-trace-ingest.read_s", "s"),
    ("pad-trace-ingest.records", "count"),
    ("pad-trace-ingest.replay_s", "s"),
    ("perfbench.wall_s", "s"),
    ("perfbench.probe_ms", "ms"),
    ("perfbench.traced_round_s", "s"),
    ("perfbench.trace_overhead_s", "s"),
];

const WORKLOADS: [&str; 4] = ["sweep", "reuse", "advisor", "ingest"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        traced,
    })
}

/// The SIMD tier `pad-cache-sim`'s lane kernels dispatch to, detected
/// with the same feature checks.
fn simd_tier() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512bw")
            && std::arch::is_x86_feature_detected!("avx512dq")
            && std::arch::is_x86_feature_detected!("avx512vl")
        {
            return "avx512";
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            return "avx2";
        }
    }
    "scalar"
}

/// Peak resident set size of this process, in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

fn provenance(args: &Args, env: &Env) -> Vec<(&'static str, String)> {
    let from_env = |key: &str| std::env::var(key).unwrap_or_else(|_| "unknown".into());
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    vec![
        ("workload", json_str(&args.workload)),
        ("seed", args.seed.to_string()),
        ("seconds", json_num(args.seconds)),
        ("trace", (args.traced as u8).to_string()),
        ("git_sha", json_str(&from_env("PERFBENCH_GIT_SHA"))),
        (
            "source_sha256",
            json_str(&from_env("PERFBENCH_SOURCE_SHA256")),
        ),
        ("rustc", json_str(&from_env("PERFBENCH_RUSTC"))),
        ("available_parallelism", host.to_string()),
        ("threads", env.threads.to_string()),
        ("simd", json_str(simd_tier())),
    ]
}

fn end_to_end(report: &Report) -> BTreeMap<&'static str, f64> {
    let ok = if report.attempted == 0 {
        0.0
    } else {
        1.0 - report.failed as f64 / report.attempted as f64
    };
    BTreeMap::from([
        ("setup_s", percentile(&report.setup_s, 50.0)),
        (
            "wall_ref",
            percentile(&map(&report.rounds, Timed::refs), 50.0),
        ),
        ("peak_rss_mb", peak_rss_mb()),
        ("ok_frac", ok),
        ("item_ref.p50", percentile(&report.latencies(), 50.0)),
        ("item_ref.p99", percentile(&report.latencies(), 99.0)),
    ])
}

fn per_layer(
    report: &Report,
    spans: &[trace::Span],
    counts: &BTreeMap<&'static str, f64>,
) -> BTreeMap<&'static str, f64> {
    let rounds = report
        .layer_rounds
        .unwrap_or(report.traced_rounds.len().max(1) as f64);
    let own = trace::self_seconds(spans);
    let mut out = BTreeMap::new();
    for &(name, _) in PER_LAYER {
        let value = if let Some(&v) = report.layer.get(name) {
            v
        } else if let Some(&v) = counts.get(name) {
            v / rounds
        } else {
            name.strip_suffix("_s")
                .and_then(|span| own.get(span))
                .map_or(0.0, |s| s / rounds)
        };
        out.insert(name, value);
    }
    let median = |rounds: &[Timed], f: fn(&Timed) -> f64| percentile(&map(rounds, f), 50.0);
    let probe_s = median(&report.rounds, |r| r.probe_s);
    // The overhead is taken in probe units, then given in seconds at the
    // run's median probe, so that a change in the host's speed between
    // the two kinds of round does not count as overhead.
    let overhead_ref =
        median(&report.traced_rounds, Timed::refs) - median(&report.rounds, Timed::refs);
    out.insert("perfbench.wall_s", median(&report.rounds, |r| r.secs));
    out.insert("perfbench.probe_ms", probe_s * 1e3);
    out.insert(
        "perfbench.traced_round_s",
        median(&report.traced_rounds, |r| r.secs),
    );
    out.insert("perfbench.trace_overhead_s", overhead_ref * probe_s);
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let root = PathBuf::from(".");
    let env = Env {
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
        threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        out_dir: root.join("perfbench").join("out"),
    };
    let result = match args.workload.as_str() {
        "sweep" => sweep::run(&env, &root),
        "reuse" => reuse::run(&env, &root),
        "advisor" => advisor::run(&env),
        "ingest" => ingest::run(&env),
        _ => unreachable!("workload validated in parse_args"),
    };
    let report = match result {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    emit(&args, &env, &report)
}

fn emit(args: &Args, env: &Env, report: &Report) -> ExitCode {
    let (spans, counts) = trace::take();
    let (metrics, units): (BTreeMap<&str, f64>, &[(&str, &str)]) = if args.traced {
        (per_layer(report, &spans, &counts), PER_LAYER)
    } else {
        (end_to_end(report), END_TO_END)
    };
    let tag = format!(
        "{}-seed{}-trace{}",
        args.workload, args.seed, args.traced as u8
    );
    if args.traced {
        let path = env.out_dir.join(format!("spans-{tag}.tsv"));
        if let Err(e) = trace::write_spans(&path, &spans) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        }
    }
    let prov = provenance(args, env);
    let prov_json = format!(
        "{{{}}}",
        prov.iter()
            .map(|(k, v)| format!("{}: {v}", json_str(k)))
            .collect::<Vec<_>>()
            .join(", ")
    );
    let metrics_json = format!(
        "{{{}}}",
        units
            .iter()
            .map(|&(name, unit)| format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(metrics[name]),
                json_str(unit)
            ))
            .collect::<Vec<_>>()
            .join(", ")
    );
    if report.attempted == 0 {
        eprintln!("perfbench: {}: no output was checked", args.workload);
        return ExitCode::from(1);
    }
    let result = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics_json}}}",
        report.failed == 0,
        report.attempted,
        report.failed,
    );
    let samples = format!(
        "{{\"rounds\": [{}], \"traced_rounds\": [{}], \"items\": [{}], \"cells\": [{}]}}",
        join_timed(&report.rounds),
        join_timed(&report.traced_rounds),
        join_timed(&report.items),
        report
            .cells
            .iter()
            .map(|c| format!("[{}]", join_timed(c)))
            .collect::<Vec<_>>()
            .join(", ")
    );
    write_result(&env.out_dir, &tag, &prov_json, &result, &samples);
    println!("{{\"provenance\": {prov_json}}}");
    println!("{result}");
    ExitCode::SUCCESS
}

fn map(samples: &[Timed], f: impl Fn(&Timed) -> f64) -> Vec<f64> {
    samples.iter().map(f).collect()
}

/// `[seconds, probe seconds]` pairs.
fn join_timed(samples: &[Timed]) -> String {
    samples
        .iter()
        .map(|t| format!("[{}, {}]", json_num(t.secs), json_num(t.probe_s)))
        .collect::<Vec<_>>()
        .join(", ")
}

/// Writes the run's provenance, result and raw samples to
/// `perfbench/out/result-<workload>-seed<n>-trace<t>.json`.
fn write_result(dir: &Path, tag: &str, provenance: &str, result: &str, samples: &str) {
    let path = dir.join(format!("result-{tag}.json"));
    let body =
        format!("{{\"provenance\": {provenance}, \"result\": {result}, \"samples\": {samples}}}\n");
    if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, body)) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
}
