//! Plumbing shared by the workloads: run settings, the round loop,
//! pool timing, reference tables and small statistics.

use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::Instant;

use pad_bench::harness::RunContext;
use pad_cache_sim::SplitMix64;

use crate::probe;
use crate::trace;

/// Settings of one benchmark run.
pub struct Env {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Worker threads (and outstanding advisor requests): `nproc`.
    pub threads: usize,
    /// Where inputs generated at set-up and the span dump go.
    pub out_dir: PathBuf,
}

impl Env {
    /// A generator for this run's inputs; `stream` separates the draws
    /// of independent choices so adding one does not shift the others.
    pub fn rng(&self, stream: u64) -> SplitMix64 {
        SplitMix64::new(self.seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }
}

/// A measured time and the time of the reference probe run beside it:
/// the mean of the probes just before and just after it (over a round,
/// the mean of its items' probes).
#[derive(Clone, Copy)]
pub struct Timed {
    pub secs: f64,
    pub probe_s: f64,
}

impl Timed {
    /// The time in probe units.
    pub fn refs(&self) -> f64 {
        self.secs / self.probe_s
    }
}

/// What a workload measured and checked.
#[derive(Default)]
pub struct Report {
    pub setup_s: Vec<f64>,
    /// Untraced rounds of the workload's fixed work.
    pub rounds: Vec<Timed>,
    /// Traced rounds (traced run only).
    pub traced_rounds: Vec<Timed>,
    /// Latency of each request (advisor).
    pub items: Vec<Timed>,
    /// Latency samples of each work item that recurs every round (a
    /// cell or a replayed file) in untraced rounds, by item.
    pub cells: Vec<Vec<Timed>>,
    /// Probe seconds measured so far in the current round.
    pub round_probes: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Per-layer values the workload derives itself (pool, advisor).
    pub layer: BTreeMap<&'static str, f64>,
    /// Per-layer sample lists, reduced to percentiles at the end.
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    /// Rounds the recorded spans and counts cover, when not every traced
    /// round's work is in them (default: the traced rounds).
    pub layer_rounds: Option<f64>,
}

impl Report {
    /// Records one untraced latency sample of recurring item `index`.
    pub fn cell_sample(&mut self, index: usize, sample: Timed) {
        if self.cells.len() <= index {
            self.cells.resize_with(index + 1, Vec::new);
        }
        self.cells[index].push(sample);
    }

    /// The latencies `item_ref.p50/p99` are taken over, in probe units:
    /// every request, or each recurring item's median over the rounds,
    /// so that a tail percentile over a few items is one item's own
    /// latency rather than its slowest round.
    pub fn latencies(&self) -> Vec<f64> {
        if self.cells.is_empty() {
            self.items.iter().map(Timed::refs).collect()
        } else {
            self.cells
                .iter()
                .map(|s| percentile(&s.iter().map(Timed::refs).collect::<Vec<_>>(), 50.0))
                .collect()
        }
    }

    /// Counts one checked output; `ok == false` counts it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 20 {
                eprintln!("perfbench: MISMATCH {}", what());
            }
        }
    }
}

/// Runs set-up `reps` times, recording each duration, and returns the
/// last result.
pub fn repeat_setup<T>(report: &mut Report, reps: usize, mut setup: impl FnMut() -> T) -> T {
    let mut last = None;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        let value = setup();
        report.setup_s.push(start.elapsed().as_secs_f64());
        last = Some(value);
    }
    last.expect("at least one set-up")
}

/// Runs rounds until `env.seconds` have passed. In the traced run the
/// rounds alternate untraced and traced, so both kinds are measured
/// under the same conditions and their difference is the tracing
/// overhead. Each traced round runs under a `perfbench.round` span. The
/// round's work probes the host (see [`probe`](crate::probe)) into
/// `report.round_probes`; a round is recorded with their mean.
pub fn round_loop(env: &Env, report: &mut Report, mut round: impl FnMut(bool, &mut Report)) {
    let start = Instant::now();
    let mut index = 0usize;
    while start.elapsed().as_secs_f64() < env.seconds || report.rounds.len() < 2 {
        let traced = env.traced && index % 2 == 1;
        trace::set_enabled(traced);
        report.round_probes.clear();
        let t0 = Instant::now();
        {
            let _round = trace::span("perfbench.round");
            round(traced, report);
        }
        let took = t0.elapsed().as_secs_f64();
        trace::set_enabled(false);
        let probes = &report.round_probes;
        let timed = Timed {
            secs: took,
            probe_s: probes.iter().sum::<f64>() / probes.len().max(1) as f64,
        };
        if traced {
            report.traced_rounds.push(timed);
        } else {
            report.rounds.push(timed);
        }
        index += 1;
    }
}

/// One pool cell on its worker: the start of the probe before it, its
/// own start and end, and the end of the probe after it.
struct CellTime {
    index: usize,
    before_ns: u64,
    start_ns: u64,
    end_ns: u64,
    after_ns: u64,
    thread: ThreadId,
}

impl CellTime {
    /// Mean seconds of the two probes.
    fn probe_s(&self) -> f64 {
        self.probe_ns() as f64 * 0.5e-9
    }

    fn probe_ns(&self) -> u64 {
        (self.start_ns - self.before_ns) + (self.after_ns - self.end_ns)
    }
}

/// Runs cells through the pool under `ctx`, each under a
/// `pad-bench.pool.cell` span between two reference probes on the same
/// worker, and returns every cell's value (`None` for a failed cell).
/// Records each cell's latency and probe and, in traced rounds, the
/// pool's dispatch gaps, busy share and straggler tail.
pub fn run_cells(
    ctx: &RunContext,
    labels: &[String],
    report: &mut Report,
    traced: bool,
    cell: impl Fn(usize) -> Vec<f64> + Sync,
) -> Vec<Option<Vec<f64>>> {
    let times: Mutex<Vec<CellTime>> = Mutex::new(Vec::with_capacity(labels.len()));
    let round = trace::current();
    let submit_ns = trace::now_ns();
    let outcomes = ctx.run(labels, |i| {
        let before_ns = trace::now_ns();
        probe::run();
        let start_ns = trace::now_ns();
        let value = {
            let _cell = trace::span_under("pad-bench.pool.cell", round);
            cell(i)
        };
        let end_ns = trace::now_ns();
        probe::run();
        times.lock().expect("cell times poisoned").push(CellTime {
            index: i,
            before_ns,
            start_ns,
            end_ns,
            after_ns: trace::now_ns(),
            thread: std::thread::current().id(),
        });
        value
    });
    let end_ns = trace::now_ns();
    let mut times = times.into_inner().expect("cell times poisoned");
    report
        .round_probes
        .extend(times.iter().map(CellTime::probe_s));
    if !traced {
        for t in &times {
            let secs = (t.end_ns - t.start_ns) as f64 * 1e-9;
            report.cell_sample(
                t.index,
                Timed {
                    secs,
                    probe_s: t.probe_s(),
                },
            );
        }
    } else {
        pool_metrics(&mut times, submit_ns, end_ns, ctx.threads(), report);
    }
    outcomes.into_iter().map(|o| o.into_value()).collect()
}

/// Accumulates one traced round's pool figures into `report.layer`
/// (totals; `finish_pool` turns them into the reported values). The
/// probes around each cell are the benchmark's, not the pool's: they are
/// left out of the dispatch gap and of the capacity.
fn pool_metrics(
    times: &mut [CellTime],
    submit_ns: u64,
    end_ns: u64,
    width: usize,
    report: &mut Report,
) {
    times.sort_by_key(|t| t.before_ns);
    let mut last_end: HashMap<ThreadId, u64> = HashMap::new();
    let mut busy_ns = 0u64;
    let mut probe_ns = 0u64;
    for t in times.iter() {
        let ready = last_end.get(&t.thread).copied().unwrap_or(submit_ns);
        let gap_us = t.before_ns.saturating_sub(ready) as f64 * 1e-3;
        push_sample(report, "pool.dispatch_us", gap_us);
        last_end.insert(t.thread, t.after_ns);
        busy_ns += t.end_ns - t.start_ns;
        probe_ns += t.probe_ns();
    }
    // A worker that ran no cell was idle from submission on.
    let mut ends: Vec<u64> = last_end.values().copied().collect();
    ends.resize(width.max(ends.len()), submit_ns);
    let first_idle = ends.iter().copied().min().unwrap_or(end_ns);
    let wall_ns = end_ns.saturating_sub(submit_ns);
    let add = |report: &mut Report, key: &'static str, v: f64| {
        *report.layer.entry(key).or_insert(0.0) += v;
    };
    add(report, "pad-bench.pool.cells", times.len() as f64);
    add(report, "pool.busy_ns", busy_ns as f64);
    add(
        report,
        "pool.capacity_ns",
        wall_ns as f64 * width as f64 - probe_ns as f64,
    );
    add(
        report,
        "pad-bench.pool.straggler_s",
        end_ns.saturating_sub(first_idle) as f64 * 1e-9,
    );
}

pub fn push_sample(report: &mut Report, key: &'static str, value: f64) {
    report.samples.entry(key).or_default().push(value);
}

/// Turns the pool totals of the traced rounds into per-round values.
pub fn finish_pool(report: &mut Report) {
    let rounds = report.traced_rounds.len().max(1) as f64;
    let busy = report.layer.remove("pool.busy_ns").unwrap_or(0.0);
    let capacity = report.layer.remove("pool.capacity_ns").unwrap_or(0.0);
    let frac = if capacity > 0.0 { busy / capacity } else { 0.0 };
    report.layer.insert("pad-bench.pool.busy_frac", frac);
    for key in ["pad-bench.pool.cells", "pad-bench.pool.straggler_s"] {
        if let Some(v) = report.layer.get_mut(key) {
            *v /= rounds;
        }
    }
    let dispatch = report
        .samples
        .remove("pool.dispatch_us")
        .unwrap_or_default();
    report.layer.insert(
        "pad-bench.pool.dispatch_us.p50",
        percentile(&dispatch, 50.0),
    );
}

/// The `p`-th percentile (nearest rank on the sorted samples); 0 when
/// there are none.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// A committed results table (`results/<stem>.csv`), keyed by its first
/// column.
pub struct RefTable {
    header: Vec<String>,
    rows: BTreeMap<String, Vec<String>>,
}

impl RefTable {
    pub fn load(root: &Path, stem: &str) -> Result<RefTable, String> {
        let path = root.join("results").join(format!("{stem}.csv"));
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let mut lines = text.lines();
        let header: Vec<String> = lines
            .next()
            .ok_or_else(|| format!("{} is empty", path.display()))?
            .split(',')
            .map(str::to_string)
            .collect();
        let rows = lines
            .map(|l| {
                let cells: Vec<String> = l.split(',').map(str::to_string).collect();
                (cells[0].clone(), cells)
            })
            .collect();
        Ok(RefTable { header, rows })
    }

    /// The cell in row `key`, column `column`.
    pub fn cell(&self, key: &str, column: &str) -> Option<&str> {
        let col = self.header.iter().position(|h| h == column)?;
        self.rows.get(key)?.get(col).map(String::as_str)
    }
}

/// Compares rendered values against a reference row, cell by cell.
pub fn row_matches(
    table: &RefTable,
    key: &str,
    columns: &[&str],
    got: &[String],
    what: &str,
) -> Result<(), String> {
    let want: Vec<&str> = columns
        .iter()
        .map(|c| table.cell(key, c).unwrap_or("<missing>"))
        .collect();
    if want.len() == got.len() && want.iter().zip(got).all(|(w, g)| *w == g.as_str()) {
        Ok(())
    } else {
        Err(format!("{what} row {key}: got {got:?}, want {want:?}"))
    }
}

/// Seeded Fisher–Yates shuffle.
pub fn shuffle<T>(rng: &mut SplitMix64, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        items.swap(i, j);
    }
}
