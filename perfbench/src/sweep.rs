//! `sweep`: a seeded sample of the Figure 16/17 problem-size sweep.
//!
//! Each cell is one (kernel, n) point and computes what both figures
//! compute for it: the original layout on the 16K direct-mapped and the
//! 16-way cache from one walk, PADLITE and PAD, and INTERPADLITE alone,
//! LINPAD1 + INTERPADLITE and LINPAD2 + INTERPADLITE. The cells run
//! through `RunContext::plain(nproc)`, and every value is checked
//! against the committed `results/fig16_*.csv` and `fig17_*.csv` rows.
//!
//! The sample: for each of the four kernels, the power-of-two cell
//! n = 256 and a seeded antithetic pair of small-n cells (250–290, the
//! `i`-th smallest with the `i`-th largest), where the parallel engine
//! has the least work per cell. The pairs cost the same within a few
//! percent, so a round's cost hardly depends on the seed, and a round
//! is short (about a second and a half on two threads), so a run holds
//! many. The larger sweep sizes are left out for that reason: their
//! cells take up to a second each. Set-up sizes every candidate cell (the same work
//! for every seed), builds the chosen cells' programs and orders them by
//! trace length, longest first.

use std::path::Path;

use pad_bench::harness::{diff, pct, sweep_kernels, sweep_sizes, RunContext, Variant};
use pad_cache_sim::CacheConfig;
use pad_core::DataLayout;
use pad_ir::Program;
use pad_trace::{BatchRequest, CompiledTrace};

use crate::common::{
    finish_pool, repeat_setup, round_loop, row_matches, run_cells, Env, RefTable, Report,
};
use crate::walk::{layout, sim_for, Sim};

struct Cell {
    kernel: &'static str,
    n: i64,
    program: Program,
}

struct Refs {
    fig16: Vec<RefTable>,
    fig17: Vec<RefTable>,
}

/// Values one cell produces, in this order.
const ORIG: usize = 0;
const LITE: usize = 1;
const PAD: usize = 2;
const ASSOC16: usize = 3;
const BASE: usize = 4;
const LP1: usize = 5;
const LP2: usize = 6;

/// The power-of-two cell every kernel runs.
const POW2: i64 = 256;
/// Small-n cells lie below this size.
const SMALL_BELOW: i64 = 300;

fn trace_length(program: &Program) -> u64 {
    CompiledTrace::compile(program, &DataLayout::original(program)).count()
}

fn sample(env: &Env) -> Vec<Cell> {
    let small: Vec<i64> = sweep_sizes()
        .into_iter()
        .filter(|&n| n < SMALL_BELOW && n != POW2)
        .collect();
    let mut rng = env.rng(1);
    let mut cells = Vec::new();
    for (kernel, spec) in sweep_kernels() {
        // Every candidate is sized, whichever the seed picks.
        let lengths: Vec<(i64, u64)> = small
            .iter()
            .chain(&[POW2])
            .map(|&n| (n, trace_length(&spec(n))))
            .collect();
        let i = rng.below(small.len() as u64 / 2) as usize;
        let pair = [small[i], small[small.len() - 1 - i]];
        for (n, length) in lengths {
            if pair.contains(&n) || n == POW2 {
                cells.push((
                    length,
                    Cell {
                        kernel,
                        n,
                        program: spec(n),
                    },
                ));
            }
        }
    }
    // Longest trace first: the pool's tail is then made of small cells,
    // so a round's time does not hinge on which worker draws a large one.
    cells.sort_by_key(|(length, _)| std::cmp::Reverse(*length));
    cells.into_iter().map(|(_, cell)| cell).collect()
}

fn load_refs(root: &Path) -> Result<Refs, String> {
    let mut refs = Refs {
        fig16: Vec::new(),
        fig17: Vec::new(),
    };
    for (name, _) in sweep_kernels() {
        let stem = name.to_lowercase();
        refs.fig16
            .push(RefTable::load(root, &format!("fig16_{stem}"))?);
        refs.fig17
            .push(RefTable::load(root, &format!("fig17_{stem}"))?);
    }
    Ok(refs)
}

fn run_cell(cell: &Cell, sim: Sim) -> Vec<f64> {
    let dm = CacheConfig::paper_base();
    let assoc16 = dm.with_ways(16);
    let p = &cell.program;
    let rates = |variant: Variant, caches: &[CacheConfig]| -> Vec<f64> {
        let l = layout(variant, p, &caches[0]);
        let request = BatchRequest::new().with_plain_configs(caches.iter().copied());
        sim(p, &l, &request)
            .plain
            .iter()
            .map(|s| s.miss_rate_percent())
            .collect()
    };
    let dual = rates(Variant::Original, &[dm, assoc16]);
    vec![
        dual[0],
        rates(Variant::PadLite, &[dm])[0],
        rates(Variant::Pad, &[dm])[0],
        dual[1],
        rates(Variant::InterLiteOnly, &[dm])[0],
        rates(Variant::LinPad1Lite, &[dm])[0],
        rates(Variant::LinPad2Lite, &[dm])[0],
    ]
}

pub fn run(env: &Env, root: &Path) -> Result<Report, String> {
    let mut report = Report::default();
    let (refs, cells) = {
        let mut loaded = Ok(None);
        // Fifteen short set-ups, so that their median is not set by a
        // burst of the host's other load.
        let cells = repeat_setup(&mut report, 15, || {
            loaded = load_refs(root).map(Some);
            sample(env)
        });
        (loaded?.expect("references loaded"), cells)
    };
    let labels: Vec<String> = cells
        .iter()
        .map(|c| format!("sweep: {} n={}", c.kernel, c.n))
        .collect();
    let kernel_index = |name: &str| {
        sweep_kernels()
            .iter()
            .position(|(k, _)| *k == name)
            .expect("cell kernels come from sweep_kernels")
    };
    let ctx = RunContext::plain(env.threads);
    // The first untraced round's values: later rounds, traced or not,
    // must reproduce them exactly.
    let mut first: Option<Vec<Option<Vec<f64>>>> = None;
    round_loop(env, &mut report, |traced, report| {
        let values = run_cells(&ctx, &labels, report, traced, |i| {
            run_cell(&cells[i], sim_for(traced))
        });
        for (i, (cell, value)) in cells.iter().zip(&values).enumerate() {
            let Some(v) = value else {
                report.check(false, || format!("{} failed", labels[i]));
                continue;
            };
            if let Some(Some(expected)) = first.as_ref().map(|f| &f[i]) {
                report.check(v == expected, || {
                    format!(
                        "{} differs from the first round: {v:?} vs {expected:?}",
                        labels[i]
                    )
                });
                continue;
            }
            let k = kernel_index(cell.kernel);
            let key = cell.n.to_string();
            let stem = cell.kernel.to_lowercase();
            let matched = row_matches(
                &refs.fig16[k],
                &key,
                &["orig", "padlite", "pad", "16-way"],
                &[pct(v[ORIG]), pct(v[LITE]), pct(v[PAD]), pct(v[ASSOC16])],
                &format!("fig16_{stem}"),
            )
            .and_then(|()| {
                row_matches(
                    &refs.fig17[k],
                    &key,
                    &["linpad1", "linpad2"],
                    &[diff(v[LP1] - v[BASE]), diff(v[LP2] - v[BASE])],
                    &format!("fig17_{stem}"),
                )
            });
            report.check(matched.is_ok(), || matched.err().unwrap_or_default());
        }
        if first.is_none() && !traced {
            first = Some(values);
        }
    });
    finish_pool(&mut report);
    Ok(report)
}
