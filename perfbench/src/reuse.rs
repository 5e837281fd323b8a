//! `reuse`: Figure 8 miss classification plus the miss-ratio-curve
//! walks — the workloads where the reuse stack does the work.
//!
//! Figure 8 cells classify the original layout (`ClassifyingCache`,
//! whose reuse stack separates conflict from capacity misses) and walk
//! PAD's layout on the 16K direct-mapped cache. Miss-ratio-curve cells
//! walk one layout (original or PAD) through a reuse sink and eleven
//! direct-mapped caches: JACOBI at n = 512 (the experiment's full size),
//! JACOBI and EXPL at n = 64.
//!
//! Checks: Figure 8 cells against the committed `results/fig08.csv`
//! rows. The committed `fig_mrc_*.csv` tables hold the n = 64 curves,
//! so the n = 64 cells are checked against them row for row; the
//! n = 512 curves are checked at 16K against the same kernel's
//! `fig08.csv` row (original and PAD miss rate) and for a
//! fully-associative curve that never rises with capacity.
//!
//! The subset: dense stencils (JACOBI512 and ADI512 in Figure 8, JACOBI
//! and EXPL in the curves) and sparse, irregular footprints (IRR500K,
//! CGM) in every round, plus two seeded Figure 8 kernels of equal cost. The cells are few and uneven, so pool stragglers show.

use std::path::Path;

use pad_bench::experiments::mrc_cache_bytes;
use pad_bench::harness::{diff, pct, RunContext, SpecFn, Variant};
use pad_cache_sim::CacheConfig;
use pad_core::DataLayout;
use pad_kernels::Kernel;
use pad_trace::{BatchRequest, CompiledTrace};

use crate::common::{
    finish_pool, repeat_setup, round_loop, row_matches, run_cells, shuffle, Env, RefTable, Report,
};
use crate::walk::{layout, sim_for, Sim};

/// Figure 8 kernels in every round: two dense stencils (ADI512 also
/// sets the round's peak memory) and two sparse footprints.
const FIG08_FIXED: [&str; 4] = ["JACOBI512", "ADI512", "IRR500K", "CGM"];
/// Figure 8 kernels whose cells cost the same within a few percent, so
/// that a round's cost does not depend on the seed; each round adds two,
/// seeded.
const FIG08_SEEDED: [&str; 4] = ["APSI", "DGEFA256", "LINPACKD", "SIMPLE"];
/// Miss-ratio-curve kernels, both layouts each, at the sizes listed:
/// the experiment's full size (JACOBI only, to keep rounds short) and
/// the size the committed tables were produced at.
const MRC_CELLS: [(&str, SpecFn, &[i64]); 2] = [
    ("JACOBI", pad_kernels::jacobi::spec as SpecFn, &[512, 64]),
    ("EXPL", pad_kernels::expl::spec, &[64]),
];
const MRC_TABLE_N: i64 = 64;

enum Cell {
    Fig08(Kernel),
    Mrc {
        kernel: &'static str,
        spec: SpecFn,
        n: i64,
        variant: Variant,
    },
}

impl Cell {
    /// Accesses the cell walks (its trace length, times the walks).
    fn cost(&self) -> u64 {
        let (program, walks) = match self {
            Cell::Fig08(k) => ((k.spec)(k.default_n), 2),
            Cell::Mrc { spec, n, .. } => (spec(*n), 1),
        };
        walks * CompiledTrace::compile(&program, &DataLayout::original(&program)).count()
    }

    fn label(&self) -> String {
        match self {
            Cell::Fig08(k) => format!("reuse: fig08 {}", k.name),
            Cell::Mrc {
                kernel, n, variant, ..
            } => format!("reuse: fig_mrc {kernel} n={n} {}", variant.label()),
        }
    }
}

fn sample(env: &Env) -> Vec<Cell> {
    let suite = pad_kernels::suite();
    let find = |name: &str| {
        suite
            .iter()
            .find(|k| k.name == name)
            .cloned()
            .expect("reuse kernels are in the suite")
    };
    let mut cells: Vec<Cell> = FIG08_FIXED
        .iter()
        .chain(&FIG08_SEEDED)
        .map(|name| Cell::Fig08(find(name)))
        .collect();
    for (kernel, spec, sizes) in MRC_CELLS {
        for &n in sizes {
            for variant in [Variant::Original, Variant::Pad] {
                cells.push(Cell::Mrc {
                    kernel,
                    spec,
                    n,
                    variant,
                });
            }
        }
    }
    // Every candidate is sized, whichever the seed picks: largest first,
    // so the pool's tail is made of small cells.
    cells.sort_by_cached_key(|c| std::cmp::Reverse(c.cost()));
    let mut rng = env.rng(2);
    let mut seeded = FIG08_SEEDED.to_vec();
    shuffle(&mut rng, &mut seeded);
    let dropped = &seeded[2..];
    cells.retain(|c| !matches!(c, Cell::Fig08(k) if dropped.contains(&k.name)));
    cells
}

struct Refs {
    fig08: RefTable,
    mrc: Vec<RefTable>,
}

fn load_refs(root: &Path) -> Result<Refs, String> {
    Ok(Refs {
        fig08: RefTable::load(root, "fig08")?,
        mrc: MRC_CELLS
            .iter()
            .map(|(k, ..)| RefTable::load(root, &format!("fig_mrc_{}", k.to_lowercase())))
            .collect::<Result<_, _>>()?,
    })
}

fn run_cell(cell: &Cell, sim: Sim) -> Vec<f64> {
    let base = CacheConfig::paper_base();
    match cell {
        Cell::Fig08(k) => {
            let p = (k.spec)(k.default_n);
            let original = layout(Variant::Original, &p, &base);
            let classified =
                sim(&p, &original, &BatchRequest::new().with_classified(base)).classified[0];
            let padded = layout(Variant::Pad, &p, &base);
            let pad = sim(&p, &padded, &BatchRequest::new().with_plain(base)).plain[0];
            vec![
                classified.cache.miss_rate_percent(),
                pad.miss_rate_percent(),
                classified.conflict_rate_percent(),
            ]
        }
        Cell::Mrc {
            spec, n, variant, ..
        } => {
            let p = spec(*n);
            let line = base.line_size();
            let l = layout(*variant, &p, &base);
            let bytes = mrc_cache_bytes();
            let request = bytes
                .iter()
                .fold(BatchRequest::new().with_reuse(line), |r, &b| {
                    r.with_plain(CacheConfig::direct_mapped(b, line))
                });
            let results = sim(&p, &l, &request);
            let hist = &results.reuse[0];
            let mut out: Vec<f64> = results
                .plain
                .iter()
                .map(|s| s.miss_rate_percent())
                .collect();
            out.extend(bytes.iter().map(|&b| 100.0 * hist.miss_ratio_at(b / line)));
            out
        }
    }
}

fn size_label(bytes: u64) -> String {
    if bytes >= 1024 {
        format!("{}K", bytes / 1024)
    } else {
        format!("{bytes}B")
    }
}

/// Checks one cell against the committed tables. A PAD curve is also
/// checked for the padding benefit, which needs its original curve.
fn check_cell(
    refs: &Refs,
    cells: &[Cell],
    values: &[Option<Vec<f64>>],
    i: usize,
) -> Result<(), String> {
    let v = values[i].as_ref().ok_or("cell failed")?;
    match &cells[i] {
        Cell::Fig08(k) => row_matches(
            &refs.fig08,
            k.name,
            &["orig %", "pad %", "improv", "orig conflict %"],
            &[pct(v[0]), pct(v[1]), diff(v[0] - v[1]), pct(v[2])],
            "fig08",
        ),
        Cell::Mrc {
            kernel, n, variant, ..
        } if *n == MRC_TABLE_N => {
            let table = &refs.mrc[MRC_CELLS
                .iter()
                .position(|(k, ..)| k == kernel)
                .expect("curve kernels are listed")];
            let original = cells.iter().zip(values).find_map(|(c, v)| match c {
                Cell::Mrc {
                    kernel: k,
                    n: cn,
                    variant: Variant::Original,
                    ..
                } if k == kernel && cn == n => v.as_ref(),
                _ => None,
            });
            let bytes = mrc_cache_bytes();
            let stem = format!("fig_mrc_{}", kernel.to_lowercase());
            for (j, &b) in bytes.iter().enumerate() {
                let (dm, fa) = (v[j], v[bytes.len() + j]);
                let mut columns = vec![];
                let mut got = vec![pct(dm), pct(fa)];
                if *variant == Variant::Original {
                    columns.extend(["orig dm %", "orig fa %"]);
                } else {
                    columns.extend(["pad dm %", "pad fa %"]);
                    let orig = original.ok_or("original curve failed")?;
                    columns.push("benefit pp");
                    got.push(diff(orig[j] - dm));
                }
                row_matches(table, &size_label(b), &columns, &got, &stem)?;
            }
            Ok(())
        }
        Cell::Mrc {
            kernel, n, variant, ..
        } => {
            let bytes = mrc_cache_bytes();
            let at16k = bytes
                .iter()
                .position(|&b| b == CacheConfig::paper_base().size())
                .expect("the curve passes through the base cache");
            let column = if *variant == Variant::Original {
                "orig %"
            } else {
                "pad %"
            };
            row_matches(
                &refs.fig08,
                &format!("{kernel}{n}"),
                &[column],
                &[pct(v[at16k])],
                "fig08 (16K point of the curve)",
            )?;
            let fa = &v[bytes.len()..];
            if fa.windows(2).any(|w| w[1] > w[0]) {
                return Err(format!("fully-associative curve rises: {fa:?}"));
            }
            Ok(())
        }
    }
}

pub fn run(env: &Env, root: &Path) -> Result<Report, String> {
    let mut report = Report::default();
    let mut loaded = Ok(None);
    let cells = repeat_setup(&mut report, 15, || {
        loaded = load_refs(root).map(Some);
        sample(env)
    });
    let refs = loaded?.expect("references loaded");
    let labels: Vec<String> = cells.iter().map(Cell::label).collect();
    let ctx = RunContext::plain(env.threads);
    let mut first: Option<Vec<Option<Vec<f64>>>> = None;
    round_loop(env, &mut report, |traced, report| {
        let values = run_cells(&ctx, &labels, report, traced, |i| {
            run_cell(&cells[i], sim_for(traced))
        });
        for i in 0..cells.len() {
            let checked = match first.as_ref() {
                // Later rounds, traced ones included, must reproduce the
                // first round exactly.
                Some(first) => match (&values[i], &first[i]) {
                    (Some(v), Some(want)) if v == want => Ok(()),
                    (v, want) => Err(format!("differs from the first round: {v:?} vs {want:?}")),
                },
                None => check_cell(&refs, &cells, &values, i),
            };
            report.check(checked.is_ok(), || {
                format!("{}: {}", labels[i], checked.err().unwrap_or_default())
            });
        }
        if first.is_none() && !traced {
            first = Some(values);
        }
    });
    finish_pool(&mut report);
    Ok(report)
}
