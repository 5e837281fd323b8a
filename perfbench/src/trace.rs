//! The traced run's span recorder.
//!
//! Spans are recorded only here, in the benchmark, around each call into
//! a layer's public function. Each span keeps its name, start, end and
//! parent; all of them stay in memory until the run ends, when
//! [`write_spans`] writes them out and [`self_seconds`] derives each
//! layer's self time (its duration minus the part its children cover).
//! When tracing is off every entry point is one relaxed load.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One finished span. Times are nanoseconds since the run's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    /// Id of the enclosing span, 0 for a root.
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

struct Recorder {
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    counts: Mutex<BTreeMap<&'static str, f64>>,
}

static ON: AtomicBool = AtomicBool::new(false);
static RECORDER: OnceLock<Recorder> = OnceLock::new();
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

fn recorder() -> &'static Recorder {
    RECORDER.get_or_init(|| Recorder {
        next_id: AtomicU64::new(1),
        spans: Mutex::new(Vec::new()),
        counts: Mutex::new(BTreeMap::new()),
    })
}

/// Nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Turns span recording on or off (rounds alternate in the traced run).
pub fn set_enabled(on: bool) {
    recorder();
    now_ns();
    ON.store(on, Ordering::Relaxed);
}

pub fn enabled() -> bool {
    ON.load(Ordering::Relaxed)
}

/// An open span; records itself when dropped.
#[must_use = "a span ends when its guard is dropped"]
pub struct Guard {
    id: u64,
    parent: u64,
    name: &'static str,
    start_ns: u64,
}

/// Opens a span under the innermost span open on this thread.
pub fn span(name: &'static str) -> Guard {
    if !enabled() {
        return Guard::inert();
    }
    let parent = current();
    span_under(name, parent)
}

/// Opens a span under an explicit parent (for work handed to another
/// thread, such as pool cells under their round).
pub fn span_under(name: &'static str, parent: u64) -> Guard {
    if !enabled() {
        return Guard::inert();
    }
    let id = recorder().next_id.fetch_add(1, Ordering::Relaxed);
    OPEN.with(|open| open.borrow_mut().push(id));
    Guard {
        id,
        parent,
        name,
        start_ns: now_ns(),
    }
}

/// Id of the innermost span open on this thread (0 if none).
pub fn current() -> u64 {
    OPEN.with(|open| open.borrow().last().copied().unwrap_or(0))
}

/// Records a span whose start and end were taken elsewhere (requests
/// that overlap on one client thread cannot nest).
pub fn record(name: &'static str, parent: u64, start_ns: u64, end_ns: u64) {
    if !enabled() {
        return;
    }
    let id = recorder().next_id.fetch_add(1, Ordering::Relaxed);
    push(Span {
        id,
        parent,
        name,
        start_ns,
        end_ns,
    });
}

/// Adds `value` to a per-layer count.
pub fn count(name: &'static str, value: f64) {
    if !enabled() {
        return;
    }
    *recorder()
        .counts
        .lock()
        .expect("count map poisoned")
        .entry(name)
        .or_insert(0.0) += value;
}

fn push(span: Span) {
    recorder()
        .spans
        .lock()
        .expect("span list poisoned")
        .push(span);
}

impl Guard {
    fn inert() -> Guard {
        Guard {
            id: 0,
            parent: 0,
            name: "",
            start_ns: 0,
        }
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if self.id == 0 {
            return;
        }
        let end_ns = now_ns();
        OPEN.with(|open| {
            let mut open = open.borrow_mut();
            if let Some(pos) = open.iter().rposition(|&id| id == self.id) {
                open.remove(pos);
            }
        });
        push(Span {
            id: self.id,
            parent: self.parent,
            name: self.name,
            start_ns: self.start_ns,
            end_ns,
        });
    }
}

/// Everything recorded so far.
pub fn take() -> (Vec<Span>, BTreeMap<&'static str, f64>) {
    let r = recorder();
    let spans = std::mem::take(&mut *r.spans.lock().expect("span list poisoned"));
    let counts = std::mem::take(&mut *r.counts.lock().expect("count map poisoned"));
    (spans, counts)
}

/// Self time per span name, in seconds: each span's duration minus the
/// union of its children's intervals clipped to it (children on other
/// threads may overlap each other).
pub fn self_seconds(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    for s in spans {
        let covered = children
            .get_mut(&s.id)
            .map_or(0, |kids| covered_ns(kids, s.start_ns, s.end_ns));
        let own = s.end_ns.saturating_sub(s.start_ns).saturating_sub(covered);
        *out.entry(s.name).or_insert(0.0) += own as f64 * 1e-9;
    }
    out
}

fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(start, end) in intervals.iter() {
        let (start, end) = (start.max(reach), end.min(hi));
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

/// Writes every span as one tab-separated line:
/// `id parent name start_ns end_ns`.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id\tparent\tname\tstart_ns\tend_ns")?;
    for s in spans {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}",
            s.id, s.parent, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            s(1, 0, "round", 0, 100),
            // Two overlapping children on different threads cover 10..70.
            s(2, 1, "cell", 10, 60),
            s(3, 1, "cell", 30, 70),
            s(4, 2, "walk", 20, 40),
        ];
        let own = self_seconds(&spans);
        assert!((own["round"] - 40e-9).abs() < 1e-15);
        assert!((own["cell"] - (30e-9 + 40e-9)).abs() < 1e-15);
        assert!((own["walk"] - 20e-9).abs() < 1e-15);
    }
}
