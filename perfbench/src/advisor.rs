//! `advisor`: a closed loop against `Server::serve` over an in-process
//! pipe pair, with `nproc` requests outstanding and `nproc` workers, in
//! blocks of 100 requests. The loop drains between blocks and runs the
//! reference probe (see [`probe`](crate::probe)) on `nproc` threads while
//! the server is idle; each block's time and each request's latency are
//! reported in units of the mean of the probes before and after its
//! block.
//!
//! The seeded request stream is built from groups of 20 with a fixed
//! mix — so every seed offers the same load shape — of bundled kernels
//! at small n on several cache geometries. The repository holds no
//! request logs, so the mix is a test mix, not measured traffic: each
//! share is set so that one path of the server carries a measurable part
//! of every run.
//!
//! * 10 cold `auto` PAD/PADLITE requests (50%), each a new question
//!   whose exact answer the server simulates and writes to its store:
//!   the path the exact budget exists to bound, so it is the bulk.
//! * 4 repeats of a recent cold request (20%): store hits (reads) beside
//!   the cold analyses, or a second simulation when the first is still
//!   in flight (the client does not serialise duplicates). Enough that
//!   the hit share and the double simulations are far from 0.
//! * 2 `auto` searches (10%), the only requests that reach `pad-search`
//!   (exact confirmation); each costs several cold requests.
//! * 4 `fast` requests (20%) across `pad`, `padlite` and `search`: the
//!   analytic rung without simulation.
//! * In every tenth group one cold request is replaced by an `auto`
//!   request over the exact budget (0.5% of the stream), which the
//!   ladder answers on the fast rung (`degraded`). The share is held
//!   below 1% so that `item_ref.p99` measures the common path; these
//!   requests' latency is reported on its own, as the per-layer
//!   `pad-advisor.over_budget_ms.p50`.
//!
//! The exact budget is a fixed access count (cost ≤ 400K accesses) and
//! the deadline is far above any request's cost, so the degraded share
//! follows the ladder's budget rule, not timer luck.
//!
//! Every answer is checked against a direct `pad_advisor::advise` call on
//! the same request (ignoring the `cached` flag), and the server's
//! `stats` counters against what the client saw.

use std::collections::{HashMap, HashSet};
use std::hash::{DefaultHasher, Hash, Hasher};
use std::io::{self, BufRead, Read, Write};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use pad_advisor::json::{self, Json};
use pad_advisor::{
    advise, exact_cost, parse_request, resolve, Algorithm, Mode, Op, Server, ServerConfig,
};
use pad_cache_sim::{CacheConfig, SplitMix64};
use pad_core::{DataLayout, PaddingPipeline};
use pad_trace::{padding_config_for, BatchRequest, CompiledTrace};

use crate::common::{percentile, repeat_setup, shuffle, Env, Report, Timed};
use crate::probe;
use crate::trace;
use crate::walk::traced_batch;

/// Requests per round.
const BLOCK: usize = 100;
/// Exact answers are allowed up to this trace cost (accesses).
const EXACT_BUDGET: u64 = 400_000;
/// Far above any request's cost: no deadline should ever trip.
const DEADLINE: Duration = Duration::from_secs(20);
/// Requests generated up front; the loop stops early if it runs out.
const STREAM_LEN: usize = 60_000;

const KERNELS: [&str; 16] = [
    "JACOBI512",
    "RB512",
    "ADI512",
    "EXPL512",
    "SHAL512",
    "SWIM",
    "TOMCATV",
    "HYDRO2D",
    "WAVE5",
    "NASA7",
    "DGEFA256",
    "LINPACKD",
    "CHOL256",
    "MULT300",
    "SIMPLE",
    "APSI",
];
/// (size, line, ways) of the cache geometries requests ask about.
const CACHES: [(u64, u64, u32); 8] = [
    (16384, 32, 1),
    (8192, 32, 1),
    (4096, 32, 1),
    (8192, 64, 2),
    (32768, 32, 2),
    (16384, 32, 4),
    (16384, 64, 4),
    (16384, 32, 16),
];

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Cold,
    Repeat,
    Over,
    Search,
    Fast,
}

/// One group of the stream; see the module documentation for the
/// reason behind each share.
const GROUP: [(Kind, usize); 4] = [
    (Kind::Cold, 10),
    (Kind::Repeat, 4),
    (Kind::Search, 2),
    (Kind::Fast, 4),
];
/// Every this many groups, one cold request is over the exact budget.
const OVER_EVERY: usize = 10;

/// One request of the stream: the index of its frame body (everything
/// but `id`) among the distinct ones, and its kind.
struct Req {
    key: usize,
    kind: Kind,
}

impl Req {
    fn auto(&self) -> bool {
        self.kind != Kind::Fast
    }
}

struct Stream {
    reqs: Vec<Req>,
    bodies: Vec<String>,
}

/// (kernel, n) choices by trace length, from the suite at set-up.
struct Pools {
    cold: Vec<(&'static str, i64)>,
    search: Vec<(&'static str, i64)>,
    over: Vec<(&'static str, i64)>,
}

fn pools() -> Pools {
    let suite = pad_kernels::suite();
    let mut pools = Pools {
        cold: Vec::new(),
        search: Vec::new(),
        over: Vec::new(),
    };
    for name in KERNELS {
        let kernel = suite
            .iter()
            .find(|k| k.name == name)
            .expect("advisor kernels are in the suite");
        let count = |n: i64| {
            let p = (kernel.spec)(n);
            CompiledTrace::compile(&p, &DataLayout::original(&p)).count()
        };
        for n in 8..=64 {
            let c = count(n);
            if (2_000..=60_000).contains(&c) {
                pools.cold.push((name, n));
            }
            if (1_000..=20_000).contains(&c) {
                pools.search.push((name, n));
            }
        }
        for n in [112, 128] {
            let c = count(n);
            if 2 * c > EXACT_BUDGET * 3 / 2 && c <= 600_000 {
                pools.over.push((name, n));
            }
        }
    }
    pools
}

fn pick<T: Copy>(rng: &mut SplitMix64, items: &[T]) -> T {
    items[rng.below(items.len() as u64) as usize]
}

fn body(rng: &mut SplitMix64, pool: &[(&str, i64)], algorithm: &str, mode: &str) -> String {
    let (kernel, n) = pick(rng, pool);
    let (size, line, ways) = pick(rng, &CACHES);
    let mut b = format!(
        "\"op\":\"advise\",\"kernel\":\"{kernel}\",\"n\":{n},\
         \"cache\":{{\"size\":{size},\"line\":{line},\"ways\":{ways}}},\
         \"algorithm\":\"{algorithm}\",\"mode\":\"{mode}\""
    );
    if algorithm == "search" {
        let strategy = pick(rng, &["beam", "anneal"]);
        let budget = pick(rng, &[40, 60, 80]);
        let seed = rng.below(1000) + 1;
        b.push_str(&format!(
            ",\"strategy\":\"{strategy}\",\"budget\":{budget},\"seed\":{seed}"
        ));
    }
    b
}

fn stream(env: &Env, pools: &Pools) -> Stream {
    let mut rng = env.rng(3);
    let mut s = Stream {
        reqs: Vec::with_capacity(STREAM_LEN),
        bodies: Vec::new(),
    };
    let mut index: HashMap<String, usize> = HashMap::new();
    let mut recent_cold: Vec<usize> = Vec::new();
    let group: Vec<Kind> = GROUP
        .iter()
        .flat_map(|&(kind, n)| std::iter::repeat_n(kind, n))
        .collect();
    for groups in 0.. {
        if s.reqs.len() >= STREAM_LEN {
            break;
        }
        let mut kinds = group.clone();
        if groups % OVER_EVERY == OVER_EVERY - 1 {
            kinds[0] = Kind::Over;
        }
        shuffle(&mut rng, &mut kinds);
        for &kind in &kinds {
            let text = match kind {
                Kind::Repeat if !recent_cold.is_empty() => {
                    let window = &recent_cold[recent_cold.len().saturating_sub(32)..];
                    let key = pick(&mut rng, window);
                    s.reqs.push(Req { key, kind });
                    continue;
                }
                Kind::Cold | Kind::Repeat => {
                    // A question not asked before in this stream (the
                    // pools hold several times the questions a run asks).
                    let mut text;
                    let mut tries = 0;
                    loop {
                        let alg = pick(&mut rng, &["pad", "padlite"]);
                        text = body(&mut rng, &pools.cold, alg, "auto");
                        tries += 1;
                        if !index.contains_key(&text) || tries == 64 {
                            break;
                        }
                    }
                    text
                }
                Kind::Over => {
                    let alg = pick(&mut rng, &["pad", "padlite"]);
                    body(&mut rng, &pools.over, alg, "auto")
                }
                Kind::Search => body(&mut rng, &pools.search, "search", "auto"),
                Kind::Fast => {
                    let alg = pick(&mut rng, &["pad", "padlite", "search"]);
                    let pool = if alg == "search" {
                        &pools.search
                    } else {
                        &pools.cold
                    };
                    body(&mut rng, pool, alg, "fast")
                }
            };
            let next = s.bodies.len();
            let key = *index.entry(text.clone()).or_insert(next);
            if key == next {
                s.bodies.push(text);
            }
            if kind == Kind::Cold || kind == Kind::Repeat {
                recent_cold.push(key);
            }
            s.reqs.push(Req { key, kind });
        }
    }
    s
}

fn server_config(threads: usize) -> ServerConfig {
    ServerConfig {
        threads,
        queue: 64,
        deadline: Some(DEADLINE),
        rate: EXACT_BUDGET as f64 / DEADLINE.as_secs_f64(),
        ..ServerConfig::default()
    }
}

/// The server's read side: frames arrive as byte buffers on a channel;
/// a closed channel is end of input.
struct PipeReader {
    rx: Receiver<Vec<u8>>,
    buf: Vec<u8>,
    pos: usize,
}

impl Read for PipeReader {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        let available = self.fill_buf()?;
        let n = available.len().min(out.len());
        out[..n].copy_from_slice(&available[..n]);
        self.consume(n);
        Ok(n)
    }
}

impl BufRead for PipeReader {
    fn fill_buf(&mut self) -> io::Result<&[u8]> {
        if self.pos == self.buf.len() {
            match self.rx.recv() {
                Ok(bytes) => {
                    self.buf = bytes;
                    self.pos = 0;
                }
                Err(_) => return Ok(&[]),
            }
        }
        Ok(&self.buf[self.pos..])
    }

    fn consume(&mut self, amount: usize) {
        self.pos = (self.pos + amount).min(self.buf.len());
    }
}

/// The server's write side: complete lines go to the client.
struct PipeWriter {
    tx: Sender<(String, u64)>,
    pending: Vec<u8>,
}

impl Write for PipeWriter {
    fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
        self.pending.extend_from_slice(bytes);
        while let Some(end) = self.pending.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = self.pending.drain(..=end).collect();
            let text = String::from_utf8_lossy(&line[..end]).into_owned();
            // A closed client only means nobody is listening any more.
            let _ = self.tx.send((text, trace::now_ns()));
        }
        Ok(bytes.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// One answer as the client saw it. Only a digest of an ok answer's
/// `result` is kept, so that the run's answers do not swell the peak
/// resident set the benchmark reports.
struct Answer {
    cached: bool,
    degraded: bool,
    /// Digest of an ok answer's `result`; an error answer's whole line.
    result: Result<u64, String>,
    latency_ns: u64,
}

fn digest(text: &str) -> u64 {
    let mut hasher = DefaultHasher::new();
    text.hash(&mut hasher);
    hasher.finish()
}

fn parse_answer(line: &str) -> Result<(usize, Answer), String> {
    let frame = json::parse(line).map_err(|e| format!("unparsable response {line:?}: {e}"))?;
    let id = frame
        .get("id")
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("response without an integer id: {line}"))?;
    let ok = frame.get("status").and_then(Json::as_str) == Some("ok");
    let flag = |k: &str| frame.get(k).and_then(Json::as_bool).unwrap_or(false);
    let result = match line.find(",\"result\":") {
        Some(at) if ok => Ok(digest(&line[at + ",\"result\":".len()..line.len() - 1])),
        _ => Err(line.to_string()),
    };
    Ok((
        id as usize,
        Answer {
            cached: flag("cached"),
            degraded: flag("degraded"),
            result,
            latency_ns: 0,
        },
    ))
}

/// What the loop measured.
struct LoopOut {
    answers: Vec<Option<Answer>>,
    /// Stream index → whether it ran in a traced block.
    traced: Vec<bool>,
    /// Stream index → the probe seconds around its block.
    probes: Vec<f64>,
    stats: Json,
}

/// Drives the closed loop for `env.seconds`, `env.threads` requests in
/// flight, then reads the `stats` op and shuts the server down.
fn closed_loop(
    env: &Env,
    server: &Server,
    s: &Stream,
    report: &mut Report,
) -> Result<LoopOut, String> {
    let (in_tx, in_rx) = mpsc::channel::<Vec<u8>>();
    let (out_tx, out_rx) = mpsc::channel::<(String, u64)>();
    let reader = PipeReader {
        rx: in_rx,
        buf: Vec::new(),
        pos: 0,
    };
    let writer = PipeWriter {
        tx: out_tx,
        pending: Vec::new(),
    };
    std::thread::scope(|scope| {
        let served = scope.spawn(move || server.serve(reader, writer));
        let result = drive(env, s, report, &in_tx, &out_rx);
        drop(in_tx);
        let joined = served.join();
        match joined {
            Ok(Ok(())) => result,
            Ok(Err(e)) => Err(format!("server failed: {e}")),
            Err(_) => Err("server thread panicked".into()),
        }
    })
}

fn drive(
    env: &Env,
    s: &Stream,
    report: &mut Report,
    in_tx: &Sender<Vec<u8>>,
    out_rx: &Receiver<(String, u64)>,
) -> Result<LoopOut, String> {
    let send = |line: String| {
        in_tx
            .send(line.into_bytes())
            .map_err(|_| "server stopped reading".to_string())
    };
    let mut answers: Vec<Option<Answer>> = Vec::new();
    let mut traced_flags: Vec<bool> = Vec::new();
    // Per request, its block; per block, its time, whether it was traced,
    // and the probe run before it.
    let mut block_of: Vec<usize> = Vec::new();
    let mut blocks: Vec<(f64, bool, f64)> = Vec::new();
    let mut sent_at: HashMap<usize, u64> = HashMap::new();
    let mut next = 0usize;
    let start = Instant::now();
    let mut block_traced = false;
    // At least two untraced blocks, whatever the time.
    while (start.elapsed().as_secs_f64() < env.seconds || blocks.len() < 4) && next < s.reqs.len() {
        // The server is idle between blocks: the probe runs on as many
        // threads as it has workers.
        let probe_s = probe::time_on(env.threads);
        let block = blocks.len();
        trace::set_enabled(block_traced);
        let block_start = trace::now_ns();
        let block_end = (next + BLOCK).min(s.reqs.len());
        let mut send_next = |next: &mut usize, sent_at: &mut HashMap<usize, u64>| {
            let id = *next;
            *next += 1;
            traced_flags.push(block_traced);
            block_of.push(block);
            sent_at.insert(id, trace::now_ns());
            send(format!("{{\"id\":{id},{}}}\n", s.bodies[s.reqs[id].key]))
        };
        while next < block_end && sent_at.len() < env.threads {
            send_next(&mut next, &mut sent_at)?;
        }
        while !sent_at.is_empty() {
            let (line, at) = out_rx
                .recv()
                .map_err(|_| "server closed its output".to_string())?;
            let (id, mut answer) = parse_answer(&line)?;
            let sent = sent_at
                .remove(&id)
                .ok_or_else(|| format!("answer to unknown request {id}"))?;
            answer.latency_ns = at.saturating_sub(sent);
            if trace::enabled() {
                trace::record("perfbench.request", 0, sent, at);
            }
            if answers.len() <= id {
                answers.resize_with(id + 1, || None);
            }
            answers[id] = Some(answer);
            if next < block_end {
                send_next(&mut next, &mut sent_at)?;
            }
        }
        let took = (trace::now_ns() - block_start) as f64 * 1e-9;
        blocks.push((took, block_traced, probe_s));
        block_traced = env.traced && !block_traced;
    }
    trace::set_enabled(false);
    // A block's probe is the mean of the probes just before and after it.
    let last_probe = probe::time_on(env.threads);
    let around: Vec<f64> = (0..blocks.len())
        .map(|b| (blocks[b].2 + blocks.get(b + 1).map_or(last_probe, |n| n.2)) / 2.0)
        .collect();
    for (&(secs, traced, _), &probe_s) in blocks.iter().zip(&around) {
        let timed = Timed { secs, probe_s };
        if traced {
            report.traced_rounds.push(timed);
        } else {
            report.rounds.push(timed);
        }
    }
    let probes = block_of.iter().map(|&b| around[b]).collect();
    if next == s.reqs.len() {
        eprintln!("perfbench: advisor: request stream exhausted before the time was up");
    }
    send("{\"id\":\"stats\",\"op\":\"stats\"}\n".into())?;
    let (line, _) = out_rx
        .recv()
        .map_err(|_| "no answer to stats".to_string())?;
    let stats = json::parse(&line)
        .ok()
        .and_then(|f| f.get("stats").cloned())
        .ok_or_else(|| format!("bad stats answer: {line}"))?;
    send("{\"id\":\"bye\",\"op\":\"shutdown\"}\n".into())?;
    out_rx
        .recv()
        .map_err(|_| "no answer to shutdown".to_string())?;
    Ok(LoopOut {
        answers,
        traced: traced_flags,
        probes,
        stats,
    })
}

/// The direct answer to one distinct request.
struct Expected {
    /// Digest of the answer's `result`.
    digest: u64,
    degraded: bool,
    /// True when the answer comes from the exact (simulating) rung.
    exact: bool,
    algorithm: Algorithm,
    advise_ns: u64,
}

/// Answers one request body directly: `json::parse` + `parse_request`
/// (span `pad-advisor.parse`), the server's rung choice, then
/// `engine::advise` (span `pad-advisor.advise`). In the traced run the
/// exact rung is also decomposed — layout, walks and sinks under their
/// own spans, searches re-run under `pad-search.search` — and the
/// decomposed miss counts are checked against the answer's.
fn expect(text: &str, traced: bool) -> Result<(Expected, u64), String> {
    let frame = format!("{{\"id\":0,{text}}}");
    let t0 = Instant::now();
    let request = {
        let _span = trace::span("pad-advisor.parse");
        let parsed = json::parse(&frame).map_err(|e| e.to_string())?;
        parse_request(&parsed).map_err(|e| e.detail)?
    };
    let parse_ns = t0.elapsed().as_nanos() as u64;
    let Op::Advise(req) = request.op else {
        return Err("not an advise frame".into());
    };
    let program = resolve(&req.source).map_err(|e| e.detail)?;
    let affordable = exact_cost(&program) <= EXACT_BUDGET;
    let exact = match req.mode {
        Mode::Fast => false,
        Mode::Exact => true,
        Mode::Auto => affordable,
    };
    let degraded = req.mode == Mode::Auto && !exact;
    let t1 = Instant::now();
    let advice = {
        let _span = trace::span("pad-advisor.advise");
        advise(&program, &req, exact, degraded)
    };
    let advise_ns = t1.elapsed().as_nanos() as u64;
    let digest = digest(&advice.body.to_string());
    if traced {
        decompose(&program, &req, exact, &advice.body)?;
    }
    Ok((
        Expected {
            digest,
            degraded: advice.degraded,
            exact,
            algorithm: req.algorithm,
            advise_ns,
        },
        parse_ns,
    ))
}

/// The traced run's split of one answer into its layers.
fn decompose(
    program: &pad_ir::Program,
    req: &pad_advisor::AdviseRequest,
    exact: bool,
    answer: &Json,
) -> Result<(), String> {
    let cache: CacheConfig = req.cache;
    let padded = match req.algorithm {
        Algorithm::Search => {
            let p = &req.search;
            let mut cfg = pad_search::SearchConfig {
                threads: 1,
                confirm_exact: exact,
                ..pad_search::SearchConfig::default()
            };
            if let Some(v) = p.strategy {
                cfg.strategy = v;
            }
            if let Some(v) = p.budget {
                cfg.budget = v;
            }
            if let Some(v) = p.seed {
                cfg.seed = v;
            }
            if let Some(v) = p.beam {
                cfg.beam_width = v;
            }
            let result = {
                let _span = trace::span("pad-search.search");
                pad_search::search(program, &cache, &cfg)
            };
            trace::count("pad-search.fast_evals", result.fast_evals as f64);
            trace::count("pad-search.exact_evals", result.exact_evals as f64);
            result.best.layout
        }
        algorithm => {
            let _span = trace::span("pad-core.layout");
            trace::count("pad-core.layouts", 1.0);
            let config = padding_config_for(&cache);
            let pipeline = if algorithm == Algorithm::Pad {
                PaddingPipeline::pad(config)
            } else {
                PaddingPipeline::padlite(config)
            };
            pipeline.run(program).layout
        }
    };
    if !exact {
        return Ok(());
    }
    let request = BatchRequest::new()
        .with_plain(cache)
        .with_reuse(cache.line_size());
    for (section, layout) in [
        ("original", DataLayout::original(program)),
        ("padded", padded),
    ] {
        let misses = traced_batch(program, &layout, &request).plain[0].misses;
        let want = answer
            .get(section)
            .and_then(|s| s.get("misses"))
            .and_then(Json::as_u64);
        if want != Some(misses) {
            return Err(format!(
                "decomposed {section} walk: {misses} misses, answer says {want:?}"
            ));
        }
    }
    Ok(())
}

/// Answers `keys` directly on `threads` workers, adding each answer to
/// `expected` and, when `traced`, each parse time to `parse_ns`.
fn direct(
    s: &Stream,
    keys: &[usize],
    threads: usize,
    traced: bool,
    expected: &mut HashMap<usize, Result<Expected, String>>,
    parse_ns: &mut Vec<f64>,
) {
    type Answered = (usize, Result<(Expected, u64), String>);
    let answers: Mutex<Vec<Answered>> = Mutex::new(Vec::new());
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(&key) = keys.get(i) else { break };
                let result = expect(&s.bodies[key], traced);
                answers
                    .lock()
                    .expect("direct answers poisoned")
                    .push((key, result));
            });
        }
    });
    for (key, result) in answers.into_inner().expect("direct answers poisoned") {
        let result = result.map(|(e, parse)| {
            if traced {
                parse_ns.push(parse as f64);
            }
            e
        });
        expected.insert(key, result);
    }
}

pub fn run(env: &Env) -> Result<Report, String> {
    let mut report = Report::default();
    let (s, server) = repeat_setup(&mut report, 5, || {
        let pools = pools();
        (stream(env, &pools), Server::new(server_config(env.threads)))
    });
    let out = closed_loop(env, &server, &s, &mut report)?;

    // Direct answers to every distinct request the server answered:
    // first those of the traced blocks with tracing on, then the rest
    // with it off. The flag is process-wide, so it is set once per
    // phase, never from inside the workers.
    let mut keys: Vec<usize> = out
        .answers
        .iter()
        .enumerate()
        .filter(|(_, a)| a.is_some())
        .map(|(id, _)| s.reqs[id].key)
        .collect();
    keys.sort_unstable();
    keys.dedup();
    let traced_keys: HashSet<usize> = out
        .traced
        .iter()
        .enumerate()
        .filter(|(id, &t)| t && out.answers.get(*id).is_some_and(Option::is_some))
        .map(|(id, _)| s.reqs[id].key)
        .collect();
    let (traced_phase, untraced_phase): (Vec<usize>, Vec<usize>) =
        keys.iter().partition(|k| traced_keys.contains(k));
    let mut expected = HashMap::new();
    let mut parse_ns = Vec::new();
    for (phase, traced) in [(traced_phase, true), (untraced_phase, false)] {
        trace::set_enabled(traced);
        direct(
            &s,
            &phase,
            env.threads,
            traced,
            &mut expected,
            &mut parse_ns,
        );
    }
    trace::set_enabled(false);

    // Check every answer; gather latency, overhead and the ladder's share.
    let mut auto = 0usize;
    let mut degraded = 0usize;
    let mut exact_fresh = 0u64;
    let mut fresh_per_key: HashMap<usize, u64> = HashMap::new();
    let mut overhead_ms = Vec::new();
    let mut over_budget_ms = Vec::new();
    for (id, answer) in out.answers.iter().enumerate() {
        let Some(answer) = answer else { continue };
        let req = &s.reqs[id];
        report.items.push(Timed {
            secs: answer.latency_ns as f64 * 1e-9,
            probe_s: out.probes[id],
        });
        let want = &expected[&req.key];
        let checked = match want {
            Err(e) => Err(format!("direct call failed: {e}")),
            Ok(_) if answer.result.is_err() => Err(format!(
                "error answer: {}",
                answer.result.as_ref().err().map_or("", String::as_str)
            )),
            Ok(w) if answer.result != Ok(w.digest) => {
                Err("result differs from the direct answer".to_string())
            }
            Ok(w) if !answer.cached && w.degraded != answer.degraded => Err(format!(
                "degraded flag {} vs {}",
                answer.degraded, w.degraded
            )),
            Ok(_) => Ok(()),
        };
        report.check(checked.is_ok(), || {
            format!(
                "advisor request {id} ({}): {}",
                s.bodies[req.key],
                checked.err().unwrap_or_default()
            )
        });
        if req.auto() {
            auto += 1;
            degraded += usize::from(answer.degraded);
        }
        if req.kind == Kind::Over {
            over_budget_ms.push(answer.latency_ns as f64 * 1e-6);
        }
        if let Ok(w) = want {
            let analysed_ns = if answer.cached { 0 } else { w.advise_ns };
            if out.traced[id] {
                overhead_ms.push(answer.latency_ns.saturating_sub(analysed_ns) as f64 * 1e-6);
            }
            if w.exact && !answer.cached {
                exact_fresh += 1;
                if w.algorithm != Algorithm::Search {
                    *fresh_per_key.entry(req.key).or_insert(0) += 1;
                }
            }
        }
    }

    // The server's own counters must agree with what the client saw.
    let stat = |k: &str| out.stats.get(k).and_then(Json::as_u64).unwrap_or(u64::MAX);
    let answered = out.answers.iter().flatten().count() as u64;
    let cached = out.answers.iter().flatten().filter(|a| a.cached).count() as u64;
    for (name, got, want) in [
        ("requests", stat("requests"), answered),
        ("cache_hits", stat("cache_hits"), cached),
        ("degraded", stat("degraded"), degraded as u64),
        ("simulations", stat("simulations"), exact_fresh),
        ("errors", stat("errors"), 0),
    ] {
        report.check(got == want, || {
            format!("stats.{name} = {got}, the client counted {want}")
        });
    }

    let blocks = (report.rounds.len() + report.traced_rounds.len()).max(1) as f64;
    let traced_blocks = report.traced_rounds.len().max(1) as f64;
    let double: u64 = fresh_per_key.values().map(|&n| n - 1).sum();
    let layer = &mut report.layer;
    layer.insert(
        "pad-advisor.cache_hit_frac",
        stat("cache_hits") as f64 / stat("requests").max(1) as f64,
    );
    layer.insert(
        "pad-advisor.simulations",
        stat("simulations") as f64 / blocks,
    );
    layer.insert("pad-advisor.double_simulations", double as f64 / blocks);
    layer.insert(
        "pad-advisor.degraded_frac",
        degraded as f64 / auto.max(1) as f64,
    );
    layer.insert(
        "pad-advisor.overhead_ms.p50",
        percentile(&overhead_ms, 50.0),
    );
    layer.insert(
        "pad-advisor.overhead_ms.p99",
        percentile(&overhead_ms, 99.0),
    );
    layer.insert(
        "pad-advisor.over_budget_ms.p50",
        percentile(&over_budget_ms, 50.0),
    );
    layer.insert(
        "pad-advisor.parse_us",
        parse_ns.iter().sum::<f64>() * 1e-3 / parse_ns.len().max(1) as f64,
    );
    // Span totals cover the distinct requests of the traced blocks.
    report.layer_rounds = Some(traced_blocks);
    Ok(report)
}
