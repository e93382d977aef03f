//! The daemon workload (`daemon-mixed`): an in-process `lazymc_service`
//! daemon with a temporary data directory, driven over HTTP by a seeded
//! closed loop on two keep-alive connections.
//!
//! The loop runs in passes. A pass holds one uncached solve of every
//! resident graph at threads 1 and one at threads 2, a few repeated solves
//! that the result cache answers, `GET /stats` and `GET /metrics`; every
//! few passes also upload a fresh graph and delete it again. The pass's
//! requests are shuffled, and each connection takes the next request when
//! its previous one has been answered.

use crate::inputs::{self, Rng, Spec};
use crate::report::{
    check_phases, peak_rss_mb, process_cpu_s, Gate, Metrics, Samples, Span, Tracer,
};
use crate::Opts;
use lazymc_core::{Config, LazyMc, SolveResult};
use lazymc_graph::{io, CsrGraph};
use lazymc_service::{serve, Json, ServiceConfig, ServiceHandle};
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Client connections of the closed loop.
const CONNECTIONS: usize = 2;
/// Solver pool size of the daemon.
const SOLVER_WORKERS: usize = 2;
/// Cache-served solves per pass.
const CACHED_PER_PASS: usize = 4;
/// A fresh upload (and its delete) every this many passes.
const UPLOAD_EVERY: usize = 3;
/// Daemon boots (with the initial uploads) per run; `setup_s` is their
/// median.
const SETUP_REPS: usize = 3;

/// A minimal HTTP/1.1 keep-alive client.
struct Http {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Http {
    fn connect(addr: SocketAddr) -> std::io::Result<Http> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(120)))?;
        Ok(Http {
            stream,
            buf: Vec::new(),
        })
    }

    /// Sends one request and reads the whole response: `(status, body)`.
    fn call(&mut self, method: &str, path: &str, body: &[u8]) -> std::io::Result<(u16, Vec<u8>)> {
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        self.stream.write_all(head.as_bytes())?;
        self.stream.write_all(body)?;
        let bad = |m: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, m.to_string());
        let mut chunk = [0u8; 64 * 1024];
        let header_end = loop {
            if let Some(p) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break p + 4;
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(bad("connection closed before the response head"));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        };
        let head = String::from_utf8_lossy(&self.buf[..header_end]).to_string();
        let status: u16 = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("no status code"))?;
        let len: usize = head
            .lines()
            .find_map(|l| {
                let (k, v) = l.split_once(':')?;
                k.eq_ignore_ascii_case("content-length")
                    .then(|| v.trim().parse().ok())?
            })
            .ok_or_else(|| bad("no Content-Length"))?;
        while self.buf.len() < header_end + len {
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(bad("connection closed inside the response body"));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
        let body = self.buf[header_end..header_end + len].to_vec();
        self.buf.drain(..header_end + len);
        Ok((status, body))
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Op {
    /// `no_cache` solve of graph `g` at `threads`.
    Solve {
        g: usize,
        threads: usize,
    },
    /// Repeated solve of graph `g`, answered by the result cache.
    Cached {
        g: usize,
    },
    /// Upload of a fresh graph; the same connection then deletes it.
    Upload,
    /// The `DELETE` that follows an upload (never scheduled on its own).
    Delete,
    Stats,
    Metrics,
}

impl Op {
    fn label(self) -> String {
        match self {
            Op::Solve { threads, .. } => format!("solve@t{threads}"),
            Op::Cached { .. } => "solve-cached".into(),
            Op::Upload => "upload".into(),
            Op::Delete => "delete".into(),
            Op::Stats => "stats".into(),
            Op::Metrics => "metrics".into(),
        }
    }
}

/// The seeded request stream, cut off at the end of the timed window.
struct Feed {
    rng: Rng,
    graphs: usize,
    pass: usize,
    queue: VecDeque<(usize, Op)>,
    until: Instant,
}

impl Feed {
    fn next(&mut self) -> Option<(usize, Op)> {
        if Instant::now() >= self.until {
            return None;
        }
        if self.queue.is_empty() {
            let mut ops: Vec<Op> = Vec::new();
            for g in 0..self.graphs {
                ops.push(Op::Solve { g, threads: 1 });
                ops.push(Op::Solve { g, threads: 2 });
            }
            for _ in 0..CACHED_PER_PASS {
                ops.push(Op::Cached {
                    g: self.rng.below(self.graphs),
                });
            }
            ops.push(Op::Stats);
            ops.push(Op::Metrics);
            if self.pass.is_multiple_of(UPLOAD_EVERY) {
                ops.push(Op::Upload);
            }
            for i in (1..ops.len()).rev() {
                ops.swap(i, self.rng.below(i + 1));
            }
            self.queue.extend(ops.into_iter().map(|op| (self.pass, op)));
            self.pass += 1;
        }
        self.queue.pop_front()
    }
}

/// One answered request.
struct Record {
    pass: usize,
    op: Op,
    latency: f64,
    status: u16,
    ok: bool,
    /// Recorded during a traced pass.
    traced: bool,
}

/// What the client threads share: the graphs as the client parsed them and
/// their reference ω, and the prepared upload bodies.
struct Ctx<'a> {
    specs: &'a [Spec],
    graphs: Vec<CsrGraph>,
    omega: Vec<usize>,
    /// Fresh upload graphs: body fields after the name, vertices, edges.
    fresh: Vec<(String, usize, usize)>,
    fresh_serial: AtomicUsize,
    trace: bool,
    origin: Instant,
}

/// `POST /graphs` body fields after the name: `"format":…,"content":…}`.
fn upload_rest(text: String) -> String {
    let json = Json::obj(vec![
        ("format", Json::str("edgelist")),
        ("content", Json::Str(text)),
    ])
    .encode();
    json[1..].to_string()
}

fn upload_body(name: &str, rest: &str) -> Vec<u8> {
    format!("{{\"name\":\"{name}\",{rest}").into_bytes()
}

/// Checks a `/solve` answer against the client's graph and reference ω.
/// Returns whether it is right and whether the daemon answered it from the
/// result cache.
fn check_solve(ctx: &Ctx, g: usize, body: &[u8], corrupt: bool) -> (bool, bool) {
    let Ok(v) = Json::parse(&String::from_utf8_lossy(body)) else {
        return (false, false);
    };
    let cached = v.get("cached").and_then(Json::as_bool).unwrap_or(false);
    let omega = v.get("omega").and_then(Json::as_u64).unwrap_or(0) as usize;
    let mut clique: Vec<u32> = match v.get("clique") {
        Some(Json::Arr(a)) => a
            .iter()
            .filter_map(Json::as_u64)
            .map(|x| x as u32)
            .collect(),
        _ => Vec::new(),
    };
    if corrupt {
        crate::solver::corrupt(&ctx.graphs[g], &mut clique);
    }
    let exact = v.get("exact").and_then(Json::as_bool).unwrap_or(false);
    let ok =
        exact && omega == ctx.omega[g] && clique.len() == omega && ctx.graphs[g].is_clique(&clique);
    (ok, cached)
}

/// `(vertices, edges)` an upload response reports.
fn upload_dims(body: &[u8]) -> Option<(usize, usize)> {
    let v = Json::parse(&String::from_utf8_lossy(body)).ok()?;
    let field = |k| v.get(k).and_then(Json::as_u64).map(|x| x as usize);
    Some((field("vertices")?, field("edges")?))
}

/// One connection of the closed loop: takes the next request whenever the
/// previous one has been answered, until the feed runs dry.
fn client(
    addr: SocketAddr,
    feed: &Mutex<Feed>,
    ctx: &Ctx,
    mut corrupt: bool,
) -> (Vec<Record>, Vec<Span>, Gate) {
    let mut gate = Gate::default();
    let mut records = Vec::new();
    let mut tracer = Tracer::new(ctx.origin);
    let mut http = match Http::connect(addr) {
        Ok(h) => h,
        Err(e) => {
            gate.op(false, || format!("connect: {e}"));
            return (records, tracer.spans, gate);
        }
    };
    loop {
        // A statement of its own, so the feed lock is released before the
        // request is sent.
        let next = feed.lock().expect("feed lock poisoned").next();
        let Some((pass, op)) = next else {
            break;
        };
        let traced = ctx.trace && pass.is_multiple_of(2);
        tracer.on = traced;
        let mut upload = None;
        let (method, path, body) = match op {
            Op::Solve { g, threads } => (
                "POST",
                "/solve",
                format!(
                    "{{\"graph\":\"{}\",\"threads\":{threads},\"no_cache\":true}}",
                    ctx.specs[g].name
                )
                .into_bytes(),
            ),
            Op::Cached { g } => (
                "POST",
                "/solve",
                format!("{{\"graph\":\"{}\"}}", ctx.specs[g].name).into_bytes(),
            ),
            Op::Upload => {
                // Every upload gets its own name, so none replaces a
                // resident graph.
                let serial = ctx.fresh_serial.fetch_add(1, Ordering::Relaxed);
                let i = serial % ctx.fresh.len();
                let name = format!("fresh-{i}-{serial}");
                let body = upload_body(&name, &ctx.fresh[i].0);
                upload = Some((name, i));
                ("POST", "/graphs", body)
            }
            Op::Delete => unreachable!("deletes follow their upload"),
            Op::Stats => ("GET", "/stats", Vec::new()),
            Op::Metrics => ("GET", "/metrics", Vec::new()),
        };
        let start = Instant::now();
        let res = http.call(method, path, &body);
        let end = Instant::now();
        tracer.span(None, format!("http:{}", op.label()), start, end);
        let broken = res.is_err();
        let (status, resp) = res.unwrap_or_else(|e| {
            println!("{op:?}: {e}");
            (0, Vec::new())
        });
        let ok = match op {
            Op::Solve { g, .. } | Op::Cached { g } => {
                let (right, cached) = check_solve(ctx, g, &resp, corrupt);
                corrupt = false;
                // An uncached solve must not come from the cache.
                status == 200 && right && !(cached && matches!(op, Op::Solve { .. }))
            }
            Op::Upload => {
                let want = upload
                    .as_ref()
                    .map(|&(_, i)| (ctx.fresh[i].1, ctx.fresh[i].2));
                status == 201 && upload_dims(&resp) == want
            }
            Op::Delete => unreachable!("deletes follow their upload"),
            Op::Stats | Op::Metrics => status == 200,
        };
        gate.op(ok, || format!("{op:?}: status {status}, verified {ok}"));
        let latency = (end - start).as_secs_f64();
        records.push(Record {
            pass,
            op,
            latency,
            status,
            ok,
            traced,
        });
        if broken {
            break;
        }
        if let Some((name, _)) = upload {
            // The write path ends with the delete.
            let start = Instant::now();
            let status = http
                .call("DELETE", &format!("/graphs/{name}"), &[])
                .map_or(0, |r| r.0);
            let end = Instant::now();
            tracer.span(None, "http:delete", start, end);
            let ok = status == 200;
            gate.op(ok, || format!("DELETE /graphs/{name}: status {status}"));
            let latency = (end - start).as_secs_f64();
            records.push(Record {
                pass,
                op: Op::Delete,
                latency,
                status,
                ok,
                traced,
            });
        }
    }
    (records, tracer.spans, gate)
}

/// `/metrics` sample values by series (name plus labels).
fn scrape(http: &mut Http) -> Result<HashMap<String, f64>, String> {
    let (status, body) = http
        .call("GET", "/metrics", &[])
        .map_err(|e| e.to_string())?;
    if status != 200 {
        return Err(format!("GET /metrics: status {status}"));
    }
    Ok(String::from_utf8_lossy(&body)
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (k, v) = l.rsplit_once(' ')?;
            Some((k.to_string(), v.parse().ok()?))
        })
        .collect())
}

/// Boots a daemon over `data_dir` and uploads every resident graph.
fn boot(data_dir: &Path, bodies: &[Vec<u8>], gate: &mut Gate) -> Result<ServiceHandle, String> {
    std::fs::create_dir_all(data_dir).map_err(|e| e.to_string())?;
    let handle = serve(ServiceConfig {
        addr: "127.0.0.1:0".into(),
        io_threads: 1,
        workers: 2,
        solver_workers: SOLVER_WORKERS,
        data_dir: Some(data_dir.display().to_string()),
        ..ServiceConfig::default()
    })
    .map_err(|e| format!("serve: {e}"))?;
    let mut http = Http::connect(handle.addr()).map_err(|e| e.to_string())?;
    for body in bodies {
        let status = http.call("POST", "/graphs", body).map_or(0, |r| r.0);
        gate.op(status == 201, || format!("initial upload: status {status}"));
    }
    Ok(handle)
}

/// What the loop of one run measured.
struct Loop {
    records: Vec<Record>,
    window_s: f64,
    cpu_s: f64,
    /// `/metrics` before and after the loop (traced runs only).
    scrapes: Option<(HashMap<String, f64>, HashMap<String, f64>)>,
    /// Spans of each client connection.
    spans: Vec<Vec<Span>>,
}

pub fn run(
    o: &Opts,
    gate: &mut Gate,
    out: &mut Metrics,
    tracer: &mut Tracer,
) -> Result<(), String> {
    let specs = inputs::specs(o.workload);
    let read = |path: std::path::PathBuf| -> Result<(String, CsrGraph, f64), String> {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let t = Instant::now();
        let g =
            io::read_edge_list(text.as_bytes()).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok((text, g, t.elapsed().as_secs_f64()))
    };
    // The client's own copy of every graph, to verify answers against.
    let (mut graphs, mut bodies, mut parse_s, mut bytes) = (Vec::new(), Vec::new(), 0.0, 0);
    for s in specs {
        let (text, g, secs) = read(inputs::path(&o.dir, s))?;
        parse_s += secs;
        bytes += text.len();
        bodies.push(upload_body(s.name, &upload_rest(text)));
        graphs.push(g);
    }
    let mut fresh = Vec::new();
    for i in 0..inputs::FRESH_UPLOADS {
        let (text, g, _) = read(inputs::fresh_path(&o.dir, i))?;
        fresh.push((upload_rest(text), g.num_vertices(), g.num_edges()));
    }
    // Reference answers from the library at threads 1.
    let refs: Vec<SolveResult> = graphs
        .iter()
        .map(|g| LazyMc::new(Config::default().with_threads(1)).solve(g))
        .collect();
    for ((s, g), r) in specs.iter().zip(&graphs).zip(&refs) {
        gate.op(r.is_exact() && g.is_clique(r.vertices()), || {
            format!("{}: reference solve", s.name)
        });
        if let Some(w) = s.pinned_omega(o.seed, o.small) {
            gate.check(r.size() == w, || {
                format!("{}: omega {}, pinned {w}", s.name, r.size())
            });
        }
    }

    // Set-up: boot plus the initial uploads, several times; the last
    // daemon stays up for the loop.
    let mut setup = Samples::default();
    let reps = if o.small { 2 } else { SETUP_REPS };
    tracer.on = o.trace;
    let mut handle = None;
    for rep in 0..reps {
        let dir = o.dir.join(format!("data-{rep}"));
        let t = Instant::now();
        let h = boot(&dir, &bodies, gate)?;
        let end = Instant::now();
        tracer.span(None, "setup", t, end);
        setup.push((end - t).as_secs_f64());
        if rep + 1 < reps {
            h.stop();
            std::fs::remove_dir_all(&dir).map_err(|e| e.to_string())?;
        } else {
            handle = Some(h);
        }
    }
    drop(bodies);
    let handle = handle.expect("at least one set-up rep");
    let ctx = Ctx {
        specs,
        omega: refs.iter().map(SolveResult::size).collect(),
        graphs,
        fresh,
        fresh_serial: AtomicUsize::new(0),
        trace: o.trace,
        origin: Instant::now(),
    };
    let measured = drive(o, &ctx, handle.addr(), gate);
    handle.stop();
    let mut measured = measured?;
    for spans in std::mem::take(&mut measured.spans) {
        tracer.absorb(spans);
    }
    summarise(&ctx, &measured);
    match measured.scrapes.as_ref() {
        None => end_to_end(out, &ctx, &measured, &setup),
        Some((before, after)) => {
            out.put("graph.parse_s", parse_s, "s");
            out.put("graph.parse_mb_per_s", bytes as f64 / 1e6 / parse_s, "MB/s");
            layers(out, gate, &ctx, &measured, before, after, &refs);
        }
    }
    Ok(())
}

/// Fills the result cache, then runs the closed loop for the run's
/// seconds.
fn drive(o: &Opts, ctx: &Ctx, addr: SocketAddr, gate: &mut Gate) -> Result<Loop, String> {
    let mut http = Http::connect(addr).map_err(|e| e.to_string())?;
    for s in ctx.specs {
        let body = format!("{{\"graph\":\"{}\"}}", s.name);
        let status = http
            .call("POST", "/solve", body.as_bytes())
            .map_or(0, |r| r.0);
        gate.op(status == 200, || {
            format!("{}: cache fill, status {status}", s.name)
        });
    }
    let before = if o.trace {
        Some(scrape(&mut http)?)
    } else {
        None
    };
    drop(http);
    let cpu0 = process_cpu_s();
    let window = Instant::now();
    let feed = Mutex::new(Feed {
        rng: Rng(o.seed ^ 0x5eed),
        graphs: ctx.specs.len(),
        pass: 0,
        queue: VecDeque::new(),
        until: window + Duration::from_secs_f64(o.seconds),
    });
    let results: Vec<_> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                let feed = &feed;
                let corrupt = o.corrupt_witness && c == 0;
                scope.spawn(move || client(addr, feed, ctx, corrupt))
            })
            .collect();
        clients
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let window_s = window.elapsed().as_secs_f64();
    let cpu_s = process_cpu_s() - cpu0;
    let after = match before {
        Some(_) => Some(scrape(
            &mut Http::connect(addr).map_err(|e| e.to_string())?,
        )?),
        None => None,
    };
    let mut records = Vec::new();
    let mut spans = Vec::new();
    for (r, s, g) in results {
        records.extend(r);
        spans.push(s);
        gate.merge(g);
    }
    Ok(Loop {
        records,
        window_s,
        cpu_s,
        scrapes: before.zip(after),
        spans,
    })
}

impl Loop {
    /// Latencies of the records `f` selects.
    fn latencies(&self, f: impl Fn(&Record) -> bool) -> Samples {
        self.records
            .iter()
            .filter(|r| f(r))
            .map(|r| r.latency)
            .collect()
    }

    /// Requests refused with 429 or 503.
    fn rejected(&self) -> usize {
        self.records
            .iter()
            .filter(|r| matches!(r.status, 429 | 503))
            .count()
    }

    fn uncached(&self) -> Samples {
        self.latencies(|r| matches!(r.op, Op::Solve { .. }))
    }

    /// Uncached solves per graph and thread count, in passes.
    fn passes(&self, graphs: usize) -> f64 {
        self.uncached().len() as f64 / (2 * graphs) as f64
    }

    /// Per complete pass: summed latency of its uncached solves at
    /// `threads`.
    fn pass_sums(&self, threads: usize, graphs: usize) -> Samples {
        let mut per_pass: BTreeMap<usize, (f64, usize)> = BTreeMap::new();
        for r in &self.records {
            if matches!(r.op, Op::Solve { threads: t, .. } if t == threads) {
                let e = per_pass.entry(r.pass).or_default();
                e.0 += r.latency;
                e.1 += 1;
            }
        }
        per_pass
            .values()
            .filter(|e| e.1 == graphs)
            .map(|e| e.0)
            .collect()
    }
}

/// Request counts, latencies per request class and per graph, and the
/// tail sample count.
fn summarise(ctx: &Ctx, m: &Loop) {
    let uncached = m.uncached();
    println!(
        "window_s={:.3} passes={:.1} requests={} uncached={} rejected={}",
        m.window_s,
        m.passes(ctx.specs.len()),
        m.records.len(),
        uncached.len(),
        m.rejected()
    );
    let labels: BTreeSet<String> = m.records.iter().map(|r| r.op.label()).collect();
    for label in labels {
        let s = m.latencies(|r| r.op.label() == label);
        println!(
            "requests {label:<13} busy_s={:>8.3} [ms] {}",
            s.sum(),
            s.describe(1e3)
        );
    }
    for (g, spec) in ctx.specs.iter().enumerate() {
        let s = m.latencies(|r| matches!(r.op, Op::Solve { g: x, .. } if x == g));
        println!("uncached {:<14} [ms] {}", spec.name, s.describe(1e3));
    }
    println!(
        "omega: {}",
        ctx.specs
            .iter()
            .zip(&ctx.omega)
            .map(|(s, w)| format!("{}={w}", s.name))
            .collect::<Vec<_>>()
            .join(" ")
    );
    let p98 = uncached.quantile(0.98);
    let beyond = uncached.values().iter().filter(|&&v| v > p98).count();
    println!("uncached solves beyond p98: {beyond}");
}

fn end_to_end(out: &mut Metrics, ctx: &Ctx, m: &Loop, setup: &Samples) {
    let graphs = ctx.specs.len();
    let uncached = m.uncached();
    out.timing("setup_s", setup, "s");
    out.timing("solve_s", &m.pass_sums(1, graphs), "s");
    out.timing("solve_par_s", &m.pass_sums(2, graphs), "s");
    println!("timing uncached solves [ms] {}", uncached.describe(1e3));
    out.put("solve_p50_ms", uncached.median() * 1e3, "ms");
    out.put("solve_p98_ms", uncached.quantile(0.98) * 1e3, "ms");
    out.timing("upload_p50_ms", &m.latencies(|r| r.op == Op::Upload), "ms");
    let good = m.records.iter().filter(|r| r.ok).count();
    out.put("goodput_rps", good as f64 / m.window_s, "1/s");
    out.put("peak_rss_mb", peak_rss_mb(), "MB");
}

/// Per-layer metrics of a traced run: `/metrics` deltas over the loop per
/// pass, and the lazy-graph and heuristic counts of the in-process
/// reference solves.
fn layers(
    out: &mut Metrics,
    gate: &mut Gate,
    ctx: &Ctx,
    m: &Loop,
    before: &HashMap<String, f64>,
    after: &HashMap<String, f64>,
    refs: &[SolveResult],
) {
    let d = |k: &str| after.get(k).copied().unwrap_or(0.0) - before.get(k).copied().unwrap_or(0.0);
    let passes = m.passes(ctx.specs.len()).max(1.0);
    let per = |x: f64| x / passes;
    let phases: Vec<f64> = lazymc_service::obs::PHASES
        .iter()
        .map(|p| d(&format!("lazymc_solve_phase_seconds_sum{{phase=\"{p}\"}}")))
        .collect();
    let wall_sum = d("lazymc_solve_wall_seconds_sum");
    let jobs = d("lazymc_solve_wall_seconds_count");
    let phase_sum: f64 = phases.iter().sum();
    check_phases(gate, "daemon loop", phase_sum, wall_sum, jobs);

    let refs_sum = |f: &dyn Fn(&SolveResult) -> f64| refs.iter().map(f).sum::<f64>();
    let sorted = refs_sum(&|r| r.metrics.lazy_built.1 as f64);
    let exact = refs
        .iter()
        .filter(|r| r.metrics.omega_coreness_heuristic == r.size())
        .count();
    let retained = d("lazymc_core_retained_coreness_total");
    let f3 = d("lazymc_core_retained_f3_total");
    let mc_s = d("lazymc_core_mc_micros_total") / 1e6;
    let kvc_s = d("lazymc_core_kvc_micros_total") / 1e6;
    let mc_nodes = d("lazymc_core_mc_nodes_total");
    let vc_nodes = d("lazymc_core_vc_nodes_total");
    let busy: f64 = after
        .iter()
        .filter(|(k, _)| k.starts_with("lazymc_sched_busy_seconds_total"))
        .map(|(k, v)| v - before.get(k).copied().unwrap_or(0.0))
        .sum();
    out.put("order.kcore_s", per(phases[1]), "s");
    out.put("order.reorder_s", per(phases[2]), "s");
    out.put("lazygraph.prepopulate_s", per(phases[3]), "s");
    out.put("lazygraph.built_sorted", sorted, "count");
    out.put(
        "lazygraph.built_hashed",
        refs_sum(&|r| r.metrics.lazy_built.0 as f64),
        "count",
    );
    out.put(
        "lazygraph.built_ratio",
        sorted / refs_sum(&|r| r.metrics.n as f64).max(1.0),
        "ratio",
    );
    out.put("core.degree_heuristic_s", per(phases[0]), "s");
    out.put("core.coreness_heuristic_s", per(phases[4]), "s");
    out.put(
        "core.heuristic_exact_ratio",
        exact as f64 / refs.len() as f64,
        "ratio",
    );
    out.put("core.systematic_s", per(phases[5]), "s");
    out.put(
        "core.filter_s",
        per(d("lazymc_core_filter_micros_total") / 1e6),
        "s",
    );
    out.put("core.retained_coreness", per(retained), "count");
    out.put("core.retained_f3", per(f3), "count");
    out.put("core.filter_pass_ratio", f3 / retained.max(1.0), "ratio");
    out.put("solver.mc_s", per(mc_s), "s");
    out.put("solver.kvc_s", per(kvc_s), "s");
    out.put("solver.mc_nodes", per(mc_nodes), "count");
    out.put("solver.vc_nodes", per(vc_nodes), "count");
    out.put(
        "solver.searched_mc",
        per(d("lazymc_core_searched_mc_total")),
        "count",
    );
    out.put(
        "solver.searched_kvc",
        per(d("lazymc_core_searched_kvc_total")),
        "count",
    );
    out.put(
        "solver.nodes_per_s",
        (mc_nodes + vc_nodes) / (mc_s + kvc_s).max(1e-9),
        "1/s",
    );
    out.put(
        "sched.split_tasks",
        per(d("lazymc_core_split_tasks_total")),
        "count",
    );
    out.put("sched.steals", per(d("lazymc_core_steals_total")), "count");
    out.put(
        "sched.thread_efficiency",
        busy / (m.window_s * SOLVER_WORKERS as f64),
        "ratio",
    );
    out.put("sched.cpu_per_wall", m.cpu_s / m.window_s, "ratio");

    let uncached = m.uncached();
    let queue_wait =
        d("lazymc_queue_wait_seconds_sum") / d("lazymc_queue_wait_seconds_count").max(1.0);
    let solve_wall = wall_sum / jobs.max(1.0);
    let hits = d("lazymc_result_cache_hits_total");
    let lookups = hits + d("lazymc_result_cache_misses_total");
    let median_ms = |op: Op| m.latencies(|r| r.op.label() == op.label()).median() * 1e3;
    out.put("service.queue_wait_ms", queue_wait * 1e3, "ms");
    out.put("service.solve_wall_ms", solve_wall * 1e3, "ms");
    out.put(
        "service.http_overhead_ms",
        (uncached.mean() - queue_wait - solve_wall) * 1e3,
        "ms",
    );
    out.put("service.cache_hit_ms", median_ms(Op::Cached { g: 0 }), "ms");
    out.put("service.cache_hit_ratio", hits / lookups.max(1.0), "ratio");
    out.put("service.stats_ms", median_ms(Op::Stats), "ms");
    out.put("service.metrics_ms", median_ms(Op::Metrics), "ms");
    out.put(
        "service.snapshot_writes",
        d("lazymc_snapshot_writes_total"),
        "count",
    );
    out.put("service.rejected", m.rejected() as f64, "count");
    let traced = m.latencies(|r| r.traced && matches!(r.op, Op::Solve { .. }));
    let untraced = m.latencies(|r| !r.traced && matches!(r.op, Op::Solve { .. }));
    out.put(
        "trace.overhead_ratio",
        traced.median() / untraced.median(),
        "ratio",
    );
}
