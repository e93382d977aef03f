//! Subcommand implementations.

use crate::args::Parsed;
use lazymc_core::{Config, LazyMc, PrePopulate};
use lazymc_graph::{connected_components, io, suite, triangle_count, CsrGraph, GraphStats};
use lazymc_order::kcore_sequential;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Top-level usage text.
pub const USAGE: &str = "\
lazymc — work-avoiding maximum clique search

USAGE:
  lazymc solve <file> [--threads N] [--budget SECS] [--phi F] [--top-k K]
               [--filter-rounds R] [--no-early-exit] [--no-second-exit]
               [--prepopulate none|must|all] [--reduction] [--quiet]
  lazymc bench --suite quick|dense|sparse|service|sparse-massive
               [--out FILE] [--reps N] [--threads N] [--write-graphs DIR]
               [--dir DIR]
               (service: requests/sec + healthz-under-load latency against
               an in-process daemon; sparse-massive: 10M+-edge power-law
               graphs solved through zero-copy mmap snapshots plus a
               100-snapshot cold-boot — fetched corpora in --dir join in,
               otherwise the suite is synthetic-only)
  lazymc bench --check-json FILE               (validate a bench report)
  lazymc bench --compare OLD.json NEW.json     (speedup table; exits 1 on
               >10% median wall-time regression)
  lazymc stats <file>
  lazymc mce <file> [--histogram]
  lazymc compare <file> [--skip ALG[,ALG...]]   (algs: pmc, domega-ls, domega-bs, brb)
  lazymc gen <instance> <out-file> [--test]     (see `lazymc gen list`)
  lazymc fetch [<name>...] [--dir DIR] [--list] [--timeout-ms MS]
               (download real sparse corpora for the sparse-massive
               bench; exits 8 with a hint when the network is down)
  lazymc serve [<addr>] [--io-threads I] [--workers N] [--solver-workers S]
               [--conn-limit C] [--max-graphs M] [--queue-cap Q]
               [--data-dir DIR] [--max-budget-ms MS] [--job-ttl-ms MS]
               [--result-cache-bytes B] [--log-json] [--slow-query-ms MS]
               [--queue-delay-target-ms MS] [--max-memory-bytes B]
               [--drain-timeout-ms MS] [--scrub-interval-ms MS]
               [--mmap-threshold-bytes B] [--check]
               (default addr 127.0.0.1:7171)
  lazymc snapshot <graph-file> <out.lmcs>
  lazymc restore <file.lmcs> [<out-graph-file>]
  lazymc help

Input formats by extension: .clq/.col/.dimacs (DIMACS), .mtx (MatrixMarket),
anything else is read as a whitespace edge list.

The serve daemon keeps uploaded graphs resident (fingerprinted, coreness
precomputed, LRU-bounded by --max-graphs) and answers clique queries over
HTTP/1.1 on an epoll reactor (--io-threads event loops, --conn-limit open
sockets): POST /graphs, POST /solve (add ?async=1 for 202 + job id),
POST /solve-batch, GET /graphs, GET /stats[/name], GET /jobs/<id>,
DELETE /jobs/<id>, DELETE /graphs/<name>, GET /healthz, GET /metrics,
GET /debug/slow. Introspection answers on the reactor in microseconds
even with every solver busy.

Every request carries a trace id (a valid inbound X-Request-Id is
honoured, otherwise one is minted) echoed in the response and threaded
through the solve. --log-json emits one JSON log line per request and
per solve to stdout; /metrics exports per-route, queue-wait, solve-wall
and per-phase latency histograms; GET /jobs/<id> on a running job
reports live progress (phase, nodes expanded, incumbent size); solves
slower than --slow-query-ms (default 500) land in GET /debug/slow with
a span-tree timing breakdown. Repeated identical queries are served from a byte-bounded
result cache (--result-cache-bytes); completed async jobs stay pollable
for --job-ttl-ms; a full job queue (--queue-cap) answers 429 with a
Retry-After derived from the observed drain rate. --check binds, prints
the address, and exits immediately.

Overload and lifecycle: with --queue-delay-target-ms, sustained queue
waits above the target shed lowest-priority admissions with 503 +
Retry-After (CoDel-style; bursts are not overload). --max-memory-bytes
arms soft/hard live-heap watermarks: above 80% uploads are refused and
/healthz degrades, at 100% the cheapest running solve is cancelled.
Queued jobs whose budget expires before a solver frees up are reaped
dead-on-arrival instead of run. SIGTERM/SIGINT drain gracefully: GET
/readyz flips to 503 (liveness /healthz stays 200), the listener
closes, in-flight and journaled work settles (bounded by
--drain-timeout-ms, default 10000), then the process exits 0 — jobs
that miss the window replay from the journal on the next boot. With a
--data-dir, a background scrubber re-verifies snapshot checksums and
journal CRCs every --scrub-interval-ms (default 60000; 0 disables),
quarantining bit rot before it can ever be served.

With --data-dir, every upload is also written as a checksummed .lmcs
snapshot (CSR + coreness, atomic rename); after a restart graphs reload
lazily on first use — no re-upload, no k-core recomputation. Snapshots
at least --mmap-threshold-bytes large (default 4 MiB; 0 maps everything)
skip the heap decode entirely: the file is mmap'd after checksum
validation and the solver reads CSR arrays and coreness straight out of
the page cache, so a reload costs microseconds regardless of graph size
and mapped graphs do not count against --max-graphs. `snapshot`
precomputes such a file offline from any graph file; `restore` verifies
one and prints (or re-exports) its contents. Drop .lmcs files into the
data dir before boot to pre-seed a daemon.
";

fn load(path: &str) -> Result<CsrGraph, String> {
    io::read_path(path).map_err(|e| format!("cannot read {path}: {e}"))
}

fn fail(msg: &str) -> i32 {
    eprintln!("error: {msg}");
    1
}

/// `lazymc solve`
pub fn solve(argv: &[String]) -> i32 {
    let p = match Parsed::parse(argv) {
        Ok(p) => p,
        Err(e) => return fail(&e),
    };
    let Some(path) = p.positional(0) else {
        return fail("solve needs a graph file");
    };
    let mut cfg = Config::default();
    macro_rules! set {
        ($field:ident, $flag:literal) => {
            match p.value($flag) {
                Ok(Some(v)) => cfg.$field = v,
                Ok(None) => {}
                Err(e) => return fail(&e),
            }
        };
    }
    set!(threads, "--threads");
    set!(density_threshold, "--phi");
    set!(top_k, "--top-k");
    set!(filter_rounds, "--filter-rounds");
    // One clamp for the whole system (see Config::thread_cap).
    cfg.threads = Config::clamp_threads(cfg.threads);
    match p.value::<f64>("--budget") {
        Ok(Some(secs)) => cfg.time_budget = Some(Duration::from_secs_f64(secs)),
        Ok(None) => {}
        Err(e) => return fail(&e),
    }
    if p.has("--no-early-exit") {
        cfg.early_exit = false;
        cfg.second_exit = false;
    }
    if p.has("--no-second-exit") {
        cfg.second_exit = false;
    }
    if p.has("--reduction") {
        cfg.subgraph_reduction = true;
    }
    match p.raw("--prepopulate") {
        Some("none") => cfg.prepopulate = PrePopulate::None,
        Some("must") => cfg.prepopulate = PrePopulate::Must,
        Some("all") => cfg.prepopulate = PrePopulate::All,
        Some(other) => return fail(&format!("unknown prepopulate policy {other:?}")),
        None => {}
    }

    let g = match load(path) {
        Ok(g) => g,
        Err(e) => return fail(&e),
    };
    let t = Instant::now();
    let r = LazyMc::new(cfg).solve(&g);
    let elapsed = t.elapsed();

    if r.is_exact() {
        println!("omega {}", r.size());
    } else {
        println!(
            "omega >= {} (budget expired before the proof finished)",
            r.size()
        );
    }
    let mut witness = r.vertices().to_vec();
    witness.sort_unstable();
    println!("clique {witness:?}");
    if !p.has("--quiet") {
        let m = &r.metrics;
        println!("time   {elapsed:?}");
        println!(
            "phases degree-heur {:?} | kcore {:?} | reorder {:?} | prepopulate {:?} | core-heur {:?} | systematic {:?}",
            m.phases.degree_heuristic,
            m.phases.kcore,
            m.phases.reorder,
            m.phases.prepopulate,
            m.phases.coreness_heuristic,
            m.phases.systematic,
        );
        println!(
            "search heuristics {}→{} | searched {} MC + {} k-VC of {} neighbourhoods considered",
            m.omega_degree_heuristic,
            m.omega_coreness_heuristic,
            m.searched_mc,
            m.searched_kvc,
            m.retained_coreness,
        );
    }
    0
}

/// `lazymc bench` — the reproducible perf harness (see docs/perf.md).
///
/// Runs a synthetic suite, prints a per-case table, and (with `--out`)
/// writes the `lazymc-bench/v1` JSON report. `--write-graphs DIR` also
/// exports every case's graph as DIMACS so *other* binaries (e.g. a
/// pre-change build) can be timed on byte-identical inputs.
/// `--check-json FILE` validates a previously written report against the
/// schema and exits.
pub fn bench(argv: &[String]) -> i32 {
    let p = match Parsed::parse(argv) {
        Ok(p) => p,
        Err(e) => return fail(&e),
    };
    if let Some(path) = p.raw("--check-json") {
        return bench_check_json(path);
    }
    if let Some(old_path) = p.raw("--compare") {
        let Some(new_path) = p.positional(0) else {
            return fail("--compare needs two reports: --compare OLD.json NEW.json");
        };
        return bench_compare(old_path, new_path);
    }
    let Some(suite_name) = p.raw("--suite") else {
        return fail(
            "bench needs --suite quick|dense|sparse|service|sparse-massive (or --check-json / --compare)",
        );
    };
    let reps_arg = match p.value::<usize>("--reps") {
        Ok(r) => r,
        Err(e) => return fail(&e),
    };
    if suite_name == "service" {
        // HTTP-level suite: drives an in-process daemon over live
        // sockets instead of calling the solver directly.
        return bench_service(reps_arg.unwrap_or(3).max(1), p.raw("--out"));
    }
    if suite_name == "sparse-massive" {
        // Zero-copy régime: 10M+-edge graphs solved through mmap'd
        // snapshots, plus a cold-boot case over a live daemon. Built on
        // demand (an eager case list would cost minutes of generation).
        let threads = match p.value::<usize>("--threads") {
            Ok(t) => t.unwrap_or(0),
            Err(e) => return fail(&e),
        };
        return bench_sparse_massive(
            reps_arg.unwrap_or(1).max(1),
            p.raw("--out"),
            threads,
            p.raw("--dir").unwrap_or("datasets"),
        );
    }
    let Some(cases) = lazymc_bench::perf::suite(suite_name) else {
        return fail(&format!(
            "unknown suite {suite_name:?} (use quick, dense, sparse, service or sparse-massive)"
        ));
    };
    // The &'static suite name is needed by the report struct.
    let suite_name = lazymc_bench::perf::SUITES
        .iter()
        .find(|s| **s == suite_name)
        .expect("suite() accepted it");
    let reps = match p.value::<usize>("--reps") {
        Ok(r) => r.unwrap_or(3).max(1),
        Err(e) => return fail(&e),
    };
    // 0 = ambient pool; anything else is clamped by the unified cap
    // inside run_suite and recorded as the report's effective threads.
    let threads = match p.value::<usize>("--threads") {
        Ok(t) => t.unwrap_or(0),
        Err(e) => return fail(&e),
    };
    if let Some(dir) = p.raw("--write-graphs") {
        if let Err(e) = std::fs::create_dir_all(dir) {
            return fail(&format!("cannot create {dir}: {e}"));
        }
        for c in &cases {
            let path = format!("{dir}/{}.clq", c.name);
            let file = match std::fs::File::create(&path) {
                Ok(f) => f,
                Err(e) => return fail(&format!("cannot create {path}: {e}")),
            };
            if let Err(e) = io::write_dimacs(&c.graph, std::io::BufWriter::new(file)) {
                return fail(&format!("write failed: {e}"));
            }
        }
        println!("wrote {} graphs to {dir}", cases.len());
    }
    println!(
        "{:<18} {:>7} {:>9} {:>6} {:>11} {:>11} {:>10} {:>12}",
        "case", "n", "m", "omega", "wall-ms", "mc-nodes", "vc-nodes", "allocs"
    );
    let result = lazymc_bench::perf::run_suite(suite_name, &cases, reps, threads, |c| {
        println!(
            "{:<18} {:>7} {:>9} {:>6} {:>11.3} {:>11} {:>10} {:>12}",
            c.name, c.n, c.m, c.omega, c.wall_ms_median, c.mc_nodes, c.vc_nodes, c.alloc_count
        );
    });
    println!(
        "total {:.3} ms over {} cases ({} reps, {} thread(s), alloc tracking {})",
        result.total_wall_ms(),
        result.cases.len(),
        reps,
        result.threads,
        if result.alloc_tracked { "on" } else { "off" },
    );
    if let Some(out) = p.raw("--out") {
        let json = lazymc_bench::perf::to_json(&result);
        if let Err(e) = std::fs::write(out, &json) {
            return fail(&format!("cannot write {out}: {e}"));
        }
        println!("report written to {out}");
    }
    0
}

/// Minimal blocking HTTP/1.1 client for the service bench (keep-alive,
/// single connection, Nagle off so request fragments cannot add phantom
/// delayed-ACK latency to the measurements).
struct BenchClient {
    stream: std::net::TcpStream,
    reader: std::io::BufReader<std::net::TcpStream>,
}

impl BenchClient {
    fn connect(addr: std::net::SocketAddr) -> std::io::Result<BenchClient> {
        let stream = std::net::TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = std::io::BufReader::new(stream.try_clone()?);
        Ok(BenchClient { stream, reader })
    }

    fn request(&mut self, method: &str, path: &str, body: &str) -> std::io::Result<(u16, String)> {
        use std::io::{BufRead, Read, Write};
        let raw = format!(
            "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        self.stream.write_all(raw.as_bytes())?;
        let mut status_line = String::new();
        self.reader.read_line(&mut status_line)?;
        let status: u16 = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| std::io::Error::other(format!("bad status line {status_line:?}")))?;
        let mut content_length = 0usize;
        loop {
            let mut line = String::new();
            self.reader.read_line(&mut line)?;
            if line.trim_end().is_empty() {
                break;
            }
            if let Some((k, v)) = line.trim_end().split_once(':') {
                if k.trim().eq_ignore_ascii_case("content-length") {
                    content_length = v.trim().parse().unwrap_or(0);
                }
            }
        }
        let mut body = vec![0u8; content_length];
        self.reader.read_exact(&mut body)?;
        Ok((status, String::from_utf8_lossy(&body).into_owned()))
    }
}

/// `lazymc bench --suite service`: three HTTP-level cases against an
/// in-process daemon — cached-solve throughput, `/healthz` latency under
/// a saturated solver pool, and batch amortization — reported in the
/// `lazymc-bench/v1` schema with additive `requests_per_sec` /
/// `healthz_p50_ms` / `healthz_p99_ms` fields.
fn bench_service(reps: usize, out: Option<&str>) -> i32 {
    use lazymc_bench::perf::{CaseResult, ServiceCaseStats, SuiteResult};
    use lazymc_graph::gen;

    let percentile = |sorted: &[f64], p: f64| -> f64 {
        sorted[((sorted.len() as f64 * p) as usize).min(sorted.len() - 1)]
    };
    let run = || -> std::io::Result<Vec<CaseResult>> {
        let handle = lazymc_service::serve(lazymc_service::ServiceConfig {
            addr: "127.0.0.1:0".into(),
            solver_workers: 2,
            workers: 4,
            ..lazymc_service::ServiceConfig::default()
        })?;
        let addr = handle.addr();
        let mut c = BenchClient::connect(addr)?;

        // Shared fixture: a planted instance with a real clique.
        let g = gen::planted_clique(300, 0.03, 11, 7);
        let (n, m) = (g.num_vertices(), g.num_edges());
        let mut text = Vec::new();
        io::write_edge_list(&g, &mut text).map_err(std::io::Error::other)?;
        let upload = lazymc_service::Json::obj(vec![
            ("name", lazymc_service::Json::str("bench")),
            ("format", lazymc_service::Json::str("edgelist")),
            (
                "content",
                lazymc_service::Json::str(String::from_utf8_lossy(&text).into_owned()),
            ),
        ])
        .encode();
        let (status, _) = c.request("POST", "/graphs", &upload)?;
        assert_eq!(status, 201, "bench upload failed");
        let (status, warm) = c.request("POST", "/solve", r#"{"graph":"bench","threads":1}"#)?;
        assert_eq!(status, 200, "warm-up solve failed");
        let omega = lazymc_service::Json::parse(&warm)
            .ok()
            .and_then(|v| v.get("omega").and_then(lazymc_service::Json::as_u64))
            .unwrap_or(0) as usize;
        let mut cases = Vec::new();
        let case = |name: &'static str,
                    omega: usize,
                    wall_ms: f64,
                    requests: usize,
                    p50: f64,
                    p99: f64| CaseResult {
            name,
            n,
            m,
            omega,
            reps: 1,
            wall_ms_median: wall_ms,
            wall_ms_min: wall_ms,
            wall_p50_ms: wall_ms,
            wall_p90_ms: wall_ms,
            wall_p99_ms: wall_ms,
            mc_nodes: 0,
            vc_nodes: 0,
            searched_mc: 0,
            searched_kvc: 0,
            reduced_vertices: 0,
            vc_reductions: 0,
            split_tasks: 0,
            steals: 0,
            incumbent_broadcasts: 0,
            alloc_count: 0,
            alloc_bytes: 0,
            peak_bytes: 0,
            service: Some(ServiceCaseStats {
                requests_per_sec: requests as f64 / (wall_ms / 1e3).max(1e-9),
                healthz_p50_ms: p50,
                healthz_p99_ms: p99,
            }),
        };

        // Case 1: cached-solve throughput over one keep-alive connection.
        const SOLVES: usize = 500;
        let t = Instant::now();
        for _ in 0..SOLVES {
            let (status, _) = c.request("POST", "/solve", r#"{"graph":"bench","threads":1}"#)?;
            assert_eq!(status, 200);
        }
        let wall = t.elapsed().as_secs_f64() * 1e3;
        cases.push(case("solve-cached-rps", omega, wall, SOLVES, 0.0, 0.0));

        // Case 2: /healthz latency while both solver workers are pinned.
        let hard = gen::gnp(300, 0.5, 7);
        let mut text = Vec::new();
        io::write_edge_list(&hard, &mut text).map_err(std::io::Error::other)?;
        let upload = lazymc_service::Json::obj(vec![
            ("name", lazymc_service::Json::str("hard")),
            ("format", lazymc_service::Json::str("edgelist")),
            (
                "content",
                lazymc_service::Json::str(String::from_utf8_lossy(&text).into_owned()),
            ),
        ])
        .encode();
        let (status, _) = c.request("POST", "/graphs", &upload)?;
        assert_eq!(status, 201);
        let mut job_ids = Vec::new();
        for _ in 0..4 {
            let (status, body) = c.request(
                "POST",
                "/solve?async=1",
                r#"{"graph":"hard","no_cache":true}"#,
            )?;
            assert_eq!(status, 202, "saturation submit failed: {body}");
            let id = lazymc_service::Json::parse(&body)
                .ok()
                .and_then(|v| v.get("job_id").and_then(lazymc_service::Json::as_u64))
                .unwrap_or(0);
            job_ids.push(id);
        }
        const PROBES: usize = 300;
        let mut lat = Vec::with_capacity(PROBES);
        let t = Instant::now();
        for _ in 0..PROBES {
            let p = Instant::now();
            let (status, _) = c.request("GET", "/healthz", "")?;
            lat.push(p.elapsed().as_secs_f64() * 1e3);
            assert_eq!(status, 200);
        }
        let wall = t.elapsed().as_secs_f64() * 1e3;
        lat.sort_by(|a, b| a.total_cmp(b));
        cases.push(case(
            "healthz-under-load",
            omega,
            wall,
            PROBES,
            percentile(&lat, 0.50),
            percentile(&lat, 0.99),
        ));
        for id in job_ids {
            let _ = c.request("DELETE", &format!("/jobs/{id}"), "");
        }

        // Case 3: batch amortization — 64 cached solves in one request.
        const SLOTS: usize = 64;
        let slots = vec![r#"{"graph":"bench","threads":1}"#; SLOTS].join(",");
        let t = Instant::now();
        let (status, body) = c.request("POST", "/solve-batch", &format!("[{slots}]"))?;
        let wall = t.elapsed().as_secs_f64() * 1e3;
        assert_eq!(status, 200, "batch failed: {body}");
        cases.push(case("batch-64-cached", omega, wall, SLOTS, 0.0, 0.0));

        handle.stop();
        Ok(cases)
    };

    // Median across repetitions, per case by name.
    let mut runs = Vec::with_capacity(reps);
    for _ in 0..reps {
        match run() {
            Ok(cases) => runs.push(cases),
            Err(e) => return fail(&format!("service bench failed: {e}")),
        }
    }
    let mut cases: Vec<lazymc_bench::perf::CaseResult> = Vec::new();
    for i in 0..runs[0].len() {
        let mut walls: Vec<f64> = runs.iter().map(|r| r[i].wall_ms_median).collect();
        walls.sort_by(|a, b| a.total_cmp(b));
        let median_idx = runs
            .iter()
            .position(|r| r[i].wall_ms_median == walls[walls.len() / 2])
            .unwrap_or(0);
        let mut chosen = runs[median_idx][i].clone();
        chosen.reps = reps;
        chosen.wall_ms_min = walls[0];
        // Percentiles across repetitions (nearest rank over sorted walls).
        let pct = |q: f64| walls[((q * walls.len() as f64).ceil() as usize).max(1) - 1];
        chosen.wall_p50_ms = pct(0.50);
        chosen.wall_p90_ms = pct(0.90);
        chosen.wall_p99_ms = pct(0.99);
        cases.push(chosen);
    }
    let (host_cores, host_mem_bytes) = lazymc_bench::perf::host_facts();
    let result = SuiteResult {
        suite: "service",
        threads: 2,
        reps,
        alloc_tracked: lazymc_bench::alloc::tracking_enabled(),
        host_cores,
        host_mem_bytes,
        cases,
    };
    println!(
        "{:<20} {:>11} {:>12} {:>12} {:>12}",
        "case", "wall-ms", "req/s", "hz-p50-ms", "hz-p99-ms"
    );
    for c in &result.cases {
        let s = c.service.expect("service cases carry stats");
        println!(
            "{:<20} {:>11.3} {:>12.1} {:>12.3} {:>12.3}",
            c.name, c.wall_ms_median, s.requests_per_sec, s.healthz_p50_ms, s.healthz_p99_ms
        );
    }
    if let Some(out) = out {
        let json = lazymc_bench::perf::to_json(&result);
        if let Err(e) = std::fs::write(out, &json) {
            return fail(&format!("cannot write {out}: {e}"));
        }
        println!("report written to {out}");
    }
    0
}

/// `lazymc bench --suite sparse-massive`: the zero-copy mmap régime.
/// Each solve case snapshots a 10M+-edge synthetic power-law graph to
/// disk once, then times map→solve through
/// [`MappedSnapshot`](lazymc_graph::MappedSnapshot) — the heap decode
/// never happens; coreness is read straight out of the mapping.
/// A final case cold-boots an in-process daemon over 100 pre-seeded
/// snapshots with `--mmap-threshold-bytes 0` and proves through
/// `/metrics` that not one of them was decoded or re-peeled. Corpora
/// fetched by `lazymc fetch` into `--dir` join the suite; when none are
/// present the suite runs synthetic-only (with a note).
fn bench_sparse_massive(reps: usize, out: Option<&str>, threads: usize, datasets_dir: &str) -> i32 {
    use lazymc_bench::perf::{CaseResult, ServiceCaseStats, SuiteResult};
    use lazymc_core::Deadline;
    use lazymc_graph::{gen, MappedSnapshot};
    use lazymc_order::KCoreView;

    let tmp = std::env::temp_dir().join(format!("lazymc-bench-mmap-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        return fail(&format!("cannot create {}: {e}", tmp.display()));
    }
    let threads = Config::clamp_threads(threads);
    let mut config = Config::default();
    if threads > 0 {
        config.threads = threads;
    }

    // Real corpora first (when fetched), then the synthetic backbone.
    let mut inputs: Vec<(&'static str, CsrGraph)> = Vec::new();
    let mut fetched = 0usize;
    for d in FETCH_CATALOG {
        let path = format!("{datasets_dir}/{}", d.file);
        if std::path::Path::new(&path).exists() {
            match load(&path) {
                Ok(g) => {
                    inputs.push((d.name, g));
                    fetched += 1;
                }
                Err(e) => eprintln!("note: skipping fetched corpus {path}: {e}"),
            }
        }
    }
    if fetched == 0 {
        println!(
            "note: no fetched corpora in {datasets_dir}/ — running synthetic-only \
             (run `lazymc fetch` to add real SNAP/DIMACS inputs)"
        );
    }
    inputs.push(("ba-650k-16-mmap", gen::barabasi_albert(650_000, 16, 29)));

    println!(
        "{:<22} {:>8} {:>10} {:>6} {:>10} {:>11}",
        "case", "n", "m", "omega", "map-us", "wall-ms"
    );
    let mut cases: Vec<CaseResult> = Vec::new();
    for (name, g) in &inputs {
        // Snapshot once; every repetition then starts from the file, the
        // way a daemon reload would.
        let kc = kcore_sequential(g);
        let mut snap = lazymc_graph::snapshot::Snapshot::from_graph(g);
        lazymc_order::embed_kcore(&mut snap, &kc);
        let bytes = snap.encode();
        let path = tmp.join(format!("{name}.lmcs"));
        if let Err(e) = lazymc_graph::snapshot::write_file_atomic(&path, &bytes) {
            return fail(&format!("cannot write {}: {e}", path.display()));
        }
        drop(bytes);
        drop(snap);
        drop(kc);
        let mut walls = Vec::with_capacity(reps);
        let mut map_us = 0.0;
        let mut last = None;
        for _ in 0..reps {
            let t = Instant::now();
            let m = match MappedSnapshot::map(&path) {
                Ok(m) => m,
                Err(e) => return fail(&format!("cannot map {}: {e}", path.display())),
            };
            map_us = t.elapsed().as_secs_f64() * 1e6;
            m.advise_willneed();
            let view = KCoreView {
                coreness: m.coreness().expect("bench snapshots embed coreness"),
                degeneracy: m.degeneracy(),
                peel_order: m.peel_order(),
            };
            let deadline = Deadline::starting_now(None);
            let r = LazyMc::new(config.clone()).solve_prepared(&m, Some(view), &deadline);
            walls.push(t.elapsed().as_secs_f64() * 1e3);
            last = Some(r);
        }
        let r = last.expect("reps >= 1");
        walls.sort_by(|a, b| a.total_cmp(b));
        let pct = |q: f64| walls[((q * walls.len() as f64).ceil() as usize).max(1) - 1];
        let case = CaseResult {
            name,
            n: g.num_vertices(),
            m: g.num_edges(),
            omega: r.size(),
            reps,
            wall_ms_median: walls[walls.len() / 2],
            wall_ms_min: walls[0],
            wall_p50_ms: pct(0.50),
            wall_p90_ms: pct(0.90),
            wall_p99_ms: pct(0.99),
            mc_nodes: r.metrics.mc_nodes,
            vc_nodes: r.metrics.vc_nodes,
            searched_mc: r.metrics.searched_mc,
            searched_kvc: r.metrics.searched_kvc,
            reduced_vertices: r.metrics.reduced_vertices,
            vc_reductions: r.metrics.vc_reductions,
            split_tasks: r.metrics.split_tasks,
            steals: r.metrics.steals,
            incumbent_broadcasts: r.metrics.incumbent_broadcasts,
            alloc_count: 0,
            alloc_bytes: 0,
            peak_bytes: 0,
            service: None,
        };
        println!(
            "{:<22} {:>8} {:>10} {:>6} {:>10.1} {:>11.3}",
            case.name, case.n, case.m, case.omega, map_us, case.wall_ms_median
        );
        cases.push(case);
    }

    // Cold boot: 100 snapshots pre-seeded into a data dir; a fresh
    // daemon must answer /stats on every one without a single heap
    // decode or re-peel — proven through its own /metrics, not assumed.
    const BOOT_SNAPSHOTS: usize = 100;
    let coldboot = || -> std::io::Result<(f64, usize, usize)> {
        let data_dir = tmp.join("coldboot");
        std::fs::create_dir_all(&data_dir)?;
        let (mut total_n, mut total_m) = (0usize, 0usize);
        for i in 0..BOOT_SNAPSHOTS {
            let g = gen::gnp(400, 0.05, i as u64);
            total_n += g.num_vertices();
            total_m += g.num_edges();
            let kc = kcore_sequential(&g);
            let mut snap = lazymc_graph::snapshot::Snapshot::from_graph(&g);
            lazymc_order::embed_kcore(&mut snap, &kc);
            lazymc_graph::snapshot::write_file_atomic(
                &data_dir.join(format!("boot-{i:03}.lmcs")),
                &snap.encode(),
            )?;
        }
        let t = Instant::now();
        let handle = lazymc_service::serve(lazymc_service::ServiceConfig {
            addr: "127.0.0.1:0".into(),
            data_dir: Some(data_dir.to_string_lossy().into_owned()),
            mmap_threshold_bytes: 0,
            scrub_interval: None,
            ..lazymc_service::ServiceConfig::default()
        })?;
        let mut c = BenchClient::connect(handle.addr())?;
        for i in 0..BOOT_SNAPSHOTS {
            let (status, body) = c.request("GET", &format!("/stats/boot-{i:03}"), "")?;
            assert_eq!(status, 200, "cold stats failed: {body}");
        }
        let wall = t.elapsed().as_secs_f64() * 1e3;
        let (status, metrics) = c.request("GET", "/metrics", "")?;
        assert_eq!(status, 200);
        let counter = |name: &str| -> f64 {
            metrics
                .lines()
                .find(|l| !l.starts_with('#') && l.starts_with(name))
                .and_then(|l| l.split_whitespace().last())
                .and_then(|v| v.parse().ok())
                .unwrap_or(-1.0)
        };
        assert_eq!(
            counter("lazymc_core_computes_total"),
            0.0,
            "cold boot re-peeled a k-core; the zero-copy path regressed"
        );
        assert!(
            counter("lazymc_snapshot_mmap_total") >= BOOT_SNAPSHOTS as f64,
            "cold boot decoded snapshots instead of mapping them"
        );
        handle.stop();
        Ok((wall, total_n, total_m))
    };
    let mut walls = Vec::with_capacity(reps);
    let (mut total_n, mut total_m) = (0usize, 0usize);
    for _ in 0..reps {
        match coldboot() {
            Ok((wall, n, m)) => {
                walls.push(wall);
                total_n = n;
                total_m = m;
            }
            Err(e) => return fail(&format!("cold-boot case failed: {e}")),
        }
    }
    walls.sort_by(|a, b| a.total_cmp(b));
    let pct = |q: f64| walls[((q * walls.len() as f64).ceil() as usize).max(1) - 1];
    let median = walls[walls.len() / 2];
    let case = CaseResult {
        name: "coldboot-100-snapshots",
        n: total_n,
        m: total_m,
        omega: 0,
        reps,
        wall_ms_median: median,
        wall_ms_min: walls[0],
        wall_p50_ms: pct(0.50),
        wall_p90_ms: pct(0.90),
        wall_p99_ms: pct(0.99),
        mc_nodes: 0,
        vc_nodes: 0,
        searched_mc: 0,
        searched_kvc: 0,
        reduced_vertices: 0,
        vc_reductions: 0,
        split_tasks: 0,
        steals: 0,
        incumbent_broadcasts: 0,
        alloc_count: 0,
        alloc_bytes: 0,
        peak_bytes: 0,
        service: Some(ServiceCaseStats {
            requests_per_sec: BOOT_SNAPSHOTS as f64 / (median / 1e3).max(1e-9),
            healthz_p50_ms: 0.0,
            healthz_p99_ms: 0.0,
        }),
    };
    println!(
        "{:<22} {:>8} {:>10} {:>6} {:>10} {:>11.3}",
        case.name, case.n, case.m, "-", "-", case.wall_ms_median
    );
    cases.push(case);
    let _ = std::fs::remove_dir_all(&tmp);

    let (host_cores, host_mem_bytes) = lazymc_bench::perf::host_facts();
    let result = SuiteResult {
        suite: "sparse-massive",
        threads: if threads > 0 {
            threads
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        },
        reps,
        alloc_tracked: lazymc_bench::alloc::tracking_enabled(),
        host_cores,
        host_mem_bytes,
        cases,
    };
    println!(
        "total {:.3} ms over {} cases ({} reps)",
        result.total_wall_ms(),
        result.cases.len(),
        reps
    );
    if let Some(out) = out {
        let json = lazymc_bench::perf::to_json(&result);
        if let Err(e) = std::fs::write(out, &json) {
            return fail(&format!("cannot write {out}: {e}"));
        }
        println!("report written to {out}");
    }
    0
}

/// One fetchable real-world corpus: a plain (uncompressed) text mirror
/// the dependency-free HTTP client can pull, named after the instance
/// the sparse-massive bench will pick it up as.
struct FetchSource {
    name: &'static str,
    /// File name under `--dir`; the extension picks the parser.
    file: &'static str,
    url: &'static str,
}

/// Corpora `lazymc fetch` knows how to retrieve. DIMACS ascii mirrors
/// are preferred over SNAP archives because the latter only ship
/// gzip-compressed and the workspace bakes in no decompressor.
const FETCH_CATALOG: &[FetchSource] = &[
    FetchSource {
        name: "brock800-4",
        file: "brock800-4.clq",
        url: "http://iridia.ulb.ac.be/~fmascia/files/DIMACS/brock800_4.clq",
    },
    FetchSource {
        name: "p-hat1500-1",
        file: "p-hat1500-1.clq",
        url: "http://iridia.ulb.ac.be/~fmascia/files/DIMACS/p_hat1500-1.clq",
    },
    FetchSource {
        name: "c2000-5",
        file: "c2000-5.clq",
        url: "http://iridia.ulb.ac.be/~fmascia/files/DIMACS/C2000.5.clq",
    },
];

/// Exit code for "nothing fetched because the network is unreachable":
/// distinct from argument errors (1) so scripts can tell *skipped*
/// (fall back to synthetic benches) from *broken*.
const FETCH_OFFLINE_EXIT: i32 = 8;

/// A fetch failure, split by whether retrying later could help.
enum FetchError {
    /// DNS, connect or socket-level failure — typically offline.
    Network(String),
    /// The mirror answered but unusably (bad status, https redirect).
    Other(String),
}

/// Minimal HTTP/1.0 GET (`Connection: close`, so the body is simply
/// everything after the headers — no chunked decoding needed). Follows
/// up to `redirects` same-scheme redirects; a redirect to https is
/// reported as unusable since the fetcher is TLS-free by design.
fn http_get(url: &str, timeout: Duration, redirects: usize) -> Result<Vec<u8>, FetchError> {
    use std::io::{Read, Write};
    use std::net::{TcpStream, ToSocketAddrs};
    let rest = url.strip_prefix("http://").ok_or_else(|| {
        FetchError::Other(format!(
            "{url}: only plain http is supported (no TLS in the workspace); download manually"
        ))
    })?;
    let (hostport, path) = match rest.split_once('/') {
        Some((h, p)) => (h, format!("/{p}")),
        None => (rest, "/".to_string()),
    };
    let (host, port) = match hostport.split_once(':') {
        Some((h, p)) => (
            h,
            p.parse::<u16>()
                .map_err(|_| FetchError::Other(format!("{url}: bad port")))?,
        ),
        None => (hostport, 80),
    };
    let addr = (host, port)
        .to_socket_addrs()
        .map_err(|e| FetchError::Network(format!("cannot resolve {host}: {e}")))?
        .next()
        .ok_or_else(|| FetchError::Network(format!("cannot resolve {host}: no address")))?;
    let stream = TcpStream::connect_timeout(&addr, timeout)
        .map_err(|e| FetchError::Network(format!("cannot connect to {host}:{port}: {e}")))?;
    stream
        .set_read_timeout(Some(timeout))
        .and_then(|()| stream.set_write_timeout(Some(timeout)))
        .map_err(|e| FetchError::Network(e.to_string()))?;
    let mut stream = stream;
    stream
        .write_all(
            format!(
                "GET {path} HTTP/1.0\r\nHost: {host}\r\nUser-Agent: lazymc-fetch\r\nConnection: close\r\n\r\n"
            )
            .as_bytes(),
        )
        .map_err(|e| FetchError::Network(format!("send to {host} failed: {e}")))?;
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .map_err(|e| FetchError::Network(format!("read from {host} failed: {e}")))?;
    let header_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| FetchError::Other(format!("{host}: malformed HTTP response")))?;
    let head = String::from_utf8_lossy(&raw[..header_end]).into_owned();
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| FetchError::Other(format!("{host}: bad status line")))?;
    match status {
        200 => Ok(raw[header_end + 4..].to_vec()),
        301 | 302 | 307 | 308 if redirects > 0 => {
            let location = head
                .lines()
                .find_map(|l| {
                    let (k, v) = l.split_once(':')?;
                    k.trim()
                        .eq_ignore_ascii_case("location")
                        .then(|| v.trim().to_string())
                })
                .ok_or_else(|| FetchError::Other(format!("{host}: redirect without Location")))?;
            http_get(&location, timeout, redirects - 1)
        }
        _ => Err(FetchError::Other(format!("{url}: HTTP {status}"))),
    }
}

/// `lazymc fetch` — download the cataloged real-world corpora into
/// `--dir` (default `datasets/`) for `bench --suite sparse-massive`.
/// Each file's FNV-1a checksum is printed and recorded next to it
/// (`<file>.fnv`); a re-download that disagrees with the recorded sum
/// is rejected instead of silently replacing the corpus. Being offline
/// is a *skip*, not a failure of the pipeline: the bench falls back to
/// synthetic graphs — but the command exits 8 (not 0, not 1) so
/// scripts can tell skipped from fetched from broken.
pub fn fetch(argv: &[String]) -> i32 {
    let p = match Parsed::parse(argv) {
        Ok(p) => p,
        Err(e) => return fail(&e),
    };
    if p.has("--list") {
        for d in FETCH_CATALOG {
            println!("{:<14} {:<22} {}", d.name, d.file, d.url);
        }
        return 0;
    }
    let dir = p.raw("--dir").unwrap_or("datasets");
    let timeout = match p.value::<u64>("--timeout-ms") {
        Ok(ms) => Duration::from_millis(ms.unwrap_or(10_000).max(1)),
        Err(e) => return fail(&e),
    };
    let mut wanted: Vec<&FetchSource> = Vec::new();
    let mut i = 0;
    while let Some(name) = p.positional(i) {
        match FETCH_CATALOG.iter().find(|d| d.name == name) {
            Some(d) => wanted.push(d),
            None => {
                return fail(&format!(
                    "unknown corpus {name:?} (see `lazymc fetch --list`)"
                ))
            }
        }
        i += 1;
    }
    if wanted.is_empty() {
        wanted = FETCH_CATALOG.iter().collect();
    }
    if let Err(e) = std::fs::create_dir_all(dir) {
        return fail(&format!("cannot create {dir}: {e}"));
    }
    let (mut fetched, mut network_down) = (0usize, false);
    for d in wanted {
        let dest = format!("{dir}/{}", d.file);
        if std::path::Path::new(&dest).exists() {
            println!("{:<14} already present ({dest})", d.name);
            fetched += 1;
            continue;
        }
        match http_get(d.url, timeout, 2) {
            Ok(body) => {
                let sum = lazymc_graph::snapshot::fnv1a(&body);
                let fnv_path = format!("{dest}.fnv");
                if let Ok(recorded) = std::fs::read_to_string(&fnv_path) {
                    if recorded.trim() != format!("{sum:016x}") {
                        eprintln!(
                            "error: {}: checksum {sum:016x} disagrees with recorded {}; \
                             refusing to replace the corpus",
                            d.name,
                            recorded.trim()
                        );
                        continue;
                    }
                }
                if let Err(e) = std::fs::write(&dest, &body) {
                    return fail(&format!("cannot write {dest}: {e}"));
                }
                if let Err(e) = std::fs::write(&fnv_path, format!("{sum:016x}\n")) {
                    return fail(&format!("cannot write {fnv_path}: {e}"));
                }
                println!(
                    "{:<14} {} bytes, fnv1a {sum:016x} -> {dest}",
                    d.name,
                    body.len()
                );
                fetched += 1;
            }
            Err(FetchError::Network(e)) => {
                eprintln!("{:<14} skipped: {e}", d.name);
                network_down = true;
            }
            Err(FetchError::Other(e)) => {
                eprintln!("{:<14} skipped: {e}", d.name);
            }
        }
    }
    if network_down {
        eprintln!(
            "fetch: network unreachable — nothing lost: `bench --suite sparse-massive` \
             falls back to synthetic graphs.\n       Re-run `lazymc fetch` when online, or \
             drop files into {dir}/ by hand (`lazymc fetch --list` shows names and URLs)."
        );
        return FETCH_OFFLINE_EXIT;
    }
    if fetched == 0 {
        return fail("no corpus could be fetched (mirrors unusable; see messages above)");
    }
    0
}

/// Validates a bench report against the `lazymc-bench/v1` schema.
fn bench_check_json(path: &str) -> i32 {
    use lazymc_service::Json;
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => return fail(&format!("cannot read {path}: {e}")),
    };
    let v = match Json::parse(&text) {
        Ok(v) => v,
        Err(e) => return fail(&format!("{path}: invalid JSON: {e}")),
    };
    let mut problems: Vec<String> = Vec::new();
    let mut expect = |ok: bool, what: &str| {
        if !ok {
            problems.push(what.to_string());
        }
    };
    expect(
        v.get("schema").and_then(Json::as_str) == Some("lazymc-bench/v1"),
        "schema must be \"lazymc-bench/v1\"",
    );
    expect(
        v.get("suite")
            .and_then(Json::as_str)
            .is_some_and(|s| lazymc_bench::perf::SUITES.contains(&s)),
        "suite must be quick|dense|sparse|service|sparse-massive",
    );
    // Additive host facts: integers when present, absence accepted so
    // reports recorded before host stamping stay valid.
    for field in lazymc_bench::perf::TOP_OPT_INT_FIELDS {
        if let Some(x) = v.get(field) {
            expect(
                x.as_u64().is_some(),
                &format!("{field} must be an integer if present"),
            );
        }
    }
    expect(
        v.get("threads")
            .and_then(Json::as_u64)
            .is_some_and(|x| x >= 1),
        "threads must be an integer >= 1",
    );
    expect(
        v.get("reps").and_then(Json::as_u64).is_some_and(|x| x >= 1),
        "reps must be an integer >= 1",
    );
    expect(
        v.get("alloc_tracked").and_then(Json::as_bool).is_some(),
        "alloc_tracked must be a boolean",
    );
    expect(
        v.get("total_wall_ms").and_then(Json::as_f64).is_some(),
        "total_wall_ms must be a number",
    );
    match v.get("cases") {
        Some(Json::Arr(cases)) if !cases.is_empty() => {
            for (i, c) in cases.iter().enumerate() {
                if c.get("name").and_then(Json::as_str).is_none() {
                    problems.push(format!("cases[{i}].name must be a string"));
                }
                for field in ["wall_ms_median", "wall_ms_min"] {
                    if c.get(field).and_then(Json::as_f64).is_none() {
                        problems.push(format!("cases[{i}].{field} must be a number"));
                    }
                }
                for field in lazymc_bench::perf::CASE_INT_FIELDS {
                    if c.get(field).and_then(|x| x.as_u64()).is_none() {
                        problems.push(format!("cases[{i}].{field} must be an integer"));
                    }
                }
                // Additive parallelism fields: type-checked when present,
                // absence accepted (pre-parallelism reports stay valid).
                for field in lazymc_bench::perf::CASE_OPT_INT_FIELDS {
                    if let Some(x) = c.get(field) {
                        if x.as_u64().is_none() {
                            problems
                                .push(format!("cases[{i}].{field} must be an integer if present"));
                        }
                    }
                }
                // Additive service fields (requests/sec, healthz latency):
                // likewise optional, numeric when present.
                for field in lazymc_bench::perf::CASE_OPT_FLOAT_FIELDS {
                    if let Some(x) = c.get(field) {
                        if x.as_f64().is_none() {
                            problems
                                .push(format!("cases[{i}].{field} must be a number if present"));
                        }
                    }
                }
            }
        }
        _ => problems.push("cases must be a non-empty array".into()),
    }
    if problems.is_empty() {
        println!("{path}: valid lazymc-bench/v1 report");
        0
    } else {
        for p in &problems {
            eprintln!("error: {p}");
        }
        1
    }
}

/// Tolerated median wall-time growth before `--compare` fails the run.
const COMPARE_REGRESSION_TOLERANCE: f64 = 1.10;

/// The comparison of two bench reports: the rendered table plus the
/// regression verdict (median of per-case `new/old` wall ratios).
struct BenchComparison {
    table: String,
    median_ratio: f64,
    regressed: bool,
}

/// Compares two parsed `lazymc-bench/v1` reports case-by-case (matched by
/// name, in the old report's order). Speedup is `old/new` median wall
/// time; the regression gate is the *median* of `new/old` ratios, so one
/// noisy case cannot fail (or excuse) a run.
fn compare_reports(
    old: &lazymc_service::Json,
    new: &lazymc_service::Json,
) -> Result<BenchComparison, String> {
    use lazymc_service::Json;
    type CaseRow = (String, f64, u64);
    let rows = |v: &Json, which: &str| -> Result<Vec<CaseRow>, String> {
        let Some(Json::Arr(cases)) = v.get("cases") else {
            return Err(format!("{which} report has no cases array"));
        };
        cases
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let name = c
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("{which} cases[{i}] has no name"))?;
                let wall = c
                    .get("wall_ms_median")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("{which} cases[{i}] has no wall_ms_median"))?;
                let nodes = c.get("mc_nodes").and_then(Json::as_u64).unwrap_or(0)
                    + c.get("vc_nodes").and_then(Json::as_u64).unwrap_or(0);
                Ok((name.to_string(), wall, nodes))
            })
            .collect()
    };
    let old_rows = rows(old, "old")?;
    let new_rows = rows(new, "new")?;
    let mut table = format!(
        "{:<18} {:>11} {:>11} {:>8} {:>12} {:>12} {:>8}\n",
        "case", "old-ms", "new-ms", "speedup", "old-nodes", "new-nodes", "nodes-x"
    );
    let mut ratios = Vec::new();
    let (mut old_total, mut new_total) = (0.0f64, 0.0f64);
    for (name, old_wall, old_nodes) in &old_rows {
        let Some((_, new_wall, new_nodes)) = new_rows.iter().find(|(n, _, _)| n == name) else {
            continue; // suites diverged; compare the intersection
        };
        let speedup = old_wall / new_wall.max(1e-9);
        let node_ratio = *old_nodes as f64 / (*new_nodes).max(1) as f64;
        let _ = writeln!(
            table,
            "{name:<18} {old_wall:>11.3} {new_wall:>11.3} {speedup:>7.2}x {old_nodes:>12} {new_nodes:>12} {node_ratio:>7.2}x",
        );
        ratios.push(new_wall / old_wall.max(1e-9));
        old_total += old_wall;
        new_total += *new_wall;
    }
    if ratios.is_empty() {
        return Err("the two reports share no case names".into());
    }
    ratios.sort_by(|a, b| a.total_cmp(b));
    let median_ratio = ratios[ratios.len() / 2];
    let _ = writeln!(
        table,
        "total {old_total:.3} ms -> {new_total:.3} ms ({:.2}x); median per-case ratio {median_ratio:.3}",
        old_total / new_total.max(1e-9),
    );
    Ok(BenchComparison {
        table,
        median_ratio,
        regressed: median_ratio > COMPARE_REGRESSION_TOLERANCE,
    })
}

/// `lazymc bench --compare OLD.json NEW.json`
fn bench_compare(old_path: &str, new_path: &str) -> i32 {
    use lazymc_service::Json;
    let load = |path: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: invalid JSON: {e}"))
    };
    let (old, new) = match (load(old_path), load(new_path)) {
        (Ok(o), Ok(n)) => (o, n),
        (Err(e), _) | (_, Err(e)) => return fail(&e),
    };
    match compare_reports(&old, &new) {
        Ok(cmp) => {
            print!("{}", cmp.table);
            if cmp.regressed {
                eprintln!(
                    "error: median wall-time regression {:.1}% exceeds the {:.0}% tolerance",
                    (cmp.median_ratio - 1.0) * 100.0,
                    (COMPARE_REGRESSION_TOLERANCE - 1.0) * 100.0,
                );
                1
            } else {
                0
            }
        }
        Err(e) => fail(&e),
    }
}

/// `lazymc stats`
pub fn stats(argv: &[String]) -> i32 {
    let p = match Parsed::parse(argv) {
        Ok(p) => p,
        Err(e) => return fail(&e),
    };
    let Some(path) = p.positional(0) else {
        return fail("stats needs a graph file");
    };
    let g = match load(path) {
        Ok(g) => g,
        Err(e) => return fail(&e),
    };
    let s = GraphStats::of(&g);
    let kc = kcore_sequential(&g);
    let (components, _) = connected_components(&g);
    println!("vertices    {}", s.n);
    println!("edges       {}", s.m);
    println!("max degree  {}", s.max_degree);
    println!("avg degree  {:.2}", s.avg_degree);
    println!("density     {:.6}", s.density);
    println!("isolated    {}", s.isolated);
    println!("components  {components}");
    println!("degeneracy  {}", kc.degeneracy);
    println!("omega <=    {}", kc.omega_upper_bound());
    println!("triangles   {}", triangle_count(&g));
    0
}

/// `lazymc mce`
pub fn mce(argv: &[String]) -> i32 {
    let p = match Parsed::parse(argv) {
        Ok(p) => p,
        Err(e) => return fail(&e),
    };
    let Some(path) = p.positional(0) else {
        return fail("mce needs a graph file");
    };
    let g = match load(path) {
        Ok(g) => g,
        Err(e) => return fail(&e),
    };
    let t = Instant::now();
    if p.has("--histogram") {
        let mut hist: Vec<u64> = Vec::new();
        let stats = lazymc_mce::for_each_maximal_clique(&g, |c| {
            if hist.len() <= c.len() {
                hist.resize(c.len() + 1, 0);
            }
            hist[c.len()] += 1;
        });
        println!("maximal cliques {}", stats.cliques);
        for (size, count) in hist.iter().enumerate().filter(|(_, &c)| c > 0) {
            println!("  size {size:>3}: {count}");
        }
    } else {
        println!("maximal cliques {}", lazymc_mce::count_maximal_cliques(&g));
    }
    println!("time {:?}", t.elapsed());
    0
}

/// `lazymc compare`
pub fn compare(argv: &[String]) -> i32 {
    use lazymc_baselines as bl;
    let p = match Parsed::parse(argv) {
        Ok(p) => p,
        Err(e) => return fail(&e),
    };
    let Some(path) = p.positional(0) else {
        return fail("compare needs a graph file");
    };
    let g = match load(path) {
        Ok(g) => g,
        Err(e) => return fail(&e),
    };
    let skip: Vec<&str> = p
        .raw("--skip")
        .map(|s| s.split(',').collect())
        .unwrap_or_default();

    let t = Instant::now();
    let lazy = LazyMc::new(Config::default()).solve(&g);
    let lazy_time = t.elapsed();
    println!(
        "{:<10} omega {:<5} time {:>12?}",
        "lazymc",
        lazy.size(),
        lazy_time
    );

    type Baseline = Box<dyn Fn(&CsrGraph) -> Vec<u32>>;
    let runs: Vec<(&str, Baseline)> = vec![
        ("pmc", Box::new(bl::pmc_like)),
        (
            "domega-ls",
            Box::new(|g: &CsrGraph| bl::domega(g, bl::GapSchedule::Linear)),
        ),
        (
            "domega-bs",
            Box::new(|g: &CsrGraph| bl::domega(g, bl::GapSchedule::Binary)),
        ),
        ("brb", Box::new(bl::brb_like)),
    ];
    for (name, f) in runs {
        if skip.contains(&name) {
            println!("{name:<10} skipped");
            continue;
        }
        let t = Instant::now();
        let c = f(&g);
        let elapsed = t.elapsed();
        let verdict = if c.len() == lazy.size() {
            ""
        } else {
            "  << DISAGREES"
        };
        println!(
            "{:<10} omega {:<5} time {:>12?}  speedup {:>6.2}x{verdict}",
            name,
            c.len(),
            elapsed,
            elapsed.as_secs_f64() / lazy_time.as_secs_f64().max(1e-9),
        );
        if c.len() != lazy.size() {
            return fail("solver disagreement");
        }
    }
    0
}

/// `lazymc serve`
pub fn serve(argv: &[String]) -> i32 {
    let p = match Parsed::parse(argv) {
        Ok(p) => p,
        Err(e) => return fail(&e),
    };
    let mut cfg = lazymc_service::ServiceConfig {
        addr: p.positional(0).unwrap_or("127.0.0.1:7171").to_string(),
        ..lazymc_service::ServiceConfig::default()
    };
    macro_rules! set {
        ($field:ident, $flag:literal) => {
            match p.value($flag) {
                Ok(Some(v)) => cfg.$field = v,
                Ok(None) => {}
                Err(e) => return fail(&e),
            }
        };
    }
    set!(workers, "--workers");
    set!(solver_workers, "--solver-workers");
    set!(io_threads, "--io-threads");
    set!(conn_limit, "--conn-limit");
    set!(max_graphs, "--max-graphs");
    set!(queue_capacity, "--queue-cap");
    cfg.data_dir = p.raw("--data-dir").map(str::to_string);
    match p.value::<u64>("--max-budget-ms") {
        Ok(Some(ms)) => cfg.max_budget_ms = Some(ms),
        Ok(None) => {}
        Err(e) => return fail(&e),
    }
    match p.value::<u64>("--job-ttl-ms") {
        Ok(Some(ms)) => cfg.job_ttl = Duration::from_millis(ms),
        Ok(None) => {}
        Err(e) => return fail(&e),
    }
    match p.value::<u64>("--result-cache-bytes") {
        Ok(Some(bytes)) => cfg.result_cache_bytes = bytes as usize,
        Ok(None) => {}
        Err(e) => return fail(&e),
    }
    cfg.log_json = p.has("--log-json");
    match p.value::<u64>("--slow-query-ms") {
        Ok(Some(ms)) => cfg.slow_query_ms = ms,
        Ok(None) => {}
        Err(e) => return fail(&e),
    }
    match p.value::<u64>("--queue-delay-target-ms") {
        Ok(Some(ms)) => cfg.queue_delay_target_ms = Some(ms),
        Ok(None) => {}
        Err(e) => return fail(&e),
    }
    match p.value::<u64>("--max-memory-bytes") {
        Ok(Some(bytes)) => cfg.max_memory_bytes = Some(bytes),
        Ok(None) => {}
        Err(e) => return fail(&e),
    }
    match p.value::<u64>("--drain-timeout-ms") {
        Ok(Some(ms)) => cfg.drain_timeout = Duration::from_millis(ms),
        Ok(None) => {}
        Err(e) => return fail(&e),
    }
    // 0 maps every snapshot, u64::MAX decodes everything onto the heap.
    match p.value::<u64>("--mmap-threshold-bytes") {
        Ok(Some(bytes)) => cfg.mmap_threshold_bytes = bytes,
        Ok(None) => {}
        Err(e) => return fail(&e),
    }
    // 0 disables the scrubber; anything else overrides the 60s default.
    match p.value::<u64>("--scrub-interval-ms") {
        Ok(Some(0)) => cfg.scrub_interval = None,
        Ok(Some(ms)) => cfg.scrub_interval = Some(Duration::from_millis(ms)),
        Ok(None) => {}
        Err(e) => return fail(&e),
    }
    // The real daemon turns SIGTERM/SIGINT into a graceful drain
    // (--check exits on its own and must not block signals).
    cfg.handle_signals = !p.has("--check");

    let data_dir = cfg.data_dir.clone();
    // With --log-json, stdout is reserved for structured log lines (one
    // JSON object per line, machine-parseable); the human banner moves to
    // stderr so `lazymc serve --log-json > log.jsonl` stays clean.
    let log_json = cfg.log_json;
    macro_rules! banner {
        ($($t:tt)*) => {
            if log_json { eprintln!($($t)*) } else { println!($($t)*) }
        };
    }
    let handle = match lazymc_service::serve(cfg) {
        Ok(h) => h,
        Err(e) => return fail(&format!("cannot start daemon: {e}")),
    };
    let addr = handle.addr();
    banner!("lazymc-service listening on http://{addr}");
    banner!("  POST /graphs       upload a graph   (name, format, content)");
    banner!("  POST /solve        query a clique   (graph, budget_ms, priority, ...)");
    banner!("  POST /solve?async=1  202 + job id; poll GET /jobs/<id>, DELETE cancels");
    banner!("  POST /solve-batch  array of solve bodies, grouped by graph");
    banner!("  GET  /stats[/name] | /graphs | /jobs/<id> | /healthz | /readyz | /metrics");
    banner!("  GET  /debug/slow   slowest solves with span trees (--slow-query-ms)");
    if let Some(dir) = data_dir {
        let snapshots = handle.state().registry.store().map_or(0, |s| s.len());
        banner!("  durable: {snapshots} snapshot(s) indexed in {dir}");
    }
    if p.has("--check") {
        handle.stop();
        return 0;
    }
    // Block until SIGTERM/SIGINT starts a drain, let admitted work settle
    // (bounded by --drain-timeout-ms), then shut down and exit 0 — queued
    // jobs that missed the window are still journaled and replay on the
    // next boot, so nothing admitted is ever lost.
    handle.wait();
    banner!("lazymc-service drained; exiting");
    handle.stop();
    0
}

/// `lazymc snapshot` — precompute a durable `.lmcs` snapshot (CSR +
/// fingerprint + exact coreness) from any readable graph file, written
/// atomically. The output can pre-seed a daemon's `--data-dir`.
pub fn snapshot(argv: &[String]) -> i32 {
    let p = match Parsed::parse(argv) {
        Ok(p) => p,
        Err(e) => return fail(&e),
    };
    let (Some(path), Some(out)) = (p.positional(0), p.positional(1)) else {
        return fail("snapshot needs a graph file and an output .lmcs path");
    };
    let g = match load(path) {
        Ok(g) => g,
        Err(e) => return fail(&e),
    };
    let t = Instant::now();
    let kc = kcore_sequential(&g);
    let mut snap = lazymc_graph::snapshot::Snapshot::from_graph(&g);
    lazymc_order::embed_kcore(&mut snap, &kc);
    let bytes = snap.encode();
    if let Err(e) = lazymc_graph::snapshot::write_file_atomic(std::path::Path::new(out), &bytes) {
        return fail(&format!("cannot write {out}: {e}"));
    }
    println!(
        "wrote {out}: {} vertices, {} edges, degeneracy {}, fingerprint {:016x}, {} bytes in {:?}",
        g.num_vertices(),
        g.num_edges(),
        kc.degeneracy,
        snap.fingerprint,
        bytes.len(),
        t.elapsed()
    );
    0
}

/// `lazymc restore` — verify an `.lmcs` snapshot through the daemon's
/// load path (the validation ladder: checksum, structure, fingerprint,
/// coreness shape) and print its summary; with a second positional,
/// re-export the graph to an ordinary graph file.
pub fn restore(argv: &[String]) -> i32 {
    let p = match Parsed::parse(argv) {
        Ok(p) => p,
        Err(e) => return fail(&e),
    };
    let Some(path) = p.positional(0) else {
        return fail("restore needs an .lmcs file");
    };
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) => return fail(&format!("cannot read {path}: {e}")),
    };
    let loaded = lazymc_graph::snapshot::Layout::validate(&bytes)
        .and_then(|layout| Ok((lazymc_order::extract_kcore(&bytes, &layout)?, layout)));
    let (kc, layout) = match loaded {
        Ok(loaded) => loaded,
        Err(e) => return fail(&format!("corrupt snapshot {path}: {e}")),
    };
    let g = layout.graph(&bytes);
    println!("snapshot    {path} ({} bytes, checksum ok)", bytes.len());
    println!("vertices    {}", g.num_vertices());
    println!("edges       {}", g.num_edges());
    println!("fingerprint {:016x}", layout.fingerprint);
    println!("degeneracy  {}", kc.degeneracy);
    println!("omega <=    {}", kc.omega_upper_bound());
    println!(
        "peel order  {}",
        if kc.peel_order.is_empty() {
            "absent"
        } else {
            "present"
        }
    );
    if let Some(out) = p.positional(1) {
        let file = match std::fs::File::create(out) {
            Ok(f) => f,
            Err(e) => return fail(&format!("cannot create {out}: {e}")),
        };
        let writer = std::io::BufWriter::new(file);
        let result = if out.ends_with(".clq") || out.ends_with(".col") || out.ends_with(".dimacs") {
            io::write_dimacs(&g, writer)
        } else {
            io::write_edge_list(&g, writer)
        };
        if let Err(e) = result {
            return fail(&format!("write failed: {e}"));
        }
        println!("restored    {out}");
    }
    0
}

/// `lazymc gen`
pub fn gen(argv: &[String]) -> i32 {
    let p = match Parsed::parse(argv) {
        Ok(p) => p,
        Err(e) => return fail(&e),
    };
    let Some(name) = p.positional(0) else {
        return fail("gen needs an instance name (or `list`)");
    };
    if name == "list" {
        for inst in suite::all() {
            println!("{:<14} mirrors {}", inst.name, inst.mirrors);
        }
        return 0;
    }
    let Some(out) = p.positional(1) else {
        return fail("gen needs an output file");
    };
    let Some(inst) = suite::by_name(name) else {
        return fail(&format!(
            "unknown instance {name:?} (try `lazymc gen list`)"
        ));
    };
    let scale = if p.has("--test") {
        suite::Scale::Test
    } else {
        suite::Scale::Standard
    };
    let g = inst.build(scale);
    let file = match std::fs::File::create(out) {
        Ok(f) => f,
        Err(e) => return fail(&format!("cannot create {out}: {e}")),
    };
    let writer = std::io::BufWriter::new(file);
    let result = if out.ends_with(".clq") || out.ends_with(".col") || out.ends_with(".dimacs") {
        io::write_dimacs(&g, writer)
    } else {
        io::write_edge_list(&g, writer)
    };
    if let Err(e) = result {
        return fail(&format!("write failed: {e}"));
    }
    println!(
        "wrote {} ({} vertices, {} edges) to {out}",
        inst.name,
        g.num_vertices(),
        g.num_edges()
    );
    0
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use lazymc_service::Json;

    fn report(cases: &[(&str, f64, u64)]) -> Json {
        let body: Vec<String> = cases
            .iter()
            .map(|(name, wall, nodes)| {
                format!(
                    "{{\"name\":\"{name}\",\"wall_ms_median\":{wall},\"mc_nodes\":{nodes},\"vc_nodes\":0}}"
                )
            })
            .collect();
        Json::parse(&format!("{{\"cases\":[{}]}}", body.join(","))).unwrap()
    }

    #[test]
    fn compare_flags_median_regression_only() {
        let old = report(&[("a", 100.0, 10), ("b", 100.0, 10), ("c", 100.0, 10)]);
        // One case 3× slower but the median is flat: not a regression.
        let noisy = report(&[("a", 300.0, 10), ("b", 100.0, 10), ("c", 100.0, 10)]);
        let cmp = compare_reports(&old, &noisy).unwrap();
        assert!(!cmp.regressed, "median gate must ignore one outlier");
        // Every case 20% slower: regression.
        let slow = report(&[("a", 120.0, 10), ("b", 120.0, 10), ("c", 120.0, 10)]);
        let cmp = compare_reports(&old, &slow).unwrap();
        assert!(cmp.regressed);
        assert!((cmp.median_ratio - 1.2).abs() < 1e-9);
        // Uniform speedup: fine, and the table carries the ratio.
        let fast = report(&[("a", 50.0, 5), ("b", 50.0, 5), ("c", 50.0, 5)]);
        let cmp = compare_reports(&old, &fast).unwrap();
        assert!(!cmp.regressed);
        assert!(cmp.table.contains("2.00x"));
    }

    #[test]
    fn compare_matches_cases_by_name() {
        let old = report(&[("a", 100.0, 10), ("gone", 50.0, 5)]);
        let new = report(&[("added", 70.0, 7), ("a", 100.0, 10)]);
        let cmp = compare_reports(&old, &new).unwrap();
        assert!(!cmp.regressed);
        assert!(cmp.table.contains('a'));
        assert!(!cmp.table.contains("gone"));
        // Disjoint reports are an error, not a silent pass.
        let other = report(&[("z", 1.0, 1)]);
        assert!(compare_reports(&old, &other).is_err());
    }
}
