//! The solver workloads (`dense-search`, `paper-corpus`): graphs read from
//! files through `lazymc_graph::io`, then solved by `LazyMc::solve` in
//! passes. Every pass solves each graph once at threads 1 and then once at
//! threads 2, so slow drift of the host hits every graph alike.

use crate::inputs::{self, Spec, Workload};
use crate::report::{check_phases, peak_rss_mb, process_cpu_s, Gate, Metrics, Samples, Tracer};
use crate::Opts;
use lazymc_core::{Config, LazyMc, MetricsSnapshot, PhaseTimes};
use lazymc_graph::{io, CsrGraph};
use std::time::{Duration, Instant};

/// The service-layer metrics: a solver workload runs no daemon, so they
/// read 0 here.
const SERVICE_LAYER: [(&str, &str); 9] = [
    ("service.queue_wait_ms", "ms"),
    ("service.solve_wall_ms", "ms"),
    ("service.http_overhead_ms", "ms"),
    ("service.cache_hit_ms", "ms"),
    ("service.cache_hit_ratio", "ratio"),
    ("service.stats_ms", "ms"),
    ("service.metrics_ms", "ms"),
    ("service.snapshot_writes", "count"),
    ("service.rejected", "count"),
];

/// One `LazyMc::solve` call as the benchmark saw it.
struct Solve {
    graph: usize,
    wall: f64,
    cpu: f64,
    m: MetricsSnapshot,
}

#[derive(Default)]
struct Pass {
    traced: bool,
    /// Index 0: threads 1, index 1: threads 2.
    solves: [Vec<Solve>; 2],
}

impl Pass {
    fn wall(&self, t: usize) -> f64 {
        self.solves[t].iter().map(|s| s.wall).sum()
    }

    fn cpu(&self, t: usize) -> f64 {
        self.solves[t].iter().map(|s| s.cpu).sum()
    }

    fn sum(&self, t: usize, f: impl Fn(&MetricsSnapshot) -> f64) -> f64 {
        self.solves[t].iter().map(|s| f(&s.m)).sum()
    }
}

/// Parse + CSR build of every input file. Returns the graphs and each
/// file's load time in seconds.
fn load_all(
    o: &Opts,
    specs: &[Spec],
    tracer: &mut Tracer,
    parent: Option<usize>,
) -> Result<(Vec<CsrGraph>, Vec<f64>), String> {
    let mut graphs = Vec::with_capacity(specs.len());
    let mut times = Vec::with_capacity(specs.len());
    for s in specs {
        let path = inputs::path(&o.dir, s);
        let t = Instant::now();
        let g = io::read_path(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let end = Instant::now();
        tracer.span(parent, format!("load:{}", s.name), t, end);
        times.push((end - t).as_secs_f64());
        graphs.push(g);
    }
    Ok((graphs, times))
}

/// Expected `(mc_nodes, vc_nodes)` per case name from BENCH_PR3.json, the
/// committed reference for threads-1 work counts.
fn pr3_counts() -> Option<Vec<(String, u64, u64)>> {
    let text = std::fs::read_to_string("BENCH_PR3.json").ok()?;
    let json = lazymc_service::Json::parse(&text).ok()?;
    let lazymc_service::Json::Arr(cases) = json.get("cases")? else {
        return None;
    };
    cases
        .iter()
        .map(|c| {
            Some((
                c.get("name")?.as_str()?.to_string(),
                c.get("mc_nodes")?.as_u64()?,
                c.get("vc_nodes")?.as_u64()?,
            ))
        })
        .collect()
}

/// Replaces the last witness vertex with one not adjacent to the first:
/// the self-test's way to show that the gate catches a wrong witness.
pub fn corrupt(g: &CsrGraph, w: &mut [u32]) {
    if let (Some(&first), Some(last)) = (w.first(), w.len().checked_sub(1)) {
        if let Some(v) = (0..g.num_vertices() as u32).find(|&v| v != first && !g.has_edge(first, v))
        {
            w[last] = v;
        }
    }
}

pub fn run(
    o: &Opts,
    gate: &mut Gate,
    out: &mut Metrics,
    tracer: &mut Tracer,
) -> Result<(), String> {
    let specs = inputs::specs(o.workload);
    let bytes: u64 = specs
        .iter()
        .map(|s| std::fs::metadata(inputs::path(&o.dir, s)).map_or(0, |m| m.len()))
        .sum();

    // Set-up: the first load yields the graphs the passes solve. More
    // loads run inside the passes so set-up is sampled across the run.
    let mut setup = Samples::default();
    // Load time of each file, one sample per load.
    let mut load = vec![Samples::default(); specs.len()];
    tracer.on = o.trace;
    let t = Instant::now();
    let setup_span = tracer.open(None, "setup", t);
    let (graphs, times) = load_all(o, specs, tracer, setup_span)?;
    tracer.close(setup_span, Instant::now());
    setup.push(times.iter().sum());
    times.iter().zip(&mut load).for_each(|(&x, l)| l.push(x));
    let reps_per_pass = (0.3 / setup.median()).round().clamp(1.0, 16.0) as usize;

    let mut reference: Vec<Option<usize>> = vec![None; specs.len()];
    let mut passes: Vec<Pass> = Vec::new();
    let mut verified = 0u64;
    let window = Instant::now();
    loop {
        let mut pass = Pass {
            traced: o.trace && passes.len().is_multiple_of(2),
            ..Pass::default()
        };
        tracer.on = pass.traced;
        let pass_start = Instant::now();
        let pass_span = tracer.open(None, format!("pass:{}", passes.len()), pass_start);
        for _ in 0..reps_per_pass {
            let t = Instant::now();
            let s = tracer.open(pass_span, "setup", t);
            let (_, times) = load_all(o, specs, tracer, s)?;
            tracer.close(s, Instant::now());
            setup.push(times.iter().sum());
            times.iter().zip(&mut load).for_each(|(&x, l)| l.push(x));
        }
        for (ti, threads) in [1usize, 2].into_iter().enumerate() {
            for (i, (spec, g)) in specs.iter().zip(&graphs).enumerate() {
                let cfg = Config::default()
                    .with_threads(threads)
                    .with_density_threshold(spec.phi);
                let cpu0 = process_cpu_s();
                let start = Instant::now();
                let r = LazyMc::new(cfg).solve(g);
                let end = Instant::now();
                let cpu = process_cpu_s() - cpu0;
                let wall = (end - start).as_secs_f64();

                let mut witness = r.vertices().to_vec();
                if o.corrupt_witness && passes.is_empty() && ti == 0 && i == 0 {
                    corrupt(g, &mut witness);
                }
                let omega = *reference[i].get_or_insert(r.size());
                let ok = r.is_exact()
                    && witness.len() == r.size()
                    && g.is_clique(&witness)
                    && r.size() == omega;
                gate.op(ok, || {
                    format!(
                        "{} threads {threads}: size {} (reference {omega}), exact {}, witness is a clique: {}",
                        spec.name,
                        r.size(),
                        r.is_exact(),
                        g.is_clique(&witness)
                    )
                });
                verified += u64::from(ok);

                if pass.traced {
                    let label = format!("solve:{}@t{threads}", spec.name);
                    trace_solve(tracer, pass_span, label, (start, end), &r.metrics.phases);
                }
                pass.solves[ti].push(Solve {
                    graph: i,
                    wall,
                    cpu,
                    m: r.metrics,
                });
            }
        }
        tracer.close(pass_span, Instant::now());
        let pass_s = pass_start.elapsed().as_secs_f64();
        passes.push(pass);
        let elapsed = window.elapsed().as_secs_f64();
        let need_more = o.trace && passes.len() < 2;
        if !need_more && elapsed + 0.5 * pass_s >= o.seconds {
            break;
        }
    }
    let window_s = window.elapsed().as_secs_f64();

    for (s, w) in specs.iter().zip(&reference) {
        if let Some(pin) = s.pinned_omega(o.seed, o.small) {
            gate.check(*w == Some(pin), || {
                format!("{}: omega {w:?}, pinned {pin}", s.name)
            });
        }
    }
    println!(
        "omega: {}",
        specs
            .iter()
            .zip(&reference)
            .map(|(s, w)| format!("{}={}", s.name, w.unwrap_or(0)))
            .collect::<Vec<_>>()
            .join(" ")
    );
    println!(
        "passes={} setup_reps={} window_s={window_s:.3} bytes={bytes}",
        passes.len(),
        setup.len()
    );
    // Each distinct call (graph, thread count) is summarised by its median
    // over the passes; so is each file's load time.
    let mut per_call = Samples::default();
    for (i, s) in specs.iter().enumerate() {
        for (ti, threads) in [1, 2].into_iter().enumerate() {
            let calls: Samples = passes.iter().map(|p| p.solves[ti][i].wall).collect();
            println!(
                "solve {:<16} threads {threads} [ms] {}",
                s.name,
                calls.describe(1e3)
            );
            per_call.push(calls.median());
        }
    }
    let mut per_file = Samples::default();
    for (s, l) in specs.iter().zip(&load) {
        println!("load {:<17} [ms] {}", s.name, l.describe(1e3));
        per_file.push(l.median());
    }
    if o.workload == Workload::DenseSearch {
        print_work_counts(o, specs, &passes);
    }

    let t1: Samples = passes.iter().map(|p| p.wall(0)).collect();
    let t2: Samples = passes.iter().map(|p| p.wall(1)).collect();
    if !o.trace {
        out.timing("setup_s", &setup, "s");
        out.timing("solve_s", &t1, "s");
        out.timing("solve_par_s", &t2, "s");
        println!("timing per-call medians [ms] {}", per_call.describe(1e3));
        out.put("solve_p50_ms", per_call.median() * 1e3, "ms");
        out.put("solve_p98_ms", per_call.quantile(0.98) * 1e3, "ms");
        out.timing("upload_p50_ms", &per_file, "ms");
        out.put("goodput_rps", verified as f64 / window_s, "1/s");
        out.put("peak_rss_mb", peak_rss_mb(), "MB");
        return Ok(());
    }

    for (k, p) in passes.iter().enumerate().filter(|(_, p)| p.traced) {
        let phases = p.sum(0, |m| m.phases.total().as_secs_f64())
            + p.sum(1, |m| m.phases.total().as_secs_f64());
        let n = (p.solves[0].len() + p.solves[1].len()) as f64;
        check_phases(gate, &format!("pass {k}"), phases, p.wall(0) + p.wall(1), n);
    }
    layers(out, &passes, &reference, setup.median(), bytes as f64);
    Ok(())
}

/// Per-layer metrics of a traced run. Times are per threads-1 pass, median
/// over the traced passes; counts come from the first traced pass (they
/// repeat at threads 1); `sched.*` split and steal counts come from the
/// threads-2 solves.
fn layers(
    out: &mut Metrics,
    passes: &[Pass],
    reference: &[Option<usize>],
    setup_s: f64,
    bytes: f64,
) {
    let traced: Vec<&Pass> = passes.iter().filter(|p| p.traced).collect();
    let untraced: Samples = passes
        .iter()
        .filter(|p| !p.traced)
        .map(|p| p.wall(0))
        .collect();
    let med = |f: &dyn Fn(&Pass) -> f64| traced.iter().map(|p| f(p)).collect::<Samples>().median();
    let time = |f: fn(&MetricsSnapshot) -> Duration| med(&|p| p.sum(0, |m| f(m).as_secs_f64()));
    let count = |f: fn(&MetricsSnapshot) -> f64| traced[0].sum(0, f);

    let solve_s = med(&|p| p.wall(0));
    let kcore = time(|m| m.phases.kcore);
    let reorder = time(|m| m.phases.reorder);
    let prepopulate = time(|m| m.phases.prepopulate);
    let degree_heuristic = time(|m| m.phases.degree_heuristic);
    let coreness_heuristic = time(|m| m.phases.coreness_heuristic);
    let filter = time(|m| m.filter_time);
    let kernels = time(|m| m.mc_time) + time(|m| m.kvc_time);
    let sorted = count(|m| m.lazy_built.1 as f64);
    let retained = count(|m| m.retained_coreness as f64);
    let f3 = count(|m| m.retained_f3 as f64);
    let exact = traced[0].solves[0]
        .iter()
        .filter(|s| reference[s.graph] == Some(s.m.omega_coreness_heuristic))
        .count();

    out.put("graph.parse_s", setup_s, "s");
    out.put("graph.parse_mb_per_s", bytes / 1e6 / setup_s, "MB/s");
    out.put("order.kcore_s", kcore, "s");
    out.put("order.reorder_s", reorder, "s");
    out.put("lazygraph.prepopulate_s", prepopulate, "s");
    out.put("lazygraph.built_sorted", sorted, "count");
    out.put(
        "lazygraph.built_hashed",
        count(|m| m.lazy_built.0 as f64),
        "count",
    );
    out.put(
        "lazygraph.built_ratio",
        sorted / count(|m| m.n as f64).max(1.0),
        "ratio",
    );
    out.put("core.degree_heuristic_s", degree_heuristic, "s");
    out.put("core.coreness_heuristic_s", coreness_heuristic, "s");
    out.put(
        "core.heuristic_exact_ratio",
        exact as f64 / reference.len() as f64,
        "ratio",
    );
    out.put("core.systematic_s", time(|m| m.phases.systematic), "s");
    out.put("core.filter_s", filter, "s");
    out.put("core.retained_coreness", retained, "count");
    out.put("core.retained_f3", f3, "count");
    out.put("core.filter_pass_ratio", f3 / retained.max(1.0), "ratio");
    out.put("solver.mc_s", time(|m| m.mc_time), "s");
    out.put("solver.kvc_s", time(|m| m.kvc_time), "s");
    out.put("solver.mc_nodes", count(|m| m.mc_nodes as f64), "count");
    out.put("solver.vc_nodes", count(|m| m.vc_nodes as f64), "count");
    out.put(
        "solver.searched_mc",
        count(|m| m.searched_mc as f64),
        "count",
    );
    out.put(
        "solver.searched_kvc",
        count(|m| m.searched_kvc as f64),
        "count",
    );
    let nodes = count(|m| (m.mc_nodes + m.vc_nodes) as f64);
    out.put("solver.nodes_per_s", nodes / kernels.max(1e-9), "1/s");
    out.put(
        "sched.split_tasks",
        med(&|p| p.sum(1, |m| m.split_tasks as f64)),
        "count",
    );
    out.put(
        "sched.steals",
        med(&|p| p.sum(1, |m| m.steals as f64)),
        "count",
    );
    out.put(
        "sched.thread_efficiency",
        med(&|p| p.cpu(1) / (p.wall(1) * 2.0)),
        "ratio",
    );
    out.put(
        "sched.cpu_per_wall",
        med(&|p| p.cpu(0) / p.wall(0)),
        "ratio",
    );
    for (name, unit) in SERVICE_LAYER {
        out.put(name, 0.0, unit);
    }
    out.put("trace.overhead_ratio", solve_s / untraced.median(), "ratio");

    let share = |x: f64| 100.0 * x / solve_s;
    println!(
        "split of solve_s {solve_s:.3}s at threads 1: solver kernels (mc+kvc) {:.1}%, \
         filter {:.1}%, heuristics {:.1}%, preprocessing (kcore+reorder+prepopulate) {:.2}%",
        share(kernels),
        share(filter),
        share(degree_heuristic + coreness_heuristic),
        share(kcore + reorder + prepopulate)
    );
}

/// Records a solve span with its six phases as children, laid end to end
/// from the solve's start.
fn trace_solve(
    tracer: &mut Tracer,
    parent: Option<usize>,
    label: String,
    (start, end): (Instant, Instant),
    p: &PhaseTimes,
) {
    let s = tracer.span(parent, label, start, end);
    let mut at = start;
    for (phase, d) in [
        ("degree_heuristic", p.degree_heuristic),
        ("kcore", p.kcore),
        ("reorder", p.reorder),
        ("prepopulate", p.prepopulate),
        ("coreness_heuristic", p.coreness_heuristic),
        ("systematic", p.systematic),
    ] {
        tracer.span(s, format!("phase:{phase}"), at, at + d);
        at += d;
    }
}

/// Threads-1 node counts per graph, and whether they match BENCH_PR3.json.
fn print_work_counts(o: &Opts, specs: &[Spec], passes: &[Pass]) {
    let pr3 = pr3_counts();
    for (i, s) in specs.iter().enumerate() {
        let counts: Vec<(u64, u64)> = passes
            .iter()
            .map(|p| (p.solves[0][i].m.mc_nodes, p.solves[0][i].m.vc_nodes))
            .collect();
        let (mc, vc) = counts[0];
        let repeat = counts.iter().all(|&c| c == (mc, vc));
        let verdict = match pr3.as_ref().and_then(|v| v.iter().find(|c| c.0 == s.name)) {
            None => "BENCH_PR3.json has no such case".to_string(),
            Some(_) if o.small => "not comparable at small scale".to_string(),
            Some(&(_, m, v)) if (m, v) == (mc, vc) => "matches BENCH_PR3.json".to_string(),
            Some(&(_, m, v)) if o.seed != 0 && s.name.starts_with("gnp") => {
                format!("BENCH_PR3.json {m}/{v} is seed 0; this seed relabels the graph")
            }
            Some(&(_, m, v)) => format!("DIFFERS from BENCH_PR3.json {m}/{v}"),
        };
        println!(
            "work {}: mc_nodes={mc} vc_nodes={vc} (threads 1; same in every pass: {repeat}) {verdict}",
            s.name
        );
    }
}
