//! perfbench: end-to-end and per-layer benchmark of lazymc.
//!
//! ```text
//! perfbench --workload <dense-search|paper-corpus|daemon-mixed> --seed <n>
//!           --seconds <s> --trace <0|1> [--small] [--corrupt-witness]
//! ```
//!
//! Inputs are generated from the seed by a child process, written under
//! `.bench_work/`, and read back through the program's public entry points.
//! The last line of standard output is the JSON result; the exit code is
//! non-zero when any answer is wrong. See README.md.

mod daemon;
mod inputs;
mod report;
mod solver;

use inputs::Workload;
use report::{Gate, Metrics, Tracer};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

pub struct Opts {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Tiny inputs, for the self-test.
    pub small: bool,
    /// Corrupt the first witness, to show that the gate catches it.
    pub corrupt_witness: bool,
    /// Where this run's input files live.
    pub dir: PathBuf,
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (0u64, 10.0f64, false);
    let (mut small, mut corrupt_witness) = (false, false);
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = || it.next().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value()? == "1",
            "--small" => small = true,
            "--corrupt-witness" => corrupt_witness = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let dir = PathBuf::from(".bench_work").join(format!(
        "{}-seed{seed}{}-{}",
        workload.name(),
        if small { "-small" } else { "" },
        std::process::id()
    ));
    Ok(Opts {
        workload,
        seed,
        seconds,
        trace,
        small,
        corrupt_witness,
        dir,
    })
}

/// Writes the inputs in a child process, so that generating them does not
/// count towards this process's peak memory.
fn generate_inputs(o: &Opts) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = std::process::Command::new(exe);
    cmd.args(["generate", o.workload.name(), &o.seed.to_string()])
        .arg(&o.dir)
        .arg(if o.small { "small" } else { "full" });
    let status = cmd.status().map_err(|e| format!("input generator: {e}"))?;
    if !status.success() {
        return Err(format!("input generator failed: {status}"));
    }
    Ok(())
}

fn run(o: &Opts, gate: &mut Gate, out: &mut Metrics) -> Result<(), String> {
    let t = Instant::now();
    generate_inputs(o)?;
    println!(
        "inputs generated in {:.3}s under {}",
        t.elapsed().as_secs_f64(),
        o.dir.display()
    );
    let mut tracer = Tracer::new(Instant::now());
    match o.workload {
        Workload::DenseSearch | Workload::PaperCorpus => solver::run(o, gate, out, &mut tracer)?,
        Workload::DaemonMixed => daemon::run(o, gate, out, &mut tracer)?,
    }
    if o.trace {
        println!("spans by name: count, total s, self s");
        for (name, n, total, self_s) in tracer.summary() {
            println!("  {name:<28} {n:>6} {total:>10.4} {self_s:>10.4}");
        }
        let dir = PathBuf::from(".bench_trace");
        std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
        let path = dir.join(format!("{}-seed{}.jsonl", o.workload.name(), o.seed));
        tracer.write(&path).map_err(|e| e.to_string())?;
        println!("spans written to {}", path.display());
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("generate") {
        // Child mode: generate <workload> <seed> <dir> <small|full>.
        let ok = (|| {
            let w = Workload::parse(args.get(1)?)?;
            let seed = args.get(2)?.parse().ok()?;
            let dir = PathBuf::from(args.get(3)?);
            let small = args.get(4)? == "small";
            inputs::generate(w, seed, small, &dir).ok()
        })();
        return if ok.is_some() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    let o = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        o.workload.name(),
        o.seed,
        o.seconds,
        u8::from(o.trace)
    );
    println!("{}", report::host_stamp());
    let mut gate = Gate::default();
    let mut out = Metrics::default();
    let result = run(&o, &mut gate, &mut out);
    let _ = std::fs::remove_dir_all(&o.dir);
    // Leave no empty work directory behind; another run may still use it.
    let _ = std::fs::remove_dir(".bench_work");
    if let Err(e) = result {
        eprintln!("perfbench: {e}");
        return ExitCode::FAILURE;
    }
    println!("{}", out.result_line(&gate));
    if gate.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
