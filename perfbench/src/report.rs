//! What every workload shares: sample statistics, the correctness gate,
//! the metric list, spans, host facts and the result line.

use std::time::Instant;

/// Timing or count samples of one quantity.
#[derive(Debug, Default, Clone)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn values(&self) -> &[f64] {
        &self.0
    }

    /// Linear-interpolation quantile, `q` in [0, 1]; 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        let pos = q * (v.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    }

    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    pub fn mean(&self) -> f64 {
        self.sum() / self.0.len().max(1) as f64
    }

    /// `n=.. q1=.. median=.. q3=..` in the given scale (1000 for ms).
    pub fn describe(&self, scale: f64) -> String {
        format!(
            "n={} q1={:.3} median={:.3} q3={:.3}",
            self.len(),
            self.quantile(0.25) * scale,
            self.median() * scale,
            self.quantile(0.75) * scale
        )
    }
}

impl FromIterator<f64> for Samples {
    fn from_iter<I: IntoIterator<Item = f64>>(it: I) -> Self {
        Samples(it.into_iter().collect())
    }
}

/// Counts operations and correctness failures. A run is correct only when
/// no operation failed and every check held.
#[derive(Debug, Default)]
pub struct Gate {
    pub attempted: u64,
    pub failed: u64,
    problems: Vec<String>,
}

impl Gate {
    /// One operation the workload performed; `ok` is false for a wrong
    /// answer or a refused or failed request.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.note(what());
        }
    }

    /// An invariant over several operations (agreement, pinned values).
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.note(what());
        }
    }

    fn note(&mut self, msg: String) {
        println!("GATE FAILURE: {msg}");
        self.problems.push(msg);
    }

    pub fn merge(&mut self, other: Gate) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.problems.extend(other.problems);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }
}

/// Largest gap allowed between the measured solve wall and the sum of its
/// six phase times: this share of the wall plus 1 ms per solve. The gap is
/// work outside the phases (pool start, teardown, result assembly).
pub const PHASE_GAP_SHARE: f64 = 0.05;

/// Checks that the six phase times account for the measured wall of
/// `solves` solves, within [`PHASE_GAP_SHARE`].
pub fn check_phases(gate: &mut Gate, what: &str, phases_s: f64, wall_s: f64, solves: f64) {
    let gap = wall_s - phases_s;
    println!(
        "phase check {what}: phases {phases_s:.4}s of wall {wall_s:.4}s over {solves} solves (gap {:.2}%)",
        100.0 * gap / wall_s.max(1e-12)
    );
    gate.check(
        gap >= -1e-6 && gap <= PHASE_GAP_SHARE * wall_s + 1e-3 * solves,
        || format!("{what}: phases sum to {phases_s:.6}s, measured wall {wall_s:.6}s"),
    );
}

/// The metrics a run reports, in print order.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        println!("metric {name} = {value} {unit}");
        self.0.push((name.to_string(), value, unit));
    }

    /// A timing metric: prints its sample count and quartiles, reports the
    /// median.
    pub fn timing(&mut self, name: &str, s: &Samples, unit: &'static str) {
        let scale = if unit == "ms" { 1e3 } else { 1.0 };
        println!("timing {name} [{unit}] {}", s.describe(scale));
        self.put(name, s.median() * scale, unit);
    }

    /// The result line: the last line of standard output.
    pub fn result_line(&self, gate: &Gate) -> String {
        let metrics: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            gate.correct(),
            gate.attempted.max(1),
            gate.failed,
            metrics.join(", ")
        )
    }
}

/// One recorded span: a named interval and the span that caused it.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: String,
    pub start_s: f64,
    pub end_s: f64,
}

/// Spans kept in memory while the benchmark runs and written out at the
/// end. Recording is off in untraced runs and passes.
#[derive(Debug)]
pub struct Tracer {
    pub on: bool,
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            on: false,
            origin,
            spans: Vec::new(),
        }
    }

    /// Opens a span under `parent`; returns its id (`None` when recording
    /// is off).
    pub fn open(
        &mut self,
        parent: Option<usize>,
        name: impl Into<String>,
        start: Instant,
    ) -> Option<usize> {
        if !self.on {
            return None;
        }
        let id = self.spans.len();
        let at = start.duration_since(self.origin).as_secs_f64();
        self.spans.push(Span {
            id,
            parent,
            name: name.into(),
            start_s: at,
            end_s: at,
        });
        Some(id)
    }

    pub fn close(&mut self, id: Option<usize>, end: Instant) {
        if let Some(id) = id {
            self.spans[id].end_s = end.duration_since(self.origin).as_secs_f64();
        }
    }

    /// Records a finished span `[start, end]` under `parent`.
    pub fn span(
        &mut self,
        parent: Option<usize>,
        name: impl Into<String>,
        start: Instant,
        end: Instant,
    ) -> Option<usize> {
        let id = self.open(parent, name, start);
        self.close(id, end);
        id
    }

    /// Adds spans recorded elsewhere (another client thread), renumbered.
    pub fn absorb(&mut self, spans: Vec<Span>) {
        let base = self.spans.len();
        for mut s in spans {
            s.id += base;
            s.parent = s.parent.map(|p| p + base);
            self.spans.push(s);
        }
    }

    /// Per span kind: count, total and self time (duration minus the part
    /// covered by child spans).
    pub fn summary(&self) -> Vec<(String, usize, f64, f64)> {
        let mut child = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end_s - s.start_s;
            }
        }
        let mut rows: Vec<(String, usize, f64, f64)> = Vec::new();
        for s in &self.spans {
            // Phases and routes keep their own rows; graphs and passes
            // are folded into one row per kind.
            let key = match s.name.split_once(':') {
                Some((kind, _)) if kind != "phase" && kind != "http" => kind.to_string(),
                _ => s.name.clone(),
            };
            let d = s.end_s - s.start_s;
            match rows.iter_mut().find(|r| r.0 == key) {
                Some(r) => {
                    r.1 += 1;
                    r.2 += d;
                    r.3 += d - child[s.id];
                }
                None => rows.push((key, 1, d, d - child[s.id])),
            }
        }
        rows
    }

    /// Writes the spans as JSON lines.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::new();
        for s in &self.spans {
            out.push_str(&format!(
                "{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"start_s\": {}, \"end_s\": {}}}\n",
                s.id,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.name,
                s.start_s,
                s.end_s
            ));
        }
        std::fs::write(path, out)
    }
}

/// `nproc`, `MemTotal` and the load average, so a run taken in a slow
/// period is visible.
pub fn host_stamp() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mem = std::fs::read_to_string("/proc/meminfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("MemTotal:"))
                .map(str::to_string)
        })
        .unwrap_or_default();
    let load = std::fs::read_to_string("/proc/loadavg").unwrap_or_default();
    format!(
        "host nproc={nproc} {} loadavg={}",
        mem.split_whitespace().collect::<Vec<_>>().join(" "),
        load.split_whitespace()
            .take(3)
            .collect::<Vec<_>>()
            .join(" ")
    )
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|t| {
            let line = t.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// CPU time consumed so far by every thread of this process, in seconds.
pub fn process_cpu_s() -> f64 {
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the duration of the
    // call, and CLOCK_PROCESS_CPUTIME_ID is a clock every Linux provides.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return 0.0;
    }
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let mut s = Samples::default();
        for v in [4.0, 1.0, 3.0, 2.0] {
            s.push(v);
        }
        assert_eq!(s.median(), 2.5);
        assert_eq!(s.quantile(0.0), 1.0);
        assert_eq!(s.quantile(1.0), 4.0);
    }

    #[test]
    fn self_time_subtracts_children() {
        let t0 = Instant::now();
        let mut t = Tracer::new(t0);
        t.on = true;
        let d = std::time::Duration::from_millis;
        let p = t.span(None, "pass", t0, t0 + d(10));
        t.span(p, "solve:a", t0, t0 + d(4));
        let rows = t.summary();
        let pass = rows.iter().find(|r| r.0 == "pass").expect("pass row");
        assert!((pass.3 - 0.006).abs() < 1e-9);
    }
}
