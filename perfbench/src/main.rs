//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <analyze-iscas|serve-mixed|optimize-dual>
//!           --seed <n> --seconds <s> --trace <0|1>
//! perfbench --regen-reference <path>
//! ```
//!
//! Each run sets its workload up several times (the median is
//! `setup_s`), then runs it closed-loop for `--seconds`, checks the
//! outputs and prints, as its last stdout line, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` the run instead
//! times the calls into each layer (see `layers`) and reports per-layer
//! metrics. The line before it is a provenance record: git SHA, core
//! count, compiler, resolved engine configuration and every
//! workload-specific figure.

mod analyze;
mod layers;
mod optimize;
mod reference;
mod report;
mod serve;

use std::time::{Duration, Instant};

use serde::{Serialize, Value};

use report::{Metrics, Ops};

const USAGE: &str = "usage: perfbench --workload <analyze-iscas|serve-mixed|optimize-dual> \
--seed <n> --seconds <s> --trace <0|1>
       perfbench --regen-reference <path>";

/// A workload's name on the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    AnalyzeIscas,
    ServeMixed,
    OptimizeDual,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "analyze-iscas" => Some(Workload::AnalyzeIscas),
            "serve-mixed" => Some(Workload::ServeMixed),
            "optimize-dual" => Some(Workload::OptimizeDual),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::AnalyzeIscas => "analyze-iscas",
            Workload::ServeMixed => "serve-mixed",
            Workload::OptimizeDual => "optimize-dual",
        }
    }
}

/// Validated command-line arguments of a benchmark run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    workload: Workload,
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Closed-loop measuring time.
    pub seconds: Duration,
    /// Whether this is the traced per-layer run.
    pub trace: bool,
}

#[derive(Debug, PartialEq)]
enum Command {
    Run(RunArgs),
    RegenReference(String),
}

fn parse_args(args: &[String]) -> Result<Command, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut regen = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("`{flag}` needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload `{v}`"))?);
            }
            "--seed" => {
                let v = value()?;
                seed = Some(v.parse::<u64>().map_err(|_| format!("bad --seed `{v}`"))?);
            }
            "--seconds" => {
                let v = value()?;
                let s = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0 && *s <= 3600.0)
                    .ok_or(format!("bad --seconds `{v}`"))?;
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                let v = value()?;
                trace = Some(match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace `{v}` (expected 0 or 1)")),
                });
            }
            "--regen-reference" => regen = Some(value()?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if let Some(path) = regen {
        if workload.is_some() || seed.is_some() || seconds.is_some() || trace.is_some() {
            return Err("--regen-reference takes no other flags".to_owned());
        }
        return Ok(Command::RegenReference(path));
    }
    match (workload, seed, seconds, trace) {
        (Some(workload), Some(seed), Some(seconds), Some(trace)) => Ok(Command::Run(RunArgs {
            workload,
            seed,
            seconds,
            trace,
        })),
        _ => Err("--workload, --seed, --seconds and --trace are all required".to_owned()),
    }
}

/// What a workload run hands back to `main`.
pub struct RunOutput {
    /// Operation accounting over set-up, timed phase and checks.
    pub ops: Ops,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Metrics,
    /// Workload-specific figures and settings for the record line.
    pub record: Vec<(String, Value)>,
}

/// SplitMix64: the benchmark's only source of input randomness.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Runs `f` and returns its result with its wall time in milliseconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64() * 1e3)
}

/// This process's peak resident set, MiB (`VmHWM`), or `NaN` where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The end-to-end metrics every workload reports, in one place so the
/// set stays identical across workloads.
pub struct EndToEnd {
    /// Wall time of each set-up repetition, seconds.
    pub setups_s: Vec<f64>,
    /// Latency of every timed operation, milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Length of the timed phase.
    pub elapsed: Duration,
    /// Mean relative error of the workload's `U` against the committed
    /// reference, percent.
    pub u_err_pct: f64,
    /// [`peak_rss_mb`] after the timed phase, or after set-up where the
    /// timed phase's growth follows throughput (serve).
    pub peak_rss_mb: f64,
}

impl EndToEnd {
    /// The metrics, plus the tail's rank for the record.
    pub fn metrics(&self) -> (Metrics, Vec<(String, Value)>) {
        let mut m = Metrics::default();
        let tail = report::tail(&self.latencies_ms);
        m.put("setup_s", "s", report::median(&self.setups_s));
        m.put(
            "throughput_per_s",
            "1/s",
            self.latencies_ms.len() as f64 / self.elapsed.as_secs_f64(),
        );
        m.put("p50_ms", "ms", report::median(&self.latencies_ms));
        m.put("tail_ms", "ms", tail.map_or(f64::NAN, |t| t.value));
        m.put("u_err_pct", "%", self.u_err_pct);
        m.put("peak_rss_mb", "MiB", self.peak_rss_mb);
        let record = vec![
            ("timed_ops".to_owned(), self.latencies_ms.len().serialize()),
            (
                "tail_percentile".to_owned(),
                tail.map_or(f64::NAN, |t| t.percentile).serialize(),
            ),
            ("setups_s".to_owned(), self.setups_s.serialize()),
        ];
        (m, record)
    }
}

fn git_sha() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |s| s.trim().to_owned())
}

/// The provenance stamp carried by every record.
fn stamp(args: &RunArgs) -> Vec<(String, Value)> {
    let engine = aserta::EngineConfig::lenient_env();
    let pij = engine.pij();
    vec![
        ("workload".to_owned(), args.workload.name().serialize()),
        ("seed".to_owned(), args.seed.serialize()),
        ("seconds".to_owned(), args.seconds.as_secs_f64().serialize()),
        ("trace".to_owned(), args.trace.serialize()),
        ("git_sha".to_owned(), git_sha().serialize()),
        (
            "nproc".to_owned(),
            std::thread::available_parallelism()
                .map_or(1, std::num::NonZeroUsize::get)
                .serialize(),
        ),
        ("rustc".to_owned(), env!("PERFBENCH_RUSTC").serialize()),
        (
            "engine".to_owned(),
            Value::Object(vec![
                ("threads".to_owned(), engine.threads().serialize()),
                ("chunk".to_owned(), engine.cone_chunk().serialize()),
                ("lanes".to_owned(), pij.lanes.serialize()),
                ("tol".to_owned(), pij.tolerance.serialize()),
                ("exact_support".to_owned(), pij.exact_support.serialize()),
            ]),
        ),
    ]
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = match parse_args(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let args = match command {
        Command::RegenReference(path) => {
            if let Err(e) = reference::regenerate(&path) {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
            return;
        }
        Command::Run(args) => args,
    };
    let out = match args.workload {
        Workload::AnalyzeIscas => analyze::run(&args),
        Workload::ServeMixed => serve::run(&args),
        Workload::OptimizeDual => optimize::run(&args),
    };
    let mut record = stamp(&args);
    record.push(("failed_pct".to_owned(), out.ops.failed_pct().serialize()));
    record.extend(out.record);
    let record = Value::Object(vec![("record".to_owned(), Value::Object(record))]);
    for m in out.metrics.iter() {
        eprintln!("{:<28} {:>14.4} {}", m.name, m.value, m.unit);
    }
    println!(
        "{}",
        serde_json::to_string(&record).expect("the vendored encoder cannot fail")
    );
    println!("{}", report::result_line(out.ops, &out.metrics));
    if out.ops.failed > 0 {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_a_full_run() {
        let cmd = parse_args(&args(
            "--workload serve-mixed --seed 7 --seconds 20 --trace 1",
        ))
        .expect("valid");
        assert_eq!(
            cmd,
            Command::Run(RunArgs {
                workload: Workload::ServeMixed,
                seed: 7,
                seconds: Duration::from_secs(20),
                trace: true,
            })
        );
    }

    #[test]
    fn rejects_unknown_flags_and_missing_values() {
        for bad in [
            "--help",
            "--workload analyze-iscas --seed 1 --seconds 5 --trace 0 --extra",
            "--workload nope --seed 1 --seconds 5 --trace 0",
            "--workload analyze-iscas --seed -1 --seconds 5 --trace 0",
            "--workload analyze-iscas --seed 1 --seconds 0 --trace 0",
            "--workload analyze-iscas --seed 1 --seconds 5 --trace 2",
            "--workload analyze-iscas --seed 1 --seconds 5",
            "--workload analyze-iscas --seed",
            "--regen-reference out.json --seed 1",
            "",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "accepted `{bad}`");
        }
    }

    #[test]
    fn seeds_mix_into_distinct_streams() {
        assert_eq!(mix(1, 2), mix(1, 2));
        assert_ne!(mix(1, 2), mix(1, 3));
        assert_ne!(mix(1, 2), mix(2, 2));
    }
}
