//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path phibench/Cargo.toml -- \
//!     --workload serve|stream|fullsim --seed N --seconds S --trace 0|1
//! ```
//!
//! Runs one workload against the serving stack at its default
//! configuration for `S` seconds on inputs drawn from seed `N`, checks
//! every output bit-for-bit against direct uncached execution, and prints
//! a JSON result as its last line: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. A traced run
//! splits its time between an untraced and a traced half (their
//! difference is the tracing overhead), replays the work through each
//! layer's public calls under spans, and writes the spans to
//! `phibench/out/`. `WORKLOADS.md` maps each metric to the layer and
//! workload it should move.

mod fullsim;
mod inputs;
mod live;
mod load;
mod report;
mod serve;
mod setup;
mod stats;
mod stream;
mod trace;

use report::{Metrics, Tally, END_TO_END, TRACED_END_TO_END};
use std::path::Path;
use std::time::Duration;
use trace::Tracer;

pub type BenchResult<T> = Result<T, String>;

/// Spans written per trace file.
const TRACE_FILE_SPANS: usize = 200_000;

#[derive(Debug, Clone, PartialEq)]
pub struct RunConfig {
    pub workload: String,
    pub seed: u64,
    pub measure: Duration,
    pub trace: bool,
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub e2e: Metrics,
    pub layers: Metrics,
    pub tally: Tally,
    /// Human-readable lines printed before the result.
    pub log: Vec<String>,
    /// Named span stores to write out.
    pub traces: Vec<(String, Tracer)>,
}

impl Outcome {
    pub fn merge_e2e(&mut self, measured: &Metrics) {
        for name in TRACED_END_TO_END {
            self.e2e.set(name, measured.get(name));
        }
    }

    /// Records the untraced half's p99 latency, and traced-minus-untraced
    /// for every traced end-to-end metric.
    pub fn record_traced(&mut self, plain: &Metrics, traced: &Metrics) {
        self.layers.set("e2e.latency_p99_ms", plain.get("latency_p99_ms"));
        for name in TRACED_END_TO_END {
            self.layers.set(format!("trace_overhead.{name}"), traced.get(name) - plain.get(name));
        }
    }
}

fn parse_args(args: &[String]) -> BenchResult<RunConfig> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["serve", "stream", "fullsim"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload} (serve, stream or fullsim)"));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds.is_finite() && seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], not {seconds}"));
    }
    Ok(RunConfig {
        workload,
        seed: seed.ok_or("--seed is required")?,
        measure: Duration::from_secs_f64(seconds),
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Peak resident set size (`VmHWM`) in MB; 0 where `/proc` is missing.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn run(config: &RunConfig) -> BenchResult<()> {
    eprintln!(
        "phibench: workload {} seed {} for {:.1} s, trace {}, {} cores",
        config.workload,
        config.seed,
        config.measure.as_secs_f64(),
        u8::from(config.trace),
        phi_runtime::available_cores()
    );
    let workload = inputs::model_workload();
    let mut out = match config.workload.as_str() {
        "serve" => serve::run(config, &workload)?,
        "stream" => stream::run(config, &workload)?,
        _ => fullsim::run(config, &workload)?,
    };
    out.e2e.set("rss_mb", peak_rss_mb());
    for line in &out.log {
        println!("{line}");
    }
    let schema: Vec<(String, &str)> = if config.trace {
        let dir = Path::new("phibench").join("out");
        for (name, tracer) in &out.traces {
            for (span, (total_us, self_us)) in tracer.totals_us() {
                println!("{name} span {span}: total {total_us:.0} us, self {self_us:.0} us");
            }
            let file = dir.join(format!("{}-{}-{}.tsv", config.workload, config.seed, name));
            if let Err(e) = tracer.write_tsv(&file, TRACE_FILE_SPANS) {
                eprintln!("phibench: could not write {}: {e}", file.display());
            }
        }
        report::per_layer_metrics()
    } else {
        END_TO_END.iter().map(|&(name, unit)| (name.to_string(), unit)).collect()
    };
    let metrics = if config.trace { &out.layers } else { &out.e2e };
    println!("{}", report::result_line(out.tally, metrics, &schema));
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = parse_args(&args).and_then(|config| run(&config));
    if let Err(e) = result {
        eprintln!("phibench: {e}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn arguments_parse_and_bad_ones_are_refused() {
        let config = parse_args(&args("--workload serve --seed 3 --seconds 10 --trace 1")).unwrap();
        assert_eq!(config.workload, "serve");
        assert_eq!(config.seed, 3);
        assert_eq!(config.measure, Duration::from_secs(10));
        assert!(config.trace);
        assert!(parse_args(&args("--workload nope --seed 3")).is_err());
        assert!(parse_args(&args("--workload serve")).is_err());
        assert!(parse_args(&args("--workload serve --seed 1 --trace 0")).is_err());
        assert!(parse_args(&args("--workload serve --seed 1 --seconds 5 --trace 2")).is_err());
        assert!(parse_args(&args("--workload serve --seed 1 --seconds 0 --trace 0")).is_err());
        assert!(parse_args(&args("--workload serve --seed")).is_err());
    }
}
