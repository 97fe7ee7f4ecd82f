//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload audit-wide --seed 1 --seconds 10 --trace 0
//! ```
//!
//! One workload per invocation, its inputs generated from `--seed`. The
//! timed loop runs for `--seconds`; output checks run outside the timed
//! region and make the command fail. With `--trace 0` the last stdout line
//! carries every end-to-end metric; with `--trace 1` every per-layer
//! metric, and the spans are written to `.bench_trace/`. See README.md.

mod audit;
mod compas;
mod gauge;
mod metrics;
mod monitor;
mod openloop;
mod serve;
mod stats;
mod trace;

use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

use gauge::Gauge;
use metrics::Metrics;
use trace::Trace;

/// What a workload reports back.
pub struct Outcome {
    /// Every metric it measured.
    pub metrics: Metrics,
    /// Operations attempted in the timed loop.
    pub attempted: u64,
    /// Operations that failed or whose output was wrong.
    pub failed: u64,
    /// Human-readable lines printed ahead of the result line.
    pub notes: Vec<String>,
}

/// Settings every workload receives.
pub struct RunConfig {
    /// Workload seed.
    pub seed: u64,
    /// Length of the timed loop.
    pub seconds: Duration,
    /// Whether this is the traced run.
    pub traced: bool,
}

/// Runs `setup` `repeats` times, dropping each result before the next,
/// and returns the last result with the median set-up time in seconds,
/// scaled by the host gauge (read before each set-up) and raw. The count
/// is fixed per workload, never timed: how often the heap was filled and
/// emptied before the timed loop must not vary between runs, or neither
/// does `peak_rss_mb`.
pub fn setup_median<T>(
    repeats: usize,
    gauge: &mut Gauge,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, f64, f64), String> {
    let (mut scaled, mut raw) = (Vec::with_capacity(repeats), Vec::with_capacity(repeats));
    let mut last = None;
    for _ in 0..repeats.max(1) {
        drop(last.take());
        gauge.read();
        let t = std::time::Instant::now();
        last = Some(setup()?);
        let secs = t.elapsed().as_secs_f64();
        raw.push(secs);
        scaled.push(gauge.scale(secs));
    }
    let last = last.expect("at least one set-up ran");
    Ok((last, stats::median(&scaled), stats::median(&raw)))
}

const WORKLOADS: &[&str] = &["audit-wide", "audit-tall", "monitor-churn", "serve-mixed"];

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
        WORKLOADS.join("|")
    )
}

fn parse_args(args: &[String]) -> Result<(String, RunConfig), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".to_string()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok((
        workload,
        RunConfig {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            traced: traced.ok_or("--trace is required")?,
        },
    ))
}

/// The commit of the checkout, read from `.git` in the working directory
/// only; `unknown` outside a git checkout.
fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(id) = read(reference) {
        return id.trim().to_string();
    }
    read("packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (id, name) = l.split_once(' ')?;
                (name == reference).then(|| id.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Peak resident set size of this process in MB, from the kernel's
/// `VmHWM`; 0 where unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, cfg) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let stamp = format!(
        r#"{{"workload":"{workload}","seed":{},"seconds":{},"trace":{},"nproc":{nproc},"profile":"{profile}","commit":"{}"}}"#,
        cfg.seed,
        cfg.seconds.as_secs_f64(),
        u8::from(cfg.traced),
        git_commit()
    );
    println!("# perfbench {stamp}");

    let mut trace = Trace::new(cfg.traced);
    let mut gauge = Gauge::new();
    let outcome = match workload.as_str() {
        "audit-wide" => audit::run(audit::Shape::Wide, &cfg, &mut trace, &mut gauge),
        "audit-tall" => audit::run(audit::Shape::Tall, &cfg, &mut trace, &mut gauge),
        "monitor-churn" => monitor::run(&cfg, &mut trace, &mut gauge),
        "serve-mixed" => serve::run(&cfg, &mut trace, &mut gauge),
        _ => unreachable!("workload names are validated by parse_args"),
    };
    let mut outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {workload} could not run: {e}");
            return ExitCode::FAILURE;
        }
    };
    let attempted = outcome.attempted.max(1);
    outcome
        .metrics
        .set("failed_ratio", outcome.failed as f64 / attempted as f64);
    if outcome.metrics.get("peak_rss_mb").is_none() {
        outcome.metrics.set("peak_rss_mb", peak_rss_mb());
    }
    outcome.metrics.set("host.kernel_ms", gauge.median_ms());
    outcome.notes.push(format!(
        "host gauge: kernel median {:.4} ms (reference {} ms); end-to-end times are scaled by it",
        gauge.median_ms(),
        gauge::REFERENCE_MS
    ));
    if cfg.traced {
        let path = Path::new(".bench_trace").join(format!("{workload}-seed{}.jsonl", cfg.seed));
        match trace.write_jsonl(&path, &stamp) {
            Ok(()) => println!(
                "# spans: {} written to {}",
                trace.spans().len(),
                path.display()
            ),
            Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
        }
    }
    for note in &outcome.notes {
        println!("# {note}");
    }
    let correct = outcome.failed == 0;
    println!(
        "{}",
        outcome
            .metrics
            .result_line(cfg.traced, correct, attempted, outcome.failed)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "perfbench: {} of {attempted} operations failed or were wrong",
            outcome.failed
        );
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let (w, c) = parse_args(&args(
            "--workload serve-mixed --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(w, "serve-mixed");
        assert_eq!(c.seed, 7);
        assert_eq!(c.seconds, Duration::from_secs(10));
        assert!(c.traced);
    }

    #[test]
    fn rejects_unknown_workloads_and_flags() {
        let full = "--seed 1 --seconds 5 --trace 0";
        assert!(parse_args(&args(&format!("--workload nope {full}"))).is_err());
        assert!(parse_args(&args(&format!("--workload audit-wide {full} --bogus 2"))).is_err());
        assert!(parse_args(&args(
            "--workload audit-wide --seed 1 --seconds 5 --trace 2"
        ))
        .is_err());
        assert!(parse_args(&args("--workload audit-wide")).is_err());
        assert!(parse_args(&args("--workload audit-wide --seed 1 --trace 0")).is_err());
        assert!(parse_args(&args("--workload audit-wide --seed 1 --seconds 5")).is_err());
    }
}
