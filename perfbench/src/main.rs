//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload engine_long|serve_wire --seed N --seconds S --trace 0|1
//! ```
//!
//! Builds its inputs from `--seed`, measures for about `--seconds`, checks
//! every output, and prints one JSON object as the last line of standard
//! output: `correct`, `attempted`, `failed` and `metrics` — every
//! end-to-end metric with `--trace 0`, every per-layer metric with
//! `--trace 1`. A human-readable summary goes to standard error. See
//! `perfbench/README.md` for what each workload and metric means.

mod engine_long;
mod layers;
mod serve_wire;
mod spans;
mod stats;
mod tune_probe;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use spans::{LayerTime, Spans};
use stats::Tally;

/// The workloads, as `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 2] = ["engine_long", "serve_wire"];

/// End-to-end metrics (`--trace 0`): name and unit.
pub const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("ok_frac", "ratio"),
    ("peak_rss_mb", "MiB"),
    ("jobs_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("sim_rate_mcps", "Mcycles/s"),
    ("sim_cycles", "cycles"),
    ("energy_uj", "uJ"),
    ("analytic_err_pct", "%"),
];

/// Per-layer metrics (`--trace 1`): name and unit.
pub const PER_LAYER: [(&str, &str); 32] = [
    ("arch.run_ms", "ms"),
    ("arch.host_ns_per_cycle", "ns"),
    ("arch.machine_new_ms", "ms"),
    ("arch.upload_ms", "ms"),
    ("arch.read_back_ms", "ms"),
    ("arch.ipc", "ratio"),
    ("arch.stall.hazard", "cycles"),
    ("arch.stall.queue_full", "cycles"),
    ("arch.stall.tsv", "cycles"),
    ("arch.stall.branch", "cycles"),
    ("arch.stall.sync", "cycles"),
    ("arch.stall.vsm_interlock", "cycles"),
    ("dram.row_hit_ratio", "ratio"),
    ("dram.accesses", "count"),
    ("dram.acts", "count"),
    ("noc.flit_hops", "count"),
    ("noc.credit_stalls", "cycles"),
    ("compiler.program_insts", "count"),
    ("workloads.instantiate_ms", "ms"),
    ("serve.parse_us", "us"),
    ("serve.serialize_us", "us"),
    ("shard.hop_ms", "ms"),
    ("shard.busiest_backend_share", "ratio"),
    ("shard.retries", "count"),
    ("shard.errors", "count"),
    ("core.progcache_hit_ratio", "ratio"),
    ("tune.enumerate_s", "s"),
    ("tune.legal_ratio", "ratio"),
    ("compiler.compile_ms", "ms"),
    ("analytic.predict_ms", "ms"),
    ("frontend.interpret_ms", "ms"),
    ("bench.trace_overhead_pct", "%"),
];

/// Set-ups per run: this many fresh child processes, plus the measuring
/// process's own.
const SETUP_CHILDREN: usize = 4;

/// Longest a run may take before it is abandoned.
const WATCHDOG: Duration = Duration::from_secs(170);

/// Largest `--seconds`: what a run needs beyond its measured phases (the
/// set-up children, a traced pass, the checks) fits in the rest of
/// [`WATCHDOG`].
const MAX_SECONDS: f64 = 120.0;

/// What a run was asked to do.
#[derive(Debug, Clone, PartialEq)]
pub struct Opts {
    /// One of [`WORKLOADS`].
    pub workload: String,
    /// The seed every input is generated from.
    pub seed: u64,
    /// Measurement budget.
    pub seconds: f64,
    /// Record spans and report per-layer metrics.
    pub trace: bool,
    /// Only set up (and tear down), then print the set-up time.
    pub setup_only: bool,
}

impl Opts {
    /// The time one measured phase may take: the whole budget, or half of
    /// it in a traced run (which measures an untraced and a traced phase).
    pub fn phase_budget(&self) -> Duration {
        Duration::from_secs_f64(if self.trace { self.seconds / 2.0 } else { self.seconds })
    }
}

/// What a workload measured.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// This process's own set-up time.
    pub setup_s: f64,
    /// Attempts and failures of the measured operations.
    pub tally: Tally,
    /// Violated preconditions (cache state, determinism); any makes the run
    /// invalid.
    pub invalid: Vec<String>,
    /// Completed jobs per second of measured wall time.
    pub jobs_per_s: f64,
    /// Per-job latencies.
    pub latencies_ms: Vec<f64>,
    /// Per distinct simulated job: vault-cycles per host second of
    /// `Machine::run`, in millions.
    pub sim_rates: Vec<f64>,
    /// Summed simulated cycles of the workload's distinct jobs.
    pub sim_cycles: u64,
    /// Summed modelled energy of the same jobs.
    pub energy_uj: f64,
    /// Mean analytic prediction error over the simulated jobs, in percent.
    pub analytic_err_pct: f64,
    /// Per-layer metrics the workload computed itself (span-derived times
    /// are added by [`layer_metrics`]).
    pub layers: BTreeMap<&'static str, f64>,
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut opts =
        Opts { workload: String::new(), seed: 0, seconds: 10.0, trace: false, setup_only: false };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => opts.workload = value()?.clone(),
            "--seed" => opts.seed = value()?.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|_| "--seconds needs a number")?;
                if !(opts.seconds > 0.0 && opts.seconds <= MAX_SECONDS) {
                    return Err(format!("--seconds must be in (0, {MAX_SECONDS}]"));
                }
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
                }
            }
            "--setup-only" => opts.setup_only = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !WORKLOADS.contains(&opts.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}, got {:?}", opts.workload));
    }
    Ok(opts)
}

fn run_workload(opts: &Opts, spans: &Spans) -> Outcome {
    match opts.workload.as_str() {
        "engine_long" => engine_long::run(opts, spans),
        "serve_wire" => serve_wire::run(opts, spans),
        other => unreachable!("workload {other} passed validation"),
    }
}

fn setup_only(opts: &Opts) -> f64 {
    match opts.workload.as_str() {
        "engine_long" => engine_long::setup_only(opts),
        "serve_wire" => serve_wire::setup_only(opts),
        other => unreachable!("workload {other} passed validation"),
    }
}

/// Sets the workload up in fresh child processes (cold program cache, cold
/// allocator) and returns each child's set-up time.
fn child_setups(opts: &Opts) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut out = Vec::new();
    for _ in 0..SETUP_CHILDREN {
        let child = Command::new(&exe)
            .args(["--workload", &opts.workload, "--seed", &opts.seed.to_string(), "--setup-only"])
            .output()
            .map_err(|e| format!("spawn set-up child: {e}"))?;
        let stdout = String::from_utf8_lossy(&child.stdout);
        let parsed = stdout
            .lines()
            .last()
            .and_then(|l| l.strip_prefix("setup_s "))
            .and_then(|v| v.parse().ok());
        match (child.status.success(), parsed) {
            (true, Some(s)) => out.push(s),
            _ => {
                return Err(format!(
                    "set-up child failed ({}): {}",
                    child.status,
                    String::from_utf8_lossy(&child.stderr).trim()
                ))
            }
        }
    }
    Ok(out)
}

/// Mean time per call of each timed layer, from the spans.
fn layer_metrics(times: &BTreeMap<&'static str, LayerTime>, out: &mut BTreeMap<&'static str, f64>) {
    let mean = |name: &str| times.get(name).map_or(0.0, LayerTime::mean_ms);
    for (metric, span, scale) in [
        ("arch.run_ms", "arch.run", 1.0),
        ("arch.machine_new_ms", "arch.machine_new", 1.0),
        ("arch.upload_ms", "arch.upload", 1.0),
        ("arch.read_back_ms", "arch.read_back", 1.0),
        ("workloads.instantiate_ms", "workloads.instantiate", 1.0),
        ("serve.parse_us", "serve.parse", 1e3),
        ("serve.serialize_us", "serve.serialize", 1e3),
        ("compiler.compile_ms", "compiler.compile", 1.0),
        ("analytic.predict_ms", "analytic.predict", 1.0),
        ("frontend.interpret_ms", "frontend.interpret", 1.0),
        ("tune.enumerate_s", "tune.enumerate", 1e-3),
    ] {
        out.insert(metric, mean(span) * scale);
    }
}

/// One `"name":{"value":v,"unit":"u"}` entry per metric, in list order.
fn metrics_json(list: &[(&str, &str)], values: &BTreeMap<&str, f64>) -> String {
    let entries: Vec<String> = list
        .iter()
        .map(|(name, unit)| {
            let v = values.get(name).copied().unwrap_or(0.0);
            format!("\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", entries.join(","))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // A panic on any thread ends the run at once, without a result, and a
    // run that outlives its time limit is stopped the same way — so a
    // wedged thread can never keep the process alive.
    std::panic::set_hook(Box::new(|info| {
        eprintln!("perfbench: {info}");
        std::process::exit(101);
    }));
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        eprintln!("perfbench: still running after {WATCHDOG:?}; giving up");
        std::process::exit(3);
    });
    if opts.setup_only {
        println!("setup_s {}", setup_only(&opts));
        return ExitCode::SUCCESS;
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!(
        "perfbench: workload {} seed {} seconds {} trace {} ({cores} core(s))",
        opts.workload, opts.seed, opts.seconds, opts.trace as u8
    );
    // Set-up time is an end-to-end metric only: a traced run skips the
    // extra set-ups.
    let mut setups = if opts.trace {
        Vec::new()
    } else {
        match child_setups(&opts) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::from(1);
            }
        }
    };
    let spans = Spans::new(opts.trace);
    let started = Instant::now();
    let outcome = run_workload(&opts, &spans);
    setups.push(outcome.setup_s);

    let mut values: BTreeMap<&str, f64> = BTreeMap::new();
    let list: &[(&str, &str)] = if opts.trace {
        let times = spans.layer_times();
        eprintln!("self time per layer (traced phase):\n{}", spans::render_self_times(&times));
        let mut layers = outcome.layers.clone();
        layer_metrics(&times, &mut layers);
        values.extend(layers);
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("traces");
        let path = dir.join(format!("{}-seed{}.jsonl", opts.workload, opts.seed));
        match spans.write_jsonl(&path) {
            Ok(()) => eprintln!("spans written to {}", path.display()),
            Err(e) => eprintln!("perfbench: could not write spans to {}: {e}", path.display()),
        }
        &PER_LAYER
    } else {
        let lat = &outcome.latencies_ms;
        if lat.is_empty() || outcome.sim_rates.is_empty() {
            eprintln!("perfbench: no completed job to measure");
            return ExitCode::from(1);
        }
        values.insert("setup_s", stats::median(&setups));
        values.insert("ok_frac", outcome.tally.ok_frac());
        values.insert("peak_rss_mb", stats::peak_rss_mb());
        values.insert("jobs_per_s", outcome.jobs_per_s);
        values.insert("latency_p50_ms", stats::percentile(lat, 0.5));
        values.insert("latency_p90_ms", stats::percentile(lat, 0.9));
        values.insert("sim_rate_mcps", stats::geomean(&outcome.sim_rates));
        values.insert("sim_cycles", outcome.sim_cycles as f64);
        values.insert("energy_uj", outcome.energy_uj);
        values.insert("analytic_err_pct", outcome.analytic_err_pct);
        eprintln!(
            "set-ups {setups:.4?} s; {} latency sample(s), {} beyond p90; {} simulated job kind(s)",
            lat.len(),
            stats::samples_beyond(lat.len(), 0.9),
            outcome.sim_rates.len()
        );
        &END_TO_END
    };
    let mut invalid = outcome.invalid.clone();
    for (name, unit) in list {
        let v = values.get(name).copied().unwrap_or(0.0);
        if !v.is_finite() {
            invalid.push(format!("metric {name} is not finite ({v})"));
            values.insert(name, 0.0);
        }
        eprintln!("  {name:<28} {v:>16.6} {unit}");
    }
    for why in &invalid {
        eprintln!("perfbench: INVALID: {why}");
    }
    let Tally { attempted, failed } = outcome.tally;
    let correct = failed == 0 && invalid.is_empty() && attempted > 0;
    eprintln!(
        "perfbench: {attempted} attempted, {failed} failed, correct {correct}, {:.1} s measured",
        started.elapsed().as_secs_f64()
    );
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{}}}",
        metrics_json(list, &values)
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipim_core::trace::json;

    fn valid_name(s: &str) -> bool {
        !s.is_empty() && s.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn metric_names_are_well_formed_and_unique() {
        let all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER.iter()).map(|(n, _)| *n).collect();
        for name in &all {
            assert!(valid_name(name), "{name} must match [A-Za-z0-9_.-]+");
        }
        let mut dedup = all.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), all.len(), "metric names must be unique");
    }

    /// The lists the binary prints are exactly the ones `BENCHMARK.json`
    /// declares, with the same units.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        let declared = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(json::Value::as_array)
                .expect(key)
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(json::Value::as_str).expect(k).to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(declared("end_to_end"), own(&END_TO_END));
        assert_eq!(declared("per_layer"), own(&PER_LAYER));
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(json::Value::as_array)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(json::Value::as_str).expect("name").to_string())
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn arguments_are_checked() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let ok =
            parse_args(&args("--workload engine_long --seed 4 --seconds 2.5 --trace 1")).unwrap();
        assert_eq!((ok.seed, ok.seconds, ok.trace), (4, 2.5, true));
        assert_eq!(ok.phase_budget(), Duration::from_secs_f64(1.25));
        assert!(parse_args(&args("--workload nope --seed 1")).is_err());
        assert!(parse_args(&args("--workload serve_wire --trace 2")).is_err());
        assert!(parse_args(&args("--workload serve_wire --seconds 0")).is_err());
        assert!(parse_args(&args("--workload serve_wire --seconds 120")).is_ok());
        assert!(parse_args(&args("--workload serve_wire --seconds 121")).is_err());
        assert!(parse_args(&args("--workload tune_sweep")).is_err());
        assert!(parse_args(&args("--workload serve_wire --bogus")).is_err());
    }

    #[test]
    fn metrics_json_lists_every_metric_with_its_unit() {
        let values = BTreeMap::from([("setup_s", 0.25)]);
        let text = metrics_json(&END_TO_END, &values);
        let v = json::parse(&text).unwrap();
        assert_eq!(v.get("setup_s").unwrap().get("value").unwrap().as_f64(), Some(0.25));
        for (name, unit) in END_TO_END {
            assert_eq!(v.get(name).unwrap().get("unit").unwrap().as_str(), Some(unit));
        }
    }
}
