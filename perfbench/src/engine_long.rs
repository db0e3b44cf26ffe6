//! `engine_long`: long cycle-engine simulations, run serially on one
//! thread with the program cache warmed during set-up — the cycle engine
//! does almost all the work.
//!
//! A measured phase runs every job once in full (a program-cache lookup,
//! then the simulation, layer by layer), saving about [`WINDOWS_PER_JOB`]
//! timing [`Window`]s of each run, and repeats the windows round robin for
//! the rest of the phase. The engine's host speed is judged on each
//! window's fastest repetition.

use std::sync::Arc;
use std::time::{Duration, Instant};

use ipim_core::{
    analytic, workload_by_name, CompiledProgram, Engine, Machine, MachineConfig, ProgramCache,
    Session, Workload, WorkloadScale,
};
use ipim_serve::image_hash;

use crate::layers::{self, HwCounters, SimResult, Window};
use crate::spans::{Ctx, Spans};
use crate::stats::{sub_seed, Tally};
use crate::{Opts, Outcome};

/// The jobs: workload, width, height, vaults. Histogram is the one kernel
/// whose cross-vault reduction sends requests over the mesh, so its
/// 2-vault run is the job that makes `noc` carry traffic.
pub const JOBS: [(&str, u32, u32, usize); 4] = [
    ("StencilChain", 64, 64, 1),
    ("Gemm", 64, 64, 1),
    ("LocalLaplacian", 128, 128, 1),
    ("Histogram", 128, 128, 2),
];

/// Timing windows per job (fewer when the job is shorter than that many
/// slices).
pub const WINDOWS_PER_JOB: u64 = 12;

const MAX_CYCLES: u64 = 4_000_000_000;

/// One set-up job.
pub struct Job {
    /// The workload with seeded inputs.
    pub workload: Workload,
    /// The SkipAhead session on the job's machine shape.
    pub session: Session,
    /// The program compiled during set-up (the cache's copy).
    pub program: Arc<CompiledProgram>,
    /// The analytic tier's cycle prediction: spaces the timing windows and
    /// gives the prediction error.
    pub predicted_cycles: u64,
}

/// Builds the jobs from `seed`, compiles each once (warming the
/// process-wide program cache) and predicts its cycles.
pub fn setup(seed: u64) -> Vec<Job> {
    JOBS.iter()
        .enumerate()
        .map(|(i, &(name, width, height, vaults))| {
            let mut workload = workload_by_name(name, WorkloadScale { width, height })
                .unwrap_or_else(|| panic!("{name} is a suite workload"));
            layers::seed_inputs(&mut workload, sub_seed(seed, i as u64));
            let config =
                MachineConfig { engine: Engine::SkipAhead, ..MachineConfig::vault_slice(vaults) };
            let session = Session::new(config);
            let program = session
                .compile(&workload.pipeline)
                .unwrap_or_else(|e| panic!("{name} {width}x{height}: {e}"));
            let predicted_cycles =
                analytic::predict(&program.program, session.config(), MAX_CYCLES)
                    .unwrap_or_else(|e| panic!("{name} {width}x{height}: {e}"))
                    .cycles;
            Job { workload, session, program, predicted_cycles }
        })
        .collect()
}

/// Set-up alone, timed.
pub fn setup_only(opts: &Opts) -> f64 {
    let t = Instant::now();
    let jobs = setup(opts.seed);
    let s = t.elapsed().as_secs_f64();
    drop(jobs);
    s
}

/// One full run of a job.
struct Sample {
    job: usize,
    /// Host time of the job, without the time spent saving its windows.
    wall: Duration,
    result: Result<SimResult, String>,
}

/// Runs every job once in full; with `windows`, also saves the timing
/// windows of each run.
fn full_pass(
    jobs: &[Job],
    spans: &Spans,
    first_id: u64,
    mut windows: Option<&mut Vec<Window>>,
) -> Vec<Sample> {
    let mut out = Vec::new();
    for (i, job) in jobs.iter().enumerate() {
        let mut save =
            Window::saver(i, job.predicted_cycles / WINDOWS_PER_JOB, windows.as_deref_mut());
        let mut saving = Duration::ZERO;
        let mut timed_save = |m: &Machine| {
            let t = Instant::now();
            save(m);
            saving += t.elapsed();
        };
        let t = Instant::now();
        let result = spans.span("engine.job", Ctx::root(first_id + i as u64), |ctx| {
            let program = spans
                .span("core.compile", ctx, |_| job.session.compile(&job.workload.pipeline))
                .map_err(|e| e.to_string())?;
            let config = job.session.config();
            let inputs = &job.workload.inputs;
            layers::simulate_with(spans, ctx, config, &program, inputs, MAX_CYCLES, &mut timed_save)
        });
        let wall = t.elapsed().saturating_sub(saving);
        out.push(Sample { job: i, wall, result });
    }
    out
}

/// Runs the workload.
pub fn run(opts: &Opts, spans: &Spans) -> Outcome {
    let t = Instant::now();
    let jobs = setup(opts.seed);
    let mut out = Outcome { setup_s: t.elapsed().as_secs_f64(), ..Outcome::default() };

    let cache = ProgramCache::global();
    let (hits0, misses0, _) = cache.stats();
    let started = Instant::now();
    let mut windows = Vec::new();
    let mut samples = full_pass(&jobs, &Spans::off(), 1, Some(&mut windows));
    let mut tally = Tally::default();
    let mut rounds = 0;
    while rounds == 0 || started.elapsed() < opts.phase_budget() {
        Window::repeat_all(&mut windows, &mut tally);
        rounds += 1;
    }
    eprintln!(
        "engine_long: {} window(s) x {rounds} round(s) in {:.2} s",
        windows.len(),
        started.elapsed().as_secs_f64()
    );
    if opts.trace {
        let traced = full_pass(&jobs, spans, 100, None);
        let wall = |ss: &[Sample]| ss.iter().map(|s| s.wall.as_secs_f64()).sum::<f64>();
        out.layers
            .insert("bench.trace_overhead_pct", (wall(&traced) / wall(&samples) - 1.0) * 100.0);
        samples.extend(traced);
    }
    let (hits1, misses1, _) = cache.stats();
    if opts.trace {
        // The tuner's layers ride on this traced run (after the cache
        // check: a cold enumeration misses by design).
        crate::tune_probe::trace_probe(opts.seed, spans, &mut out);
    }
    if misses1 != misses0 {
        out.invalid.push(format!(
            "program cache missed {} time(s) during measured passes (set-up must warm it)",
            misses1 - misses0
        ));
    }
    out.layers.insert(
        "core.progcache_hit_ratio",
        (hits1 - hits0) as f64 / ((hits1 - hits0) + (misses1 - misses0)).max(1) as f64,
    );
    check_and_summarize(opts, spans, &jobs, &samples, &windows, &mut tally, &mut out);
    out.tally = tally;
    out
}

/// Verifies every full run (outside the measured phase) and fills in the
/// simulation metrics.
fn check_and_summarize(
    opts: &Opts,
    spans: &Spans,
    jobs: &[Job],
    samples: &[Sample],
    windows: &[Window],
    tally: &mut Tally,
    out: &mut Outcome,
) {
    let mut hw = HwCounters::default();
    let mut errs = Vec::new();
    for (j, job) in jobs.iter().enumerate() {
        let mine: Vec<&Sample> = samples.iter().filter(|s| s.job == j).collect();
        let Some((first_sample, first)) =
            mine.iter().find_map(|s| s.result.as_ref().ok().map(|r| (s, r)))
        else {
            for s in &mine {
                tally.record(false);
                if let Err(e) = &s.result {
                    eprintln!("engine_long: {}: {e}", job.workload.name);
                }
            }
            continue;
        };
        // The golden check runs once per job; every other run must be
        // bit-identical to the checked one.
        let golden = layers::golden_check(&job.workload, &first.output);
        if let Err(e) = &golden {
            eprintln!("engine_long: {e}");
        }
        let golden_ok = golden.is_ok();
        let hash = image_hash(&first.output);
        for s in &mine {
            tally.record(
                golden_ok
                    && s.result
                        .as_ref()
                        .is_ok_and(|r| r.report == first.report && image_hash(&r.output) == hash),
            );
        }
        if opts.trace {
            let images: Vec<_> = job.workload.inputs.iter().map(|(_, img)| img.clone()).collect();
            let _ = spans.span("frontend.interpret", Ctx::root(0), |_| {
                ipim_core::frontend::interpret(&job.workload.pipeline, &images)
            });
        }
        // Host cost at the best speed the windows observed, plus the job's
        // non-simulating overhead (cache lookup, machine, upload, read-back).
        if let Some(rate) = Window::best_rate_mcps(windows, j) {
            let overhead_ns = first_sample.wall.as_nanos() as f64 - first.run_ns as f64;
            let run_ns = layers::vault_cycles(&first.report) as f64 / rate * 1e3;
            out.sim_rates.push(rate);
            out.latencies_ms.push((overhead_ns + run_ns) / 1e6);
            eprintln!(
                "engine_long: {:<14} {} vault(s): {:>8} cycles, best {:.4} Mcycles/s over {} window(s)",
                job.workload.name,
                first.report.vaults,
                first.report.cycles,
                rate,
                windows.iter().filter(|w| w.job == j).count()
            );
        }
        hw.add(first);
        out.sim_cycles += first.report.cycles;
        out.energy_uj += first.report.energy.total_pj() / 1e6;
        errs.push(analytic::divergence_pct(job.predicted_cycles, first.report.cycles));
    }
    out.analytic_err_pct = errs.iter().sum::<f64>() / errs.len().max(1) as f64;
    if out.latencies_ms.len() == jobs.len() {
        out.jobs_per_s = jobs.len() as f64 / (out.latencies_ms.iter().sum::<f64>() / 1e3);
    } else {
        out.latencies_ms.clear();
    }
    hw.layer_metrics(&mut out.layers);
    out.layers.insert(
        "compiler.program_insts",
        jobs.iter().map(|j| j.program.static_instructions).sum::<usize>() as f64,
    );
}
