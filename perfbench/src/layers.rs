//! One simulation, called layer by layer, and the counters it leaves.
//!
//! [`simulate`] makes the same calls, in the same order, as
//! `Session::simulate` on a cycle engine — `Machine::new`, `host::upload` +
//! `load_program_all`, `Machine::run`, `host::read_back` — with a span
//! around each, so the benchmark can time every layer from outside the
//! program. The result is bit-identical to the session path.

use std::collections::BTreeMap;
use std::time::Instant;

use ipim_arch::StallReason;
use ipim_core::experiments::{output_divergence, REFERENCE_TOLERANCE};
use ipim_core::frontend::{Image, SourceId};
use ipim_core::trace::MetricsRegistry;
use ipim_core::{
    analytic, host, CompiledProgram, ExecutionReport, Machine, MachineConfig, Workload,
};
use ipim_workloads::synthetic_image;

use crate::spans::{Ctx, Spans};
use crate::stats::{sub_seed, Tally};

/// What one simulation produced.
pub struct SimResult {
    /// The cycle-accurate report.
    pub report: ExecutionReport,
    /// The output image read back from the banks.
    pub output: Image,
    /// The machine's counter snapshot (mesh counters live here).
    pub metrics: MetricsRegistry,
    /// Host nanoseconds spent inside `Machine::run`.
    pub run_ns: u64,
    /// Host nanoseconds of each `Machine::run` slice, in order.
    pub slice_ns: Vec<u64>,
}

/// The least-disturbed `Machine::run` time over repeated runs of one
/// job: each slice's fastest repetition, summed. Repetitions of one job
/// cut the same slices, so slice `k` is the same work in every one.
///
/// # Panics
///
/// Panics on no runs, or on runs cut into different slice counts.
pub fn best_run_ns(runs: &[&SimResult]) -> u64 {
    let slices = runs.first().expect("at least one run").slice_ns.len();
    assert!(runs.iter().all(|r| r.slice_ns.len() == slices), "runs of one job must match");
    (0..slices).map(|k| runs.iter().map(|r| r.slice_ns[k]).min().unwrap_or(0)).sum()
}

/// Simulated vault-cycles per host second of `Machine::run`, in millions,
/// at [`best_run_ns`] over repeated runs of one job.
pub fn best_rate_mcps(runs: &[&SimResult]) -> f64 {
    vault_cycles(&runs[0].report) as f64 / best_run_ns(runs).max(1) as f64 * 1e3
}

/// Cycles times vaults: the work a run simulated.
pub fn vault_cycles(report: &ExecutionReport) -> u64 {
    report.cycles * report.vaults as u64
}

/// A saved machine state to time one `Machine::run` slice from, again and
/// again. On a shared host the fastest of many repetitions spread over a
/// run is the least-disturbed sample of the engine's speed; a job that
/// runs for seconds gives few repetitions, its windows give many.
pub struct Window {
    /// The job the state belongs to.
    pub job: usize,
    start: Machine,
    /// Fastest repetition so far, in ns.
    best_ns: u64,
    /// Vault-cycles the slice simulates.
    vault_cycles: u64,
    /// `(now, issued)` after the first repetition — every repetition must
    /// end in the same place.
    end: Option<(u64, u64)>,
}

impl Window {
    /// A `before_slice` hook for [`simulate_with`] that saves a window of
    /// job `job` into `windows` about every `spacing` cycles (at most one
    /// per slice), or nothing without `windows`.
    pub fn saver<'a>(
        job: usize,
        spacing: u64,
        mut windows: Option<&'a mut Vec<Window>>,
    ) -> impl FnMut(&Machine) + 'a {
        let mut next = 0;
        move |m: &Machine| {
            if let Some(ws) = windows.as_deref_mut() {
                if m.now() >= next {
                    next = m.now() + spacing.max(SLICE_CYCLES);
                    let start = m.clone();
                    ws.push(Window { job, start, best_ns: u64::MAX, vault_cycles: 0, end: None });
                }
            }
        }
    }

    /// Runs the slice once more from the saved state; false when it ended
    /// somewhere else than the first repetition.
    pub fn repeat(&mut self) -> bool {
        let mut m = self.start.clone();
        let t = Instant::now();
        let _ = m.run(SLICE_CYCLES);
        let ns = t.elapsed().as_nanos() as u64;
        let end = (m.now(), m.report().stats.issued);
        self.best_ns = self.best_ns.min(ns);
        self.vault_cycles = (end.0 - self.start.now()) * m.config().total_vaults() as u64;
        *self.end.get_or_insert(end) == end
    }

    /// One round: every window repeated once, each counted in `tally`.
    pub fn repeat_all(windows: &mut [Window], tally: &mut Tally) {
        for w in windows {
            tally.record(w.repeat());
        }
    }

    /// Job `job`'s simulated vault-cycles per host second over its
    /// windows' fastest repetitions, in millions (`None` before any
    /// repetition).
    pub fn best_rate_mcps(windows: &[Window], job: usize) -> Option<f64> {
        let (cycles, ns) = windows
            .iter()
            .filter(|w| w.job == job && w.best_ns != u64::MAX)
            .fold((0u64, 0u64), |(c, n), w| (c + w.vault_cycles, n + w.best_ns));
        (cycles > 0 && ns > 0).then(|| cycles as f64 / ns as f64 * 1e3)
    }
}

/// Simulated cycles per `Machine::run` call. A run that has not quiesced
/// at its cycle budget keeps its state, so a long simulation can be run
/// in slices, each timed on its own; the result is the same as one call's.
pub const SLICE_CYCLES: u64 = 1 << 14;

/// Runs `program` on a fresh machine, one layer call at a time, with
/// `Machine::run` called in slices of [`SLICE_CYCLES`].
///
/// # Errors
///
/// Returns a message when the run does not quiesce within `max_cycles`.
pub fn simulate(
    spans: &Spans,
    ctx: Ctx,
    config: &MachineConfig,
    program: &CompiledProgram,
    inputs: &[(SourceId, Image)],
    max_cycles: u64,
) -> Result<SimResult, String> {
    simulate_with(spans, ctx, config, program, inputs, max_cycles, &mut |_| {})
}

/// [`simulate`], showing the machine to `before_slice` before every
/// `Machine::run` slice (outside the slice's timing).
///
/// # Errors
///
/// Returns a message when the run does not quiesce within `max_cycles`.
pub fn simulate_with(
    spans: &Spans,
    ctx: Ctx,
    config: &MachineConfig,
    program: &CompiledProgram,
    inputs: &[(SourceId, Image)],
    max_cycles: u64,
    before_slice: &mut dyn FnMut(&Machine),
) -> Result<SimResult, String> {
    let compiled = program.compiled();
    let mut machine = spans.span("arch.machine_new", ctx, |_| Machine::new(config.clone()));
    spans.span("arch.upload", ctx, |_| {
        for (src, img) in inputs {
            host::upload(&mut machine, &compiled.map, *src, img);
        }
        machine.load_program_all(&compiled.program);
    });
    let (report, slice_ns) = spans.span("arch.run", ctx, |_| {
        let mut slice_ns = Vec::new();
        loop {
            before_slice(&machine);
            let t = Instant::now();
            let result = machine.run(SLICE_CYCLES);
            slice_ns.push(t.elapsed().as_nanos() as u64);
            match result {
                Ok(report) => return (Ok(report), slice_ns),
                Err(_) if machine.now() >= max_cycles => {
                    let e = format!("simulation did not quiesce within {max_cycles} cycles");
                    return (Err(e), slice_ns);
                }
                Err(_) => {}
            }
        }
    });
    let report = report?;
    let output = spans.span("arch.read_back", ctx, |_| {
        host::read_back(&machine, &compiled.map, program.output_source())
    });
    let run_ns = slice_ns.iter().sum();
    Ok(SimResult { report, output, metrics: machine.metrics(), run_ns, slice_ns })
}

/// The analytic tier's prediction for `program`, in a span.
///
/// # Errors
///
/// Returns a message when the predicted run exceeds `max_cycles`.
pub fn predict(
    spans: &Spans,
    ctx: Ctx,
    config: &MachineConfig,
    program: &CompiledProgram,
    max_cycles: u64,
) -> Result<ExecutionReport, String> {
    spans
        .span("analytic.predict", ctx, |_| {
            analytic::predict(&program.compiled().program, config, max_cycles)
        })
        .map_err(|e| e.to_string())
}

/// The golden check: `output` must be within `REFERENCE_TOLERANCE` of what
/// the reference interpreter computes for `w`.
///
/// # Errors
///
/// Returns a message with the divergence when it is larger.
pub fn golden_check(w: &Workload, output: &Image) -> Result<(), String> {
    let divergence = output_divergence(w, output);
    if divergence > REFERENCE_TOLERANCE {
        return Err(format!("{} diverges from the reference by {divergence}", w.name));
    }
    Ok(())
}

/// Replaces every image input of `w` by a seeded synthetic image of the
/// same extent. Host-computed lookup tables (inputs named `*_lut`) are
/// part of the algorithm, not data, and stay as they are.
pub fn seed_inputs(w: &mut Workload, seed: u64) {
    let names: BTreeMap<SourceId, &str> =
        w.pipeline.inputs().iter().map(|d| (d.source, d.name.as_str())).collect();
    let mut inputs = w.inputs.clone();
    for (i, (src, img)) in inputs.iter_mut().enumerate() {
        if !names.get(src).is_some_and(|n| n.ends_with("_lut")) {
            *img = synthetic_image(img.width(), img.height(), sub_seed(seed, i as u64));
        }
    }
    w.inputs = inputs;
}

/// Hardware-model counters summed over a set of simulations — the
/// per-layer view of the simulated machine.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HwCounters {
    /// Simulations summed.
    pub runs: u64,
    /// Summed `ExecutionReport::cycles`.
    pub cycles: u64,
    /// Summed cycles × vaults.
    pub vault_cycles: u64,
    /// Summed host ns inside `Machine::run`.
    pub run_ns: u64,
    /// Instructions issued.
    pub issued: u64,
    /// Stall cycles by cause, in `StallReason::ALL` order.
    pub stalls: [u64; 6],
    /// DRAM row hits.
    pub row_hits: u64,
    /// DRAM row hits + misses + conflicts.
    pub row_accesses: u64,
    /// DRAM reads + writes.
    pub accesses: u64,
    /// DRAM activates.
    pub acts: u64,
    /// Mesh flit hops over every cube.
    pub flit_hops: u64,
    /// Mesh credit-stall cycles over every cube.
    pub credit_stalls: u64,
}

impl HwCounters {
    /// Adds one simulation.
    pub fn add(&mut self, sim: &SimResult) {
        let r = &sim.report;
        self.runs += 1;
        self.cycles += r.cycles;
        self.vault_cycles += vault_cycles(r);
        self.run_ns += sim.run_ns;
        self.issued += r.stats.issued;
        for (slot, reason) in self.stalls.iter_mut().zip(StallReason::ALL) {
            *slot += r.stats.stalls.get(reason);
        }
        self.row_hits += r.locality.row_hits;
        self.row_accesses += r.locality.row_hits + r.locality.row_misses + r.locality.row_conflicts;
        self.accesses += r.bank_stats.reads + r.bank_stats.writes;
        self.acts += r.bank_stats.acts;
        for (name, _) in sim.metrics.iter() {
            if name.ends_with("/mesh/flit_hops") {
                self.flit_hops += sim.metrics.counter(name);
            } else if name.ends_with("/mesh/credit_stalls") {
                self.credit_stalls += sim.metrics.counter(name);
            }
        }
    }

    /// The `arch.*`, `dram.*` and `noc.*` per-layer metrics.
    pub fn layer_metrics(&self, out: &mut BTreeMap<&'static str, f64>) {
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        out.insert("arch.host_ns_per_cycle", ratio(self.run_ns, self.vault_cycles));
        out.insert("arch.ipc", ratio(self.issued, self.cycles));
        for (reason, n) in StallReason::ALL.iter().zip(self.stalls) {
            out.insert(stall_metric(*reason), n as f64);
        }
        out.insert("dram.row_hit_ratio", ratio(self.row_hits, self.row_accesses));
        out.insert("dram.accesses", self.accesses as f64);
        out.insert("dram.acts", self.acts as f64);
        out.insert("noc.flit_hops", self.flit_hops as f64);
        out.insert("noc.credit_stalls", self.credit_stalls as f64);
    }
}

fn stall_metric(reason: StallReason) -> &'static str {
    match reason {
        StallReason::Hazard => "arch.stall.hazard",
        StallReason::QueueFull => "arch.stall.queue_full",
        StallReason::Tsv => "arch.stall.tsv",
        StallReason::Branch => "arch.stall.branch",
        StallReason::Sync => "arch.stall.sync",
        StallReason::VsmInterlock => "arch.stall.vsm_interlock",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipim_core::{workload_by_name, WorkloadScale};

    fn gemm() -> Workload {
        workload_by_name("Gemm", WorkloadScale { width: 64, height: 32 }).unwrap()
    }

    #[test]
    fn same_seed_same_images_new_seed_new_images() {
        let (mut a, mut b, mut c) = (gemm(), gemm(), gemm());
        seed_inputs(&mut a, 11);
        seed_inputs(&mut b, 11);
        seed_inputs(&mut c, 12);
        for ((_, x), (_, y)) in a.inputs.iter().zip(&b.inputs) {
            assert_eq!(x.data(), y.data());
        }
        assert!(a.inputs.iter().zip(&c.inputs).all(|((_, x), (_, y))| x.data() != y.data()));
    }

    /// Slicing `Machine::run` changes nothing the run produces.
    #[test]
    fn sliced_simulation_matches_the_session_path() {
        let w = gemm();
        let session = ipim_core::Session::new(MachineConfig::vault_slice(1));
        let program = session.compile(&w.pipeline).unwrap();
        let whole = session.simulate(&program, &w.inputs, 1 << 30).unwrap();
        let sliced =
            simulate(&Spans::off(), Ctx::root(0), session.config(), &program, &w.inputs, 1 << 30)
                .unwrap();
        assert!(sliced.slice_ns.len() > 1, "the job must span several slices");
        assert_eq!(sliced.report, whole.report);
        assert_eq!(sliced.output.data(), whole.output.data());
        assert_eq!(sliced.metrics, whole.metrics);
        assert!(simulate(&Spans::off(), Ctx::root(0), session.config(), &program, &w.inputs, 1000)
            .is_err());
    }

    /// Windows of one run repeat to the same end state and give a rate.
    #[test]
    fn windows_repeat_deterministically() {
        let w = gemm();
        let session = ipim_core::Session::new(MachineConfig::vault_slice(1));
        let program = session.compile(&w.pipeline).unwrap();
        let mut windows = Vec::new();
        let mut save = Window::saver(0, SLICE_CYCLES, Some(&mut windows));
        let config = session.config();
        simulate_with(&Spans::off(), Ctx::root(0), config, &program, &w.inputs, 1 << 30, &mut save)
            .unwrap();
        drop(save);
        assert!(windows.len() > 1, "one window per slice of a multi-slice run");
        assert_eq!(Window::best_rate_mcps(&windows, 0), None, "no repetition yet");
        let mut tally = Tally::default();
        for _ in 0..2 {
            Window::repeat_all(&mut windows, &mut tally);
        }
        assert_eq!(tally, Tally { attempted: 2 * windows.len() as u64, failed: 0 });
        assert!(Window::best_rate_mcps(&windows, 0).is_some_and(|r| r > 0.0));
    }

    /// A correct output passes the golden check and a corrupted one fails.
    #[test]
    fn golden_check_rejects_a_corrupted_output() {
        let w = workload_by_name("Brighten", WorkloadScale { width: 64, height: 32 }).unwrap();
        let session = ipim_core::Session::new(MachineConfig::vault_slice(1));
        let program = session.compile(&w.pipeline).unwrap();
        let sim =
            simulate(&Spans::off(), Ctx::root(0), session.config(), &program, &w.inputs, 1 << 30)
                .unwrap();
        assert_eq!(golden_check(&w, &sim.output), Ok(()));
        let mut bad = sim.output.clone();
        bad.set(32, 16, bad.get(32, 16) + 0.5);
        assert!(golden_check(&w, &bad).is_err());
    }

    #[test]
    fn lookup_tables_are_kept() {
        let orig =
            workload_by_name("BilateralGrid", WorkloadScale { width: 64, height: 64 }).unwrap();
        let mut w = orig.clone();
        seed_inputs(&mut w, 3);
        let lut = orig.pipeline.inputs().iter().find(|d| d.name.ends_with("_lut")).unwrap().source;
        for ((src, before), (_, after)) in orig.inputs.iter().zip(&w.inputs) {
            assert_eq!(before.data() == after.data(), *src == lut);
        }
    }
}
