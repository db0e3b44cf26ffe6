//! The tuner's layers, measured on a traced `engine_long` run: one cold
//! `ScheduleSpace::enumerate`, then its legal entries replayed through the
//! two calls enumeration makes for each — `Session::compile_only` and
//! `analytic::predict` — so compile and prediction get their own times.

use ipim_core::{
    analytic, workload_by_name, Engine, MachineConfig, Session, Workload, WorkloadScale,
};
use ipim_tune::ScheduleSpace;

use crate::layers;
use crate::spans::{Ctx, Spans};
use crate::stats::sub_seed;
use crate::Outcome;

/// The tuned workload, at 128×128 on one vault.
pub const WORKLOAD: &str = "LocalLaplacian";

const SIZE: u32 = 128;
const MAX_CYCLES: u64 = 4_000_000_000;

fn machine() -> MachineConfig {
    MachineConfig { engine: Engine::SkipAhead, ..MachineConfig::vault_slice(1) }
}

/// Builds the tuned workload with inputs seeded from `seed`.
pub fn setup(seed: u64) -> Workload {
    let mut w = workload_by_name(WORKLOAD, WorkloadScale { width: SIZE, height: SIZE })
        .unwrap_or_else(|| panic!("{WORKLOAD} is a suite workload"));
    layers::seed_inputs(&mut w, sub_seed(seed, 0));
    w
}

/// One cold enumeration in a `tune.enumerate` span, then every legal entry
/// replayed. Fills `tune.legal_ratio`; the span times give
/// `tune.enumerate_s`, `compiler.compile_ms` and `analytic.predict_ms`.
pub fn trace_probe(seed: u64, spans: &Spans, out: &mut Outcome) {
    let w = setup(seed);
    let config = machine();
    let space = spans
        .span("tune.enumerate", Ctx::root(0), |_| ScheduleSpace::enumerate(&w, &config, false))
        .ok();
    let Some(space) = space else { return };
    let legal = space.entries.len();
    out.layers.insert("tune.legal_ratio", legal as f64 / (legal + space.rejected).max(1) as f64);
    let session = Session::new(config.clone());
    for (i, e) in space.entries.iter().enumerate() {
        let Ok(variant) = w.with_override(&e.ov) else { continue };
        spans.span("tune.replay", Ctx::root(1000 + i as u64), |ctx| {
            let compiled =
                spans.span("compiler.compile", ctx, |_| session.compile_only(&variant.pipeline));
            if let Ok(c) = compiled {
                let _ = spans.span("analytic.predict", ctx, |_| {
                    analytic::predict(&c.program, &config, MAX_CYCLES)
                });
            }
        });
    }
}
