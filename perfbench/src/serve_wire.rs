//! `serve_wire`: small interactive requests through the shard router and
//! loopback TCP, in a closed loop of two clients that each wait for their
//! reply.
//!
//! Two backends, each a 1-worker `ServePool` with the result cache off
//! behind a listener that serves every connection with `serve_stream` (the
//! `ipim_served --stream --tcp` shape, in-process), and one `ShardRouter`
//! over them. Set-up sends every distinct request once, so the program
//! cache is warm and every measured request still does all its work.

use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread::Scope;
use std::time::{Duration, Instant};

use ipim_core::frontend::Image;
use ipim_core::trace::{json, MetricsRegistry};
use ipim_core::{host, Engine, ProgramCache, RunOutcome};
use ipim_serve::server::serve_stream;
use ipim_serve::{PoolConfig, ServePool, SimRequest, SimResponse};
use ipim_shard::{ShardConfig, ShardRouter};
use ipim_simkit::Rng;

use crate::layers::{self, HwCounters};
use crate::spans::{Ctx, Spans};
use crate::stats::{self, sub_seed, Tally};
use crate::{Opts, Outcome};

/// The distinct requests: workload, width, height, engine. Image, NN and
/// video kernels at 64×32 to 96×64 on the cycle engine, plus analytic
/// predictions at 128². An odd count keeps the median and the 90th
/// percentile inside one request kind's band of the latency distribution
/// rather than on the boundary between two.
pub const CLASSES: [(&str, u32, u32, Engine); 15] = [
    ("Brighten", 64, 32, Engine::SkipAhead),
    ("Blur", 96, 64, Engine::SkipAhead),
    ("Shift", 64, 64, Engine::SkipAhead),
    ("Histogram", 64, 32, Engine::SkipAhead),
    ("BilateralGrid", 64, 64, Engine::SkipAhead),
    ("Upsample", 64, 64, Engine::SkipAhead),
    ("Gemm", 64, 32, Engine::SkipAhead),
    ("Conv3x3", 64, 64, Engine::SkipAhead),
    ("RowSoftmax", 64, 32, Engine::SkipAhead),
    ("FrameDelta", 96, 64, Engine::SkipAhead),
    ("MotionEnergy", 64, 32, Engine::SkipAhead),
    ("TemporalBlur", 64, 64, Engine::SkipAhead),
    ("StencilChain", 128, 128, Engine::Analytic),
    ("LocalLaplacian", 128, 128, Engine::Analytic),
    ("Interpolate", 128, 128, Engine::Analytic),
];

/// Closed-loop clients.
const CLIENTS: usize = 2;
/// Shard backends.
const BACKENDS: usize = 2;
/// Fewest measured requests per phase: 100 leaves ten samples beyond the
/// 90th percentile.
pub const MIN_REQUESTS: usize = 100;
/// Shuffled blocks in a request sequence (each block sends every distinct
/// request once).
const BLOCKS: usize = 200;
/// Segments of a measured phase; a serial replay of every distinct
/// request follows each one. The first replay is the correctness
/// reference, all of them time the layers.
const SEGMENTS: usize = 8;

/// The distinct requests as wire requests.
pub fn classes() -> Vec<SimRequest> {
    CLASSES
        .iter()
        .map(|&(name, w, h, engine)| SimRequest { engine, ..SimRequest::named(name, w, h) })
        .collect()
}

/// The request sequence for `seed`, as indices into [`classes`]: blocks
/// that each send every distinct request once, in a seeded order.
pub fn sequence(seed: u64) -> Vec<usize> {
    let mut rng = Rng::new(sub_seed(seed, 0x5e));
    let mut seq = Vec::with_capacity(BLOCKS * CLASSES.len());
    for _ in 0..BLOCKS {
        let mut block: Vec<usize> = (0..CLASSES.len()).collect();
        rng.shuffle(&mut block);
        seq.extend(block);
    }
    seq
}

/// One backend: a listener and the pool behind it.
struct Backend {
    listener: TcpListener,
    addr: SocketAddr,
    pool: ServePool,
    stop: AtomicBool,
}

impl Backend {
    fn start() -> std::io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let pool = ServePool::start(&PoolConfig { workers: 1, queue_depth: 64, cache_capacity: 0 });
        Ok(Self { listener, addr, pool, stop: AtomicBool::new(false) })
    }

    /// Serves every accepted connection on its own scoped thread until
    /// [`stop`](Self::stop).
    fn accept_loop<'s>(&'s self, scope: &'s Scope<'s, '_>) {
        for stream in self.listener.incoming() {
            if self.stop.load(Ordering::SeqCst) {
                return;
            }
            let Ok(stream) = stream else { continue };
            scope.spawn(move || {
                if let Ok(read) = stream.try_clone() {
                    let _ = serve_stream(BufReader::new(read), &stream, &self.pool);
                }
            });
        }
    }

    /// Stops the accept loop (a self-connect wakes it).
    fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
    }
}

/// Starts the backends and the router, runs `f`, then drains the router,
/// stops every backend thread and shuts the pools down.
fn with_fleet<R>(seed: u64, f: impl FnOnce(&ShardRouter, &[Backend]) -> R) -> R {
    let backends: Vec<Backend> =
        (0..BACKENDS).map(|_| Backend::start().expect("bind a loopback backend")).collect();
    let out = std::thread::scope(|s| {
        for b in &backends {
            s.spawn(move || b.accept_loop(s));
        }
        let addrs = backends.iter().map(|b| b.addr.to_string()).collect();
        let router = ShardRouter::start(&ShardConfig {
            seed: sub_seed(seed, 0x5a),
            ..ShardConfig::over(addrs)
        });
        let out = f(&router, &backends);
        router.shutdown();
        for b in &backends {
            b.stop();
        }
        out
    });
    for b in backends {
        b.pool.shutdown();
    }
    out
}

/// Set-up inside a started fleet: every distinct request once, untimed
/// by the measurement.
fn warm_up(router: &ShardRouter, classes: &[SimRequest]) {
    for (req, line) in classes.iter().zip(router.run_all(classes.to_vec())) {
        if Witness::parse(&line).is_err() {
            eprintln!("serve_wire: warm-up {} failed: {line}", req.canonical_key());
        }
    }
}

/// Set-up alone, timed: start the fleet and warm it, then tear it down.
pub fn setup_only(opts: &Opts) -> f64 {
    let t = Instant::now();
    let classes = classes();
    let _ = sequence(opts.seed);
    with_fleet(opts.seed, |router, _| {
        warm_up(router, &classes);
        t.elapsed().as_secs_f64()
    })
}

/// What a `done` line says about its result.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Witness {
    workload: String,
    width: u32,
    height: u32,
    output_hash: String,
    report_hash: String,
    fingerprint: String,
}

impl Witness {
    fn parse(line: &str) -> Result<Self, String> {
        let v = json::parse(line).map_err(|e| format!("unparseable reply {line:?}: {e}"))?;
        let s = |k: &str| v.get(k).and_then(json::Value::as_str).map(str::to_string);
        let n = |k: &str| v.get(k).and_then(json::Value::as_f64).map(|x| x as u32);
        if s("status").as_deref() != Some("done") {
            return Err(format!("not done: {line}"));
        }
        let missing = || format!("incomplete done line: {line}");
        Ok(Self {
            workload: s("workload").ok_or_else(missing)?,
            width: n("output_width").ok_or_else(missing)?,
            height: n("output_height").ok_or_else(missing)?,
            output_hash: s("output_hash").ok_or_else(missing)?,
            report_hash: s("report_hash").ok_or_else(missing)?,
            fingerprint: s("fingerprint").ok_or_else(missing)?,
        })
    }
}

/// One answered request of a measured phase.
struct Reply {
    class: usize,
    latency: Duration,
    line: String,
}

/// Runs `CLIENTS` closed-loop clients over `seq`, starting at position
/// `offset` and wrapping round: each sends the next request of the shared
/// sequence and waits for its reply. Stops taking requests at `max`, or
/// once `budget` has passed and `min` were taken.
fn closed_loop(
    seq: &[usize],
    offset: usize,
    budget: Duration,
    min: usize,
    max: usize,
    send: &(dyn Fn(usize, u64) -> String + Sync),
) -> (Vec<Reply>, Duration) {
    let next = AtomicUsize::new(0);
    let replies = Mutex::new(Vec::new());
    let start = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..CLIENTS {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::SeqCst);
                if i >= max || (i >= min && start.elapsed() >= budget) {
                    return;
                }
                let class = seq[(offset + i) % seq.len()];
                let t = Instant::now();
                let line = send(class, i as u64);
                let latency = t.elapsed();
                replies.lock().expect("reply list poisoned").push(Reply { class, latency, line });
            });
        }
    });
    let wall = start.elapsed();
    (replies.into_inner().expect("reply list poisoned"), wall)
}

/// A client call through the router, with its client-side spans.
fn shard_sender<'a>(
    spans: &'a Spans,
    router: &'a ShardRouter,
    classes: &'a [SimRequest],
) -> impl Fn(usize, u64) -> String + Sync + 'a {
    move |class, id| {
        spans.span("serve.request", Ctx::root(id), |ctx| {
            let ticket = spans.span("shard.submit", ctx, |_| router.submit(classes[class].clone()));
            spans.span("shard.wait", ctx, |_| ticket.wait())
        })
    }
}

/// The shard counters a phase moved: per-backend dispatches, retries,
/// errors.
fn shard_delta(before: &MetricsRegistry, after: &MetricsRegistry) -> (Vec<u64>, u64, u64) {
    let d = |k: &str| after.counter(k) - before.counter(k);
    let dispatched = (0..BACKENDS).map(|i| d(&format!("shard/backend{i}/dispatched"))).collect();
    (dispatched, d("shard/retries"), d("shard/errors") + d("shard/backend_errors"))
}

fn pool_errors(backends: &[Backend]) -> u64 {
    backends.iter().map(|b| b.pool.metrics().counter("serve/pool/errors")).sum()
}

/// The serial in-process reference for one distinct request, called layer
/// by layer: wire parse, instantiate, compile (a cache hit), simulate or
/// predict, serialize. With `golden`, a cycle-engine output must also pass
/// the golden check, or there is no reference and every reply to the
/// request fails.
struct Reference {
    witness: Witness,
    expected_shape: (u32, u32),
    sim: Option<layers::SimResult>,
    predicted_cycles: u64,
    insts: usize,
}

fn replay(
    spans: &Spans,
    req: &SimRequest,
    request_id: u64,
    golden: bool,
) -> Result<Reference, String> {
    spans.span("serve.replay", Ctx::root(request_id), |ctx| {
        let wire = req.to_json_string();
        let parsed = spans.span("serve.parse", ctx, |_| SimRequest::from_json_str(&wire))?;
        let (session, workload) =
            spans.span("workloads.instantiate", ctx, |_| parsed.instantiate())?;
        let program = spans
            .span("core.compile", ctx, |_| session.compile(&workload.pipeline))
            .map_err(|e| e.to_string())?;
        let config = session.config();
        let predicted = layers::predict(spans, ctx, config, &program, parsed.max_cycles)?;
        let (output, report, sim) = if config.engine == Engine::Analytic {
            let (w, h) = host::output_extent(&program.map, program.output_source());
            (Image::new(w, h), predicted.clone(), None)
        } else {
            let inputs = &workload.inputs;
            let sim = layers::simulate(spans, ctx, config, &program, inputs, parsed.max_cycles)?;
            if golden {
                spans
                    .span("bench.golden", ctx, |_| layers::golden_check(&workload, &sim.output))?;
            }
            (sim.output.clone(), sim.report.clone(), Some(sim))
        };
        let outcome = RunOutcome {
            output,
            report,
            compiled: program.clone(),
            metrics: MetricsRegistry::default(),
            trace: None,
            fidelity: config.engine.fidelity(),
        };
        let line = spans.span("serve.serialize", ctx, |_| {
            SimResponse::from_outcome(&parsed, outcome).to_json_string()
        });
        Ok(Reference {
            witness: Witness::parse(&line)?,
            expected_shape: workload.output_extent(),
            sim,
            predicted_cycles: predicted.cycles,
            insts: program.static_instructions,
        })
    })
}

/// Whether a reply carries exactly the reference's result for the request
/// it answers.
fn check_reply(
    reply: &Reply,
    classes: &[SimRequest],
    refs: &[Option<Reference>],
) -> Result<(), String> {
    let req = &classes[reply.class];
    let reference = refs[reply.class].as_ref().ok_or("no serial reference")?;
    let got = Witness::parse(&reply.line)?;
    if got.workload != req.workload || (got.width, got.height) != reference.expected_shape {
        return Err(format!(
            "answered as {} {}x{} for a request for {} {:?}",
            got.workload, got.width, got.height, req.workload, reference.expected_shape
        ));
    }
    if got != reference.witness {
        return Err(format!("{got:?} differs from the serial run {:?}", reference.witness));
    }
    Ok(())
}

/// Runs the workload: the measured closed loop in [`SEGMENTS`] segments,
/// each followed by one serial replay of every distinct request (so the
/// replays, which time the engine, are spread over the whole phase).
pub fn run(opts: &Opts, spans: &Spans) -> Outcome {
    let t = Instant::now();
    let classes = classes();
    let seq = sequence(opts.seed);
    with_fleet(opts.seed, |router, backends| {
        warm_up(router, &classes);
        let mut out = Outcome { setup_s: t.elapsed().as_secs_f64(), ..Outcome::default() };
        let cache = ProgramCache::global();
        let (hits0, misses0, _) = cache.stats();
        let (shard0, pool_err0) = (router.metrics(), pool_errors(backends));

        let off = Spans::off();
        let send = shard_sender(&off, router, &classes);
        let (mut replies, mut wall, mut rounds) = (Vec::new(), Duration::ZERO, Vec::new());
        let segment = opts.phase_budget() / SEGMENTS as u32;
        for round in 0..SEGMENTS {
            let (r, w) = closed_loop(
                &seq,
                replies.len(),
                segment,
                MIN_REQUESTS.div_ceil(SEGMENTS),
                usize::MAX,
                &send,
            );
            replies.extend(r);
            wall += w;
            let traced_round = opts.trace && round == 0;
            rounds.push(replay_round(if traced_round { spans } else { &off }, &classes, round));
        }
        let (shard1, pool_err1) = (router.metrics(), pool_errors(backends));
        let mut traced = Vec::new();
        if opts.trace {
            let send = shard_sender(spans, router, &classes);
            traced = closed_loop(&seq, 0, opts.phase_budget(), MIN_REQUESTS, usize::MAX, &send).0;
        }
        let (hits1, misses1, _) = cache.stats();
        if misses1 != misses0 {
            out.invalid.push(format!(
                "program cache missed {} time(s) during measured requests (set-up must warm it)",
                misses1 - misses0
            ));
        }
        out.layers.insert(
            "core.progcache_hit_ratio",
            (hits1 - hits0) as f64 / ((hits1 - hits0) + (misses1 - misses0)).max(1) as f64,
        );
        let (dispatched, retries, shard_errors) = shard_delta(&shard0, &shard1);
        let total: u64 = dispatched.iter().sum();
        out.layers.insert(
            "shard.busiest_backend_share",
            dispatched.iter().copied().max().unwrap_or(0) as f64 / total.max(1) as f64,
        );
        out.layers.insert("shard.retries", retries as f64);
        out.layers.insert("shard.errors", (shard_errors + pool_err1 - pool_err0) as f64);

        let lat = |rs: &[Reply]| rs.iter().map(|r| stats::ms(r.latency)).collect::<Vec<_>>();
        let mut hop_replies = Vec::new();
        if opts.trace {
            let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
            out.layers.insert(
                "bench.trace_overhead_pct",
                (mean(&lat(&traced)) / mean(&lat(&replies)) - 1.0) * 100.0,
            );
            // The same requests, in the same order, straight into an
            // in-process pool with as many workers as the fleet has.
            let pool = ServePool::start(&PoolConfig {
                workers: BACKENDS,
                queue_depth: 64,
                cache_capacity: 0,
            });
            let n = replies.len();
            let send_pool =
                |class: usize, _: u64| pool.submit(classes[class].clone()).wait().to_json_string();
            hop_replies = closed_loop(&seq, 0, Duration::ZERO, n, n, &send_pool).0;
            pool.shutdown();
            let hop = stats::median(&lat(&replies)) - stats::median(&lat(&hop_replies));
            out.layers.insert("shard.hop_ms", hop);
        }

        let refs = summarize_rounds(rounds, &mut out);
        let mut tally = Tally::default();
        for r in replies.iter().chain(&traced).chain(&hop_replies) {
            let verdict = check_reply(r, &classes, &refs);
            if let Err(e) = &verdict {
                eprintln!("serve_wire: {}: {e}", classes[r.class].canonical_key());
            }
            tally.record(verdict.is_ok());
        }
        out.tally = tally;
        out.jobs_per_s = replies.len() as f64 / wall.as_secs_f64();
        out.latencies_ms = lat(&replies);
        out
    })
}

/// One serial replay of every distinct request; the first round is also
/// golden-checked.
fn replay_round(spans: &Spans, classes: &[SimRequest], round: usize) -> Vec<Option<Reference>> {
    classes
        .iter()
        .enumerate()
        .map(|(c, req)| {
            let id = 1_000_000 + (round * classes.len() + c) as u64;
            replay(spans, req, id, round == 0)
                .map_err(|e| {
                    eprintln!("serve_wire: serial run of {} failed: {e}", req.canonical_key())
                })
                .ok()
        })
        .collect()
}

/// Takes the first replay round as the correctness reference, checks that
/// every later round agrees with it, and fills in the simulation metrics
/// (each request's host rate is its best over the rounds).
fn summarize_rounds(
    rounds: Vec<Vec<Option<Reference>>>,
    out: &mut Outcome,
) -> Vec<Option<Reference>> {
    let mut rounds = rounds.into_iter();
    let refs = rounds.next().unwrap_or_default();
    let mut sims: Vec<Vec<layers::SimResult>> = refs.iter().map(|_| Vec::new()).collect();
    for round in rounds {
        for (c, r) in round.into_iter().enumerate() {
            let first = refs[c].as_ref().map(|f| &f.witness);
            match r {
                Some(mut r) if Some(&r.witness) == first => sims[c].extend(r.sim.take()),
                _ => out.invalid.push(format!("serial runs of distinct request {c} disagree")),
            }
        }
    }
    let mut hw = HwCounters::default();
    let mut errs = Vec::new();
    for (r, repeats) in refs.iter().zip(&sims) {
        let Some(r) = r else { continue };
        let Some(sim) = &r.sim else { continue };
        hw.add(sim);
        let runs: Vec<&layers::SimResult> = std::iter::once(sim).chain(repeats).collect();
        out.sim_rates.push(layers::best_rate_mcps(&runs));
        out.sim_cycles += sim.report.cycles;
        out.energy_uj += sim.report.energy.total_pj() / 1e6;
        errs.push(ipim_core::analytic::divergence_pct(r.predicted_cycles, sim.report.cycles));
    }
    if !errs.is_empty() {
        out.analytic_err_pct = errs.iter().sum::<f64>() / errs.len() as f64;
    }
    hw.layer_metrics(&mut out.layers);
    out.layers.insert(
        "compiler.program_insts",
        refs.iter().flatten().map(|r| r.insts).sum::<usize>() as f64,
    );
    refs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence_new_seed_new_sequence() {
        assert_eq!(sequence(5), sequence(5));
        assert_ne!(sequence(5), sequence(6));
    }

    #[test]
    fn every_block_sends_every_request_once() {
        let seq = sequence(9);
        assert_eq!(seq.len(), BLOCKS * CLASSES.len());
        for block in seq.chunks(CLASSES.len()) {
            let mut b = block.to_vec();
            b.sort_unstable();
            assert_eq!(b, (0..CLASSES.len()).collect::<Vec<_>>());
        }
    }

    /// A phase that starts past the end of the sequence wraps round to
    /// its start instead of running out of requests.
    #[test]
    fn closed_loop_wraps_round_the_sequence() {
        let seq = sequence(3);
        let offset = 2 * seq.len() + 7;
        let n = seq.len() + 5;
        let (replies, _) = closed_loop(&seq, offset, Duration::ZERO, n, n, &|c, _| c.to_string());
        assert_eq!(replies.len(), n);
        let mut got: Vec<usize> = replies.iter().map(|r| r.class).collect();
        let mut want: Vec<usize> = (0..n).map(|i| seq[(offset + i) % seq.len()]).collect();
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want);
        assert!(replies.iter().all(|r| r.line == r.class.to_string()));
    }

    #[test]
    fn the_request_floor_supports_the_tail_percentile() {
        assert!(stats::samples_beyond(MIN_REQUESTS, 0.9) >= 10);
    }

    #[test]
    fn distinct_requests_are_distinct_and_small() {
        let cs = classes();
        let mut keys: Vec<u64> = cs.iter().map(SimRequest::fingerprint).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), cs.len());
        for r in cs.iter().filter(|r| r.engine != Engine::Analytic) {
            assert!((64..=96).contains(&r.width) && (32..=64).contains(&r.height), "{r:?}");
        }
    }

    #[test]
    fn witnesses_parse_done_lines_only() {
        let done = "{\"status\":\"done\",\"workload\":\"Blur\",\"cycles\":5,\"issued\":1,\
                    \"energy_pj\":1.0,\"output_width\":64,\"output_height\":32,\
                    \"output_hash\":\"00000000000000aa\",\"report_hash\":\"00000000000000bb\",\
                    \"fingerprint\":\"00000000000000cc\"}";
        let w = Witness::parse(done).unwrap();
        assert_eq!((w.workload.as_str(), w.width, w.height), ("Blur", 64, 32));
        assert!(Witness::parse("{\"status\":\"error\",\"message\":\"x\"}").is_err());
        assert!(Witness::parse("not json").is_err());
    }

    /// A reply answered as a different request is a failure even when its
    /// hashes are internally consistent.
    #[test]
    fn misattributed_replies_are_failures() {
        let classes = classes();
        let witness = |workload: &str| Witness {
            workload: workload.to_string(),
            width: 64,
            height: 32,
            output_hash: "1".into(),
            report_hash: "2".into(),
            fingerprint: "3".into(),
        };
        let reference = Reference {
            witness: witness("Brighten"),
            expected_shape: (64, 32),
            sim: None,
            predicted_cycles: 0,
            insts: 0,
        };
        let line = |w: &str| {
            format!(
                "{{\"status\":\"done\",\"workload\":\"{w}\",\"output_width\":64,\
                 \"output_height\":32,\"output_hash\":\"1\",\"report_hash\":\"2\",\
                 \"fingerprint\":\"3\"}}"
            )
        };
        let mut refs: Vec<Option<Reference>> = (0..classes.len()).map(|_| None).collect();
        refs[0] = Some(reference);
        let reply = |l: String| Reply { class: 0, latency: Duration::ZERO, line: l };
        assert!(check_reply(&reply(line("Brighten")), &classes, &refs).is_ok());
        assert!(check_reply(&reply(line("Shift")), &classes, &refs).is_err());
        assert!(
            check_reply(&Reply { class: 1, ..reply(line("Brighten")) }, &classes, &refs).is_err()
        );
    }
}
