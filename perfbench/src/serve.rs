//! The serving side: tenant models, server set-up, the single-caller
//! plan forward, the open-loop generator and the fixed rate ladder.

use crate::stats::{median, quantile_of, Summary};
use crate::trace;
use crate::Checks;
use nb_models::{mobilenet_v2_tiny, DetectorNet, TinyNet};
use nb_nn::{CompiledPlan, Module};
use nb_serve::{
    arrival_schedule, coalesce, ModelSpec, ServeConfig, Server, ServerStats, TrafficConfig,
};
use nb_tensor::Tensor;
use netbooster_core::{expand, ExpansionPlan};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Per-request sample shape.
pub const SAMPLE: [usize; 3] = [3, 32, 32];
/// Largest batch a server worker coalesces; plans compile at this batch.
pub const MAX_BATCH: usize = 8;
const PROBE: [usize; 4] = [MAX_BATCH, SAMPLE[0], SAMPLE[1], SAMPLE[2]];
/// Distinct request inputs per run, drawn from the workload seed.
const INPUT_POOL: usize = 64;
/// A ticket still unanswered this long after its phase's last arrival
/// counts as failed, and its latency is recorded as this bound.
const ANSWER_TIMEOUT: Duration = Duration::from_secs(10);
/// Responses per tenant and phase compared bitwise with a solo run.
const CHECKED_PER_TENANT: usize = 8;
/// Requests a phase needs for its p99 to have ten samples beyond it.
pub const MIN_REQUESTS: usize = 1000;

/// A served model. Every tenant is built from fixed seeds, so a recompile
/// after cache eviction reproduces the same plan bit for bit.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Tenant {
    /// The contracted MobileNetV2-Tiny, f32: the deployed artifact.
    Tiny,
    /// The same network quantized to int8 on fixed calibration inputs.
    TinyInt8,
    /// The expanded deep giant NetBooster trains.
    Giant,
    /// A MobileNetV2-Tiny backbone with a dense detection grid head.
    Detector,
}

impl Tenant {
    pub const ALL: [Tenant; 4] = [
        Tenant::Tiny,
        Tenant::TinyInt8,
        Tenant::Giant,
        Tenant::Detector,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Tenant::Tiny => "tinynet",
            Tenant::TinyInt8 => "tinynet-int8",
            Tenant::Giant => "expanded-giant",
            Tenant::Detector => "detector-grid",
        }
    }

    /// Builds the model and compiles its plan at the server's max batch.
    pub fn compile(self) -> CompiledPlan {
        match self {
            Tenant::Tiny => {
                let tiny = tiny_model();
                CompiledPlan::compile(&PROBE, |f, x| tiny.forward(f, x))
            }
            Tenant::TinyInt8 => {
                let tiny = tiny_model();
                let mut rng = StdRng::seed_from_u64(11);
                let calib: Vec<Tensor> = (0..4).map(|_| Tensor::randn(PROBE, &mut rng)).collect();
                CompiledPlan::compile_quantized(&PROBE, &calib, |f, x| tiny.forward(f, x))
            }
            Tenant::Giant => {
                let mut rng = StdRng::seed_from_u64(4);
                let mut giant = TinyNet::new(mobilenet_v2_tiny(10), &mut rng);
                expand(&mut giant, &ExpansionPlan::paper_default(), &mut rng);
                CompiledPlan::compile(&PROBE, |f, x| giant.forward(f, x))
            }
            Tenant::Detector => {
                let mut rng = StdRng::seed_from_u64(5);
                let backbone = TinyNet::new(mobilenet_v2_tiny(4), &mut rng);
                let det = DetectorNet::new(backbone, 4, &mut rng);
                CompiledPlan::compile(&PROBE, |f, x| det.forward_grid(f, x))
            }
        }
    }

    /// The server registration; the factory is wrapped in a
    /// `serve.compile` span, so every cache miss shows in the trace.
    fn spec(self) -> ModelSpec {
        ModelSpec::new(self.name(), SAMPLE, move || {
            let _span = trace::open("serve.compile", self.name(), trace::phase());
            self.compile()
        })
    }
}

fn tiny_model() -> TinyNet {
    let mut rng = StdRng::seed_from_u64(3);
    TinyNet::new(mobilenet_v2_tiny(10), &mut rng)
}

/// How one workload serves.
#[derive(Clone, Copy, Debug)]
pub struct ServeSpec {
    /// Tenants with their relative request popularity.
    pub mix: &'static [(Tenant, u32)],
    /// Plan-cache capacity in bytes.
    pub cache_bytes: usize,
    /// The fixed reference arrival rate, requests per second.
    pub ref_rate: f64,
    /// The p99 latency limit a ladder rung must meet, in ms.
    pub limit_ms: f64,
}

/// The rate ladder's first rung in requests per second, the ratio between
/// adjacent rungs, and their count: the ladder spans 200 to 2170 req/s,
/// across the knee of every workload.
const LADDER_BASE: f64 = 200.0;
const LADDER_STEP: f64 = 1.1;
const LADDER_RUNGS: usize = 26;

/// One open-loop phase's outcome.
pub struct Phase {
    pub rate: f64,
    /// Scheduled-send-to-response latency per request, ms; a failed
    /// request counts as [`ANSWER_TIMEOUT`].
    pub lat_ms: Vec<f64>,
    /// Actual minus scheduled send time per request, ms.
    pub lag_ms: Vec<f64>,
    pub sent: u64,
    pub ok: u64,
    pub failed: u64,
    /// Median latencies of the first and the last quarter of requests,
    /// in ms; a growing backlog shows as the second far above the first.
    pub quarters_ms: (f64, f64),
    pub before: ServerStats,
    pub after: ServerStats,
}

impl Phase {
    pub fn latency(&self) -> Summary {
        Summary::of(&self.lat_ms)
    }

    /// Whether the generator kept to the schedule: its p90 lateness stays
    /// below the phase's median latency.
    pub fn sustained(&self) -> bool {
        quantile_of(&self.lag_ms, 0.9) < self.latency().p50
    }

    /// Whether the backlog grew over the phase: the last quarter's median
    /// latency is above both twice the first quarter's and half the limit.
    pub fn backlog_growing(&self, limit_ms: f64) -> bool {
        let (first, last) = self.quarters_ms;
        last > (2.0 * first).max(limit_ms / 2.0)
    }

    /// Whether the rate meets the workload's limit: nothing failed, the
    /// p99 is within `limit_ms`, no backlog built up, and the generator
    /// kept up.
    pub fn passes(&self, limit_ms: f64) -> bool {
        self.failed == 0
            && quantile_of(&self.lat_ms, 0.99) <= limit_ms
            && !self.backlog_growing(limit_ms)
            && self.sustained()
    }
}

static NEXT_REQ: AtomicU64 = AtomicU64::new(1);

/// A running server with its inputs and the solo plans its responses are
/// checked against.
pub struct Rig {
    spec: ServeSpec,
    pub server: Server,
    inputs: Vec<Tensor>,
    /// One separately compiled plan per tenant in the mix.
    solo: Vec<(Tenant, CompiledPlan)>,
    expected: HashMap<(usize, usize), Tensor>,
}

impl Rig {
    /// Builds inputs and solo plans, starts the server and warms every
    /// tenant on every worker at batch 1 and at the max batch.
    pub fn setup(spec: ServeSpec, workers: usize, seed: u64) -> Rig {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x1f7a_55c3);
        let inputs: Vec<Tensor> = (0..INPUT_POOL)
            .map(|_| Tensor::randn(SAMPLE, &mut rng))
            .collect();
        let solo = spec.mix.iter().map(|&(t, _)| (t, t.compile())).collect();
        let cfg = ServeConfig {
            workers,
            max_batch: MAX_BATCH,
            queue_cap: 1 << 16,
            cache_bytes: spec.cache_bytes,
        };
        let server = Server::start(cfg, spec.mix.iter().map(|&(t, _)| t.spec()).collect());
        for &(t, _) in spec.mix {
            for burst in [1, MAX_BATCH * workers] {
                let tickets: Vec<_> = (0..burst)
                    .filter_map(|i| server.submit(t.name(), inputs[i % INPUT_POOL].clone()).ok())
                    .collect();
                for ticket in tickets {
                    black_box(ticket.wait_timeout(ANSWER_TIMEOUT));
                }
            }
        }
        Rig {
            spec,
            server,
            inputs,
            solo,
            expected: HashMap::new(),
        }
    }

    /// Batch-1 forwards of the tiny plan through `run_in` on a warm arena,
    /// one caller, for `budget`; returns each call's time in µs.
    pub fn closed_loop_b1(&self, budget: Duration, parent: u64) -> Vec<f64> {
        let plan = &self
            .solo
            .iter()
            .find(|(t, _)| *t == Tenant::Tiny)
            .expect("every workload serves the tiny net")
            .1;
        let x = coalesce(&self.inputs[..1]);
        let mut arena = plan.new_arena();
        for _ in 0..20 {
            black_box(plan.run_in(&mut arena, &x));
        }
        let mut us = Vec::new();
        let start = Instant::now();
        while start.elapsed() < budget || us.len() < 100 {
            let t = Instant::now();
            black_box(plan.run_in(&mut arena, &x));
            let end = Instant::now();
            trace::record("infer.run_in", "tinynet", parent, None, t, end);
            us.push(end.duration_since(t).as_secs_f64() * 1e6);
        }
        us
    }

    /// Replays a seeded open-loop schedule of `n` arrivals at `rate` and
    /// waits for every answer. Latency runs from each request's scheduled
    /// send time. A sample of responses per tenant is checked bitwise
    /// against a solo run of the same plan.
    pub fn open_loop(
        &mut self,
        rate: f64,
        n: usize,
        seed: u64,
        parent: u64,
        checks: &mut Checks,
    ) -> Phase {
        let schedule = arrival_schedule(&TrafficConfig::poisson_bursty(n, rate, seed));
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9d2c_5680);
        let total: u32 = self.spec.mix.iter().map(|&(_, w)| w).sum();
        let picks: Vec<(usize, usize)> = (0..n)
            .map(|_| {
                let mut r = rng.gen_range(0..total);
                let tenant = self
                    .spec
                    .mix
                    .iter()
                    .position(|&(_, w)| {
                        let hit = r < w;
                        r = r.saturating_sub(w);
                        hit
                    })
                    .expect("weighted pick");
                (tenant, rng.gen_range(0..INPUT_POOL))
            })
            .collect();

        let before = self.server.stats();
        // in arrival order; failed requests keep the timeout
        let mut lat_ms = vec![ms(ANSWER_TIMEOUT); n];
        let mut lag_ms = Vec::with_capacity(n);
        let mut failed = 0u64;
        let mut pending = Vec::with_capacity(n);
        let start = Instant::now();
        for (i, (off, &(ti, xi))) in schedule.iter().zip(&picks).enumerate() {
            let due = start + *off;
            sleep_until(due);
            let sent = Instant::now();
            let req = NEXT_REQ.fetch_add(1, Ordering::Relaxed);
            let name = self.spec.mix[ti].0.name();
            lag_ms.push(sent.duration_since(due).as_secs_f64() * 1e3);
            trace::record("serve.gen_lag", name, parent, Some(req), due, sent);
            let result = self.server.submit(name, self.inputs[xi].clone());
            trace::record(
                "serve.submit",
                name,
                parent,
                Some(req),
                sent,
                Instant::now(),
            );
            match result {
                Ok(ticket) => pending.push((i, req, ti, xi, due, ticket)),
                Err(_) => failed += 1,
            }
        }
        let deadline = start + *schedule.last().unwrap_or(&Duration::ZERO) + ANSWER_TIMEOUT;
        let mut checked = vec![0usize; self.spec.mix.len()];
        let mut samples = Vec::new();
        for (i, req, ti, xi, due, ticket) in pending {
            match ticket.wait_timeout(deadline.saturating_duration_since(Instant::now())) {
                Some(resp) => {
                    if ticket.wait_timeout(Duration::ZERO).is_some() {
                        checks.fail(format!("request {req} was answered twice"));
                    }
                    lat_ms[i] = resp.finished.duration_since(due).as_secs_f64() * 1e3;
                    let name = self.spec.mix[ti].0.name();
                    trace::record("serve.request", name, parent, Some(req), due, resp.finished);
                    if checked[ti] < CHECKED_PER_TENANT {
                        checked[ti] += 1;
                        samples.push((ti, xi, resp.output));
                    }
                }
                None => failed += 1,
            }
        }
        let after = self.server.stats();
        for (ti, xi, output) in samples {
            self.check_solo(ti, xi, &output, checks);
        }
        let quarter = (lat_ms.len() / 4).max(1);
        Phase {
            rate,
            sent: n as u64,
            ok: n as u64 - failed,
            failed,
            quarters_ms: (
                median(&lat_ms[..quarter]),
                median(&lat_ms[lat_ms.len() - quarter..]),
            ),
            lat_ms,
            lag_ms,
            before,
            after,
        }
    }

    /// Drain contract: every request the server accepted is answered, at
    /// the latest [`ANSWER_TIMEOUT`] from now.
    pub fn check_drained(&self, checks: &mut Checks) {
        checks.count();
        let deadline = Instant::now() + ANSWER_TIMEOUT;
        loop {
            let stats = self.server.stats();
            if stats.accepted == stats.completed {
                return;
            }
            if Instant::now() >= deadline {
                checks.fail(format!(
                    "server accepted {} requests but answered {}",
                    stats.accepted, stats.completed
                ));
                return;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Batch invariance: a served response must equal, bit for bit, a
    /// batch-1 solo run of the tenant's separately compiled plan.
    fn check_solo(&mut self, ti: usize, xi: usize, output: &Tensor, checks: &mut Checks) {
        let (tenant, plan) = &self.solo[ti];
        let input = &self.inputs[xi];
        let expected = self
            .expected
            .entry((ti, xi))
            .or_insert_with(|| plan.run(&coalesce(std::slice::from_ref(input))));
        checks.count();
        let same = expected.dims() == output.dims()
            && expected
                .as_slice()
                .iter()
                .zip(output.as_slice())
                .all(|(a, b)| a.to_bits() == b.to_bits());
        if !same {
            checks.fail(format!(
                "{}: served response for input {xi} differs from a solo run",
                tenant.name()
            ));
        }
    }
}

/// Adaptive staircase on the fixed rate ladder. It starts at the middle
/// rung with a step of a quarter of the ladder; a passing probe moves up
/// and a failing one down, and every reversal halves the step, down to one
/// rung. From then on the probes oscillate about the rung a probe passes
/// half the time, and the result is the geometric mean of the rates
/// probed there. Unlike a binary search, where one probe slowed by the host
/// decides the result, a wrong turn is walked back.
pub struct LadderSearch {
    rates: Vec<f64>,
    rung: usize,
    step: usize,
    last: Option<bool>,
    /// Rates probed once the step was one rung.
    settled: Vec<f64>,
}

impl LadderSearch {
    pub fn new() -> Self {
        LadderSearch {
            rates: (0..LADDER_RUNGS)
                .map(|i| LADDER_BASE * LADDER_STEP.powi(i as i32))
                .collect(),
            rung: LADDER_RUNGS / 2,
            step: LADDER_RUNGS / 4,
            last: None,
            settled: Vec::new(),
        }
    }

    /// The rate to probe next.
    pub fn next(&self) -> f64 {
        self.rates[self.rung]
    }

    pub fn record(&mut self, passed: bool) {
        if self.step == 1 {
            self.settled.push(self.rates[self.rung]);
        }
        if self.last.is_some_and(|last| last != passed) {
            self.step = (self.step / 2).max(1);
        }
        self.last = Some(passed);
        self.rung = if passed {
            (self.rung + self.step).min(self.rates.len() - 1)
        } else {
            self.rung.saturating_sub(self.step)
        };
    }

    /// The geometric mean of the settled probes' rates and their count;
    /// 0 if the step never reached one rung.
    pub fn max_rps(&self) -> (f64, usize) {
        let n = self.settled.len();
        let log_mean = self.settled.iter().map(|r| r.ln()).sum::<f64>() / n.max(1) as f64;
        (if n == 0 { 0.0 } else { log_mean.exp() }, n)
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Waits for `target`: sleeps while it is more than [`SPIN`] away, then
/// spins, which absorbs timer slack without taking a core from the server
/// workers for long.
fn sleep_until(target: Instant) {
    loop {
        let now = Instant::now();
        if now >= target {
            return;
        }
        if target - now > SPIN {
            std::thread::sleep(target - now - SPIN);
        } else {
            std::hint::spin_loop();
        }
    }
}

/// How long before a send the generator stops sleeping and spins.
const SPIN: Duration = Duration::from_micros(200);
