//! One measured run of a workload, and the metrics drawn from it.
//!
//! A run makes [`ROUNDS`] rounds. Each round sets up from scratch (its
//! time is one `setup_s` sample), then runs a slice of batch-1 plan
//! forwards, a slice of open-loop serving at the reference rate and one
//! probe of the rate-ladder staircase; every third round adds one training
//! pipeline. Spreading every part over the whole run in short
//! slices makes each metric sample the same stretches of host time, which
//! keeps them steady on a host whose speed changes from one second to the
//! next. In a traced run, odd rounds record spans and even ones do not, so
//! the tracing overhead compares interleaved halves.

use crate::serve::{LadderSearch, Phase, Rig, MIN_REQUESTS};
use crate::stats::{median, quantile_of, Summary};
use crate::{probes, trace, train, Checks, Metric, Workload};
use std::time::{Duration, Instant};

/// Rounds per run, each with one ladder probe: the staircase needs about
/// six probes to narrow its step to one rung, which leaves about twelve to
/// average. Every third round trains; those fall alternately in odd and
/// even rounds.
const ROUNDS: usize = 18;
/// Fractions of `--seconds` spent, over the whole run, in batch-1
/// forwards, in reference-rate serving and in ladder probes. Training runs
/// `ROUNDS / 3` pipelines whatever their length. The reference phases
/// together, and every ladder probe, have at least [`MIN_REQUESTS`]
/// arrivals.
const B1_SHARE: f64 = 0.05;
const REFERENCE_SHARE: f64 = 0.2;
const PROBE_SHARE: f64 = 0.4;

/// Samples of the untraced or of the traced half of a run.
#[derive(Default)]
pub struct Samples {
    setup_s: Vec<f64>,
    /// Batch-1 call times per round, µs.
    b1_us: Vec<Vec<f64>>,
    reference: Vec<Phase>,
    pipelines: Vec<train::Run>,
}

/// Everything a run measured.
pub struct Outcome {
    pub plain: Samples,
    pub traced: Samples,
    pub max_rps: f64,
    /// Ladder probes behind `max_rps`.
    pub settled_probes: usize,
    pub rungs: Vec<Phase>,
}

impl Outcome {
    fn references(&self) -> impl Iterator<Item = &Phase> {
        self.plain.reference.iter().chain(&self.traced.reference)
    }

    /// Requests sent, answered and failed over all serving phases.
    fn served(&self) -> [u64; 3] {
        totals(self.references().chain(&self.rungs))
    }

    /// Latency at the reference rate, pooled over every reference request
    /// of the run, traced or not, so that even a traced run has the 1000
    /// requests a p99 needs. A per-layer figure: on a host that stalls for
    /// milliseconds it does not repeat closely enough between runs to carry
    /// a bound.
    pub fn latency(&self, wl: &Workload) -> Vec<Metric> {
        let lat: Vec<f64> = self
            .references()
            .flat_map(|p| p.lat_ms.iter().copied())
            .collect();
        let lag: Vec<f64> = self
            .references()
            .flat_map(|p| p.lag_ms.iter().copied())
            .collect();
        let at = format!(
            "at {} req/s; generator lag p90 {:.3} ms",
            wl.serve.ref_rate,
            quantile_of(&lag, 0.9)
        );
        vec![
            Metric::new("serve.p50_ms", "ms", quantile_of(&lat, 0.5), lat.len()).with(&at),
            Metric::new("serve.p99_ms", "ms", quantile_of(&lat, 0.99), lat.len()).with(&at),
        ]
    }

    /// Operations attempted and failed, for the result line.
    pub fn attempted_failed(&self) -> (u64, u64) {
        let [sent, _, failed] = self.served();
        let other: usize = [&self.plain, &self.traced]
            .iter()
            .map(|s| s.b1_us.iter().map(Vec::len).sum::<usize>() + s.pipelines.len())
            .sum();
        (sent + other as u64, failed)
    }
}

/// Runs `wl` for about `seconds`; `trace` records spans in odd rounds.
pub fn run(
    wl: &Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    process_start: Instant,
    checks: &mut Checks,
) -> Outcome {
    let per_round = |share: f64| Duration::from_secs_f64(share * seconds / ROUNDS as f64);
    let traced_round = |i: usize| trace && i % 2 == 1;
    let mut plain = Samples::default();
    let mut traced = Samples::default();

    // Enough reference requests for the pooled p99 to have ten samples
    // beyond it.
    let ref_n = ((wl.serve.ref_rate * per_round(REFERENCE_SHARE).as_secs_f64()) as usize)
        .max(MIN_REQUESTS.div_ceil(ROUNDS));
    let mut search = LadderSearch::new();
    let mut rungs = Vec::new();
    for round in 0..ROUNDS {
        trace::enable(traced_round(round));
        let samples = if traced_round(round) {
            &mut traced
        } else {
            &mut plain
        };
        // Set-up: inputs, training data, solo plans, server start,
        // warm-up. The first counts from process start.
        let start = if round == 0 {
            process_start
        } else {
            Instant::now()
        };
        let setup = trace::open_phase("setup", "");
        let (train_set, val_set) = train::data(seed);
        let mut rig = Rig::setup(wl.serve, crate::SERVER_WORKERS, seed);
        drop(setup);
        samples.setup_s.push(start.elapsed().as_secs_f64());

        let round_seed = seed ^ ((round as u64) << 40);
        let span = trace::open_phase("round", "");
        let id = span.id();
        samples
            .b1_us
            .push(rig.closed_loop_b1(per_round(B1_SHARE), id));
        samples
            .reference
            .push(rig.open_loop(wl.serve.ref_rate, ref_n, round_seed, id, checks));
        let rate = search.next();
        let n = ((rate * per_round(PROBE_SHARE).as_secs_f64()) as usize).max(MIN_REQUESTS);
        let probe = trace::open("serve.ladder_rung", "", id);
        let phase = rig.open_loop(rate, n, round_seed ^ 0x1add, probe.id(), checks);
        drop(probe);
        search.record(phase.passes(wl.serve.limit_ms));
        rungs.push(phase);
        if round % 3 == 2 {
            let pipeline = trace::open("train.pipeline", "", id);
            samples.pipelines.push(train::pipeline(
                seed,
                &train_set,
                &val_set,
                pipeline.id(),
                checks,
            ));
            drop(pipeline);
        }
        drop(span);
        trace::enable(false);
        rig.check_drained(checks);
        drop(rig);
        let reference = samples.reference.last().expect("pushed");
        let b1 = samples.b1_us.last().expect("pushed");
        println!(
            "round {round}{}: b1 p50 {:.1} us, fastest {:.1} us; reference p50 {:.3} ms, \
             gen lag p90 {:.3} ms{}; last pipeline {:.3} s; peak rss {:.1} MB",
            if traced_round(round) { " (traced)" } else { "" },
            median(b1),
            min(b1),
            median(&reference.lat_ms),
            quantile_of(&reference.lag_ms, 0.9),
            if reference.sustained() {
                ""
            } else {
                " (not sustained)"
            },
            samples.pipelines.last().map_or(0.0, |p| p.wall_s),
            crate::peak_rss_mb(),
        );
    }

    let all: Vec<&train::Run> = plain.pipelines.iter().chain(&traced.pipelines).collect();
    check_losses(&all, checks);

    for rung in &rungs {
        let lat = rung.latency();
        println!(
            "ladder {:>8.1} req/s: {} requests, p50 {:.3} ms, {} {:.3} ms, \
             quarter medians {:.3}/{:.3} ms, gen lag p90 {:.3} ms: {}{}",
            rung.rate,
            lat.n,
            lat.p50,
            lat.tail_label(),
            lat.tail,
            rung.quarters_ms.0,
            rung.quarters_ms.1,
            quantile_of(&rung.lag_ms, 0.9),
            if rung.passes(wl.serve.limit_ms) {
                "passes"
            } else {
                "fails"
            },
            if rung.sustained() {
                ""
            } else {
                " (not sustained)"
            },
        );
    }
    let (max_rps, settled_probes) = search.max_rps();
    let out = Outcome {
        plain,
        traced,
        max_rps,
        settled_probes,
        rungs,
    };
    for (name, counts) in [
        ("reference", totals(out.references())),
        ("ladder", totals(out.rungs.iter())),
    ] {
        let [sent, ok, failed] = counts;
        println!("{name} phases: {sent} sent, {ok} ok, {failed} failed");
    }
    out
}

/// Requests sent, answered and failed over `phases`.
fn totals<'a>(phases: impl Iterator<Item = &'a Phase>) -> [u64; 3] {
    phases.fold([0; 3], |[s, o, f], p| [s + p.sent, o + p.ok, f + p.failed])
}

fn min(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Training losses are finite and repeat, bit for bit, for the seed.
fn check_losses(runs: &[&train::Run], checks: &mut Checks) {
    checks.count();
    let first = &runs[0].losses;
    if first.iter().any(|l| !l.is_finite()) {
        checks.fail(format!("non-finite training loss: {first:?}"));
    }
    for run in &runs[1..] {
        let same = run.losses.len() == first.len()
            && run
                .losses
                .iter()
                .zip(first)
                .all(|(a, b)| a.to_bits() == b.to_bits());
        if !same {
            checks.fail(format!(
                "training losses differ between runs of one seed: {first:?} vs {:?}",
                run.losses
            ));
        }
    }
}

impl Samples {
    /// The end-to-end metrics of these samples; `max_rps` and `rss_mb`
    /// belong to the whole run.
    pub fn e2e(&self, wl: &Workload, max_rps: f64, probes: usize, rss_mb: f64) -> Vec<Metric> {
        let walls: Vec<f64> = self.pipelines.iter().map(|r| r.wall_s).collect();
        let rates: Vec<f64> = self
            .pipelines
            .iter()
            .map(|r| r.samples as f64 / r.wall_s)
            .collect();
        let calls: Vec<f64> = self.b1_us.concat();
        let b1 = Summary::of(&calls);
        // The host switches between a fast and a ~2x slower speed every
        // second or so. A median over all calls jumps between the two as
        // their mix nears half and half; the mean over rounds of each
        // round's median moves in proportion to the mix instead.
        let round_p50: Vec<f64> = self.b1_us.iter().map(|v| median(v)).collect();
        let b1_us = round_p50.iter().sum::<f64>() / round_p50.len().max(1) as f64;
        vec![
            Metric::new("setup_s", "s", median(&self.setup_s), self.setup_s.len()),
            Metric::new("peak_rss_mb", "MB", rss_mb, 1),
            Metric::new("infer.b1_us", "us", b1_us, b1.n).with(&format!(
                "mean of {} round medians; per call p50 {:.1}, {} {:.1}, fastest {:.1}",
                round_p50.len(),
                b1.p50,
                b1.tail_label(),
                b1.tail,
                min(&calls)
            )),
            Metric::new("serve.max_rps", "1/s", max_rps, probes).with(&format!(
                "geometric mean of the settled staircase probes; p99 limit {} ms",
                wl.serve.limit_ms
            )),
            Metric::new("train.samples_per_s", "1/s", median(&rates), rates.len()),
            Metric::new("train.pipeline_s", "s", median(&walls), walls.len()),
        ]
    }
}

/// Per-layer metrics: the run's reference-rate latency, the traced half's
/// counters and spans, and the standalone probes.
pub fn per_layer(
    wl: &Workload,
    out: &Outcome,
    spans: &[trace::Span],
    plans: &[probes::PlanProbe],
    (coalesce_us, split_us): ([f64; 2], [f64; 2]),
    loader_ms: &[f64],
    kernels: &probes::KernelTable,
) -> Vec<Metric> {
    let ms_of = |name: &str| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ms())
            .collect()
    };
    let traced = &out.traced;
    let delta = |f: fn(&nb_serve::ServerStats) -> u64| -> u64 {
        traced
            .reference
            .iter()
            .map(|p| f(&p.after) - f(&p.before))
            .sum()
    };
    let completed = delta(|s| s.completed);
    let batches = delta(|s| s.batches);
    let hits = delta(|s| s.cache.hits);
    let misses = delta(|s| s.cache.misses);
    let submit = ms_of("serve.submit");
    let lag = ms_of("serve.gen_lag");
    let compile = ms_of("serve.compile");
    let step = ms_of("train.step");
    let eval = ms_of("train.eval");
    let reps = traced.pipelines.len();
    let [sent, ok, failed] = out.served();
    let q = |name: &str, unit: &'static str, v: &[f64], q: f64, scale: f64| {
        Metric::new(name, unit, quantile_of(v, q) * scale, v.len())
    };
    let count = |name: &str, v: u64| Metric::new(name, "count", v as f64, 1);
    let mut m = out.latency(wl);
    m.extend([
        Metric::new(
            "serve.batch_occupancy",
            "ratio",
            completed as f64 / batches.max(1) as f64,
            batches as usize,
        ),
        q("serve.submit_us.p50", "us", &submit, 0.5, 1e3),
        q("serve.submit_us.p99", "us", &submit, 0.99, 1e3),
        Metric::new(
            "serve.cache.hit_ratio",
            "ratio",
            hits as f64 / (hits + misses).max(1) as f64,
            (hits + misses) as usize,
        ),
        count("serve.cache.misses", misses),
        count("serve.cache.evictions", delta(|s| s.cache.evictions)),
        count("serve.compile_ms.count", compile.len() as u64),
        q("serve.compile_ms.p50", "ms", &compile, 0.5, 1.0),
        q("serve.compile_ms.max", "ms", &compile, 1.0, 1.0),
        q("serve.gen_lag_ms.p99", "ms", &lag, 0.99, 1.0),
        q("serve.gen_lag_ms.max", "ms", &lag, 1.0, 1.0),
        count("serve.sent", sent),
        count("serve.ok", ok),
        count("serve.failed", failed),
        q("train.step_ms.p50", "ms", &step, 0.5, 1.0),
        q("train.step_ms.p90", "ms", &step, 0.9, 1.0),
        q("train.fwd_ms", "ms", &ms_of("train.fwd"), 0.5, 1.0),
        q("train.rest_ms", "ms", &ms_of("train.rest"), 0.5, 1.0),
        count("train.eval_ms.count", eval.len() as u64),
        q("train.eval_ms.p50", "ms", &eval, 0.5, 1.0),
        Metric::new(
            "train.phase.giant_s",
            "s",
            median(&ms_of("train.phase.giant")) / 1e3,
            reps,
        ),
        Metric::new(
            "train.phase.plt_finetune_s",
            "s",
            median(&ms_of("train.phase.plt_finetune")) / 1e3,
            reps,
        ),
        Metric::new(
            "train.phase.eval_s",
            "s",
            eval.iter().sum::<f64>() / 1e3 / reps.max(1) as f64,
            reps,
        ),
        count(
            "train.steps",
            traced.pipelines.first().map_or(0, |r| r.steps) as u64,
        ),
        Metric::new(
            "train.final_loss",
            "nats",
            traced
                .pipelines
                .first()
                .and_then(|r| r.losses.last())
                .map_or(0.0, |&l| f64::from(l)),
            reps,
        ),
        q("data.batch_ms", "ms", loader_ms, 0.5, 1.0),
    ]);
    for (i, b) in probes::BATCHES.iter().enumerate() {
        m.push(Metric::new(
            format!("batcher.coalesce_us.b{b}"),
            "us",
            coalesce_us[i],
            1,
        ));
        m.push(Metric::new(
            format!("batcher.split_us.b{b}"),
            "us",
            split_us[i],
            1,
        ));
    }
    for p in plans {
        let t = p.tenant.name();
        for (i, b) in probes::BATCHES.iter().enumerate() {
            m.push(Metric::new(
                format!("plan.{t}.b{b}_us"),
                "us",
                p.run_us[i],
                1,
            ));
        }
        m.push(Metric::new(
            format!("plan.{t}.compile_ms"),
            "ms",
            p.compile_ms,
            3,
        ));
        m.push(Metric::new(
            format!("plan.{t}.arena_bytes"),
            "bytes",
            p.arena_bytes as f64,
            1,
        ));
        m.push(Metric::new(
            format!("plan.{t}.packed_bytes"),
            "bytes",
            p.packed_bytes as f64,
            1,
        ));
    }
    for (tenant, tags) in probes::KERNEL_TAGS {
        let t = tenant.name();
        for b in probes::BATCHES {
            let entry = kernels.get(&(t, b));
            let total = entry.map_or(0.0, |(_, total)| *total);
            m.push(Metric::new(
                format!("kernel.{t}.b{b}.total_us"),
                "us",
                total,
                1,
            ));
            for tag in tags {
                let us = entry.and_then(|(tags, _)| tags.get(*tag)).copied();
                m.push(Metric::new(
                    format!("kernel.{t}.b{b}.{tag}.us"),
                    "us",
                    us.unwrap_or(0.0),
                    1,
                ));
            }
        }
    }
    m
}
