//! The repository benchmark: both users of a boosted tiny net, measured
//! end to end and layer by layer.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload <serve-tiny|serve-mixed> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload sets up, then runs batch-1 plan forwards, open-loop
//! serving at a fixed reference rate, a search of a fixed rate ladder and
//! the NetBooster training pipeline, in interleaved rounds (see `run.rs`).
//! The workloads differ in tenants, plan cache, reference rate and latency
//! limit; `README.md` says why each exists and which end-to-end metric
//! each per-layer metric should move.
//! Outputs are checked. The last stdout line is one JSON object with the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics and tracing
//! overhead (`--trace 1`). The process exits non-zero only when a
//! correctness check fails or the arguments are bad.

mod probes;
mod run;
mod serve;
mod stats;
mod trace;
mod train;

use serve::{ServeSpec, Tenant};
use std::time::{Duration, Instant};

/// A workload is a serving set-up; every workload also trains the same
/// pipeline, since the result line carries every end-to-end metric.
pub struct Workload {
    name: &'static str,
    serve: ServeSpec,
}

/// Kernel pool width (`NB_NUM_THREADS`) of every workload: one, so that
/// the server worker and the load generator each keep a core. PLT and
/// finetuning therefore run single-threaded.
const POOL_WIDTH: usize = 1;
/// Server workers. The load generator needs a core of its own: with one
/// worker per core, a burst left three threads runnable on two cores and
/// the scheduler stalled the generator or a worker for milliseconds.
pub const SERVER_WORKERS: usize = 1;

const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "serve-tiny",
        serve: ServeSpec {
            mix: &[(Tenant::Tiny, 1)],
            cache_bytes: usize::MAX,
            ref_rate: 200.0,
            limit_ms: 50.0,
        },
    },
    Workload {
        name: "serve-mixed",
        serve: ServeSpec {
            mix: &[
                (Tenant::Tiny, 16),
                (Tenant::TinyInt8, 8),
                (Tenant::Detector, 4),
                (Tenant::Giant, 1),
            ],
            // below the four plans' combined cost (~2.5 MB): any three fit
            cache_bytes: 2_200_000,
            ref_rate: 100.0,
            limit_ms: 200.0,
        },
    },
];

/// Machine parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Correctness checks made and failed.
#[derive(Default)]
pub struct Checks {
    pub made: usize,
    pub failures: Vec<String>,
}

impl Checks {
    pub fn count(&mut self) {
        self.made += 1;
    }

    pub fn fail(&mut self, msg: String) {
        eprintln!("CHECK FAILED: {msg}");
        self.failures.push(msg);
    }
}

/// One reported metric.
pub struct Metric {
    name: String,
    unit: &'static str,
    value: f64,
    /// Samples behind the value.
    n: usize,
    detail: String,
}

impl Metric {
    fn new(name: impl Into<String>, unit: &'static str, value: f64, n: usize) -> Metric {
        Metric {
            name: name.into(),
            unit,
            value,
            n,
            detail: String::new(),
        }
    }

    fn with(self, detail: &str) -> Metric {
        Metric {
            detail: detail.to_string(),
            ..self
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    kernel_profile: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        kernel_profile: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--kernel-profile" {
            args.kernel_profile = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad)?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad)?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad)? != 0,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn main() {
    let process_start = Instant::now();
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        eprintln!(
            "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
            WORKLOADS.map(|w| w.name).join("|")
        );
        std::process::exit(2);
    });
    single_malloc_arena();
    // Every compile picks the same kernels, so a served response can be
    // compared bit for bit with a separately compiled solo plan.
    std::env::set_var("NB_AUTOTUNE", "off");
    if args.kernel_profile {
        probes::kernel_profile_child(args.seed);
        return;
    }
    let Some(wl) = WORKLOADS.iter().find(|w| w.name == args.workload) else {
        eprintln!("perfbench: unknown workload {:?}", args.workload);
        std::process::exit(2);
    };
    // Before anything touches the kernel pool: it reads its width once.
    std::env::set_var("NB_NUM_THREADS", POOL_WIDTH.to_string());
    trace::epoch();

    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        wl.name, args.seed, args.seconds, args.trace as u8
    );
    println!("{}", environment());
    let mut checks = Checks::default();
    let out = run::run(
        wl,
        args.seed,
        args.seconds,
        args.trace,
        process_start,
        &mut checks,
    );
    let probes = out.settled_probes;
    let metrics = if args.trace {
        traced_metrics(wl, &args, &out, &mut checks)
    } else {
        let e2e = out.plain.e2e(wl, out.max_rps, probes, peak_rss_mb());
        print_table("end-to-end", &e2e);
        print_table(
            "reference-rate latency (per-layer, no bound)",
            &out.latency(wl),
        );
        e2e
    };
    let (attempted, failed) = out.attempted_failed();
    let correct = checks.failures.is_empty();
    println!(
        "checks: {} made, {} failed{}",
        checks.made,
        checks.failures.len(),
        checks
            .failures
            .iter()
            .map(|f| format!("\n  FAILED {f}"))
            .collect::<String>()
    );
    println!("{}", result_json(correct, attempted, failed, &metrics));
    if !correct {
        std::process::exit(1);
    }
}

/// The traced run's result: per-layer metrics from the traced half and the
/// standalone probes, plus the tracing overhead (traced half minus
/// untraced half) of every end-to-end metric that splits into halves.
fn traced_metrics(
    wl: &Workload,
    args: &Args,
    out: &run::Outcome,
    checks: &mut Checks,
) -> Vec<Metric> {
    trace::enable(true);
    let budget = Duration::from_secs_f64((0.01 * args.seconds).max(0.1));
    let plans = probes::plans(budget, args.seed);
    let batcher = probes::batcher(args.seed);
    let (train_set, _) = train::data(args.seed);
    let loader = train::loader_batch_ms(args.seed, &train_set);
    trace::enable(false);
    let kernels = probes::kernels(args.seed).unwrap_or_else(|e| {
        checks.fail(format!("kernel profile: {e}"));
        Default::default()
    });
    let spans = trace::take();

    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{}-seed{}.json", wl.name, args.seed));
    let written = std::fs::create_dir_all(path.parent().expect("out dir"))
        .and_then(|_| std::fs::write(&path, trace::chrome_json(&spans)));
    match written {
        Ok(()) => println!("trace: {} spans written to {}", spans.len(), path.display()),
        Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
    }

    // The span buffer is tracing's own memory; peak RSS and the ladder
    // search belong to the whole run and do not split into halves.
    let span_mb = (spans.capacity() * std::mem::size_of::<trace::Span>()) as f64 / (1 << 20) as f64;
    let probes = out.settled_probes;
    let plain = out.plain.e2e(wl, out.max_rps, probes, peak_rss_mb());
    let traced = out
        .traced
        .e2e(wl, out.max_rps, probes, peak_rss_mb() + span_mb);
    print_table("end-to-end (untraced half)", &plain);
    print_table("end-to-end (traced half)", &traced);
    let mut layer = run::per_layer(wl, out, &spans, &plans, batcher, &loader, &kernels);
    for (t, p) in traced.iter().zip(&plain) {
        if t.name == "serve.max_rps" {
            continue;
        }
        layer.push(
            Metric::new(
                format!("trace_overhead.{}", t.name),
                t.unit,
                t.value - p.value,
                1,
            )
            .with(&format!("traced {:.4} - untraced {:.4}", t.value, p.value)),
        );
    }
    print_table("per-layer (traced half)", &layer);
    print_kernel_shares(&kernels);
    layer
}

fn print_kernel_shares(kernels: &probes::KernelTable) {
    println!("kernel shares (NB_PLAN_PROFILE=1 replay, median per tag):");
    for ((tenant, batch), (tags, total)) in kernels {
        let row: Vec<String> = tags
            .iter()
            .map(|(tag, us)| format!("{tag} {us:.1} us {:.1}%", 100.0 * us / total.max(1e-9)))
            .collect();
        println!(
            "  {tenant} b{batch}: total {total:.1} us | {}",
            row.join(" | ")
        );
    }
}

fn print_table(title: &str, metrics: &[Metric]) {
    println!("{title}:");
    println!(
        "  {:<38} {:>14} {:<6} {:>7}  detail",
        "metric", "value", "unit", "n"
    );
    for m in metrics {
        println!(
            "  {:<38} {:>14.4} {:<6} {:>7}  {}",
            m.name, m.value, m.unit, m.n, m.detail
        );
    }
}

fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        body.join(", ")
    )
}

/// Makes glibc serve every thread from one malloc arena. With one arena
/// per thread (the default), `VmHWM` depended on which threads happened to
/// allocate where and varied by a third between runs of one seed; with
/// one, it follows the live memory the program holds.
fn single_malloc_arena() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        const M_ARENA_MAX: i32 = -8;
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        // SAFETY: mallopt only changes allocator tuning; it runs before
        // this process starts any thread.
        unsafe {
            mallopt(M_ARENA_MAX, 1);
        }
    }
}

/// `VmHWM` of this process, in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The run environment line.
fn environment() -> String {
    let avx2 = {
        #[cfg(target_arch = "x86_64")]
        {
            std::arch::is_x86_feature_detected!("avx2")
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            false
        }
    };
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "env: nproc={} pool_width={} server_workers={} avx2={avx2} \
         profile={profile} commit={}",
        nproc(),
        nb_tensor::num_threads(),
        SERVER_WORKERS,
        commit().unwrap_or_else(|| "unknown".into())
    )
}

/// The checked-out commit, when run from a git work tree.
fn commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .ok()
            .map(|s| s.trim().to_string()),
        None => Some(head.to_string()),
    }
}
