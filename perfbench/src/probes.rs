//! Standalone per-layer probes of the traced run: each tenant's plan, the
//! batcher, and the per-kernel breakdown of `NB_PLAN_PROFILE=1`.

use crate::serve::{Tenant, MAX_BATCH, SAMPLE};
use crate::stats::median;
use crate::trace;
use nb_serve::{coalesce, split_batch};
use nb_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Kernel tags reported per tenant: the tags its plan holds today.
pub const KERNEL_TAGS: [(Tenant, &[&str]); 4] = [
    (
        Tenant::Tiny,
        &["fused", "conv", "depthwise", "add", "gap", "linear"],
    ),
    (
        Tenant::TinyInt8,
        &[
            "fused",
            "qfused",
            "qdepthwise",
            "conv",
            "add",
            "gap",
            "linear",
        ],
    ),
    (
        Tenant::Giant,
        &[
            "fused",
            "conv",
            "depthwise",
            "bn",
            "relu6",
            "add",
            "gap",
            "linear",
        ],
    ),
    (Tenant::Detector, &["fused", "conv", "depthwise", "add"]),
];
/// Batch sizes the plan and kernel probes run at.
pub const BATCHES: [usize; 2] = [1, MAX_BATCH];
/// Replays per tenant and batch in the kernel-profile child; the first
/// [`PROFILE_WARMUP`] are discarded.
const PROFILE_REPS: usize = 25;
const PROFILE_WARMUP: usize = 5;
const PROFILE_MARK: &str = "[perfbench-kernel-profile]";

/// One tenant's plan, measured on its own.
pub struct PlanProbe {
    pub tenant: Tenant,
    pub compile_ms: f64,
    /// Median `run_in` time per batch size in [`BATCHES`], µs.
    pub run_us: [f64; 2],
    pub arena_bytes: usize,
    pub packed_bytes: usize,
}

/// Compiles each tenant three times through its factory and replays it
/// on a warm arena at batch 1 and at the max batch for `budget` each.
pub fn plans(budget: Duration, seed: u64) -> Vec<PlanProbe> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x51a7);
    Tenant::ALL
        .iter()
        .map(|&tenant| {
            let _span = trace::open("probe.plan", tenant.name(), 0);
            let mut compile_ms = Vec::new();
            let mut plan = None;
            for _ in 0..3 {
                let t = Instant::now();
                plan = Some(tenant.compile());
                compile_ms.push(t.elapsed().as_secs_f64() * 1e3);
            }
            let plan = plan.expect("compiled");
            let mut arena = plan.new_arena();
            let run_us = BATCHES.map(|b| {
                let x = Tensor::randn([b, SAMPLE[0], SAMPLE[1], SAMPLE[2]], &mut rng);
                time_us(budget, || {
                    black_box(plan.run_in(&mut arena, &x));
                })
            });
            PlanProbe {
                tenant,
                compile_ms: median(&compile_ms),
                run_us,
                arena_bytes: plan.arena_bytes(),
                packed_bytes: plan.packed_bytes(),
            }
        })
        .collect()
}

/// Median µs per call of `coalesce` and of `split_batch` on the tiny
/// net's output, at each batch in [`BATCHES`].
pub fn batcher(seed: u64) -> ([f64; 2], [f64; 2]) {
    let _span = trace::open("probe.batcher", "", 0);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xba7c);
    let budget = Duration::from_millis(150);
    let coalesce_us = BATCHES.map(|b| {
        let samples: Vec<Tensor> = (0..b).map(|_| Tensor::randn(SAMPLE, &mut rng)).collect();
        time_us(budget, || {
            black_box(coalesce(&samples));
        })
    });
    let split_us = BATCHES.map(|b| {
        let out = Tensor::randn([b, 10], &mut rng);
        time_us(budget, || {
            black_box(split_batch(&out, b));
        })
    });
    (coalesce_us, split_us)
}

/// Median µs per call of `f`, after a short warm-up, over `budget`.
fn time_us(budget: Duration, mut f: impl FnMut()) -> f64 {
    for _ in 0..5 {
        f();
    }
    let mut us = Vec::new();
    let start = Instant::now();
    while start.elapsed() < budget || us.len() < 10 {
        let t = Instant::now();
        f();
        us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    median(&us)
}

/// The child side of [`kernels`]: replays every tenant at each probe batch
/// with `NB_PLAN_PROFILE=1` set, so the plan prints one breakdown table per
/// replay to stderr, each block preceded by a marker naming tenant and
/// batch.
pub fn kernel_profile_child(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6b70);
    for tenant in Tenant::ALL {
        let plan = tenant.compile();
        let mut arena = plan.new_arena();
        for b in BATCHES {
            let x = Tensor::randn([b, SAMPLE[0], SAMPLE[1], SAMPLE[2]], &mut rng);
            eprintln!("{PROFILE_MARK} {} {b}", tenant.name());
            for _ in 0..PROFILE_REPS {
                black_box(plan.run_in(&mut arena, &x));
            }
        }
    }
}

/// Per tenant and batch: median µs per kernel tag and median total µs.
pub type KernelTable = BTreeMap<(&'static str, usize), (BTreeMap<String, f64>, f64)>;

/// Runs [`kernel_profile_child`] in a child process of this binary and
/// sums the rows of each breakdown table per kernel tag.
pub fn kernels(seed: u64) -> Result<KernelTable, String> {
    let _span = trace::open("probe.kernels", "", 0);
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--kernel-profile", "--seed", &seed.to_string()])
        .env("NB_PLAN_PROFILE", "1")
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .output()
        .map_err(|e| format!("kernel-profile child: {e}"))?;
    if !out.status.success() {
        return Err(format!("kernel-profile child exited with {}", out.status));
    }
    parse_profile(&String::from_utf8_lossy(&out.stderr))
}

fn parse_profile(text: &str) -> Result<KernelTable, String> {
    // (tenant, batch) -> one (per-tag ns, total ns) entry per replay
    type Reps = Vec<(BTreeMap<String, f64>, f64)>;
    let mut reps: BTreeMap<(&'static str, usize), Reps> = BTreeMap::new();
    let mut key = None;
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix(PROFILE_MARK) {
            let mut it = rest.split_whitespace();
            let name = it.next().unwrap_or_default();
            let tenant = Tenant::ALL
                .iter()
                .find(|t| t.name() == name)
                .ok_or_else(|| format!("unknown tenant in profile marker: {line}"))?;
            let batch = it.next().and_then(|b| b.parse().ok()).unwrap_or(0);
            key = Some((tenant.name(), batch));
        } else if line.starts_with("[plan-profile]") {
            let total = line
                .split_whitespace()
                .find_map(|w| w.strip_prefix("total="))
                .and_then(|v| v.parse::<f64>().ok())
                .ok_or_else(|| format!("unparsable profile header: {line}"))?;
            let k = key.ok_or("profile table before any marker")?;
            reps.entry(k).or_default().push((BTreeMap::new(), total));
        } else if line.trim_start().starts_with('#') {
            // "  #3   fused   [8x16x16]   185266 ns   21.6%"
            let words: Vec<&str> = line.split_whitespace().collect();
            let ns_at = words.iter().position(|w| *w == "ns");
            let (Some(tag), Some(ns)) = (
                words.get(1),
                ns_at.and_then(|i| words.get(i.wrapping_sub(1))),
            ) else {
                return Err(format!("unparsable profile row: {line}"));
            };
            let ns: f64 = ns.parse().map_err(|_| format!("bad ns in: {line}"))?;
            let k = key.ok_or("profile row before any marker")?;
            let rep = reps
                .get_mut(&k)
                .and_then(|r| r.last_mut())
                .ok_or("profile row before its header")?;
            *rep.0.entry(tag.to_string()).or_default() += ns;
        }
    }
    let mut table = KernelTable::new();
    for (k, runs) in reps {
        let kept = &runs[PROFILE_WARMUP.min(runs.len().saturating_sub(1))..];
        let mut tags: BTreeMap<String, f64> = BTreeMap::new();
        for tag in kept.iter().flat_map(|(t, _)| t.keys()) {
            let v: Vec<f64> = kept
                .iter()
                .map(|(t, _)| t.get(tag).copied().unwrap_or(0.0) / 1e3)
                .collect();
            tags.insert(tag.clone(), median(&v));
        }
        let totals: Vec<f64> = kept.iter().map(|(_, total)| total / 1e3).collect();
        table.insert(k, (tags, median(&totals)));
    }
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_rows_sum_per_tag() {
        let text = "\
[perfbench-kernel-profile] tinynet 1
[plan-profile] batch=1 actions=3 total=10000 ns
  #0   conv        [4x32x32]      1000 ns   10.0%
  #1   fused       [4x16x16]      6000 ns   60.0%
  #2   fused       [8x8x8]        3000 ns   30.0%
";
        let table = parse_profile(text).unwrap();
        let (tags, total) = &table[&("tinynet", 1)];
        assert_eq!(tags["fused"], 9.0);
        assert_eq!(tags["conv"], 1.0);
        assert_eq!(*total, 10.0);
    }
}
