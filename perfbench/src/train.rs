//! The training side: the paper's expand → train giant → PLT → contract →
//! finetune pipeline on the experiment binaries' synthetic ImageNet.

use crate::trace;
use crate::Checks;
use nb_data::recipe::{Family, Nuisance};
use nb_data::{Augment, DataLoader, Split, SyntheticVision};
use nb_models::{mobilenet_v2_tiny, PwSlot, TinyNet, TnnConfig};
use nb_nn::Module;
use nb_tensor::Tensor;
use netbooster_core::{
    evaluate, expand, fit_parallel, plt_and_contract_with, DecayCurve, ExpansionPlan,
    ParallelConfig, ShardModel, TrainConfig, TrainHooks,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;

/// `synthetic_imagenet(Scale::Bench)`: classes and image size.
const CLASSES: usize = 24;
const IMAGE: usize = 24;

/// Epochs of giant training, PLT and finetuning.
const EPOCHS: [usize; 3] = [1, 1, 1];
const BATCH: usize = 32;
/// Rows per `fit_parallel` slice: fixed, so the gradient bits do not depend
/// on the worker count.
const GRAIN: usize = 16;

/// Training and validation samples: a quarter of `Scale::Bench` (1024 and
/// 256), so that six pipelines fit in a run.
const TRAIN_LEN: usize = 256;
const VAL_LEN: usize = 64;

/// `synthetic_imagenet(Scale::Bench)` truncated to [`TRAIN_LEN`] and
/// [`VAL_LEN`], with the workload seed as the dataset seed.
pub fn data(seed: u64) -> (SyntheticVision, SyntheticVision) {
    let split = |split, len| {
        SyntheticVision::new(
            "synth-imagenet",
            Family::Objects,
            CLASSES,
            IMAGE,
            len,
            Nuisance::standard(),
            seed,
            split,
        )
    };
    (split(Split::Train, TRAIN_LEN), split(Split::Val, VAL_LEN))
}

/// One pipeline run.
pub struct Run {
    pub wall_s: f64,
    /// Training samples stepped over all three phases.
    pub samples: usize,
    pub steps: usize,
    /// Mean loss per epoch, all phases in order.
    pub losses: Vec<f32>,
}

/// Timestamps `fit_parallel` steps into `train.step` spans.
struct StepHook {
    last: Instant,
    parent: u64,
    steps: usize,
}

impl TrainHooks for StepHook {
    fn on_epoch_start(&mut self, _epoch: usize) {
        self.last = Instant::now();
    }

    fn on_step(&mut self, _step: usize) {
        let now = Instant::now();
        trace::record("train.step", "", self.parent, None, self.last, now);
        self.last = now;
        self.steps += 1;
    }
}

fn train_config(seed: u64) -> TrainConfig {
    TrainConfig {
        epochs: 1,
        batch_size: BATCH,
        lr: 0.1,
        augment: Augment::standard(),
        seed,
        eval_batch: 64,
        eval_every: 1,
        ..TrainConfig::default()
    }
}

/// Runs the whole pipeline once and checks that the contracted model has
/// the un-expanded network's structure.
pub fn pipeline(
    seed: u64,
    train: &SyntheticVision,
    val: &SyntheticVision,
    parent: u64,
    checks: &mut Checks,
) -> Run {
    let cfg_model = mobilenet_v2_tiny(CLASSES);
    let cfg = train_config(seed);
    let plan = ExpansionPlan::paper_default();
    let build = || {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut model = TinyNet::new(cfg_model.clone(), &mut rng);
        let handle = expand(&mut model, &plan, &mut rng);
        (model, handle)
    };
    let eval = |model: &TinyNet, imgs: &Tensor| {
        let _span = trace::open("train.eval", "", parent);
        model.logits_eval(imgs)
    };
    let [giant_epochs, plt_epochs, finetune_epochs] = EPOCHS;
    let start = Instant::now();

    let (mut model, handle) = build();
    let giant = trace::open("train.phase.giant", "", parent);
    let mut hook = StepHook {
        last: Instant::now(),
        parent: giant.id(),
        steps: 0,
    };
    let mut history = fit_parallel(
        model.parameters(),
        || ShardModel::classifier(build().0, cfg.label_smoothing),
        train,
        val,
        &TrainConfig {
            epochs: giant_epochs,
            ..cfg
        },
        &ParallelConfig {
            workers: crate::nproc(),
            grain: GRAIN,
        },
        &|imgs| eval(&model, imgs),
        &mut hook,
    );
    drop(giant);

    let tune = trace::open("train.phase.plt_finetune", "", parent);
    let tune_id = tune.id();
    let mut fwd_end: Option<Instant> = None;
    let mut tune_steps = 0usize;
    let tuned = plt_and_contract_with(
        &mut model,
        &handle,
        train,
        val,
        &cfg,
        plt_epochs,
        finetune_epochs,
        DecayCurve::Linear,
        |m, s, batch| {
            let t = Instant::now();
            if let Some(prev) = fwd_end {
                trace::record("train.rest", "", tune_id, None, prev, t);
            }
            let x = s.input(batch.images.clone());
            let logits = m.forward(s, x);
            let loss = s
                .graph
                .softmax_cross_entropy(logits, &batch.labels, cfg.label_smoothing);
            let end = Instant::now();
            trace::record("train.fwd", "", tune_id, None, t, end);
            fwd_end = Some(end);
            tune_steps += 1;
            loss
        },
    );
    drop(tune);
    history.extend(tuned);
    black_box(evaluate(&|imgs| eval(&model, imgs), val, cfg.eval_batch));
    let wall_s = start.elapsed().as_secs_f64();

    check_contracted(&model, &cfg_model, checks);
    let epochs = giant_epochs + plt_epochs + finetune_epochs;
    Run {
        wall_s,
        samples: epochs * TRAIN_LEN,
        steps: hook.steps + tune_steps,
        losses: history.epoch_loss,
    }
}

/// The contracted model must be the un-expanded `TinyNet` again: no
/// inserted block left, every slot's weight shaped as in a fresh net and
/// the same FLOPs. The parameter count is the fresh net's, plus at most one
/// bias per pointwise convolution: contraction may keep the bias its folded
/// batch norms leave behind, or fold it onward.
fn check_contracted(model: &TinyNet, cfg: &TnnConfig, checks: &mut Checks) {
    checks.count();
    let fresh = TinyNet::new(cfg.clone(), &mut StdRng::seed_from_u64(0));
    if model.expanded_count() != 0 {
        checks.fail(format!("{} blocks left expanded", model.expanded_count()));
    }
    let mut bias_room = 0;
    for (i, (got, want)) in model.blocks.iter().zip(&fresh.blocks).enumerate() {
        let (Some(PwSlot::Plain(got)), Some(PwSlot::Plain(want))) = (&got.expand, &want.expand)
        else {
            continue;
        };
        let dims = want.weight().value().dims().to_vec();
        if got.weight().value().dims() != &dims[..] {
            checks.fail(format!(
                "block {i}: contracted weight has a different shape"
            ));
        }
        bias_room += dims[0];
    }
    let (got, want) = (model.profile(IMAGE), fresh.profile(IMAGE));
    if got.flops != want.flops {
        checks.fail(format!("contracted FLOPs {} != {}", got.flops, want.flops));
    }
    if got.params < want.params || got.params > want.params + bias_room {
        checks.fail(format!(
            "contracted params {} outside {}..={} (fresh net plus one bias per pointwise conv)",
            got.params,
            want.params,
            want.params + bias_room
        ));
    }
}

/// Median per-batch time of one standalone `DataLoader` epoch over the
/// train split with the pipeline's augmentation, in ms.
pub fn loader_batch_ms(seed: u64, train: &SyntheticVision) -> Vec<f64> {
    let cfg = train_config(seed);
    let loader = DataLoader::new(train, cfg.batch_size)
        .shuffled(cfg.seed)
        .with_augment(cfg.augment);
    let mut out = Vec::new();
    let mut t = Instant::now();
    for batch in loader.epoch_iter(0) {
        black_box(&batch);
        let now = Instant::now();
        trace::record("data.batch", "", 0, None, t, now);
        out.push(now.duration_since(t).as_secs_f64() * 1e3);
        t = now;
    }
    out
}
