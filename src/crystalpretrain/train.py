"""Training loops: contrastive pretraining, supervised fine-tuning, Adam,
dataset splitting, metrics, and logging.

Runs are bitwise deterministic for a given (seed, config, dataset): shuffles
and augmentations draw from streams derived per (seed, purpose, epoch,
sample, view), so the worker count never changes results.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .augment import AugmentConfig, make_views
from .autodiff import Tape, Tensor, backward
from .checkpoint import Checkpoint, checkpoint_from_params, save_checkpoint, write_csv
from .datasets import DatasetManifest, ManifestRecord, load_structures
from .graphs import FeatureTable, GraphConfig, build_graph, load_feature_table
from .losses import LossConfig, compute_loss
from .model import (ModelConfig, build_batch, encode, encoder_param_names,
                    finetune_param_names, head_forward, init_params,
                    pretrain_param_names, project)
from .rng import RngStream

PHASES = ("pretrain", "finetune")
TASKS = ("regression", "binary-classification")


class TrainError(Exception):
    pass


class EmptySplit(TrainError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"split {name!r} is empty")


class MissingSurrogateLabel(TrainError):
    def __init__(self, record_id: str):
        self.record_id = record_id
        super().__init__(f"record {record_id!r} has no surrogate label")


class MissingTarget(TrainError):
    def __init__(self, record_id: str):
        self.record_id = record_id
        super().__init__(f"record {record_id!r} has no target")


@dataclass
class TrainConfig:
    loss: LossConfig = field(default_factory=LossConfig)
    augment: AugmentConfig = field(default_factory=AugmentConfig)
    graph: GraphConfig = field(default_factory=GraphConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    phase: str = "pretrain"
    task: str = "regression"
    batch_size: int | None = None
    epochs: int | None = None
    lr: float | None = None
    weight_decay: float = 1e-6
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    decoupled_weight_decay: bool = False
    seed: int = 0
    pretrain_eval_fraction: float = 0.05
    val_fraction: float = 0.10
    test_fraction: float = 0.20
    n_workers: int = 1

    def resolved(self, phase: str | None = None) -> "TrainConfig":
        """Fill phase-dependent defaults and validate."""
        phase = phase or self.phase
        if phase not in PHASES:
            raise ValueError(f"unknown phase {phase!r}")
        batch_size = self.batch_size
        if batch_size is None:
            if phase == "finetune":
                batch_size = 128
            else:
                batch_size = 256 if self.loss.kind in ("nt-xent", "supcon") else 128
        epochs = self.epochs if self.epochs is not None else (15 if phase == "pretrain" else 200)
        lr = self.lr if self.lr is not None else (1e-5 if phase == "pretrain" else 1e-3)
        cfg = replace(self, phase=phase, batch_size=batch_size, epochs=epochs, lr=lr)
        cfg._validate()
        return cfg

    def _validate(self):
        if self.task not in TASKS:
            raise ValueError(f"unknown task {self.task!r}")
        if self.batch_size < 2:
            raise ValueError("batch_size must be >= 2")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        if not 0 <= self.seed < 2 ** 32:
            raise ValueError("seed must lie in [0, 2**32)")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be >= 0")
        if not 0.0 < self.pretrain_eval_fraction < 1.0:
            raise ValueError("pretrain_eval_fraction must lie in (0, 1)")
        if not 0.0 < self.val_fraction < 1.0 or not 0.0 < self.test_fraction < 1.0:
            raise ValueError("val/test fractions must lie in (0, 1)")
        if self.val_fraction + self.test_fraction >= 1.0:
            raise ValueError("val_fraction + test_fraction must stay below 1")
        if self.n_workers < 1:
            raise ValueError("n_workers must be >= 1")


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0

    @classmethod
    def for_params(cls, params: dict[str, Tensor], names) -> "AdamState":
        return cls(m={n: np.zeros_like(params[n].values) for n in names},
                   v={n: np.zeros_like(params[n].values) for n in names})


def adam_step(params: dict[str, Tensor], grads: dict[str, np.ndarray],
              state: AdamState, lr: float, beta1: float = 0.9, beta2: float = 0.999,
              eps: float = 1e-8, weight_decay: float = 0.0,
              decoupled: bool = False) -> tuple[dict[str, Tensor], AdamState]:
    """One Adam update over the parameters tracked by the state, in place.

    By default the L2 term folds into the gradient (classic Adam); decoupled
    subtracts lr * weight_decay * theta directly instead.
    """
    state.t += 1
    correct1 = 1.0 - beta1 ** state.t
    correct2 = 1.0 - beta2 ** state.t
    for name in state.m:
        theta = params[name].values
        g = grads[name]
        if weight_decay and not decoupled:
            g = g + weight_decay * theta
        state.m[name] = beta1 * state.m[name] + (1.0 - beta1) * g
        state.v[name] = beta2 * state.v[name] + (1.0 - beta2) * (g * g)
        m_hat = state.m[name] / correct1
        v_hat = state.v[name] / correct2
        if weight_decay and decoupled:
            theta -= lr * weight_decay * theta
        theta -= lr * m_hat / (np.sqrt(v_hat) + eps)
        if not np.isfinite(theta).all():
            raise ad.NonFinite(f"adam_step[{name}]")
    return params, state


# ---------------------------------------------------------------------------
# splits
# ---------------------------------------------------------------------------

def split_dataset(records: list[ManifestRecord], phase: str, seed: int, *,
                  pretrain_eval_fraction: float = 0.05,
                  val_fraction: float = 0.10,
                  test_fraction: float = 0.20) -> dict[str, np.ndarray]:
    """Index sets per split: explicit split column wins, else a seeded shuffle.

    pretrain: {"train", "eval"} (explicit "val" rows become the eval set);
    finetune: {"train", "val", "test"}.
    """
    if not records:
        raise EmptySplit("train")
    explicit = [rec.split for rec in records]
    if any(s is not None for s in explicit):
        if any(s is None for s in explicit):
            raise TrainError("split column must be fully present or fully absent")
        by_name = {name: np.array([i for i, s in enumerate(explicit) if s == name],
                                  dtype=np.int64)
                   for name in ("train", "val", "test")}
        if phase == "pretrain":
            out = {"train": by_name["train"], "eval": by_name["val"]}
        else:
            out = by_name
    else:
        order = RngStream(seed, "split").generator().permutation(len(records))
        n = len(records)
        if phase == "pretrain":
            n_eval = int(np.floor(pretrain_eval_fraction * n))
            out = {"eval": np.sort(order[:n_eval]), "train": np.sort(order[n_eval:])}
        else:
            n_test = int(np.floor(test_fraction * n))
            n_val = int(np.floor(val_fraction * n))
            out = {
                "test": np.sort(order[:n_test]),
                "val": np.sort(order[n_test:n_test + n_val]),
                "train": np.sort(order[n_test + n_val:]),
            }
    for name, idx in out.items():
        if len(idx) == 0:
            raise EmptySplit(name)
    return out


# ---------------------------------------------------------------------------
# dataset of prebuilt graphs
# ---------------------------------------------------------------------------

@dataclass
class GraphDataset:
    records: list[ManifestRecord]
    graphs: list
    feature_table: FeatureTable | None = None

    def __len__(self):
        return len(self.records)


def load_graph_dataset(manifest: DatasetManifest, graph_cfg: GraphConfig,
                       n_workers: int = 1) -> GraphDataset:
    """Parse all structures and build each graph once (augmentation happens
    per epoch on the cached graphs)."""
    structures = load_structures(manifest)
    table = (load_feature_table(graph_cfg.feature_table)
             if graph_cfg.feature_table else None)
    ordered = [structures[rec.id] for rec in manifest.records]

    def build(structure):
        return build_graph(structure, graph_cfg, table)

    if n_workers > 1:
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            graphs = list(pool.map(build, ordered))
    else:
        graphs = [build(s) for s in ordered]
    return GraphDataset(records=list(manifest.records), graphs=graphs,
                        feature_table=table)


# ---------------------------------------------------------------------------
# logging and metrics
# ---------------------------------------------------------------------------

class TrainingLog:
    """Accumulates rows of the training log CSV."""

    COLUMNS = ("step", "epoch", "phase", "loss", "metric_name", "metric_value")

    def __init__(self):
        self.rows: list[tuple] = []

    def log_loss(self, step: int, epoch: int, phase: str, loss: float):
        self.rows.append((step, epoch, phase, repr(float(loss)), "", ""))

    def log_metric(self, step: int, epoch: int, phase: str, name: str, value: float):
        self.rows.append((step, epoch, phase, "", name, repr(float(value))))

    def save(self, path) -> None:
        write_csv(path, self.COLUMNS, self.rows)


def mean_absolute_error(preds, targets) -> float:
    """MAE in the targets' native units."""
    preds = np.asarray(preds, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    return float(np.abs(preds - targets).mean())


@dataclass
class Metrics:
    mae: float | None = None
    accuracy: float | None = None
    val_metric: float | None = None
    best_epoch: int | None = None

    def __post_init__(self):
        if self.mae is not None and self.mae < 0:
            raise ValueError("mae must be >= 0")
        if self.accuracy is not None and not 0.0 <= self.accuracy <= 1.0:
            raise ValueError("accuracy must lie in [0, 1]")


# ---------------------------------------------------------------------------
# the training loop both phases share
# ---------------------------------------------------------------------------

@dataclass
class TrainResult:
    params: dict[str, Tensor]
    checkpoint: Checkpoint
    log: TrainingLog
    metrics: Metrics | None = None


def clone_params(params: dict[str, Tensor]) -> dict[str, Tensor]:
    return {n: Tensor(t.values.copy(), requires_grad=True) for n, t in params.items()}


def _init_params(cfg: TrainConfig, dataset: GraphDataset) -> dict[str, Tensor]:
    table_width = dataset.feature_table.width if dataset.feature_table else None
    return init_params(cfg.model, cfg.seed, edge_feature_width=cfg.graph.n_centers,
                       external_feature_width=table_width)


def _metadata(cfg: TrainConfig, dataset: GraphDataset, epoch: int, next_epoch: int,
              **extra) -> dict:
    table = dataset.feature_table
    return {
        "phase": cfg.phase,
        "epoch": epoch,
        "loss_kind": cfg.loss.kind,
        "surrogate_label_name": "surrogate_label",
        "seed": cfg.seed,
        "rng_cursor": {"seed": cfg.seed, "next_epoch": next_epoch},
        "graph_config": asdict(cfg.graph),
        "edge_feature_width": cfg.graph.n_centers,
        "external_feature_width": table.width if table else None,
        "feature_table_sha256": table.sha256 if table else None,
        **extra,
    }


def _train(params: dict[str, Tensor], names, train_idx: np.ndarray, cfg: TrainConfig,
           batch_loss, end_epoch, log: TrainingLog, min_batch: int = 1) -> int:
    """Adam on `names` over cfg.epochs seeded shuffles of `train_idx`.

    batch_loss(batch_idx, epoch) builds each batch's loss on the tape; batches
    shorter than min_batch are skipped. Every step logs its loss, and
    end_epoch(epoch, step) runs after each epoch. Returns the number of steps
    taken.
    """
    state = AdamState.for_params(params, names)
    step = 0
    for epoch in range(cfg.epochs):
        gen = RngStream(cfg.seed, "shuffle", epoch).generator()
        order = train_idx[gen.permutation(len(train_idx))]
        for start in range(0, len(order), cfg.batch_size):
            batch_idx = order[start:start + cfg.batch_size]
            if len(batch_idx) < min_batch:
                continue
            with Tape() as tape:
                loss = batch_loss(batch_idx, epoch)
                grads = backward(tape, loss)
            adam_step(params, {n: grads.get(params[n], np.zeros_like(params[n].values))
                               for n in names}, state,
                      lr=cfg.lr, beta1=cfg.adam_beta1, beta2=cfg.adam_beta2,
                      eps=cfg.adam_eps, weight_decay=cfg.weight_decay,
                      decoupled=cfg.decoupled_weight_decay)
            step += 1
            log.log_loss(step, epoch, cfg.phase, loss.item())
        end_epoch(epoch, step)
    return step


# ---------------------------------------------------------------------------
# pretraining
# ---------------------------------------------------------------------------

def view_pair(graph, cfg: TrainConfig, epoch: int, index: int, tag: str = "augment"):
    """The two augmented views of the crystal at dataset position index in
    epoch, drawn from the streams (cfg.seed, tag, epoch, index, view)."""
    streams = tuple(RngStream(cfg.seed, tag, epoch, int(index), view) for view in (0, 1))
    return make_views(graph, cfg.augment, streams, cfg.graph)


def _view_pairs(dataset: GraphDataset, indices, cfg: TrainConfig, epoch: int,
                tag: str):
    def one(i):
        return view_pair(dataset.graphs[i], cfg, epoch, i, tag)

    if cfg.n_workers > 1:
        with ThreadPoolExecutor(max_workers=cfg.n_workers) as pool:
            return list(pool.map(one, indices))
    return [one(i) for i in indices]


def pretrain(dataset: GraphDataset, cfg: TrainConfig, out_dir=None) -> TrainResult:
    """Contrastive pretraining over two augmented views per crystal.

    Both views pass through the shared-weight encoder and projection head;
    the configured loss drives Adam. The held-out eval split is scored once
    per epoch with the same loss.
    """
    cfg = cfg.resolved("pretrain")
    splits = split_dataset(dataset.records, "pretrain", cfg.seed,
                           pretrain_eval_fraction=cfg.pretrain_eval_fraction)
    train_idx, eval_idx = splits["train"], splits["eval"]
    # over one crystal, nt-xent and supcon have no negatives and bt no batch
    # statistics; sup-bt's same-class term is still defined
    if len(eval_idx) < 2 and cfg.loss.kind != "sup-bt":
        raise TrainError(f"{cfg.loss.kind} needs at least 2 eval crystals, the "
                         f"pretrain eval split has {len(eval_idx)}; raise "
                         "train.pretrain_eval_fraction")
    if cfg.loss.needs_labels:
        _record_values(dataset, np.concatenate([train_idx, eval_idx]), "surrogate_label")
    params = _init_params(cfg, dataset)
    log = TrainingLog()
    out_dir = Path(out_dir) if out_dir is not None else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)

    def views_loss(indices, epoch, tag="augment") -> Tensor:
        pairs = _view_pairs(dataset, indices, cfg, epoch, tag)
        batch = build_batch([view for pair in pairs for view in pair])
        z = project(params, encode(params, batch, cfg.model))
        labels = (_record_values(dataset, indices, "surrogate_label")
                  if cfg.loss.needs_labels else None)
        return compute_loss(cfg.loss, z, labels)

    def checkpoint(epoch: int) -> Checkpoint:
        return checkpoint_from_params(
            params, cfg.model, _metadata(cfg, dataset, epoch, epoch))

    def end_epoch(epoch: int, step: int):
        eval_loss = views_loss(eval_idx, epoch, tag="eval-augment").item()
        log.log_metric(step, epoch, "pretrain", "eval_loss", eval_loss)
        if out_dir is not None:
            save_checkpoint(out_dir / f"epoch-{epoch + 1:04d}.ckpt", checkpoint(epoch + 1))

    # a one-crystal batch has no negatives and no batch statistics
    _train(params, pretrain_param_names(params), train_idx, cfg, views_loss,
           end_epoch, log, min_batch=2)
    final = checkpoint(cfg.epochs)
    if out_dir is not None:
        save_checkpoint(out_dir / "final.ckpt", final)
        log.save(out_dir / "log.csv")
    return TrainResult(params=params, checkpoint=final, log=log)


# ---------------------------------------------------------------------------
# fine-tuning
# ---------------------------------------------------------------------------

def finetune_splits(dataset: GraphDataset, cfg: TrainConfig) -> dict[str, np.ndarray]:
    """The train, val and test index sets that cfg's seed and fractions fix."""
    return split_dataset(dataset.records, "finetune", cfg.seed,
                         val_fraction=cfg.val_fraction,
                         test_fraction=cfg.test_fraction)


def _record_values(dataset: GraphDataset, indices, name: str) -> np.ndarray:
    """The indexed records' surrogate_label (int64) or target (float64); the
    first record without one raises MissingSurrogateLabel or MissingTarget."""
    missing, dtype = {"surrogate_label": (MissingSurrogateLabel, np.int64),
                      "target": (MissingTarget, np.float64)}[name]
    values = []
    for i in indices:
        rec = dataset.records[int(i)]
        if getattr(rec, name) is None:
            raise missing(rec.id)
        values.append(getattr(rec, name))
    return np.array(values, dtype=dtype)


def forward(params, dataset: GraphDataset, indices, cfg: TrainConfig,
            head=None) -> np.ndarray:
    """The indexed graphs, un-augmented, through the encoder cfg.batch_size
    at a time, then through head(params, pooled) if one is given (project or
    head_forward): one row per index."""
    out = []
    for start in range(0, len(indices), cfg.batch_size):
        graphs = [dataset.graphs[int(i)] for i in indices[start:start + cfg.batch_size]]
        pooled = encode(params, build_batch(graphs), cfg.model)
        out.append((pooled if head is None else head(params, pooled)).values)
    return np.concatenate(out)


def _metric_name(task: str) -> str:
    return "accuracy" if task == "binary-classification" else "mae"


def _score(params, dataset: GraphDataset, indices, cfg: TrainConfig,
           t_mean: float = 0.0, t_std: float = 1.0) -> float:
    """Accuracy of the logits' signs for classification, else the MAE of the
    de-standardised predictions in the targets' native units."""
    targets = _record_values(dataset, indices, "target")
    preds = forward(params, dataset, indices, cfg, head_forward)[:, 0]
    if cfg.task == "binary-classification":
        return float(((preds > 0) == (targets > 0.5)).mean())
    return mean_absolute_error(preds * t_std + t_mean, targets)


def _load_encoder(params: dict[str, Tensor], ckpt: Checkpoint):
    for name in encoder_param_names(params):
        if name not in ckpt.tensors:
            raise ad.ShapeMismatch(f"checkpoint missing {name}", params[name].shape)
        stored = ckpt.tensors[name].astype(np.float64)
        if stored.shape != params[name].shape:
            raise ad.ShapeMismatch(f"checkpoint[{name}]", stored.shape,
                                   params[name].shape)
        params[name].values = stored


def finetune(dataset: GraphDataset, ckpt: Checkpoint | None, cfg: TrainConfig,
             out_dir=None) -> TrainResult:
    """Supervised fine-tuning on targets, from a pretrained encoder or scratch.

    The projection head is discarded; a fresh two-layer head is trained along
    with the whole encoder. Regression targets are standardized by train-split
    statistics and predictions mapped back to original units for metrics. The
    parameters with the best validation metric are retained and scored on the
    test split.
    """
    cfg = cfg.resolved("finetune")
    splits = finetune_splits(dataset, cfg)
    train_idx, val_idx, test_idx = splits["train"], splits["val"], splits["test"]
    train_targets = _record_values(dataset, train_idx, "target")
    held_out = [_record_values(dataset, idx, "target") for idx in (val_idx, test_idx)]
    classification = cfg.task == "binary-classification"
    if classification:
        if not all(np.isin(t, (0.0, 1.0)).all() for t in (train_targets, *held_out)):
            raise TrainError("binary-classification targets must be 0 or 1")
        t_mean, t_std = 0.0, 1.0
    else:
        t_mean = float(train_targets.mean())
        t_std = float(max(train_targets.std(), 1e-12))

    params = _init_params(cfg, dataset)
    if ckpt is not None:
        _load_encoder(params, ckpt)
    log = TrainingLog()
    metric = _metric_name(cfg.task)

    def batch_loss(indices, epoch) -> Tensor:
        graphs = [dataset.graphs[int(i)] for i in indices]
        raw = _record_values(dataset, indices, "target")
        batch = build_batch(graphs)
        out = head_forward(params, encode(params, batch, cfg.model))
        if classification:
            return ad.mean(ad.sub(ad.softplus(out), ad.mul(Tensor(raw[:, None]), out)))
        t = Tensor(((raw - t_mean) / t_std)[:, None])
        return ad.mean(ad.power(ad.sub(out, t), 2))

    best_params, best_epoch = clone_params(params), 0
    best_val = _score(params, dataset, val_idx, cfg, t_mean, t_std)
    log.log_metric(0, 0, "finetune", f"val_{metric}", best_val)

    def track_best(epoch: int, step: int):
        nonlocal best_params, best_epoch, best_val
        current = _score(params, dataset, val_idx, cfg, t_mean, t_std)
        log.log_metric(step, epoch, "finetune", f"val_{metric}", current)
        if current > best_val if classification else current < best_val:
            best_params, best_epoch, best_val = clone_params(params), epoch + 1, current

    step = _train(params, finetune_param_names(params), train_idx, cfg, batch_loss,
                  track_best, log)
    test = _score(best_params, dataset, test_idx, cfg, t_mean, t_std)
    log.log_metric(step, cfg.epochs, "finetune", f"test_{metric}", test)
    metrics = Metrics(**{metric: test}, val_metric=best_val, best_epoch=best_epoch)

    final = checkpoint_from_params(best_params, cfg.model, _metadata(
        cfg, dataset, best_epoch, cfg.epochs, task=cfg.task, target_mean=t_mean,
        target_std=t_std, val_fraction=cfg.val_fraction,
        test_fraction=cfg.test_fraction))
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        save_checkpoint(out_dir / "best.ckpt", final)
        log.save(out_dir / "log.csv")
    return TrainResult(params=best_params, checkpoint=final, log=log, metrics=metrics)


def evaluate_checkpoint(dataset: GraphDataset, ckpt: Checkpoint,
                        cfg: TrainConfig) -> Metrics:
    """Score a fine-tuned checkpoint on the test split.

    cfg must carry the checkpoint's settings (model, graph, seed, val/test
    fractions and task), as the CLI's evaluate reconciles them; only the
    target standardisation is taken from the checkpoint. A task other than
    the stored one raises TrainError.
    """
    cfg = cfg.resolved("finetune")
    stored_task = ckpt.metadata.get("task")
    if stored_task not in (None, cfg.task):
        raise TrainError(f"task {cfg.task!r} is not the checkpoint's {stored_task!r}, "
                         "the task its head was trained for")
    score = _score(ckpt.to_params(), dataset, finetune_splits(dataset, cfg)["test"],
                   cfg, ckpt.metadata.get("target_mean", 0.0),
                   ckpt.metadata.get("target_std", 1.0))
    return Metrics(**{_metric_name(cfg.task): score})
