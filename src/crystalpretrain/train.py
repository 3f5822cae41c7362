"""Training loops: contrastive pretraining, supervised fine-tuning, Adam,
dataset splitting, metrics, and logging.

Runs are bitwise deterministic for a given (seed, config, dataset) at a
fixed BLAS thread count: shuffles and augmentations draw from streams
derived per (seed, purpose, epoch, sample, view), so neither the worker
count that builds the graphs nor the batching of the views changes results.
OpenBLAS may split a product's sums across its threads, so pin its count
(OPENBLAS_NUM_THREADS=1 before Python starts) to compare runs bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .augment import AugmentConfig, batch_views, make_views
from .autodiff import Tape, Tensor, backward
from .checkpoint import (Checkpoint, CheckpointError, checkpoint_from_params,
                         save_checkpoint, write_csv)
from .datasets import DatasetManifest, ManifestRecord, load_structures
from .graphs import FeatureTable, GraphConfig, build_graph, load_feature_table
from .losses import LossConfig, compute_loss
from .model import (GraphBatch, ModelConfig, build_batch, encode, encoder_param_names,
                    finetune_param_names, head_forward, init_params, param_spec,
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

    def __post_init__(self):
        if self.phase not in PHASES:
            raise ValueError(f"unknown phase {self.phase!r}")
        if self.task not in TASKS:
            raise ValueError(f"unknown task {self.task!r}")
        if self.batch_size is not None and self.batch_size < 2:
            raise ValueError("batch_size must be >= 2")
        if self.epochs is not None and self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.lr is not None and not 0 < self.lr < math.inf:
            raise ValueError("lr must be positive and finite")
        if not 0 <= self.seed < 2 ** 32:
            raise ValueError("seed must lie in [0, 2**32)")
        if not 0 <= self.weight_decay < math.inf:
            raise ValueError("weight_decay must be >= 0 and finite")
        if not (0 <= self.adam_beta1 < 1 and 0 <= self.adam_beta2 < 1):
            raise ValueError("adam_beta1 and adam_beta2 must lie in [0, 1)")
        if not 0 < self.adam_eps < math.inf:
            raise ValueError("adam_eps must be positive and finite")
        if not 0.0 < self.pretrain_eval_fraction < 1.0:
            raise ValueError("pretrain_eval_fraction must lie in (0, 1)")
        if not 0.0 < self.val_fraction < 1.0 or not 0.0 < self.test_fraction < 1.0:
            raise ValueError("val/test fractions must lie in (0, 1)")
        if self.val_fraction + self.test_fraction >= 1.0:
            raise ValueError("val_fraction + test_fraction must stay below 1")
        if self.n_workers < 1:
            raise ValueError("n_workers must be >= 1")

    def resolved(self, phase: str) -> "TrainConfig":
        """This config for phase, its unset batch_size, epochs and lr filled
        with the phase's defaults (replace checks the result)."""
        contrastive = phase == "pretrain" and self.loss.kind in ("nt-xent", "supcon")
        batch = self.batch_size if self.batch_size is not None else (256 if contrastive else 128)
        epochs = self.epochs if self.epochs is not None else (15 if phase == "pretrain" else 200)
        lr = self.lr if self.lr is not None else (1e-5 if phase == "pretrain" else 1e-3)
        return replace(self, phase=phase, batch_size=batch, epochs=epochs, lr=lr)


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


def load_graph_dataset(manifest: DatasetManifest, graph_cfg: GraphConfig,
                       n_workers: int = 1, indices=None) -> GraphDataset:
    """Parse the structures and build each graph once (augmentation happens
    per epoch on the cached graphs). Given indices, only those CIFs are read
    and the other graphs are None; every record is kept, and so the splits."""
    structures = load_structures(manifest if indices is None else DatasetManifest(
        [manifest.records[int(i)] for i in indices]))
    table = (load_feature_table(graph_cfg.feature_table)
             if graph_cfg.feature_table else None)

    def build(structure):
        return build_graph(structure, graph_cfg, table)

    if n_workers > 1:
        from concurrent.futures import ThreadPoolExecutor  # only a pool needs it
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            graphs = dict(zip(structures, pool.map(build, structures.values())))
    else:
        graphs = {key: build(s) for key, s in structures.items()}
    return GraphDataset(records=list(manifest.records),
                        graphs=[graphs.get(rec.id) for rec in manifest.records],
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


def _widths(cfg: TrainConfig, dataset: GraphDataset) -> tuple[int, int | None]:
    """The edge and external feature widths; with cfg.model they fix the parameter shapes."""
    table = dataset.feature_table
    return cfg.graph.n_centers, table.width if table else None


def load_params(ckpt: Checkpoint, cfg: TrainConfig, dataset: GraphDataset,
                select=encoder_param_names) -> dict[str, Tensor]:
    """The checkpoint's float64 parameters that select (a model.*_param_names)
    names, each checked against the shape cfg and the dataset give it: a
    missing or misshapen tensor raises ShapeMismatch naming it."""
    spec = param_spec(cfg.model, *_widths(cfg, dataset))
    stored = ckpt.to_params()
    names = select(spec)
    for name in names:
        if name not in stored:
            raise ad.ShapeMismatch(f"checkpoint missing {name}", spec[name])
        if stored[name].shape != spec[name]:
            raise ad.ShapeMismatch(f"checkpoint[{name}]", stored[name].shape, spec[name])
    return {name: stored[name] for name in names}


def _checkpoint(params: dict[str, Tensor], cfg: TrainConfig, dataset: GraphDataset,
                epoch: int, next_epoch: int, **extra) -> Checkpoint:
    """params after `epoch` epochs; the rng_cursor names next_epoch to run next."""
    table = dataset.feature_table
    return checkpoint_from_params(params, cfg.model, {
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
    })


def _epochs(params: dict[str, Tensor], adam: AdamState, train_idx: np.ndarray,
            cfg: TrainConfig, batch_loss, log: TrainingLog, min_batch: int = 1):
    """Adam on the parameters adam tracks over cfg.epochs seeded shuffles of
    train_idx. batch_loss(batch_idx, epoch) builds each batch's loss on the
    tape; batches shorter than min_batch are skipped. Each step logs its loss
    at step adam.t. Yields each epoch once its steps are done."""
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
                               for n in adam.m}, adam,
                      lr=cfg.lr, beta1=cfg.adam_beta1, beta2=cfg.adam_beta2,
                      eps=cfg.adam_eps, weight_decay=cfg.weight_decay,
                      decoupled=cfg.decoupled_weight_decay)
            log.log_loss(adam.t, epoch, cfg.phase, loss.item())
        yield epoch


# ---------------------------------------------------------------------------
# pretraining
# ---------------------------------------------------------------------------

def _view_keys(cfg: TrainConfig, epoch: int, indices, tag: str) -> np.ndarray:
    """The stream key codes (cfg.seed, tag, epoch, index, view) of both views
    of each indexed crystal, one row per view, crystal by crystal."""
    indices = np.asarray(indices, dtype=np.int64)
    keys = np.empty((2 * len(indices), 5), dtype=np.uint32)
    keys[:, :3] = RngStream(cfg.seed, tag, epoch).key
    keys[:, 3] = np.repeat(indices & 0xFFFFFFFF, 2)
    keys[:, 4] = np.tile((0, 1), len(indices))
    return keys


def view_pair(graph, cfg: TrainConfig, epoch: int, index: int, tag: str = "augment"):
    """The two augmented views of the crystal at dataset position index in
    epoch, drawn from the streams (cfg.seed, tag, epoch, index, view): the
    pair view_batch draws for it in any batch."""
    streams = tuple(RngStream(*key) for key in _view_keys(cfg, epoch, [index], tag).tolist())
    return make_views(graph, cfg.augment, streams, cfg.graph)


def view_batch(dataset: GraphDataset, indices, cfg: TrainConfig, epoch: int,
               tag: str = "augment") -> GraphBatch:
    """build_batch of the views of the indexed crystals, both views of each
    in turn, drawn for the whole batch at once by augment.batch_views."""
    graphs = [dataset.graphs[i] for i in np.asarray(indices).tolist() for _ in (0, 1)]
    node_masked, _, _, edge_features = batch_views(
        graphs, cfg.augment, _view_keys(cfg, epoch, indices, tag), cfg.graph)
    return build_batch(graphs, node_masked, edge_features)


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
    params = init_params(cfg.model, cfg.seed, *_widths(cfg, dataset))
    log = TrainingLog()
    out_dir = Path(out_dir) if out_dir is not None else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)

    def views_loss(indices, epoch, tag="augment") -> Tensor:
        batch = view_batch(dataset, indices, cfg, epoch, tag)
        z = project(params, encode(params, batch, cfg.model))
        labels = (_record_values(dataset, indices, "surrogate_label")
                  if cfg.loss.needs_labels else None)
        return compute_loss(cfg.loss, z, labels)

    adam = AdamState.for_params(params, pretrain_param_names(params))
    # a one-crystal batch has no negatives and no batch statistics
    for epoch in _epochs(params, adam, train_idx, cfg, views_loss, log, min_batch=2):
        eval_loss = views_loss(eval_idx, epoch, tag="eval-augment").item()
        log.log_metric(adam.t, epoch, "pretrain", "eval_loss", eval_loss)
        if out_dir is not None:
            save_checkpoint(out_dir / f"epoch-{epoch + 1:04d}.ckpt",
                            _checkpoint(params, cfg, dataset, epoch + 1, epoch + 1))
    final = _checkpoint(params, cfg, dataset, cfg.epochs, cfg.epochs)
    if out_dir is not None:
        save_checkpoint(out_dir / "final.ckpt", final)
        log.save(out_dir / "log.csv")
    return TrainResult(params=params, checkpoint=final, log=log)


# ---------------------------------------------------------------------------
# fine-tuning
# ---------------------------------------------------------------------------

def finetune_splits(dataset, cfg: TrainConfig) -> dict[str, np.ndarray]:
    """The train, val and test index sets that cfg's seed and fractions fix
    for the records of a GraphDataset or a DatasetManifest."""
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

    params = init_params(cfg.model, cfg.seed, *_widths(cfg, dataset))
    if ckpt is not None:
        params.update(load_params(ckpt, cfg, dataset))
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

    adam = AdamState.for_params(params, finetune_param_names(params))
    best_params, best_epoch = clone_params(params), 0
    best_val = _score(params, dataset, val_idx, cfg, t_mean, t_std)
    log.log_metric(0, 0, "finetune", f"val_{metric}", best_val)
    for epoch in _epochs(params, adam, train_idx, cfg, batch_loss, log):
        current = _score(params, dataset, val_idx, cfg, t_mean, t_std)
        log.log_metric(adam.t, epoch, "finetune", f"val_{metric}", current)
        if current > best_val if classification else current < best_val:
            best_params, best_epoch, best_val = clone_params(params), epoch + 1, current
    test = _score(best_params, dataset, test_idx, cfg, t_mean, t_std)
    log.log_metric(adam.t, cfg.epochs, "finetune", f"test_{metric}", test)
    metrics = Metrics(**{metric: test}, val_metric=best_val, best_epoch=best_epoch)

    final = _checkpoint(best_params, cfg, dataset, best_epoch, cfg.epochs, task=cfg.task,
                        target_mean=t_mean, target_std=t_std,
                        val_fraction=cfg.val_fraction, test_fraction=cfg.test_fraction)
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
    the stored one raises TrainError, and a target mean or std that is not a
    finite number, or a std not above 0, raises CheckpointError.
    """
    cfg = cfg.resolved("finetune")
    stored_task = ckpt.metadata.get("task")
    if stored_task not in (None, cfg.task):
        raise TrainError(f"task {cfg.task!r} is not the checkpoint's {stored_task!r}, "
                         "the task its head was trained for")
    t_mean, t_std = ckpt.metadata.get("target_mean", 0.0), ckpt.metadata.get("target_std", 1.0)
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)
               for v in (t_mean, t_std)) or t_std <= 0:
        raise CheckpointError(f"checkpoint target_mean={t_mean!r}, target_std={t_std!r}: "
                              "both must be finite numbers, and target_std above 0")
    score = _score(load_params(ckpt, cfg, dataset, finetune_param_names), dataset,
                   finetune_splits(dataset, cfg)["test"], cfg, t_mean, t_std)
    return Metrics(**{_metric_name(cfg.task): score})
