import csv
import math
import os
import subprocess
import sys
from dataclasses import fields, replace
from operator import attrgetter

import numpy as np
import pytest

from crystalpretrain.augment import AugmentConfig, make_views
from crystalpretrain.autodiff import Tensor
from crystalpretrain.checkpoint import checkpoint_from_params
from crystalpretrain.datasets import (ManifestRecord, SyntheticConfig,
                                      generate_synthetic_dataset, load_manifest,
                                      write_dataset)
from crystalpretrain.elements import MAX_Z
from crystalpretrain.graphs import (CrystalGraph, FeatureTable, GraphConfig, build_graph,
                                    gaussian_expand)
from crystalpretrain.losses import LossConfig
from crystalpretrain.model import GraphBatch, ModelConfig, build_batch, encode, init_params
from crystalpretrain.train import (AdamState, EmptySplit, GraphDataset, Metrics,
                                   MissingSurrogateLabel, MissingTarget,
                                   TrainConfig, TrainError, adam_step,
                                   evaluate_checkpoint, finetune, load_graph_dataset,
                                   mean_absolute_error, pretrain, split_dataset,
                                   view_batch)
from crystalpretrain.rng import RngStream
from oracles import views_oracle

SMALL_MODEL = ModelConfig(hidden_dim=8, n_conv=2, embed_dim=8, head_hidden=8)
SMALL_GRAPH = GraphConfig(radius=6.0, max_neighbors=12)


def synthetic_graph_dataset(n=64, seed=0, noise=0.02, graph_cfg=SMALL_GRAPH):
    structures, manifest = generate_synthetic_dataset(
        SyntheticConfig(n_crystals=n, n_classes=2, max_atoms=5,
                        target_noise=noise, seed=seed))
    graphs = [build_graph(s, graph_cfg) for s in structures]
    return GraphDataset(records=list(manifest.records), graphs=graphs)


def small_config(**kwargs) -> TrainConfig:
    defaults = dict(
        loss=LossConfig(kind="sup-bt"),
        augment=AugmentConfig(),
        graph=SMALL_GRAPH,
        model=SMALL_MODEL,
        batch_size=32,
        epochs=2,
        lr=1e-3,
        seed=0,
    )
    defaults.update(kwargs)
    return TrainConfig(**defaults)


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

def test_adam_first_step_hand_value():
    params = {"w": Tensor(np.array([0.0]), requires_grad=True)}
    state = AdamState.for_params(params, ["w"])
    adam_step(params, {"w": np.array([1.0])}, state, lr=0.001)
    # t=1: m_hat = 1, v_hat = 1 -> delta = -lr / (1 + eps)
    expected = -0.001 * 1.0 / (1.0 + 1e-8)
    assert math.isclose(params["w"].values[0], expected, rel_tol=1e-12)


def test_adam_zero_gradient_no_motion():
    params = {"w": Tensor(np.array([0.7]), requires_grad=True)}
    state = AdamState.for_params(params, ["w"])
    adam_step(params, {"w": np.array([0.0])}, state, lr=0.5)
    assert params["w"].values[0] == 0.7


def test_adam_deterministic():
    def run():
        params = {"w": Tensor(np.array([1.0, -2.0]), requires_grad=True)}
        state = AdamState.for_params(params, ["w"])
        for k in range(5):
            adam_step(params, {"w": params["w"].values * 2.0}, state, lr=0.01,
                      weight_decay=1e-6)
        return params["w"].values.copy()

    assert np.array_equal(run(), run())


def test_adam_weight_decay_folded_into_gradient():
    params = {"w": Tensor(np.array([2.0]), requires_grad=True)}
    state = AdamState.for_params(params, ["w"])
    adam_step(params, {"w": np.array([0.0])}, state, lr=0.001, weight_decay=0.1)
    # g = 0 + wd*theta = 0.2 -> normalized step of size lr
    assert params["w"].values[0] < 2.0


@pytest.mark.parametrize("decoupled", [False, True])
def test_adam_weight_decay_modes_hand_value(decoupled):
    theta, g, lr, wd, eps = 2.0, 0.5, 0.01, 0.1, 1e-8
    params = {"w": Tensor(np.array([theta]), requires_grad=True)}
    state = AdamState.for_params(params, ["w"])
    adam_step(params, {"w": np.array([g])}, state, lr=lr, eps=eps, weight_decay=wd,
              decoupled=decoupled)
    # t=1: m_hat = g', v_hat = g'^2, so the Adam step is lr * |g'| / (|g'| + eps)
    if decoupled:
        expected = theta - lr * wd * theta - lr * g / (g + eps)
    else:
        folded = g + wd * theta
        expected = theta - lr * folded / (folded + eps)
    assert math.isclose(params["w"].values[0], expected, rel_tol=1e-12)


def test_adam_quadratic_convergence():
    gen = np.random.default_rng(0)
    theta = gen.normal(size=8)
    theta *= 1.0 / np.linalg.norm(theta)
    params = {"w": Tensor(theta, requires_grad=True)}
    state = AdamState.for_params(params, ["w"])
    for step in range(500):
        adam_step(params, {"w": 2.0 * params["w"].values}, state, lr=0.1)
        if np.linalg.norm(params["w"].values) < 1e-3:
            break
    assert np.linalg.norm(params["w"].values) < 1e-3


# ---------------------------------------------------------------------------
# splits
# ---------------------------------------------------------------------------

def records(n, split=None):
    return [ManifestRecord(f"r{i}", f"r{i}.cif", i % 2, float(i), split)
            for i in range(n)]


def test_finetune_split_sizes():
    splits = split_dataset(records(100), "finetune", seed=1)
    assert len(splits["train"]) == 70
    assert len(splits["val"]) == 10
    assert len(splits["test"]) == 20
    together = np.concatenate([splits["train"], splits["val"], splits["test"]])
    assert sorted(together.tolist()) == list(range(100))


def test_pretrain_split_sizes():
    splits = split_dataset(records(64), "pretrain", seed=1)
    assert len(splits["eval"]) == 3  # floor(0.05 * 64)
    assert len(splits["train"]) == 61


def test_split_deterministic():
    a = split_dataset(records(50), "finetune", seed=9)
    b = split_dataset(records(50), "finetune", seed=9)
    assert all(np.array_equal(a[k], b[k]) for k in a)
    c = split_dataset(records(50), "finetune", seed=10)
    assert any(not np.array_equal(a[k], c[k]) for k in a)


def test_explicit_split_column_respected():
    recs = records(10)
    for i, rec in enumerate(recs):
        rec.split = "train" if i < 6 else ("val" if i < 8 else "test")
    splits = split_dataset(recs, "finetune", seed=0)
    assert splits["train"].tolist() == [0, 1, 2, 3, 4, 5]
    assert splits["val"].tolist() == [6, 7]
    assert splits["test"].tolist() == [8, 9]
    pre = split_dataset(recs, "pretrain", seed=0)
    assert pre["eval"].tolist() == [6, 7]


def test_partial_split_column_rejected():
    recs = records(4)
    recs[0].split = "train"
    with pytest.raises(TrainError):
        split_dataset(recs, "finetune", seed=0)


def test_empty_split():
    with pytest.raises(EmptySplit):
        split_dataset(records(4), "finetune", seed=0)  # floor(0.2*4)=0 test rows
    with pytest.raises(EmptySplit):
        split_dataset([], "pretrain", seed=0)


# ---------------------------------------------------------------------------
# metrics helpers
# ---------------------------------------------------------------------------

def test_mean_absolute_error_examples():
    assert mean_absolute_error([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert mean_absolute_error([1.0, 2.0], [1.0, 4.0]) == 1.0


def test_metrics_invariants():
    with pytest.raises(ValueError):
        Metrics(mae=-0.1)
    with pytest.raises(ValueError):
        Metrics(accuracy=1.5)


# ---------------------------------------------------------------------------
# pretraining
# ---------------------------------------------------------------------------

def test_pretrain_smoke_and_epoch_trend():
    dataset = synthetic_graph_dataset(64, seed=0)
    monotone = 0
    for seed in range(3):
        cfg = small_config(seed=seed)
        result = pretrain(dataset, cfg)
        losses = [float(r[3]) for r in result.log.rows if r[3] != ""]
        assert losses and all(np.isfinite(losses))
        steps_per_epoch = len(losses) // 2
        epoch_means = [np.mean(losses[:steps_per_epoch]),
                       np.mean(losses[steps_per_epoch:])]
        if epoch_means[1] <= epoch_means[0]:
            monotone += 1
    assert monotone >= 1


def test_pretrain_checkpoint_complete():
    dataset = synthetic_graph_dataset(32, seed=1)
    cfg = small_config(epochs=1)
    result = pretrain(dataset, cfg)
    params = init_params(cfg.model, 0, edge_feature_width=cfg.graph.n_centers)
    assert set(result.checkpoint.tensors) == set(params)
    assert result.checkpoint.metadata["loss_kind"] == "sup-bt"


def test_pretrain_bitwise_deterministic_across_workers(tmp_path):
    structures, manifest = generate_synthetic_dataset(
        SyntheticConfig(n_crystals=32, n_classes=2, max_atoms=5, target_noise=0.02, seed=2))
    manifest = load_manifest(write_dataset(structures, manifest, tmp_path))
    outs = []
    for workers in (1, 4, 1):
        cfg = small_config(epochs=2, n_workers=workers)
        dataset = load_graph_dataset(manifest, cfg.graph, n_workers=workers)
        result = pretrain(dataset, cfg)
        outs.append((tuple(result.log.rows),
                     {n: a.tobytes() for n, a in result.checkpoint.tensors.items()}))
    assert outs[0] == outs[1] == outs[2]


def test_importing_and_initialising_loads_no_thread_pool_module():
    code = ("import sys; from crystalpretrain import datasets, model; "
            "model.init_params(model.ModelConfig(), seed=0); "
            "print('concurrent.futures' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, check=True,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert done.stdout.strip() == "False"


VIEW_AUGMENTS = {
    "default": AugmentConfig(),
    "off": AugmentConfig(atom_mask_fraction=0.0, edge_mask_fraction=0.0, gndn_delta=0.0),
    "mask-all": AugmentConfig(atom_mask_fraction=1.0, edge_mask_fraction=1.0, gndn_delta=0.3),
    # one child off at a time
    "atom-mask-off": AugmentConfig(atom_mask_fraction=0.0, edge_mask_fraction=0.3,
                                   gndn_delta=0.3),
    "edge-mask-off": AugmentConfig(atom_mask_fraction=0.3, edge_mask_fraction=0.0,
                                   gndn_delta=0.0),
}


def one_edge_graph(graph_cfg=SMALL_GRAPH) -> CrystalGraph:
    distances = np.array([3.1])
    return CrystalGraph(node_z=np.array([26]), src=np.array([0]), dst=np.array([0]),
                        images=np.array([[1, 0, 0]]), distances=distances,
                        edge_features=gaussian_expand(distances, graph_cfg))


def assert_batches_identical(got: GraphBatch, expected: GraphBatch):
    names = [f.name for f in fields(GraphBatch) if f.name != "edges"]
    for name in names + ["edges.src", "edges.dst"]:
        a, b = attrgetter(name)(got), attrgetter(name)(expected)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        else:
            assert a == b, name


def oracle_pair(graph, cfg: TrainConfig, epoch, index, tag) -> list[CrystalGraph]:
    """The views_oracle views of the crystal at dataset position index, from
    the streams (seed, tag, epoch, index, view) that pretraining keys."""
    streams = [RngStream(cfg.seed, tag, epoch, index, view) for view in (0, 1)]
    return [replace(graph, node_masked=node_masked, edge_masked=edge_masked,
                    distances=distances, edge_features=edge_features)
            for node_masked, edge_masked, distances, edge_features
            in views_oracle(graph, cfg.augment, streams, cfg.graph)]


@pytest.mark.parametrize("augment", sorted(VIEW_AUGMENTS))
@pytest.mark.parametrize("epoch", [0, 3])
@pytest.mark.parametrize("tag", ["augment", "eval-augment"])
@pytest.mark.parametrize("table", [False, True], ids=["embedding", "feature-table"])
def test_view_batch_is_build_batch_of_view_pairs(augment, epoch, tag, table):
    structures, manifest = generate_synthetic_dataset(
        SyntheticConfig(n_crystals=40, n_classes=2, max_atoms=6, seed=8))
    rows = FeatureTable(rows={z: np.array([z, 1.0 / z, z % 7]) for z in range(1, MAX_Z + 1)},
                        width=3) if table else None
    graphs = [build_graph(s, SMALL_GRAPH, rows) for s in structures]
    graphs[5] = one_edge_graph()
    if table:
        graphs[5].node_features = rows.lookup(26)[None, :]
    dataset = GraphDataset(records=list(manifest.records), graphs=graphs)
    cfg = small_config(augment=VIEW_AUGMENTS[augment], seed=11)
    order = np.random.default_rng(epoch).permutation(40)
    # batches of 1, 5, 6, 16 and 12 crystals seed 6, 30, 36, 96 and 72
    # streams: both sides of the size at which rng.generators switches
    for idx in np.split(order, np.cumsum([1, 5, 6, 16])):
        expected = build_batch([view for i in idx
                                for view in oracle_pair(graphs[i], cfg, epoch, i, tag)])
        assert_batches_identical(view_batch(dataset, idx, cfg, epoch, tag), expected)


@pytest.mark.parametrize("augment", sorted(VIEW_AUGMENTS))
@pytest.mark.parametrize("key_length", [1, 5, 9])
def test_make_views_is_the_views_oracle(augment, key_length):
    structures, _ = generate_synthetic_dataset(SyntheticConfig(n_crystals=3, max_atoms=6, seed=9))
    rows = FeatureTable(rows={z: np.array([z, 1.0 / z, z % 7]) for z in range(1, MAX_Z + 1)},
                        width=3)
    graphs = [build_graph(s, SMALL_GRAPH) for s in structures]
    graphs += [one_edge_graph(), build_graph(structures[0], SMALL_GRAPH, rows)]
    cfg = VIEW_AUGMENTS[augment]
    for k, graph in enumerate(graphs):
        streams = tuple(RngStream(2 * k + view, *range(key_length - 1)) for view in (0, 1))
        views = make_views(graph, cfg, streams, SMALL_GRAPH)
        for view, expected in zip(views, views_oracle(graph, cfg, streams, SMALL_GRAPH)):
            for name, want in zip(("node_masked", "edge_masked", "distances",
                                   "edge_features"), expected):
                got = getattr(view, name)
                assert (got.dtype, got.shape) == (want.dtype, want.shape), name
                assert got.tobytes() == want.tobytes(), name


def test_make_views_refuses_streams_whose_keys_differ_in_length():
    with pytest.raises(ValueError, match="differ in length"):
        make_views(one_edge_graph(), AugmentConfig(), (RngStream(3, 0), RngStream(3, 0, 1)),
                   SMALL_GRAPH)


def test_pretrain_logs_every_step():
    dataset = synthetic_graph_dataset(40, seed=6)
    n_train = len(split_dataset(dataset.records, "pretrain", 0)["train"])
    assert n_train % 8 > 1  # the short last batch is a step too
    result = pretrain(dataset, small_config(batch_size=8))
    steps = [r[0] for r in result.log.rows if r[3] != ""]
    assert steps == list(range(1, 2 * math.ceil(n_train / 8) + 1))


def test_pretrain_requires_labels_for_supervised_losses():
    dataset = synthetic_graph_dataset(32, seed=3)
    dataset.records[5].surrogate_label = None
    with pytest.raises(MissingSurrogateLabel) as err:
        pretrain(dataset, small_config())
    assert err.value.record_id == dataset.records[5].id


def test_pretrain_single_class_batch_is_fine():
    dataset = synthetic_graph_dataset(24, seed=4)
    for rec in dataset.records:
        rec.surrogate_label = 0  # mask handles it: different-class term is zero
    result = pretrain(dataset, small_config(epochs=1))
    assert np.isfinite([float(r[3]) for r in result.log.rows if r[3] != ""]).all()


def test_pretrain_identical_views_lower_nt_xent():
    dataset = synthetic_graph_dataset(24, seed=5)
    # two eval crystals: nt-xent refuses a one-crystal eval split
    base = dict(loss=LossConfig(kind="nt-xent", temperature=0.5), epochs=1,
                batch_size=24, pretrain_eval_fraction=0.1)
    on = pretrain(dataset, small_config(**base))
    no_aug = AugmentConfig(atom_mask_fraction=0.0, edge_mask_fraction=0.0, gndn_delta=0.0)
    off = pretrain(dataset, small_config(**base, augment=no_aug))
    first = lambda res: float(next(r[3] for r in res.log.rows if r[3] != ""))
    assert first(off) < first(on)


# ---------------------------------------------------------------------------
# fine-tuning
# ---------------------------------------------------------------------------

def test_finetune_regression_smoke():
    dataset = synthetic_graph_dataset(40, seed=6)
    cfg = small_config(epochs=3)
    result = finetune(dataset, None, cfg)
    assert result.metrics.mae is not None and result.metrics.mae >= 0.0
    assert result.metrics.accuracy is None
    assert result.checkpoint.metadata["task"] == "regression"
    assert "target_mean" in result.checkpoint.metadata


def test_finetune_from_checkpoint_and_shape_guard():
    dataset = synthetic_graph_dataset(40, seed=7)
    cfg = small_config(epochs=1)
    pre = pretrain(dataset, cfg)
    result = finetune(dataset, pre.checkpoint, cfg)
    assert result.metrics.mae is not None

    from crystalpretrain.autodiff import ShapeMismatch
    wrong = checkpoint_from_params(
        init_params(ModelConfig(hidden_dim=4, n_conv=2, embed_dim=8, head_hidden=8),
                    0, edge_feature_width=cfg.graph.n_centers),
        cfg.model, {})
    with pytest.raises(ShapeMismatch):
        finetune(dataset, wrong, cfg)


def test_finetune_missing_target():
    dataset = synthetic_graph_dataset(40, seed=8)
    dataset.records[3].target = None
    with pytest.raises(MissingTarget):
        finetune(dataset, None, small_config(epochs=1))


def test_finetune_classification_validates_targets():
    dataset = synthetic_graph_dataset(40, seed=9)
    with pytest.raises(TrainError):
        finetune(dataset, None, small_config(epochs=1, task="binary-classification"))


def test_finetune_deterministic():
    dataset = synthetic_graph_dataset(32, seed=10)
    cfg = small_config(epochs=2)
    a = finetune(dataset, None, cfg)
    b = finetune(dataset, None, cfg)
    assert a.metrics == b.metrics
    assert tuple(a.log.rows) == tuple(b.log.rows)


def test_one_crystal_last_batch_skipped_by_pretraining_only():
    # 22 crystals: 21 pretrain-train rows in batches of 4, 16 finetune-train
    # rows in batches of 5; both leave a one-crystal last batch
    dataset = synthetic_graph_dataset(22, seed=13)
    pre_cfg, ft_cfg = small_config(batch_size=4), small_config(batch_size=5)
    n_pre = len(split_dataset(dataset.records, "pretrain", 0)["train"])
    n_ft = len(split_dataset(dataset.records, "finetune", 0)["train"])
    assert (n_pre % 4, n_ft % 5) == (1, 1)
    pre, ft = pretrain(dataset, pre_cfg), finetune(dataset, None, ft_cfg)
    for result, rows_per_epoch in ((pre, n_pre // 4), (ft, math.ceil(n_ft / 5))):
        for epoch in range(2):
            losses = [r for r in result.log.rows if r[1] == epoch and r[3] != ""]
            assert len(losses) == rows_per_epoch


# ---------------------------------------------------------------------------
# the epoch loop's contract: what the logs and checkpoints of a run say
# ---------------------------------------------------------------------------

def test_pretrain_epoch_checkpoint_is_the_shorter_runs_final(tmp_path):
    dataset = synthetic_graph_dataset(32, seed=17)
    pretrain(dataset, small_config(epochs=2), out_dir=tmp_path / "two")
    pretrain(dataset, small_config(epochs=1), out_dir=tmp_path / "one")
    two, one = tmp_path / "two", tmp_path / "one"
    assert (two / "epoch-0001.ckpt").read_bytes() == (one / "final.ckpt").read_bytes()
    assert (two / "epoch-0002.ckpt").read_bytes() == (two / "final.ckpt").read_bytes()


def test_log_metric_rows_sit_at_the_steps_taken_before_them(tmp_path):
    dataset = synthetic_graph_dataset(40, seed=18)
    cfg = small_config(epochs=3, batch_size=8)
    pretrain(dataset, cfg, out_dir=tmp_path / "pretrain")
    finetune(dataset, None, cfg, out_dir=tmp_path / "finetune")
    for phase in ("pretrain", "finetune"):
        with open(tmp_path / phase / "log.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        n_loss, metrics = 0, []
        for row in rows:
            n_loss += row["loss"] != ""
            assert int(row["step"]) == n_loss
            if row["metric_name"]:
                metrics.append((row["metric_name"], int(row["step"]), int(row["epoch"])))
        if phase == "pretrain":
            assert [(m[0], m[2]) for m in metrics] == [("eval_loss", e) for e in range(3)]
        else:
            assert metrics[0] == ("val_mae", 0, 0)
            assert [(m[0], m[2]) for m in metrics[1:-1]] == [("val_mae", e) for e in range(3)]
            assert metrics[-1] == ("test_mae", n_loss, 3)


def test_finetune_keeps_the_first_best_epoch():
    # dataset seed 16, batch 5, lr 3e-3, 4 epochs: the val MAE is lowest
    # after epoch 2, so the best is neither the start nor the end
    dataset = synthetic_graph_dataset(40, seed=16)
    cfg = small_config(epochs=4, batch_size=5, lr=3e-3)
    result = finetune(dataset, None, cfg)
    val = [(r[1], float(r[5])) for r in result.log.rows if r[4] == "val_mae"]
    first_min = min(range(len(val)), key=lambda k: val[k][1])
    assert result.metrics.val_metric == val[first_min][1]
    assert result.metrics.best_epoch == (val[first_min][0] + 1 if first_min else 0) == 2
    shorter = finetune(dataset, None, replace(cfg, epochs=result.metrics.best_epoch))
    assert shorter.metrics.best_epoch == 2
    assert ({n: a.tobytes() for n, a in result.checkpoint.tensors.items()}
            == {n: a.tobytes() for n, a in shorter.checkpoint.tensors.items()})


def test_evaluate_checkpoint_matches_finetune_test_metric():
    dataset = synthetic_graph_dataset(40, seed=11)
    cfg = small_config(epochs=2)
    result = finetune(dataset, None, cfg)
    again = evaluate_checkpoint(dataset, result.checkpoint, cfg)
    # float32 checkpoint round trip: close, not exact
    assert abs(again.mae - result.metrics.mae) < 1e-4


def test_loss_mode_decomposition_at_shared_parameters():
    # evaluating the three sup-bt modes on one embedded batch: full == on + off
    from crystalpretrain.losses import compute_loss
    from crystalpretrain.model import build_batch, encode, project
    from crystalpretrain.augment import make_views
    from crystalpretrain.rng import RngStream

    dataset = synthetic_graph_dataset(16, seed=12)
    cfg = small_config()
    params = init_params(cfg.model, 0, edge_feature_width=cfg.graph.n_centers)
    pairs = [make_views(g, cfg.augment,
                        (RngStream(0, "augment", 0, i, 0),
                         RngStream(0, "augment", 0, i, 1)), cfg.graph)
             for i, g in enumerate(dataset.graphs)]
    views = [v for pair in pairs for v in pair]
    z = project(params, encode(params, build_batch(views), cfg.model))
    labels = np.array([r.surrogate_label for r in dataset.records])
    values = {mode: compute_loss(LossConfig(kind="sup-bt", bt_mode=mode),
                                 z, labels).item()
              for mode in ("full", "on_diag_only", "off_diag_only")}
    assert values["full"] == values["on_diag_only"] + values["off_diag_only"]


def test_train_config_defaults_by_phase():
    cfg = TrainConfig(loss=LossConfig(kind="sup-bt")).resolved("pretrain")
    assert (cfg.batch_size, cfg.epochs, cfg.lr) == (128, 15, 1e-5)
    cfg = TrainConfig(loss=LossConfig(kind="supcon")).resolved("pretrain")
    assert cfg.batch_size == 256
    cfg = TrainConfig().resolved("finetune")
    assert (cfg.batch_size, cfg.epochs, cfg.lr) == (128, 200, 1e-3)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=1).resolved("pretrain")
    with pytest.raises(ValueError):
        TrainConfig(val_fraction=0.5, test_fraction=0.6).resolved("finetune")


@pytest.mark.parametrize("seed,ok", [(-1, False), (2 ** 32, False), (0, True),
                                     (2 ** 32 - 1, True)])
def test_seed_must_fit_32_bits(seed, ok):
    # stream keys keep 32 bits of each part: a wider seed would alias another
    if ok:
        TrainConfig(seed=seed).resolved("pretrain")
        SyntheticConfig(n_crystals=4, seed=seed)
        return
    with pytest.raises(ValueError, match="seed"):
        TrainConfig(seed=seed).resolved("pretrain")
    with pytest.raises(ValueError, match="seed"):
        SyntheticConfig(n_crystals=4, seed=seed)


@pytest.mark.parametrize("cls,field", [
    (GraphConfig, "radius"), (GraphConfig, "mu_min"), (GraphConfig, "mu_max"),
    (GraphConfig, "mu_step"), (GraphConfig, "sigma"), (AugmentConfig, "gndn_delta"),
    (LossConfig, "temperature"), (LossConfig, "lam"), (SyntheticConfig, "target_noise"),
    (TrainConfig, "lr"), (TrainConfig, "weight_decay"), (TrainConfig, "adam_eps")])
def test_configs_refuse_non_finite_when_built_or_replaced(cls, field):
    # no later step has to remember a check: the constructor and replace run it
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            cls(**{field: value})
        with pytest.raises(ValueError):
            replace(cls(), **{field: value})


def test_train_config_checks_itself_before_resolved():
    with pytest.raises(ValueError, match="batch_size"):
        TrainConfig(batch_size=1)
    with pytest.raises(ValueError, match="unknown phase"):
        TrainConfig(phase="warmup")
    with pytest.raises(ValueError, match="unknown phase"):
        TrainConfig().resolved("warmup")
    assert TrainConfig().batch_size is None  # unset until a phase is resolved


def test_train_config_rejects_unknown_task():
    with pytest.raises(ValueError, match="unknown task 'ranking'"):
        TrainConfig(task="ranking").resolved("finetune")
