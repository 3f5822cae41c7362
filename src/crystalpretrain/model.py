"""Gated graph-convolution encoder over crystal graphs, with projection and
task heads.

Each convolution is the CGCNN gate (Xie & Grossman, PRL 2018): for every edge
i -> j, z = [v_i, v_j, e_ij] passes through a sigmoid gate and a softplus
filter, and the gated messages are summed onto the anchor i and added to v_i
(residual update). The layer runs as one autodiff op, autodiff.gated_conv,
which says how it blocks, threads and saves its edge-sized work. A batch
holds its edges in one autodiff.EdgeRuns, which every layer takes. The
parameters keep their per-gate names and shapes. Mean pooling over each
crystal's nodes yields the crystal vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .elements import MAX_Z
from .graphs import CrystalGraph
from .rng import RngStream

@dataclass
class ModelConfig:
    hidden_dim: int = 64
    n_conv: int = 3
    embed_dim: int = 128
    head_hidden: int = 128

    def __post_init__(self):
        for name in ("hidden_dim", "n_conv", "embed_dim", "head_hidden"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")


def param_spec(cfg: ModelConfig, edge_feature_width: int = 41,
               external_feature_width: int | None = None) -> dict[str, tuple]:
    """Expected name -> shape table for a full parameter set."""
    h = cfg.hidden_dim
    spec: dict[str, tuple] = {}
    if external_feature_width is None:
        spec["atom_embedding"] = (MAX_Z, h)
    else:
        spec["input_projection"] = (external_feature_width, h)
    z_width = 2 * h + edge_feature_width
    for t in range(cfg.n_conv):
        spec[f"conv{t}.gate_weight"] = (z_width, h)
        spec[f"conv{t}.gate_bias"] = (1, h)
        spec[f"conv{t}.self_weight"] = (z_width, h)
        spec[f"conv{t}.self_bias"] = (1, h)
    for head, width, out in (("projection", cfg.embed_dim, cfg.embed_dim),
                             ("head", cfg.head_hidden, 1)):
        spec[f"{head}.w1"] = (h, width)
        spec[f"{head}.b1"] = (1, width)
        spec[f"{head}.w2"] = (width, out)
        spec[f"{head}.b2"] = (1, out)
    return spec


def init_params(cfg: ModelConfig, seed: int, edge_feature_width: int = 41,
                external_feature_width: int | None = None) -> dict[str, Tensor]:
    """Uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) weights, zero biases,
    Normal(0, 1/sqrt(hidden)) embedding rows; a pure function of the seed."""
    params: dict[str, Tensor] = {}
    for name, shape in param_spec(cfg, edge_feature_width, external_feature_width).items():
        gen = RngStream(seed, "init", name).generator()
        if name.endswith(("bias", ".b1", ".b2")):
            values = np.zeros(shape)
        elif name == "atom_embedding":
            values = gen.normal(0.0, 1.0 / np.sqrt(cfg.hidden_dim), size=shape)
        else:
            bound = 1.0 / np.sqrt(shape[0])
            values = gen.uniform(-bound, bound, size=shape)
        params[name] = Tensor(values, requires_grad=True)
    return params


def encoder_param_names(params: dict[str, Tensor]) -> list[str]:
    return [n for n in params
            if n in ("atom_embedding", "input_projection") or n.startswith("conv")]


def pretrain_param_names(params: dict[str, Tensor]) -> list[str]:
    return encoder_param_names(params) + [n for n in params if n.startswith("projection.")]


def finetune_param_names(params: dict[str, Tensor]) -> list[str]:
    return encoder_param_names(params) + [n for n in params if n.startswith("head.")]


def _two_layer(params: dict[str, Tensor], head: str, x: Tensor) -> Tensor:
    hidden = ad.relu(ad.add(ad.matmul(x, params[f"{head}.w1"]), params[f"{head}.b1"]))
    return ad.add(ad.matmul(hidden, params[f"{head}.w2"]), params[f"{head}.b2"])


def project(params: dict[str, Tensor], crystal_vecs: Tensor) -> Tensor:
    return _two_layer(params, "projection", crystal_vecs)


def head_forward(params: dict[str, Tensor], crystal_vecs: Tensor) -> Tensor:
    """Per-crystal scalar: regression value, or classification logit."""
    return _two_layer(params, "head", crystal_vecs)


@dataclass
class GraphBatch:
    """Several graphs fused into one disjoint union for a single forward pass."""

    node_z: np.ndarray
    node_matrix: np.ndarray | None  # external-table node features
    node_keep: np.ndarray  # 1.0 for live nodes, 0.0 for masked
    edges: ad.EdgeRuns  # src and dst, offset into the union; shared by every layer
    edge_features: np.ndarray
    crystal_ids: np.ndarray
    n_crystals: int


def build_batch(graphs: list[CrystalGraph], node_masked: np.ndarray | None = None,
                edge_features: np.ndarray | None = None) -> GraphBatch:
    """The graphs as one disjoint union, in order. node_masked and
    edge_features, if given, are the graphs' node masks and edge features
    concatenated (augment.batch_views' views), taken in place of their own."""
    n_nodes = np.array([g.n_nodes for g in graphs], dtype=np.int64)
    n_edges = np.array([g.n_edges for g in graphs], dtype=np.int64)
    offsets = np.repeat(np.cumsum(n_nodes) - n_nodes, n_edges)
    if node_masked is None:
        node_masked = np.concatenate([g.node_masked for g in graphs])
    if edge_features is None:
        edge_features = np.concatenate([g.edge_features for g in graphs])
    return GraphBatch(
        node_z=np.concatenate([g.node_z for g in graphs]),
        node_matrix=(None if graphs[0].node_features is None
                     else np.concatenate([g.node_features for g in graphs])),
        node_keep=np.where(node_masked, 0.0, 1.0),
        edges=ad.EdgeRuns(np.concatenate([g.src for g in graphs]) + offsets,
                          np.concatenate([g.dst for g in graphs]) + offsets),
        edge_features=edge_features,
        crystal_ids=np.repeat(np.arange(len(graphs), dtype=np.int64), n_nodes),
        n_crystals=len(graphs),
    )


def encode(params: dict[str, Tensor], batch: GraphBatch, cfg: ModelConfig) -> Tensor:
    """Graph batch -> per-crystal pooled vectors (n_crystals, hidden_dim)."""
    if batch.node_matrix is not None:
        feats = ad.matmul(Tensor(batch.node_matrix), params["input_projection"])
    else:
        feats = ad.gather_rows(params["atom_embedding"], batch.node_z - 1)
    if not batch.node_keep.all():
        feats = ad.mul(feats, batch.node_keep[:, None])
    edge_feats = Tensor(batch.edge_features)
    for t in range(cfg.n_conv):
        feats = ad.gated_conv(feats, edge_feats, batch.edges,
                              params[f"conv{t}.gate_weight"], params[f"conv{t}.gate_bias"],
                              params[f"conv{t}.self_weight"], params[f"conv{t}.self_bias"])
    # mean over each crystal's nodes; masked atoms still count
    return ad.segment_mean(feats, batch.crystal_ids, batch.n_crystals)
