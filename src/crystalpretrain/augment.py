"""Stochastic graph views: atom masking, edge masking, neighbor distance noising.

A view draws its node mask, its edge mask and its distance noise from the
"atom-mask", "edge-mask" and "gndn" children of its stream; a zero fraction
or gndn_delta turns one off. Masking zeroes feature contributions without
touching topology; distance noising perturbs edge lengths only, never the
underlying coordinates, and the Gaussian edge features are recomputed from
the noised distances. A view owns its masks, distances and edge features
and shares every other array with the graph it was made from, so nothing
may write to a view's arrays.

make_views draws the two views of one crystal; batch_views draws a whole
batch's views with the same bits, its streams seeded in one pass and its
noised distances expanded at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .graphs import CrystalGraph, GraphConfig, gaussian_expand
from .rng import RngStream, generators


@dataclass
class AugmentConfig:
    atom_mask_fraction: float = 0.10
    edge_mask_fraction: float = 0.10
    gndn_delta: float = 0.5

    def __post_init__(self):
        if not 0.0 <= self.atom_mask_fraction <= 1.0:
            raise ValueError("atom_mask_fraction must lie in [0, 1]")
        if not 0.0 <= self.edge_mask_fraction <= 1.0:
            raise ValueError("edge_mask_fraction must lie in [0, 1]")
        if not 0.0 <= self.gndn_delta < math.inf:
            raise ValueError("gndn_delta must be >= 0 and finite")


def mask_count(fraction: float, n: int) -> int:
    """How many of n items to mask: round half up, but at least one when on."""
    if fraction <= 0.0 or n < 1:
        return 0
    return max(1, int(math.floor(fraction * n + 0.5)))


def _masked(already: np.ndarray, fraction: float, rng: RngStream) -> np.ndarray:
    """A copy of the mask `already` with mask_count(fraction, n) random items set."""
    out = already.copy()
    k = mask_count(fraction, len(out))
    if k:
        out[rng.generator().choice(len(out), size=k, replace=False)] = True
    return out


def make_views(graph: CrystalGraph, cfg: AugmentConfig,
               streams: tuple[RngStream, RngStream],
               graph_cfg: GraphConfig) -> tuple[CrystalGraph, CrystalGraph]:
    """Two independent augmented views of one graph, one per stream."""
    views = []
    for stream in streams:
        node_masked = _masked(graph.node_masked, cfg.atom_mask_fraction,
                              stream.child("atom-mask"))
        edge_masked = _masked(graph.edge_masked, cfg.edge_mask_fraction,
                              stream.child("edge-mask"))
        distances = graph.distances + stream.child("gndn").generator().uniform(
            -cfg.gndn_delta, cfg.gndn_delta, size=len(graph.distances))
        edge_features = gaussian_expand(distances, graph_cfg)
        edge_features[edge_masked] = 0.0
        views.append(replace(graph, distances=distances, edge_features=edge_features,
                             node_masked=node_masked, edge_masked=edge_masked))
    return views[0], views[1]


_CHILDREN = tuple(RngStream(name).key[0] for name in ("atom-mask", "edge-mask", "gndn"))


def batch_views(graphs: list[CrystalGraph], cfg: AugmentConfig, keys: np.ndarray,
                graph_cfg: GraphConfig) -> tuple[np.ndarray, np.ndarray]:
    """The node masks and edge features of many views, each concatenated in
    row order: view r of graphs[r] is the one make_views draws from the
    stream with key codes keys[r] (an (n, L) array), bit for bit. Each
    stream draws what make_views draws, and all are seeded together
    (rng.generators); the noised distances go through one gaussian_expand."""
    n_nodes = [g.n_nodes for g in graphs]
    n_edges = [g.n_edges for g in graphs]
    draws = []  # per child: the views that draw, their item counts, their mask sizes
    for fraction, sizes in ((cfg.atom_mask_fraction, n_nodes),
                            (cfg.edge_mask_fraction, n_edges)):
        counts = [mask_count(fraction, n) for n in sizes]
        draws.append([(r, sizes[r], k) for r, k in enumerate(counts) if k])
    draws.append([(r, m, m) for r, m in enumerate(n_edges)])
    rows = [r for child in draws for r, _, _ in child]
    children = np.repeat(_CHILDREN, [len(child) for child in draws])
    gens = iter(generators(np.column_stack([np.asarray(keys, dtype=np.uint32)[rows],
                                            children])))

    node_masked = np.concatenate([g.node_masked for g in graphs])
    edge_masked = np.concatenate([g.edge_masked for g in graphs])
    for masked, sizes, child in ((node_masked, n_nodes, draws[0]),
                                 (edge_masked, n_edges, draws[1])):
        starts = np.cumsum(sizes) - sizes
        picks = [starts[r] + next(gens).choice(n, size=k, replace=False)
                 for r, n, k in child]
        if picks:
            masked[np.concatenate(picks)] = True
    noise = [next(gens).uniform(-cfg.gndn_delta, cfg.gndn_delta, size=m)
             for _, m, _ in draws[2]]
    distances = np.concatenate([g.distances for g in graphs]) + np.concatenate(noise)
    edge_features = gaussian_expand(distances, graph_cfg)
    edge_features[edge_masked] = 0.0
    return node_masked, edge_features
