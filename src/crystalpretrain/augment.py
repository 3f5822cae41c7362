"""Stochastic graph views: atom masking, edge masking, neighbor distance noising.

The three augmentations run sequentially (atom, edge, noise); a zero
fraction or gndn_delta turns one off. Masking zeroes
feature contributions without touching topology; distance noising perturbs
edge lengths only, never the underlying coordinates, and recomputes the
Gaussian edge features from the noised distances. Each step returns a changed
copy, or with inplace=True changes and returns the graph it is given; a view
copies its graph once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .graphs import CrystalGraph, GraphConfig, gaussian_expand
from .rng import RngStream


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
        if self.gndn_delta < 0.0:
            raise ValueError("gndn_delta must be >= 0")


def mask_count(fraction: float, n: int) -> int:
    """How many of n items to mask: round half up, but at least one when on."""
    if fraction <= 0.0 or n < 1:
        return 0
    return max(1, int(math.floor(fraction * n + 0.5)))


def atom_mask(graph: CrystalGraph, fraction: float, rng: RngStream,
              inplace: bool = False) -> CrystalGraph:
    """Flag a random subset of nodes; their features are zeroed at encoder input."""
    out = graph if inplace else graph.copy()
    k = mask_count(fraction, graph.n_nodes)
    if k:
        chosen = rng.generator().choice(graph.n_nodes, size=k, replace=False)
        out.node_masked[chosen] = True
    return out


def edge_mask(graph: CrystalGraph, fraction: float, rng: RngStream,
              inplace: bool = False) -> CrystalGraph:
    """Zero the feature rows of a random subset of edges; topology unchanged."""
    out = graph if inplace else graph.copy()
    k = mask_count(fraction, graph.n_edges)
    if k:
        chosen = rng.generator().choice(graph.n_edges, size=k, replace=False)
        out.edge_masked[chosen] = True
        out.edge_features[chosen] = 0.0
    return out


def gndn(graph: CrystalGraph, delta: float, rng: RngStream,
         graph_cfg: GraphConfig, inplace: bool = False) -> CrystalGraph:
    """Add independent uniform noise in [-delta, delta] to each edge distance.

    Edge features are recomputed from the noised distances; feature-masked
    edges stay zero. Coordinates and topology are untouched.
    """
    out = graph if inplace else graph.copy()
    eps = rng.generator().uniform(-delta, delta, size=graph.n_edges)
    out.distances = out.distances + eps
    out.edge_features = gaussian_expand(out.distances, graph_cfg)
    out.edge_features[out.edge_masked] = 0.0
    return out


def apply_augmentations(graph: CrystalGraph, cfg: AugmentConfig,
                        stream: RngStream, graph_cfg: GraphConfig) -> CrystalGraph:
    """One augmented view: atom mask, then edge mask, then distance noise,
    applied in place to a single copy of the graph."""
    out = atom_mask(graph, cfg.atom_mask_fraction, stream.child("atom-mask"))
    edge_mask(out, cfg.edge_mask_fraction, stream.child("edge-mask"), inplace=True)
    return gndn(out, cfg.gndn_delta, stream.child("gndn"), graph_cfg, inplace=True)


def make_views(graph: CrystalGraph, cfg: AugmentConfig,
               streams: tuple[RngStream, RngStream],
               graph_cfg: GraphConfig) -> tuple[CrystalGraph, CrystalGraph]:
    """Two independent augmented views of one graph."""
    view1 = apply_augmentations(graph, cfg, streams[0], graph_cfg)
    view2 = apply_augmentations(graph, cfg, streams[1], graph_cfg)
    return view1, view2
