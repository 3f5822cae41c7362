"""Stochastic graph views: atom masking, edge masking, neighbor distance noising.

A view draws its node mask, its edge mask and its distance noise from the
"atom-mask", "edge-mask" and "gndn" children of its stream; a zero fraction
or gndn_delta turns one off. Masking zeroes feature contributions without
touching topology; distance noising perturbs edge lengths only, never the
underlying coordinates, and the Gaussian edge features are recomputed from
the noised distances. A view owns its masks, distances and edge features
and shares every other array with the graph it was made from, so nothing
may write to a view's arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

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


def _masked(already: np.ndarray, fraction: float, rng: RngStream) -> np.ndarray:
    """A copy of the mask `already` with mask_count(fraction, n) random items set."""
    out = already.copy()
    k = mask_count(fraction, len(out))
    if k:
        out[rng.generator().choice(len(out), size=k, replace=False)] = True
    return out


def _noised(distances: np.ndarray, edge_masked: np.ndarray, delta: float,
            rng: RngStream, graph_cfg: GraphConfig) -> tuple[np.ndarray, np.ndarray]:
    """distances plus independent uniform noise in [-delta, delta], and their
    Gaussian features with the edge_masked rows zero."""
    noised = distances + rng.generator().uniform(-delta, delta, size=len(distances))
    edge_features = gaussian_expand(noised, graph_cfg)
    edge_features[edge_masked] = 0.0
    return noised, edge_features


def gndn(graph: CrystalGraph, delta: float, rng: RngStream,
         graph_cfg: GraphConfig) -> CrystalGraph:
    """Add independent uniform noise in [-delta, delta] to each edge distance.

    Edge features are recomputed from the noised distances; feature-masked
    edges stay zero. Coordinates and topology are untouched.
    """
    distances, edge_features = _noised(graph.distances, graph.edge_masked, delta, rng,
                                       graph_cfg)
    return replace(graph, distances=distances, edge_features=edge_features)


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
        distances, edge_features = _noised(graph.distances, edge_masked, cfg.gndn_delta,
                                           stream.child("gndn"), graph_cfg)
        views.append(replace(graph, distances=distances, edge_features=edge_features,
                             node_masked=node_masked, edge_masked=edge_masked))
    return views[0], views[1]
