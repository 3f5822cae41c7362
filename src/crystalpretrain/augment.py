"""Stochastic graph views: atom masking, edge masking, neighbor distance noising.

A view draws its node mask, its edge mask and its distance noise from the
"atom-mask", "edge-mask" and "gndn" children of its stream; a zero fraction
or gndn_delta turns one off. Masking zeroes feature contributions without
touching topology; distance noising perturbs edge lengths only, never the
underlying coordinates, and the Gaussian edge features are recomputed from
the noised distances.

batch_views is the one path that draws views: it seeds every view's
children through rng.generators, draws each view (_draw) and expands all
the noised distances at once. make_views is its two-row case, the pair of
one crystal; a view owns its masks, distances and edge features and shares
every other array with the graph it was made from, so nothing may write to
a view's arrays.
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


def _masked(already: np.ndarray, fraction: float, gen: np.random.Generator) -> np.ndarray:
    """A copy of the mask `already` with mask_count(fraction, n) random items set."""
    out = already.copy()
    k = mask_count(fraction, len(out))
    if k:
        out[gen.choice(len(out), size=k, replace=False)] = True
    return out


_CHILDREN = ("atom-mask", "edge-mask", "gndn")


def _draw(graph: CrystalGraph, cfg: AugmentConfig, gens) -> tuple[np.ndarray, ...]:
    """One view's node mask, edge mask and noised distances, drawn from the
    generators of its stream's _CHILDREN, in that order."""
    atom, edge, gndn = gens
    return (_masked(graph.node_masked, cfg.atom_mask_fraction, atom),
            _masked(graph.edge_masked, cfg.edge_mask_fraction, edge),
            graph.distances + gndn.uniform(-cfg.gndn_delta, cfg.gndn_delta,
                                           size=len(graph.distances)))


def batch_views(graphs: list[CrystalGraph], cfg: AugmentConfig, keys,
                graph_cfg: GraphConfig) -> tuple[np.ndarray, ...]:
    """The node masks, edge masks, noised distances and edge features of many
    views, each concatenated in row order: view r is drawn from graphs[r]
    and the stream with key codes keys[r] (an (n, L) array). All the
    streams' children are seeded together (rng.generators), and the noised
    distances go through one gaussian_expand."""
    keys, width = np.asarray(keys, dtype=np.uint32), len(_CHILDREN)
    gens = generators(np.column_stack([
        np.repeat(keys, width, axis=0),
        np.tile([RngStream(name).key[0] for name in _CHILDREN], len(keys))]))
    draws = [_draw(g, cfg, gens[width * r:width * (r + 1)]) for r, g in enumerate(graphs)]
    node_masked, edge_masked, distances = (np.concatenate(a) for a in zip(*draws))
    edge_features = gaussian_expand(distances, graph_cfg)
    edge_features[edge_masked] = 0.0
    return node_masked, edge_masked, distances, edge_features


def make_views(graph: CrystalGraph, cfg: AugmentConfig,
               streams: tuple[RngStream, RngStream],
               graph_cfg: GraphConfig) -> tuple[CrystalGraph, CrystalGraph]:
    """Two independent augmented views of one graph, one per stream, whose
    keys must be of one length: the two rows of batch_views([graph, graph])."""
    if len(streams[0].key) != len(streams[1].key):
        raise ValueError(f"the two view streams' keys differ in length: {streams}")
    pairs = (a.reshape(2, -1, *a.shape[1:]) for a in batch_views(
        [graph, graph], cfg, [stream.key for stream in streams], graph_cfg))
    return tuple(replace(graph, node_masked=node_masked, edge_masked=edge_masked,
                         distances=distances, edge_features=edge_features)
                 for node_masked, edge_masked, distances, edge_features in zip(*pairs))
