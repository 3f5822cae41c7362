"""Crystal structure -> graph: periodic neighbor search and edge featurization.

Each atom is connected to its nearest periodic images within a cutoff radius,
capped at a maximum neighbor count; edge distances are expanded over a grid
of Gaussian basis functions.

The neighbor search is a linked-cell search. The periodic images of every
site are binned into cubes whose edge is the search radius, and each atom is
tested only against the points in the 27 bins around its own. At a fixed
density a bin holds a bounded number of points, so the candidate pairs grow
as O(N) with the number of sites N, where testing every (atom, site, image)
triple grows as O(N^2) times the image count.

The search runs at two radii. Every atom is first searched at r1, a little
more than the radius that holds max_neighbors atoms at the cell's mean
density (5.3-7.1 A for the middle half of the synthetic cells, against the
default 8 A cutoff), so fewer candidates are found, measured and sorted.
Only the atoms with fewer than max_neighbors candidates within r1 are
searched again at the cutoff. The output does not change: an atom with
max_neighbors candidates within r1 has its nearest ones, ties included,
among them.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .structures import CrystalStructure, decode_utf8


class GraphError(Exception):
    """Base class for graph construction problems."""


class IsolatedAtom(GraphError):
    def __init__(self, atom_indices):
        self.atom_indices = list(atom_indices)
        super().__init__(
            f"atoms {self.atom_indices} have no neighbor within the cutoff radius")


class MissingTableEntry(GraphError):
    def __init__(self, z: int):
        self.z = z
        super().__init__(f"node feature table has no entry for atomic number {z}")


@dataclass
class GraphConfig:
    radius: float = 8.0
    max_neighbors: int = 12
    mu_min: float = 0.0
    mu_max: float = 8.0
    mu_step: float = 0.2
    sigma: float = 0.2
    # CSV of fixed per-element node features; None means learned embeddings
    feature_table: str | None = None

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("radius must be positive")
        if self.max_neighbors < 1:
            raise ValueError("max_neighbors must be >= 1")
        if self.mu_step <= 0 or self.sigma <= 0:
            raise ValueError("mu_step and sigma must be positive")
        if self.mu_max <= self.mu_min:
            raise ValueError("mu_max must exceed mu_min")

    @property
    def n_centers(self) -> int:
        # the 1e-9 absorbs float noise so an exactly divisible span keeps
        # both endpoints (0..8 by 0.2 -> 41 centers)
        return int(math.floor((self.mu_max - self.mu_min) / self.mu_step + 1e-9)) + 1

    @property
    def centers(self) -> np.ndarray:
        return self.mu_min + self.mu_step * np.arange(self.n_centers)


@dataclass
class CrystalGraph:
    """Periodic graph: directed edges from each anchor atom to its neighbors."""

    node_z: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    images: np.ndarray
    distances: np.ndarray
    edge_features: np.ndarray
    # (n_nodes, table width) rows of the external feature table, or None
    node_features: np.ndarray | None = None
    node_masked: np.ndarray = field(default=None)
    edge_masked: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.node_masked is None:
            self.node_masked = np.zeros(len(self.node_z), dtype=bool)
        if self.edge_masked is None:
            self.edge_masked = np.zeros(len(self.src), dtype=bool)

    @property
    def n_nodes(self) -> int:
        return len(self.node_z)

    @property
    def n_edges(self) -> int:
        return len(self.src)

    def copy(self) -> "CrystalGraph":
        return CrystalGraph(**{name: None if value is None else value.copy()
                               for name, value in vars(self).items()})


def frac_to_cart(structure: CrystalStructure) -> np.ndarray:
    """Cartesian coordinates in angstroms: row vector times lattice matrix."""
    return structure.frac_coords @ structure.lattice


def _image_ranges(lattice: np.ndarray, radius: float) -> tuple[int, int, int]:
    # plane spacing along each axis bounds how far images can reach
    inv = np.linalg.inv(lattice)
    heights = 1.0 / np.linalg.norm(inv, axis=0)
    return tuple(int(math.ceil(radius / h)) + 1 for h in heights)


# the 27 bins around and including a bin, as (dx, dy, dz) in -1..1
_STENCIL = np.indices((3, 3, 3)).reshape(3, -1).T - 1

# the first pass searches this multiple of the radius that holds
# max_neighbors atoms at the cell's mean density; it changes speed only
_FIRST_PASS_SCALE = 1.2


def _candidates(xyz: np.ndarray, image_pos: np.ndarray, radius: float,
                anchors: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(anchor, point, distance) of every image point within radius of each
    of anchors, distance 0 excluded, in no particular order.

    xyz and image_pos hold the x, y and z of the sites and of the image
    points as their three rows. Linked cells: the points are binned into
    cubes of edge radius * (1 + 1e-9), and each anchor is tested only
    against the points in the 27 bins around its own. A pair within the
    radius is at most the radius apart along each axis, so its bins are at
    most one apart; the 1e-9 margin keeps a pair at exactly the radius in
    adjacent bins, whatever the rounding of the bin indices.
    """
    anchor_pos = xyz[:, anchors]
    # bins cover the anchors' bounding box grown by one bin; image points
    # outside it are beyond the radius of every anchor
    edge = radius * (1.0 + 1e-9)
    lo = anchor_pos.min(axis=1, keepdims=True) - edge
    hi = anchor_pos.max(axis=1, keepdims=True) + edge
    point_idx = np.nonzero(((image_pos >= lo) & (image_pos <= hi)).all(axis=0))[0]
    # one more bin than the points need on each axis: that layer stays
    # empty, so a stencil step past either end of an axis lands in it
    dims = np.floor((hi - lo) / edge).astype(np.int64).ravel() + 2
    strides = np.array([dims[1] * dims[2], dims[2], 1])
    point_key = strides @ np.floor((image_pos.take(point_idx, axis=1) - lo)
                                   / edge).astype(np.int64)
    by_key = np.argsort(point_key)
    point_idx, point_key = point_idx[by_key], point_key[by_key]

    # the 27 bins of each anchor as ranges of the sorted points
    anchor_key = strides @ np.floor((anchor_pos - lo) / edge).astype(np.int64)
    bins = (anchor_key[:, None] + (_STENCIL @ strides)[None, :]).ravel()
    first = np.searchsorted(point_key, bins, side="left")
    counts = np.searchsorted(point_key, bins, side="right") - first
    row_end = np.cumsum(counts)
    pos = np.arange(row_end[-1]) + np.repeat(first - (row_end - counts), counts)
    anchor_idx = np.repeat(anchors.repeat(len(_STENCIL)), counts)
    point = point_idx[pos]

    # disp = r_j + shift_o - r_i; the squares add in x, y, z order
    disp = image_pos.take(point, axis=1) - xyz.take(anchor_idx, axis=1)
    dist = np.sqrt(disp[0] * disp[0] + disp[1] * disp[1] + disp[2] * disp[2])
    within = np.nonzero((dist > 0.0) & (dist <= radius))[0]
    return anchor_idx[within], point[within], dist[within]


def neighbor_list(structure: CrystalStructure, cfg: GraphConfig
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """All periodic neighbors within the cutoff, at most max_neighbors each.

    Returns (src, dst, images, distances) in anchor-major order. Candidates
    are sorted by distance with ties broken by (neighbor index, image vector)
    lexicographically, then truncated to max_neighbors per anchor.

    The candidates are the image points r_j + shift_o of a block of lattice
    translations large enough to reach the cutoff, found in two passes of a
    linked-cell search (_candidates). The first pass searches every anchor
    at r1 = min(radius, 1.2 r_k), where r_k = (3 k V / (4 pi N))^(1/3) is
    the radius that holds k = max_neighbors atoms at the cell's mean
    density. An anchor with at least k candidates within r1 keeps them: its
    k nearest, and every tie at the k-th distance, lie within r1, and they
    sort first among its candidates within the cutoff. The second pass
    searches only the anchors left short, at the cutoff, in place of their
    first-pass candidates.

    The result is bit-identical to testing every (anchor, site, image)
    triple of the block: both passes read the same image points, pruning
    drops only pairs that the cap or the cutoff would drop, and each
    distance is the square root of dx^2 + dy^2 + dz^2 added left to right.
    Points are numbered in (neighbor index, image vector) order, so the
    sort keys (anchor, distance, point) are unique per edge and the order in
    which candidates are found does not matter.
    """
    # contiguous rows of x, y and z: a transposed view would make the
    # gathers and the arithmetic on them strided, and slower
    xyz = frac_to_cart(structure).T.copy()
    n = structure.n_sites
    na, nb, nc = _image_ranges(structure.lattice, cfg.radius)
    grids = np.meshgrid(np.arange(-na, na + 1), np.arange(-nb, nb + 1),
                        np.arange(-nc, nc + 1), indexing="ij")
    # image vectors in lexicographic order
    offsets = np.stack([g.ravel() for g in grids], axis=1)
    shifts = offsets @ structure.lattice
    # r_j + shift_o as rows of x, y and z: point p is site p // len(offsets),
    # image p % len(offsets), so points ascend by (site, image vector)
    image_pos = (xyz[:, :, None] + shifts.T[:, None, :]).reshape(3, -1)

    k = cfg.max_neighbors
    r_k = (3.0 * k * structure.volume / (4.0 * math.pi * n)) ** (1.0 / 3.0)
    r1 = min(cfg.radius, _FIRST_PASS_SCALE * r_k)
    anchor_idx, point, d = _candidates(xyz, image_pos, r1, np.arange(n))
    if r1 < cfg.radius:
        short = np.bincount(anchor_idx, minlength=n) < k
        if short.any():
            keep = ~short[anchor_idx]
            found = _candidates(xyz, image_pos, cfg.radius, np.nonzero(short)[0])
            anchor_idx, point, d = (np.concatenate([a[keep], b])
                                    for a, b in zip((anchor_idx, point, d), found))

    order = np.lexsort((point, d, anchor_idx))
    anchor_idx, point, d = anchor_idx[order], point[order], d[order]

    per_anchor = np.bincount(anchor_idx, minlength=n)
    isolated = np.nonzero(per_anchor == 0)[0]
    if len(isolated):
        raise IsolatedAtom(isolated.tolist())

    # rank of each edge within its anchor's sorted run
    rank = np.arange(len(anchor_idx)) - (np.cumsum(per_anchor) - per_anchor)[anchor_idx]
    keep = rank < k
    neigh_idx, off_idx = np.divmod(point[keep], len(offsets))
    return (anchor_idx[keep].astype(np.int64), neigh_idx.astype(np.int64),
            offsets[off_idx].astype(np.int64), d[keep])


# exp(x) is a normal float64 exactly when x >= this (math, not np.finfo,
# which costs import time)
_LOG_MIN_NORMAL = math.log(sys.float_info.min)


def gaussian_expand(distances: np.ndarray, cfg: GraphConfig) -> np.ndarray:
    """exp(-(d - mu_k)^2 / sigma^2) over the center grid. Any distance is
    accepted, negative ones (possible after noising) included. A value below
    the smallest normal float64 (|d - mu_k| > 26.6 sigma, 5.32 A at the
    default sigma) is exactly 0, not subnormal: subnormal operands slow down the matmuls
    over the edge features severalfold, and the exponentials that would
    give them are slow too. Every other value is the formula's."""
    d = np.asarray(distances, dtype=np.float64)
    arg = d[:, None] - cfg.centers[None, :]
    arg *= arg
    np.negative(arg, out=arg)
    arg /= cfg.sigma * cfg.sigma
    arg[arg < _LOG_MIN_NORMAL] = -np.inf
    return np.exp(arg, out=arg)


@dataclass
class FeatureTable:
    rows: dict[int, np.ndarray]
    width: int
    sha256: str | None = None  # hex digest of the file's bytes

    def lookup(self, z: int) -> np.ndarray:
        if z not in self.rows:
            raise MissingTableEntry(z)
        return self.rows[z]


def load_feature_table(path) -> FeatureTable:
    """Read an external node-feature table: CSV header z,f0,f1,... and at
    most one row per element."""
    data = Path(path).read_bytes()
    reader = csv.reader(io.StringIO(decode_utf8(data, path, GraphError), newline=""))
    header = next(reader, None)
    if not header or header[0].strip() != "z":
        raise GraphError("feature table must start with header z,f0,f1,...")
    width = len(header) - 1
    if width < 1:
        raise GraphError("feature table needs at least one feature column")
    rows: dict[int, np.ndarray] = {}
    for row in reader:
        if not row:
            continue
        if len(row) - 1 != width:
            raise GraphError(f"feature table row width {len(row) - 1} != {width}")
        try:
            z, values = int(row[0]), np.array([float(x) for x in row[1:]])
        except ValueError as exc:
            raise GraphError(f"{path}:{reader.line_num}: {exc}") from None
        if z in rows:
            raise GraphError(f"{path}:{reader.line_num}: a second row for z={z}")
        rows[z] = values
    return FeatureTable(rows=rows, width=width, sha256=hashlib.sha256(data).hexdigest())


def build_graph(structure: CrystalStructure, cfg: GraphConfig,
                feature_table: FeatureTable | None = None) -> CrystalGraph:
    """Neighbor search plus Gaussian edge features; deterministic.

    feature_table is cfg.feature_table loaded; when given, each atom's row
    becomes its node features, and an element the table lacks raises
    MissingTableEntry.
    """
    src, dst, images, distances = neighbor_list(structure, cfg)
    edge_features = gaussian_expand(distances, cfg)
    node_features = None
    if feature_table is not None:
        node_features = np.stack([feature_table.lookup(int(z))
                                  for z in structure.atomic_numbers])
    return CrystalGraph(
        node_z=structure.atomic_numbers.copy(),
        src=src,
        dst=dst,
        images=images,
        distances=distances,
        edge_features=edge_features,
        node_features=node_features,
    )
