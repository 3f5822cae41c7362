"""Correctness checks on the program's outputs.

Each check either recomputes the answer along a path that shares no code
with the program (brute-force neighbour enumeration, the scalar-loop losses)
or tests a property the method must have (supercell invariance, batching
invariance, exact checkpoint round trip). Each returns ``(ok, detail)``.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from crystalpretrain import reference

DISTANCE_TOL = 1e-9      # angstroms
ENCODING_TOL = 1e-9      # supercell vs primitive pooled encodings
BATCHING_TOL = 1e-10     # batched vs one-graph-at-a-time predictions
LOSS_RTOL = 1e-9         # vectorised vs scalar-loop loss
# float32 weights move each prediction by ~1e-7 of the targets' size; 1e-5
# leaves room for that and still catches a different test split (~1e-3)
FLOAT32_RTOL = 1e-5


def _image_reach(lattice: np.ndarray, radius: float) -> list[int]:
    """Largest |n_k| an image within `radius` can need: the plane spacing of
    family k is V / |a_i x a_j|, and fractional differences lie in (-1, 1)."""
    volume = abs(float(np.linalg.det(lattice)))
    reach = []
    for k in range(3):
        area = np.linalg.norm(np.cross(lattice[(k + 1) % 3], lattice[(k + 2) % 3]))
        reach.append(int(math.floor(radius / (volume / area))) + 1)
    return reach


def brute_force_candidates(structure, radius: float, anchor: int) -> dict:
    """Every (neighbour, image) within `radius` of one anchor -> distance."""
    lattice = structure.lattice
    cart = structure.frac_coords @ lattice
    ranges = [range(-r, r + 1) for r in _image_reach(lattice, radius)]
    images = np.array(list(itertools.product(*ranges)), dtype=np.float64)
    shifts = images @ lattice
    out = {}
    for j in range(len(cart)):
        disp = (cart[j] + shifts) - cart[anchor]
        dist = np.sqrt((disp * disp).sum(axis=1))
        for k in np.nonzero((dist > 0.0) & (dist <= radius))[0]:
            out[(j, tuple(int(x) for x in images[k]))] = float(dist[k])
    return out


def check_neighbors(structure, graph, radius: float, max_neighbors: int,
                    anchors) -> tuple[bool, str]:
    """The graph's edges from each anchor are the max_neighbors nearest
    brute-force candidates: distances agree in sorted order and every edge
    is a distinct real candidate at its stated distance."""
    for a in anchors:
        cands = brute_force_candidates(structure, radius, a)
        expected = sorted(cands.values())[:max_neighbors]
        rows = np.nonzero(graph.src == a)[0]
        got_d = graph.distances[rows]
        if len(rows) != len(expected):
            return False, f"anchor {a}: {len(rows)} edges, expected {len(expected)}"
        if np.abs(got_d - np.array(expected)).max() > DISTANCE_TOL:
            return False, f"anchor {a}: sorted distances differ from brute force"
        keys = [(int(graph.dst[r]), tuple(int(x) for x in graph.images[r]))
                for r in rows]
        if len(set(keys)) != len(keys):
            return False, f"anchor {a}: duplicate edge"
        for key, d in zip(keys, got_d):
            if key not in cands or abs(cands[key] - d) > DISTANCE_TOL:
                return False, f"anchor {a}: edge {key} at {d!r} is not a candidate"
    return True, ""


def _sorted_distances_by_anchor(graph) -> list[np.ndarray]:
    counts = np.bincount(graph.src, minlength=graph.n_nodes)
    return [np.sort(d) for d in np.split(graph.distances, np.cumsum(counts)[:-1])]


def check_supercell_distances(super_graph, prim_graph) -> tuple[bool, str]:
    """Atom a of a supercell sees the same sorted neighbour distances as
    atom a % n of the primitive cell it was tiled from."""
    prim = _sorted_distances_by_anchor(prim_graph)
    for a, d in enumerate(_sorted_distances_by_anchor(super_graph)):
        ref = prim[a % prim_graph.n_nodes]
        if len(d) != len(ref):
            return False, f"atom {a}: {len(d)} neighbours, primitive has {len(ref)}"
        if len(d) and np.abs(d - ref).max() > DISTANCE_TOL:
            return False, f"atom {a}: distances differ from the primitive cell"
    return True, ""


def check_close(got: np.ndarray, expected: np.ndarray, tol: float,
                what: str) -> tuple[bool, str]:
    """Elementwise |got - expected| <= tol, shapes equal."""
    got, expected = np.asarray(got), np.asarray(expected)
    if got.shape != expected.shape:
        return False, f"{what}: shape {got.shape} != {expected.shape}"
    err = float(np.abs(got - expected).max()) if got.size else 0.0
    return err <= tol, f"{what}: max error {err:.3g} (tolerance {tol:g})"


def reference_loss(loss_cfg, z: np.ndarray, labels) -> float:
    """The scalar-loop loss for interleaved view rows z."""
    rows = z.tolist()
    if loss_cfg.kind == "nt-xent":
        return reference.ref_nt_xent(rows, loss_cfg.temperature)
    if loss_cfg.kind == "supcon":
        return reference.ref_supcon(rows, list(labels), loss_cfg.temperature)
    if loss_cfg.kind == "bt":
        return reference.ref_barlow_twins(rows[0::2], rows[1::2], loss_cfg.lam)
    return reference.ref_sup_bt(rows[0::2], rows[1::2], list(labels), loss_cfg.lam,
                                loss_cfg.bt_mode, loss_cfg.sbt_scale)


def check_loss(loss_cfg, z: np.ndarray, labels, got: float) -> tuple[bool, str]:
    ref = reference_loss(loss_cfg, z, labels)
    err = abs(got - ref) / max(1.0, abs(ref))
    return err <= LOSS_RTOL, f"loss {got!r} vs scalar loop {ref!r}"


def check_checkpoint(loaded: dict, saved: dict) -> tuple[bool, str]:
    """Loaded tensors are bit-for-bit the float32 casts of the saved float64
    parameters."""
    if set(loaded) != set(saved):
        return False, f"tensor names differ: {sorted(set(loaded) ^ set(saved))}"
    for name, values in saved.items():
        want = np.asarray(values, dtype=np.float64).astype(np.float32)
        got = loaded[name]
        if got.dtype != np.float32 or got.shape != want.shape \
                or got.tobytes() != want.tobytes():
            return False, f"tensor {name} differs from the float32 cast"
    return True, ""


def check_relative(got: float, expected: float, rtol: float, scale: float,
                   what: str) -> tuple[bool, str]:
    """|got - expected| within rtol of max(|expected|, scale); `scale` keeps
    a near-zero expected value from demanding more than the inputs' own
    rounding allows."""
    err = abs(got - expected) / max(abs(expected), scale)
    return err <= rtol, f"{what}: {got!r} vs {expected!r} (relative {err:.3g})"


def check_beats_mean(mae: float, test_targets, train_targets) -> tuple[bool, str]:
    """The fine-tuned test MAE is below that of predicting the train mean."""
    baseline = float(np.abs(np.asarray(test_targets)
                            - float(np.mean(train_targets))).mean())
    return mae < baseline, f"test MAE {mae!r} vs train-mean predictor {baseline!r}"
