"""Independent brute-force oracles used only by tests.

Kept deliberately naive: explicit loops over an image block (5x5x5 by
default) for the neighbor search and scalar loops elsewhere, sharing no code
with the implementations they check. grad_check compares the tape's gradients with
central differences of the same function.
"""

import math

import numpy as np

from crystalpretrain.autodiff import Tape, backward


def brute_force_neighbors(structure, radius, max_neighbors, reach=2):
    """Enumerate every pair across image offsets -reach..reach, then sort and
    cut.

    Returns (src, dst, image, distance) tuples in anchor-major order with the
    documented tie-break: ascending distance, then neighbor index, then image
    vector lexicographically.
    """
    lattice = structure.lattice
    cart = structure.frac_coords @ lattice
    n = len(cart)
    steps = range(-reach, reach + 1)
    per_anchor = [[] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for n0 in steps:
                for n1 in steps:
                    for n2 in steps:
                        shift = np.array([n0, n1, n2]) @ lattice
                        disp = cart[j] + shift - cart[i]
                        d = np.sqrt((disp * disp).sum())
                        if 0.0 < d <= radius:
                            per_anchor[i].append((d, j, (n0, n1, n2)))
    edges = []
    for i in range(n):
        assert per_anchor[i], f"oracle found atom {i} isolated"
        per_anchor[i].sort(key=lambda t: (t[0], t[1], t[2]))
        for d, j, img in per_anchor[i][:max_neighbors]:
            edges.append((i, j, img, d))
    return edges


def pooled_means(node_feats, crystal_ids, n_crystals):
    """Scalar-loop mean pooling."""
    width = len(node_feats[0])
    out = []
    for c in range(n_crystals):
        members = [row for row, cid in zip(node_feats, crystal_ids) if cid == c]
        out.append([sum(m[k] for m in members) / len(members) for k in range(width)])
    return out


def count_elements(cif_texts):
    """Recount element occurrences straight from CIF text site loops."""
    counts = {}
    for text in cif_texts:
        in_loop = False
        columns = []
        for line in text.splitlines():
            token = line.strip()
            if token == "loop_":
                in_loop = True
                columns = []
                continue
            if in_loop and token.startswith("_"):
                columns.append(token)
                continue
            if in_loop and token and not token.startswith(("_", "data_")):
                if "_atom_site_type_symbol" in columns:
                    sym = token.split()[columns.index("_atom_site_type_symbol")]
                    counts[sym] = counts.get(sym, 0) + 1
    return counts


def gated_conv_loop(node_feats, edge_feats, src, dst, gate_weight, gate_bias,
                    self_weight, self_bias):
    """Scalar-loop CGCNN convolution: for each edge i -> j, concatenate
    [v_i, v_j, e_ij], apply the sigmoid gate and the softplus filter unit by
    unit, and add the message onto a copy of v_i."""
    out = [list(row) for row in node_feats]
    for i, j, e in zip(src, dst, edge_feats):
        z = list(node_feats[i]) + list(node_feats[j]) + list(e)
        for c in range(len(out[i])):
            a = gate_bias[0][c] + sum(zk * gate_weight[k][c] for k, zk in enumerate(z))
            s = self_bias[0][c] + sum(zk * self_weight[k][c] for k, zk in enumerate(z))
            softplus = s + math.log1p(math.exp(-s)) if s > 0 else math.log1p(math.exp(s))
            out[i][c] += softplus / (1.0 + math.exp(-a))
    return out


def grad_check(f, params, h: float = 1e-5, max_coords: int = 64,
               seed: int = 0) -> float:
    """Max relative error between tape gradients and central differences.

    f maps the given parameter tensors to a scalar Tensor and must be
    deterministic. Tensors larger than max_coords are probed at a seeded
    random subset of coordinates.
    """
    params = list(params)
    with Tape() as tape:
        loss = f(params)
        grads = backward(tape, loss)
    analytic = [grads.get(p, np.zeros_like(p.values)) for p in params]

    rng = np.random.default_rng(seed)
    worst = 0.0
    for p, g in zip(params, analytic):
        flat = p.values.reshape(-1)
        gflat = g.reshape(-1)
        if p.size <= max_coords:
            coords = np.arange(p.size)
        else:
            coords = rng.choice(p.size, size=max_coords, replace=False)
        for c in coords:
            orig = flat[c]
            flat[c] = orig + h
            up = f(params).item()
            flat[c] = orig - h
            down = f(params).item()
            flat[c] = orig
            numeric = (up - down) / (2.0 * h)
            a = gflat[c]
            rel = abs(a - numeric) / max(1e-8, abs(a) + abs(numeric))
            worst = max(worst, rel)
    return worst
