import itertools
import math
import sys

import numpy as np
import pytest

from crystalpretrain import autodiff as ad
from crystalpretrain.augment import AugmentConfig, make_views
from crystalpretrain.autodiff import EmptySegment, Tensor, grad_check
from crystalpretrain.graphs import GraphConfig, IsolatedAtom, build_graph
from crystalpretrain.losses import LossConfig, compute_loss
from crystalpretrain.model import (ModelConfig, build_batch, encode, embed_graphs,
                                   head_forward, init_params, param_spec, project)
from crystalpretrain.rng import RngStream
from conftest import random_structure
from oracles import gated_conv_loop, pooled_means

CFG = ModelConfig(hidden_dim=8, n_conv=2, embed_dim=6, head_hidden=5)
GCFG = GraphConfig(radius=5.0, max_neighbors=12)
# wide basis for gradient checks: no feature underflows, so every weight
# coordinate carries real signal (analogous to nudging relu inputs off 0)
GCHECK = GraphConfig(radius=5.0, max_neighbors=12, mu_max=5.0, mu_step=1.0,
                     sigma=2.0)


def toy_graphs(n=3, seed=0, cfg=GCFG):
    return [build_graph(random_structure(seed + k, max_atoms=5), cfg)
            for k in range(n)]


def test_model_config_invariants():
    with pytest.raises(ValueError):
        ModelConfig(hidden_dim=0)


def test_init_params_deterministic_and_bounded():
    p1 = init_params(CFG, seed=3)
    p2 = init_params(CFG, seed=3)
    spec = param_spec(CFG)
    assert set(p1) == set(spec)
    for name in p1:
        assert p1[name].shape == spec[name]
        assert np.array_equal(p1[name].values, p2[name].values)
        if name.endswith(("bias", "b1", "b2")):
            assert (p1[name].values == 0.0).all()
        elif name != "atom_embedding":
            bound = 1.0 / math.sqrt(p1[name].shape[0])
            assert np.abs(p1[name].values).max() <= bound
    different = init_params(CFG, seed=4)
    assert not np.array_equal(p1["conv0.gate_weight"].values,
                              different["conv0.gate_weight"].values)


def test_conv_zero_params_closed_form():
    # all-zero layer: each incident edge adds sigmoid(0) * softplus(0)
    n, e, h, k = 3, 5, 4, 7
    gen = np.random.default_rng(0)
    feats = Tensor(gen.normal(size=(n, h)))
    edge_feats = Tensor(gen.normal(size=(e, k)))
    src = np.array([0, 0, 0, 1, 1])
    dst = np.array([1, 2, 1, 0, 2])
    zeros = lambda shape: Tensor(np.zeros(shape))
    out = ad.gated_conv(feats, edge_feats, src, dst,
                        zeros((2 * h + k, h)), zeros((1, h)),
                        zeros((2 * h + k, h)), zeros((1, h)))
    per_edge = 0.5 * math.log(2.0)
    expected = feats.values + np.array([[3.0], [2.0], [0.0]]) * per_edge
    assert np.allclose(out.values, expected, atol=1e-12)
    # node 2 has no incident anchor edges: residual leaves it unchanged
    assert np.array_equal(out.values[2], feats.values[2])


def test_pool_examples():
    v = Tensor([[1.0, 0.0], [0.0, 1.0]])
    out = ad.segment_mean(v, np.array([0, 0]), 1)
    assert out.values.tolist() == [[0.5, 0.5]]

    same = Tensor([[2.0, 3.0], [2.0, 3.0], [2.0, 3.0]])
    assert ad.segment_mean(same, np.array([0, 0, 0]), 1).values.tolist() == [[2.0, 3.0]]

    with pytest.raises(EmptySegment):
        ad.segment_mean(v, np.array([0, 0]), 2)


def test_pool_matches_scalar_oracle():
    gen = np.random.default_rng(5)
    feats = gen.normal(size=(7, 3))
    ids = np.array([0, 0, 0, 1, 1, 1, 1])
    out = ad.segment_mean(Tensor(feats), ids, 2)
    expected = pooled_means(feats.tolist(), ids.tolist(), 2)
    assert np.allclose(out.values, expected, atol=1e-12)


def test_project_and_head_zero_weights():
    params = init_params(CFG, seed=0)
    for name in params:
        if name.startswith(("projection.", "head.")):
            params[name].values = np.zeros_like(params[name].values)
    params["projection.b2"].values = np.full((1, CFG.embed_dim), 0.25)
    x = Tensor(np.random.default_rng(1).normal(size=(4, CFG.hidden_dim)))
    out = project(params, x)
    assert np.allclose(out.values, 0.25)

    pred = head_forward(params, x)
    assert pred.shape == (4, 1)
    assert np.allclose(pred.values, 0.0)
    # logit 0 means probability one half
    assert ad.sigmoid(pred).values.tolist() == [[0.5]] * 4


def test_project_identity_weights_reproduce_affine_map():
    square = ModelConfig(hidden_dim=4, n_conv=1, embed_dim=4, head_hidden=4)
    params = init_params(square, seed=0)
    params["projection.w1"].values = np.eye(4)
    params["projection.b1"].values = np.zeros((1, 4))
    params["projection.w2"].values = np.eye(4)
    params["projection.b2"].values = np.full((1, 4), 0.5)
    x = np.random.default_rng(3).uniform(0.1, 2.0, size=(5, 4))  # positive
    out = project(params, Tensor(x))
    assert np.allclose(out.values, x + 0.5, atol=1e-12)


def test_head_gradient_check():
    small = ModelConfig(hidden_dim=4, n_conv=1, embed_dim=3, head_hidden=3)
    params = init_params(small, seed=5)
    x = Tensor(np.random.default_rng(7).uniform(0.2, 1.5, size=(6, 4)))
    names = ["head.w1", "head.b1", "head.w2", "head.b2"]
    params["head.b1"].values[:] = 0.3  # keep the relu units alive

    def f(p):
        named = dict(params, **dict(zip(names, p)))
        out = head_forward(named, x)
        mix = Tensor(np.random.default_rng(8).normal(size=out.shape))
        return ad.sum_(ad.mul(out, mix))

    err = grad_check(f, [params[n] for n in names], h=1e-5, seed=2)
    assert err < 1e-4


def test_node_permutation_invariance():
    graphs = toy_graphs(2, seed=7)
    params = init_params(CFG, seed=1)
    batch = build_batch(graphs)
    pooled = encode(params, batch, CFG)

    permuted = []
    for g in graphs:
        perm = np.random.default_rng(g.n_nodes).permutation(g.n_nodes)
        inverse = np.empty_like(perm)
        inverse[perm] = np.arange(g.n_nodes)
        h = g.copy()
        h.node_z = g.node_z[perm]
        h.node_masked = g.node_masked[perm]
        h.src = inverse[g.src]
        h.dst = inverse[g.dst]
        permuted.append(h)
    pooled_perm = encode(params, build_batch(permuted), CFG)
    assert np.allclose(pooled.values, pooled_perm.values, atol=1e-9)


def test_masked_nodes_zeroed_at_lookup():
    g = toy_graphs(1, seed=3)[0]
    masked = g.copy()
    masked.node_masked[:] = True
    params = init_params(ModelConfig(hidden_dim=4, n_conv=1, embed_dim=3,
                                     head_hidden=3), seed=2)
    batch = build_batch([masked])
    cfg1 = ModelConfig(hidden_dim=4, n_conv=1, embed_dim=3, head_hidden=3)
    pooled = encode(params, batch, cfg1)
    # all-zero node features through zero-bias convs stay structurally driven:
    # messages depend only on edge features now, so pooled values must match a
    # run where the embedding table is zeroed instead
    zeroed = {k: Tensor(v.values.copy(), requires_grad=True) for k, v in params.items()}
    zeroed["atom_embedding"].values[:] = 0.0
    unmasked = build_batch([g])
    assert np.allclose(pooled.values, encode(zeroed, unmasked, cfg1).values,
                       atol=1e-12)


def test_identical_views_identical_embeddings():
    g = toy_graphs(1, seed=9)[0]
    no_aug = AugmentConfig(atom_mask_fraction=0.0, edge_mask_fraction=0.0, gndn_delta=0.0)
    v1, v2 = make_views(g, no_aug, (RngStream(0, 0), RngStream(0, 1)), GCFG)
    params = init_params(CFG, seed=4)
    z = embed_graphs(params, [v1, v2], CFG)
    assert np.array_equal(z.values[0], z.values[1])


def test_conv_gradient_check():
    graphs = toy_graphs(1, seed=5, cfg=GCHECK)
    small = ModelConfig(hidden_dim=4, n_conv=1, embed_dim=3, head_hidden=3)
    params = init_params(small, seed=6, edge_feature_width=GCHECK.n_centers)
    batch = build_batch(graphs)

    def f(p):
        named = dict(zip(order, p))
        feats = ad.gather_rows(named["atom_embedding"], batch.node_z - 1)
        out = ad.gated_conv(feats, Tensor(batch.edge_features), batch.src, batch.dst,
                            named["conv0.gate_weight"], named["conv0.gate_bias"],
                            named["conv0.self_weight"], named["conv0.self_bias"])
        mix = Tensor(np.random.default_rng(11).normal(size=out.shape))
        return ad.sum_(ad.mul(out, mix))

    order = ["atom_embedding", "conv0.gate_weight", "conv0.gate_bias",
             "conv0.self_weight", "conv0.self_bias"]
    err = grad_check(f, [params[n] for n in order], h=1e-5, seed=0)
    assert err < 1e-4


def block_graphs():
    """Toy graphs with more than ten blocks of ad._EDGE_BLOCK edges between
    them; structures with an atom isolated at GCHECK's radius are skipped."""
    graphs = []
    for k in itertools.count(100):
        try:
            graphs.append(build_graph(random_structure(k, max_atoms=5), GCHECK))
        except IsolatedAtom:
            continue
        if sum(len(g.src) for g in graphs) > 10 * ad._EDGE_BLOCK + 50:
            return graphs


def conv_case(seed, drop_anchor=False, shuffle=False, blocks=False):
    """Inputs of one convolution over three augmented toy graphs (masked
    atoms and masked edges), or over block_graphs(): node rows, edge rows,
    src, dst and the four weights.
    drop_anchor removes every edge leaving one node; shuffle permutes the
    edges, so src is unsorted too (dst never is)."""
    gen = np.random.default_rng(seed)
    strong = AugmentConfig(atom_mask_fraction=0.3, edge_mask_fraction=0.3, gndn_delta=0.3)
    graphs = block_graphs() if blocks else toy_graphs(3, seed=seed, cfg=GCHECK)
    views = [make_views(g, strong, (RngStream(seed, k), RngStream(seed, k, 1)), GCHECK)[0]
             for k, g in enumerate(graphs)]
    batch = build_batch(views)
    n, h, k = len(batch.node_z), 4, GCHECK.n_centers
    feats = gen.normal(size=(n, h)) * batch.node_keep[:, None]
    edges = np.arange(len(batch.src))
    if drop_anchor:
        edges = edges[batch.src != batch.src[len(edges) // 2]]
    if shuffle:
        edges = gen.permutation(edges)
    weights = [gen.uniform(-0.5, 0.5, size=shape)
               for shape in [(2 * h + k, h), (1, h)] * 2]
    return feats, batch.edge_features[edges], batch.src[edges], batch.dst[edges], weights


@pytest.mark.parametrize("drop_anchor,shuffle,blocks", [
    (False, False, False), (True, False, False), (False, True, False), (True, True, False),
    (True, True, True)], ids=["False-False", "True-False", "False-True", "True-True", "blocks"])
def test_gated_conv_matches_scalar_oracle(drop_anchor, shuffle, blocks):
    feats, edge_feats, src, dst, weights = conv_case(21, drop_anchor, shuffle, blocks)
    assert (feats == 0.0).all(axis=1).any()  # a masked atom
    assert (edge_feats == 0.0).all(axis=1).any()  # a masked edge
    assert (np.diff(dst) < 0).any()
    assert (np.diff(src) < 0).any() == shuffle
    lonely = np.bincount(src, minlength=len(feats)) == 0
    assert lonely.any() == drop_anchor
    # several edge blocks, the last one partial
    assert (len(src) > 2.5 * ad._EDGE_BLOCK) == blocks and len(src) % ad._EDGE_BLOCK
    out = ad.gated_conv(Tensor(feats), Tensor(edge_feats), src, dst, *map(Tensor, weights))
    expected = np.array(gated_conv_loop(feats.tolist(), edge_feats.tolist(), src, dst,
                                        *[w.tolist() for w in weights]))
    assert np.abs(out.values - expected).max() <= 1e-10 * np.abs(expected).max()
    assert np.array_equal(out.values[lonely], feats[lonely])
    # the op keeps more for a tape to differentiate, and computes the same
    inputs = [Tensor(x, requires_grad=True) for x in (feats, edge_feats, *weights)]
    with ad.Tape() as tape:
        taped = ad.gated_conv(inputs[0], inputs[1], src, dst, *inputs[2:])
    assert len(tape.records) == 1
    assert np.array_equal(taped.values, out.values)


def test_gated_conv_gradient_check_every_input():
    for blocks in (False, True):
        feats, edge_feats, src, dst, weights = conv_case(22, drop_anchor=True, shuffle=True,
                                                         blocks=blocks)
        inputs = [Tensor(x, requires_grad=True) for x in (feats, edge_feats, *weights)]
        mix = Tensor(np.random.default_rng(23).normal(size=feats.shape))

        def f(p):
            return ad.sum_(ad.mul(ad.gated_conv(p[0], p[1], src, dst, *p[2:]), mix))

        assert grad_check(f, inputs, h=1e-5, seed=3) < 1e-6, f"blocks={blocks}"


def test_gated_conv_ignores_subnormal_edge_features():
    # graphs.gaussian_expand writes 0 where its formula gives a subnormal;
    # that leaves the convolution's output and gradients bit for bit as
    # they were, since no dot product in it sums subnormal terms alone
    gen = np.random.default_rng(25)
    n, h, cap, cfg = 90, 16, 12, GraphConfig()
    src = np.repeat(np.arange(n), cap)
    dst = gen.integers(0, n, size=len(src))
    distances = gen.uniform(1.5, 6.5, size=len(src))
    # |d - mu| inside the subnormal band 5.32-5.46 A for the first and last center
    planted = gen.choice(len(src), size=200, replace=False)
    distances[planted[:100]] = gen.uniform(5.33, 5.45, size=100)
    distances[planted[100:]] = cfg.centers[-1] - gen.uniform(5.33, 5.45, size=100)
    diff = distances[:, None] - cfg.centers[None, :]
    edge_feats = np.exp(-(diff * diff) / (cfg.sigma * cfg.sigma))
    subnormal = (edge_feats > 0.0) & (edge_feats < sys.float_info.min)
    assert subnormal[:, 0].sum() >= 100 and subnormal[:, -1].sum() >= 100
    feats = gen.normal(size=(n, h))
    weights = [gen.uniform(-0.5, 0.5, size=shape)
               for shape in [(2 * h + cfg.n_centers, h), (1, h)] * 2]
    mix = Tensor(gen.normal(size=(n, h)))

    def run(e):
        inputs = [Tensor(x, requires_grad=True) for x in (feats, e, *weights)]
        with ad.Tape() as tape:
            out = ad.gated_conv(inputs[0], inputs[1], src, dst, *inputs[2:])
            grads = ad.backward(tape, ad.sum_(ad.mul(out, mix)))
        return [out.values] + [grads[t] for t in inputs]

    for with_sub, zeroed in zip(run(edge_feats), run(np.where(subnormal, 0.0, edge_feats))):
        assert np.array_equal(with_sub, zeroed)


@pytest.mark.parametrize("end,bad", [("src", 4), ("src", -5), ("dst", 4), ("dst", -5)])
def test_gated_conv_rejects_endpoint_out_of_range(end, bad):
    feats, edge_feats, src, dst, weights = conv_case(24)
    feats = feats[:4]
    ends = {"src": src % 4, "dst": dst % 4}
    ends[end] = ends[end].copy()
    ends[end][len(src) // 2] = bad
    with pytest.raises(IndexError):
        ad.gated_conv(Tensor(feats), Tensor(edge_feats), ends["src"], ends["dst"],
                      *map(Tensor, weights))


def test_sup_bt_step_tape_records():
    # one record per convolution layer; the count does not depend on the batch
    cfg = ModelConfig()
    params = init_params(cfg, seed=0, edge_feature_width=GCFG.n_centers)
    for seed in (0, 20):
        graphs = toy_graphs(6, seed=seed)
        views = [v for k, g in enumerate(graphs) for v in make_views(
            g, AugmentConfig(), (RngStream(seed, k, 0), RngStream(seed, k, 1)), GCFG)]
        with ad.Tape() as tape:
            z = project(params, encode(params, build_batch(views), cfg))
            compute_loss(LossConfig(kind="sup-bt"), z, np.arange(6) % 2)
        assert len(tape.records) == 29


def test_full_forward_gradient_check():
    graphs = toy_graphs(3, seed=20, cfg=GCHECK)
    small = ModelConfig(hidden_dim=4, n_conv=2, embed_dim=3, head_hidden=3)
    params = init_params(small, seed=8, edge_feature_width=GCHECK.n_centers)
    names = sorted(params)

    def f(p):
        named = dict(zip(names, p))
        z = embed_graphs(named, graphs, small)
        mix = Tensor(np.random.default_rng(13).normal(size=z.shape))
        return ad.sum_(ad.mul(z, mix))

    err = grad_check(f, [params[n] for n in names], h=1e-4, seed=1)
    assert err < 1e-3


def test_external_table_mode():
    from crystalpretrain.graphs import FeatureTable
    s = random_structure(2, max_atoms=5)
    width = 5
    rows = {int(z): np.random.default_rng(int(z)).normal(size=width)
            for z in np.unique(s.atomic_numbers)}
    table = FeatureTable(rows=rows, width=width)
    params = init_params(CFG, seed=3, external_feature_width=width)
    assert "input_projection" in params and "atom_embedding" not in params
    batch = build_batch([build_graph(s, GCFG, table)])
    pooled = encode(params, batch, CFG)
    assert pooled.shape == (1, CFG.hidden_dim)
    assert np.isfinite(pooled.values).all()
