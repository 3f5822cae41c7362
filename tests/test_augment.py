import numpy as np
import pytest

from crystalpretrain.augment import AugmentConfig, gndn, make_views, mask_count
from crystalpretrain.graphs import FeatureTable, GraphConfig, build_graph, gaussian_expand
from crystalpretrain.rng import RngStream
from conftest import random_structure

CFG = GraphConfig(radius=5.0, max_neighbors=12)


def atoms_only(fraction):
    return AugmentConfig(atom_mask_fraction=fraction, edge_mask_fraction=0.0, gndn_delta=0.0)


def edges_only(fraction):
    return AugmentConfig(atom_mask_fraction=0.0, edge_mask_fraction=fraction, gndn_delta=0.0)


@pytest.fixture
def graph(body_centered):
    return build_graph(body_centered, CFG)


def identical(a, b) -> bool:
    return (np.array_equal(a.node_masked, b.node_masked)
            and np.array_equal(a.edge_masked, b.edge_masked)
            and np.array_equal(a.distances, b.distances)
            and np.array_equal(a.edge_features, b.edge_features))


def topology_equal(a, b) -> bool:
    return (np.array_equal(a.src, b.src) and np.array_equal(a.dst, b.dst)
            and np.array_equal(a.images, b.images)
            and np.array_equal(a.node_z, b.node_z))


def test_mask_count_rule():
    assert mask_count(0.0, 10) == 0
    assert mask_count(0.1, 10) == 1
    assert mask_count(0.1, 3) == 1  # at-least-one floor on small graphs
    assert mask_count(0.1, 20) == 2
    assert mask_count(0.1, 25) == 3  # round half up
    assert mask_count(1.0, 7) == 7


def test_atom_mask(graph):
    out, _ = make_views(graph, atoms_only(0.0), (RngStream(0), RngStream(1)), CFG)
    assert not out.node_masked.any()

    ten = build_graph(random_structure(11, max_atoms=8), CFG)
    k = mask_count(0.1, ten.n_nodes)
    out, _ = make_views(ten, atoms_only(0.1), (RngStream(1), RngStream(2)), CFG)
    assert out.node_masked.sum() == k
    assert topology_equal(out, ten)
    assert np.array_equal(out.edge_features, ten.edge_features)


def test_edge_mask(graph):
    out, _ = make_views(graph, edges_only(0.1), (RngStream(2), RngStream(3)), CFG)
    k = mask_count(0.1, graph.n_edges)
    assert out.edge_masked.sum() == k
    masked = np.nonzero(out.edge_masked)[0]
    assert (out.edge_features[masked] == 0.0).all()
    # stored distances survive masking
    assert np.array_equal(out.distances, graph.distances)
    untouched = np.nonzero(~out.edge_masked)[0]
    assert np.array_equal(out.edge_features[untouched], graph.edge_features[untouched])


def test_gndn_zero_delta_is_identity(graph):
    out = gndn(graph, 0.0, RngStream(3), CFG)
    assert np.array_equal(out.distances, graph.distances)
    assert np.array_equal(out.edge_features, graph.edge_features)


def test_gndn_bound_and_features():
    g = build_graph(random_structure(12, max_atoms=8), CFG)
    out = gndn(g, 0.5, RngStream(4), CFG)
    assert np.abs(out.distances - g.distances).max() <= 0.5
    assert np.array_equal(out.edge_features, gaussian_expand(out.distances, CFG))
    assert topology_equal(out, g)
    # the original graph object is untouched
    assert not np.array_equal(out.distances, g.distances)


def test_gndn_preserves_masked_edges(graph):
    masked, _ = make_views(graph, edges_only(0.2), (RngStream(5), RngStream(6)), CFG)
    out = gndn(masked, 0.5, RngStream(6), CFG)
    rows = np.nonzero(out.edge_masked)[0]
    assert len(rows) and (out.edge_features[rows] == 0.0).all()
    # masking and noising in one view: the masked rows stay zero as well
    cfg = AugmentConfig(atom_mask_fraction=0.0, edge_mask_fraction=0.2)
    view, _ = make_views(graph, cfg, (RngStream(7), RngStream(8)), CFG)
    assert not np.array_equal(view.distances, graph.distances)
    assert (view.edge_features[view.edge_masked] == 0.0).all()
    live = ~view.edge_masked
    assert np.array_equal(view.edge_features[live],
                          gaussian_expand(view.distances, CFG)[live])


def test_gndn_stream_determinism(graph):
    stream = RngStream(1, "augment", 0, 0, 0).child("gndn")
    a = gndn(graph, 0.5, stream, CFG)
    b = gndn(graph, 0.5, RngStream(1, "augment", 0, 0, 0).child("gndn"), CFG)
    assert np.array_equal(a.distances, b.distances)


def test_make_views_disabled_returns_graph(graph):
    cfg = AugmentConfig(atom_mask_fraction=0.0, edge_mask_fraction=0.0, gndn_delta=0.0)
    v1, v2 = make_views(graph, cfg, (RngStream(0, 0), RngStream(0, 1)), CFG)
    assert identical(v1, graph) and identical(v2, graph)
    assert v1 is not graph and v2 is not v1


def test_make_views_differ_with_defaults(graph):
    cfg = AugmentConfig()
    for seed in range(100):
        streams = (RngStream(seed, "augment", 0, 0, 0),
                   RngStream(seed, "augment", 0, 0, 1))
        v1, v2 = make_views(graph, cfg, streams, CFG)
        assert not identical(v1, v2)
        assert topology_equal(v1, graph) and topology_equal(v2, graph)


def test_make_views_noise_only(graph):
    cfg = AugmentConfig(atom_mask_fraction=0.0, edge_mask_fraction=0.0)
    v1, v2 = make_views(graph, cfg, (RngStream(7, 0), RngStream(7, 1)), CFG)
    assert not v1.node_masked.any() and not v1.edge_masked.any()
    assert not np.array_equal(v1.distances, v2.distances)
    assert np.array_equal(v1.node_z, v2.node_z)


def test_view_pair_pure_function_of_streams(graph):
    cfg = AugmentConfig()
    streams = (RngStream(3, "augment", 5, 2, 0), RngStream(3, "augment", 5, 2, 1))
    a1, a2 = make_views(graph, cfg, streams, CFG)
    b1, b2 = make_views(graph, cfg, streams, CFG)
    assert identical(a1, b1) and identical(a2, b2)


def test_augment_config_invariants():
    with pytest.raises(ValueError):
        AugmentConfig(atom_mask_fraction=1.5)
    with pytest.raises(ValueError):
        AugmentConfig(gndn_delta=-0.1)


def test_sequential_order_atom_edge_noise(graph):
    # each view equals masks and noise drawn by hand from its stream's
    # "atom-mask", "edge-mask" and "gndn" children; masked rows are zeroed
    # after the features are expanded from the noised distances
    cfg = AugmentConfig(atom_mask_fraction=0.3, edge_mask_fraction=0.3, gndn_delta=0.3)
    streams = (RngStream(9, "augment", 1, 4, 0), RngStream(9, "augment", 1, 4, 1))
    views = make_views(graph, cfg, streams, CFG)
    n, m = graph.n_nodes, graph.n_edges
    for view, stream in zip(views, streams):
        nodes = stream.child("atom-mask").generator().choice(
            n, size=mask_count(0.3, n), replace=False)
        edges = stream.child("edge-mask").generator().choice(
            m, size=mask_count(0.3, m), replace=False)
        eps = stream.child("gndn").generator().uniform(-0.3, 0.3, size=m)
        distances = graph.distances + eps
        features = gaussian_expand(distances, CFG)
        features[edges] = 0.0
        assert np.array_equal(view.node_masked, np.isin(np.arange(n), nodes))
        assert np.array_equal(view.edge_masked, np.isin(np.arange(m), edges))
        assert np.array_equal(view.distances, distances)
        assert np.array_equal(view.edge_features, features)
    assert not identical(*views)


def test_views_share_topology_with_graph():
    table = {z: np.full(3, float(z)) for z in range(1, 119)}
    g = build_graph(random_structure(13, max_atoms=8), CFG, FeatureTable(table, 3))
    for array in vars(g).values():
        array.flags.writeable = False
    before = g.copy()
    for view in make_views(g, AugmentConfig(), (RngStream(0), RngStream(1)), CFG):
        for name in ("node_z", "src", "dst", "images", "node_features"):
            assert np.shares_memory(getattr(view, name), getattr(g, name)), name
        for name in ("node_masked", "edge_masked", "distances", "edge_features"):
            assert not np.shares_memory(getattr(view, name), getattr(g, name)), name
    assert identical(g, before) and topology_equal(g, before)
