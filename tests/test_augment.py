import numpy as np
import pytest

from crystalpretrain.augment import (AugmentConfig, apply_augmentations, atom_mask,
                                     edge_mask, gndn, make_views, mask_count)
from crystalpretrain.graphs import GraphConfig, build_graph, gaussian_expand
from crystalpretrain.rng import RngStream
from conftest import random_structure

CFG = GraphConfig(radius=5.0, max_neighbors=12)


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
    out = atom_mask(graph, 0.0, RngStream(0))
    assert not out.node_masked.any()

    ten = build_graph(random_structure(11, max_atoms=8), CFG)
    k = mask_count(0.1, ten.n_nodes)
    out = atom_mask(ten, 0.1, RngStream(1))
    assert out.node_masked.sum() == k
    assert topology_equal(out, ten)
    assert np.array_equal(out.edge_features, ten.edge_features)


def test_edge_mask(graph):
    out = edge_mask(graph, 0.1, RngStream(2))
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
    masked = edge_mask(graph, 0.2, RngStream(5))
    out = gndn(masked, 0.5, RngStream(6), CFG)
    rows = np.nonzero(out.edge_masked)[0]
    assert (out.edge_features[rows] == 0.0).all()


def test_gndn_stream_determinism(graph):
    stream = RngStream(1, "augment", 0, 0, 0).child("gndn")
    a = gndn(graph, 0.5, stream, CFG)
    b = gndn(graph, 0.5, RngStream(1, "augment", 0, 0, 0).child("gndn"), CFG)
    assert np.array_equal(a.distances, b.distances)


def test_make_views_disabled_returns_graph(graph):
    cfg = AugmentConfig(atom_mask_fraction=0.0, edge_mask_fraction=0.0, gndn_delta=0.0)
    v1, v2 = make_views(graph, cfg, (RngStream(0, 0), RngStream(0, 1)), CFG)
    assert identical(v1, graph) and identical(v2, graph)
    assert v1 is not graph  # copies, not aliases


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
    # the composed pipeline equals the three steps applied by hand in order
    cfg = AugmentConfig()
    stream = RngStream(9, "augment", 1, 4, 0)
    composed = apply_augmentations(graph, cfg, stream, CFG)
    manual = gndn(edge_mask(atom_mask(graph, cfg.atom_mask_fraction,
                                      stream.child("atom-mask")),
                            cfg.edge_mask_fraction, stream.child("edge-mask")),
                  cfg.gndn_delta, stream.child("gndn"), CFG)
    assert identical(composed, manual)
