import functools
import itertools
import math
import sys

import numpy as np
import pytest

from crystalpretrain import graphs
from crystalpretrain.augment import AugmentConfig, make_views
from crystalpretrain.datasets import SyntheticConfig, generate_synthetic_dataset
from crystalpretrain.graphs import (FeatureTable, GraphConfig,
                                    GraphError, IsolatedAtom, MissingTableEntry,
                                    build_graph, frac_to_cart, gaussian_expand,
                                    load_feature_table, neighbor_list)
from crystalpretrain.rng import RngStream
from crystalpretrain.structures import CrystalStructure, lattice_from_parameters
from conftest import random_structure
from oracles import brute_force_neighbors


def on_both_searches(test):
    """Run test twice: with every cell searched densely, then with every cell
    on the linked-cell search."""
    @functools.wraps(test)
    def run(*args, **kwargs):
        for name, limit in (("dense", 10 ** 12), ("linked-cell", 0)):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(graphs, "_DENSE_MAX_PAIRS", limit)
                try:
                    test(*args, **kwargs)
                except AssertionError as err:
                    err.add_note(f"on the {name} search")
                    raise
    return run


@pytest.fixture
def searches(monkeypatch):
    """Records (search, sites, image points) for every dense search and every
    linked-cell pass neighbor_list makes."""
    taken = []
    dense, candidates = graphs._dense, graphs._candidates

    def recording_dense(xyz, image_pos, radius, k):
        taken.append(("dense", xyz.shape[1], image_pos.shape[1]))
        return dense(xyz, image_pos, radius, k)

    def recording_candidates(xyz, image_pos, radius, anchors):
        taken.append(("linked-cell", xyz.shape[1], image_pos.shape[1]))
        return candidates(xyz, image_pos, radius, anchors)

    monkeypatch.setattr(graphs, "_dense", recording_dense)
    monkeypatch.setattr(graphs, "_candidates", recording_candidates)
    return taken


def graph_edges(structure, cfg):
    src, dst, images, d = neighbor_list(structure, cfg)
    return list(zip(src.tolist(), dst.tolist(),
                    [tuple(v) for v in images.tolist()], d.tolist()))


def test_graph_config_defaults():
    cfg = GraphConfig()
    assert cfg.n_centers == 41
    assert cfg.centers[0] == 0.0
    assert math.isclose(cfg.centers[-1], 8.0, abs_tol=1e-9)


def test_graph_config_invariants():
    for bad in (dict(radius=0.0), dict(max_neighbors=0), dict(mu_step=0.0),
                dict(sigma=-1.0), dict(mu_max=0.0)):
        with pytest.raises(ValueError):
            GraphConfig(**bad)


def test_frac_to_cart_examples():
    cubic = CrystalStructure(np.diag([3.0, 3.0, 3.0]),
                             [[0.0, 0.0, 0.0], [0.5, 0.5, 0.5]], [26, 26])
    cart = frac_to_cart(cubic)
    assert cart[0].tolist() == [0.0, 0.0, 0.0]
    assert cart[1].tolist() == [1.5, 1.5, 1.5]


def test_frac_to_cart_hexagonal_hand_product():
    lattice = lattice_from_parameters(2.0, 2.0, 3.0, 90.0, 90.0, 120.0)
    s = CrystalStructure(lattice, [[0.25, 0.5, 0.0]], [6])
    # independent hand computation: 0.25*a + 0.5*b + 0*c
    expected = [0.25 * lattice[0][k] + 0.5 * lattice[1][k] for k in range(3)]
    assert np.allclose(frac_to_cart(s)[0], expected, atol=1e-12)
    assert np.allclose(frac_to_cart(s)[0], [0.0, math.sqrt(3.0) / 2.0, 0.0],
                       atol=1e-12)


def test_simple_cubic_first_shell(cubic_fe):
    edges = graph_edges(cubic_fe, GraphConfig(radius=4.0, max_neighbors=12))
    assert len(edges) == 6
    assert all(e[3] == 3.0 for e in edges)
    assert sorted(e[2] for e in edges) == [(-1, 0, 0), (0, -1, 0), (0, 0, -1),
                                           (0, 0, 1), (0, 1, 0), (1, 0, 0)]


@on_both_searches
def test_simple_cubic_isolated(cubic_fe):
    with pytest.raises(IsolatedAtom) as err:
        neighbor_list(cubic_fe, GraphConfig(radius=2.0))
    assert err.value.atom_indices == [0]


@on_both_searches
def test_isolated_atoms_all_named():
    # a 10 A cube: sites 0 and 2 are 1 A apart, sites 1 and 3 have nothing
    # within 2 A
    s = CrystalStructure(np.diag([10.0, 10.0, 10.0]),
                         [[0.0, 0.0, 0.0], [0.5, 0.5, 0.5], [0.1, 0.0, 0.0], [0.5, 0.0, 0.5]],
                         [26] * 4)
    with pytest.raises(IsolatedAtom) as err:
        neighbor_list(s, GraphConfig(radius=2.0))
    assert err.value.atom_indices == [1, 3]


def test_simple_cubic_tie_break(cubic_fe):
    edges = graph_edges(cubic_fe, GraphConfig(radius=4.5, max_neighbors=12))
    assert len(edges) == 12
    first_shell, second_shell = edges[:6], edges[6:]
    assert all(e[3] == 3.0 for e in first_shell)
    assert all(math.isclose(e[3], 3.0 * math.sqrt(2.0)) for e in second_shell)
    # 12 equidistant candidates; the lexicographically smallest 6 win
    assert [e[2] for e in second_shell] == [
        (-1, -1, 0), (-1, 0, -1), (-1, 0, 1), (-1, 1, 0), (0, -1, -1), (0, -1, 1)]


def test_body_centered_nearest_shell(body_centered):
    edges = graph_edges(body_centered, GraphConfig(radius=4.0, max_neighbors=12))
    for anchor in (0, 1):
        nearest = [e for e in edges if e[0] == anchor][:8]
        assert all(e[1] == 1 - anchor for e in nearest)
        assert all(math.isclose(e[3], 2.0 * math.sqrt(3.0)) for e in nearest)


@on_both_searches
def test_neighbor_oracle_equivalence(cubic_fe, body_centered):
    fixtures = [
        (cubic_fe, GraphConfig(radius=4.0, max_neighbors=12)),
        (cubic_fe, GraphConfig(radius=4.5, max_neighbors=12)),
        (body_centered, GraphConfig(radius=4.0, max_neighbors=12)),
    ]
    for seed in range(20):
        fixtures.append((random_structure(seed), GraphConfig(radius=4.0,
                                                             max_neighbors=12)))
    for structure, cfg in fixtures:
        got = graph_edges(structure, cfg)
        expected = brute_force_neighbors(structure, cfg.radius, cfg.max_neighbors)
        assert [(g[0], g[1], g[2]) for g in got] == [(e[0], e[1], e[2])
                                                     for e in expected]
        assert [g[3] for g in got] == [e[3] for e in expected]


@pytest.mark.parametrize("cap", [1, 1000])
@on_both_searches
def test_neighbor_blocks_match_oracle(cap):
    # each anchor's candidates come from its block of 27 bins; capped at one
    # neighbour or not at all, the kept edges equal the oracle's and are the
    # first of each anchor's run in the uncapped search
    cfg = GraphConfig(radius=4.0, max_neighbors=cap)
    cells = [random_structure(seed) for seed in range(20, 30)]
    assert max(s.n_sites for s in cells) > 1
    for s in cells:
        expected = brute_force_neighbors(s, cfg.radius, cfg.max_neighbors)
        assert graph_edges(s, cfg) == [tuple(e) for e in expected]
        src, dst, img, d = neighbor_list(s, cfg)
        wsrc, wdst, wimg, wd = neighbor_list(
            s, GraphConfig(radius=cfg.radius, max_neighbors=10 ** 6))
        for a in range(s.n_sites):
            k = int((src == a).sum())
            assert k == min(cap, int((wsrc == a).sum()))
            assert np.array_equal(dst[src == a], wdst[wsrc == a][:k])
            assert np.array_equal(img[src == a], wimg[wsrc == a][:k])
            assert np.array_equal(d[src == a], wd[wsrc == a][:k])


def tiled(structure, tile):
    """tile^3 copies of the cell; atom a of the result copies atom
    a % n_sites of the input."""
    reps = np.array([(i, j, k) for i in range(tile) for j in range(tile)
                     for k in range(tile)], dtype=np.float64)
    frac = (structure.frac_coords[None, :, :] + reps[:, None, :]) / tile
    return CrystalStructure(structure.lattice * tile, frac.reshape(-1, 3),
                            np.tile(structure.atomic_numbers, len(reps)))


def plane_spacings(lattice):
    return 1.0 / np.linalg.norm(np.linalg.inv(lattice), axis=0)


def test_supercell_neighbors_match_oracle_and_primitive():
    cfg = GraphConfig(radius=4.0, max_neighbors=12)
    for seed in (0, 3, 12):  # 1-, 2- and 1-atom cells
        prim = random_structure(seed, max_atoms=2)
        sup = tiled(prim, 3)
        # the anchors' box spans more than four 4 A bins on every axis, so
        # no anchor's 27 bins cover it and the search prunes candidates
        assert plane_spacings(sup.lattice).min() > 2 * cfg.radius
        expected = brute_force_neighbors(sup, cfg.radius, cfg.max_neighbors)
        assert graph_edges(sup, cfg) == [tuple(e) for e in expected]

        src, _, _, d = neighbor_list(sup, cfg)
        psrc, _, _, pd = neighbor_list(prim, cfg)
        for a in range(sup.n_sites):
            got = np.sort(d[src == a])
            ref = np.sort(pd[psrc == a % prim.n_sites])
            assert len(got) == len(ref)
            assert np.abs(got - ref).max() <= 1e-9


# (radius, cell parameters, unwrapped fractional coordinates) found by a
# random search over skewed cells: in each, a bin edge of exactly the
# radius loses an edge at the cutoff, or a bin grid without its empty
# outer layer visits one bin twice and duplicates an edge
FLOAT_EDGE_CELLS = [
    (3.5, (3.5, 2.4, 3.5, 64.0, 87.0, 65.0), [[-0.58, 1.13, -0.58]]),
    (2.5, (2.5, 5.0, 5.3, 90.0, 96.0, 102.0), [[-0.17, 1.69, -0.17]]),
    (4.5, (4.5, 4.1, 3.6, 105.0, 64.0, 102.0), [[-0.76, 0.71, -0.76]]),
    (3.5, (3.5, 2.7, 4.0, 95.0, 80.0, 103.0), [[-0.41, 1.91, -0.31]]),
    (3.5, (4.2, 2.8, 2.3, 77.0, 78.0, 95.0), [[1.98, 1.98, 0.67]]),
    (2.5, (5.2, 3.9, 2.4, 87.0, 106.0, 79.0), [[1.86, 1.86, 1.83]]),
    (3.5, (3.1, 3.0, 2.8, 116.0, 75.0, 73.0), [[1.43, -0.85, 1.47]]),
]


def skewed_cells():
    gen = np.random.default_rng(5)
    for _ in range(12):
        # every angle 8-20 degrees away from 90; a radius beyond every cell
        # edge, so no atom is isolated
        angles = 90.0 + gen.choice([-1.0, 1.0], 3) * gen.uniform(8.0, 20.0, 3)
        n = int(gen.integers(1, 5))
        frac = gen.uniform(-0.25, 1.25, size=(n, 3))
        frac[0, 0] = gen.choice([-0.2, 1.2])
        yield 3.5, (*gen.uniform(3.0, 3.4, 3), *angles), frac
    yield from FLOAT_EDGE_CELLS


@on_both_searches
def test_skewed_unwrapped_cells_match_oracle():
    gen = np.random.default_rng(6)
    for radius, parameters, frac in skewed_cells():
        lattice = lattice_from_parameters(*parameters)
        frac = np.array(frac)
        s = CrystalStructure(lattice, frac, gen.integers(1, 84, size=len(frac)))
        s.frac_coords = frac  # construction wraps; keep them outside [0, 1)
        # an image within the radius has |n_k| <= radius / h_k + spread_k,
        # under 3, so the oracle's -2..2 block holds every one of them
        spread = frac.max(axis=0) - frac.min(axis=0)
        assert (radius / plane_spacings(lattice) + spread < 3.0).all()
        cfg = GraphConfig(radius=radius, max_neighbors=int(gen.choice([3, 12, 40])))
        expected = brute_force_neighbors(s, cfg.radius, cfg.max_neighbors)
        assert graph_edges(s, cfg) == [tuple(e) for e in expected]


def bound_cells():
    """(radius, lattice, fractional coordinates, whether sites 0 and 1 are
    exactly the radius apart) of cells in which radius / h_0 + spread_0 is
    an integer; the coordinates may lie outside [0, 1)."""
    ortho = np.diag([4.0, 5.0, 6.0])
    # 3 / 4 + 0.25 = 1: site 1's image n_0 = -1 is 3.0 from site 0
    yield 3.0, ortho, [[0.0, 0.0, 0.0], [0.25, 0.0, 0.0], [0.1, 0.3, 0.2]], True
    # unwrapped: 0.75 + 2.25 = 3, and the pair at 3.0 needs n_0 = -3
    yield 3.0, ortho, [[-1.0, 0.0, 0.0], [1.25, 0.0, 0.0], [0.1, 0.3, 0.2]], True
    # the bound's float sum is 0.9999999999999999, and the pair at exactly the
    # radius (3.5999999999999996) needs n_0 = -1
    yield ((1.0 - 0.28) * 5.0, np.diag([5.0, 4.0, 4.1]),
           [[0.0, 0.0, 0.0], [0.28, 0.0, 0.0]], True)
    gen = np.random.default_rng(7)
    for low, high in ((0.0, 1.0), (-0.3, 1.3)):
        for _ in range(3):
            angles = 90.0 + gen.choice([-1.0, 1.0], 3) * gen.uniform(8.0, 20.0, 3)
            lattice = lattice_from_parameters(*gen.uniform(3.5, 5.0, 3), *angles)
            frac = gen.uniform(low, high, size=(int(gen.integers(2, 4)), 3))
            spread = frac.max(axis=0) - frac.min(axis=0)
            radius = (math.ceil(spread[0]) + 1 - spread[0]) * plane_spacings(lattice)[0]
            yield radius, lattice, frac, False


@pytest.mark.parametrize("eps", [-1e-12, 0.0, 1e-12])
@on_both_searches
def test_block_bound_on_an_integer_matches_oracle(eps):
    # radius / h_0 + spread_0 on an integer and 1e-12 to either side of it;
    # the oracle's -4..4 block holds more than the search's bound
    for radius, lattice, frac, pair_at_radius in bound_cells():
        frac = np.array(frac)
        spread = frac.max(axis=0) - frac.min(axis=0)
        bound = radius / plane_spacings(lattice) + spread
        assert bound[0] == pytest.approx(round(bound[0]), abs=1e-12)
        cfg = GraphConfig(radius=radius * (1.0 + eps / bound[0]), max_neighbors=1000)
        assert (cfg.radius / plane_spacings(lattice) + spread < 5.0).all()
        s = CrystalStructure(lattice, frac, [8] * len(frac))
        s.frac_coords = frac  # construction wraps; keep them outside [0, 1)
        expected = brute_force_neighbors(s, cfg.radius, cfg.max_neighbors, reach=4)
        got = graph_edges(s, cfg)
        assert got == [tuple(e) for e in expected]
        if pair_at_radius and eps >= 0.0:
            assert any(e[:2] == (0, 1) and e[3] == radius for e in got)


def test_large_supercell_searches_27_offsets(searches):
    # 4 x 4 x 4 supercells of 2- to 5-atom synthetic cells, the large-cells
    # benchmark's sizes: radius / h_k + spread_k < 2 on every axis, so the
    # linked-cell search reads the 27 images of -1..1, where
    # ceil(radius / h_k) + 1 read 125
    cells, _ = generate_synthetic_dataset(SyntheticConfig(n_crystals=32, max_atoms=5, seed=1))
    for size in range(2, 6):
        sup = tiled(next(c for c in cells if c.n_sites == size), 4)
        searches.clear()
        neighbor_list(sup, GraphConfig())
        assert searches and set(searches) == {("linked-cell", sup.n_sites, 27 * sup.n_sites)}


def test_desk_cells_search_densely_up_to_the_limit(searches):
    # the desk benchmark corpus of seed 1: a cell takes the dense search
    # exactly when its (site, image point) pairs are at most the limit,
    # which holds for 473 of its 512 cells (the rest have 3,125-4,375 pairs)
    cells, _ = generate_synthetic_dataset(SyntheticConfig(
        n_crystals=512, max_atoms=5, target_noise=0.02, seed=1))
    dense = 0
    for s in cells:
        searches.clear()
        neighbor_list(s, GraphConfig())
        _, n, points = searches[0]
        search = "dense" if n * points <= graphs._DENSE_MAX_PAIRS else "linked-cell"
        assert {entry[0] for entry in searches} == {search}
        dense += search == "dense"
    assert dense == 473


def test_dense_limit_is_inclusive(searches, monkeypatch):
    # a cell of exactly the limit's pairs is searched densely, one of a pair
    # more on the linked-cell search; both give the oracle's edges
    cfg = GraphConfig(radius=4.0, max_neighbors=12)
    for seed in (1, 4, 9):
        s = random_structure(seed)
        expected = [tuple(e) for e in brute_force_neighbors(s, cfg.radius, cfg.max_neighbors)]
        monkeypatch.setattr(graphs, "_DENSE_MAX_PAIRS", 10 ** 12)
        searches.clear()
        neighbor_list(s, cfg)
        [(_, n, points)] = searches
        for limit, search in ((n * points, "dense"), (n * points - 1, "linked-cell")):
            monkeypatch.setattr(graphs, "_DENSE_MAX_PAIRS", limit)
            searches.clear()
            assert graph_edges(s, cfg) == expected
            assert searches and {entry[0] for entry in searches} == {search}


def test_offset_block_is_cached_and_read_only(cubic_fe):
    first = graphs._offsets((1, 2, 0))
    assert graphs._offsets((1, 2, 0)) is first
    assert first.dtype == np.int64 and first.flags.c_contiguous
    assert first.tolist() == [list(v) for v in itertools.product(
        range(-1, 2), range(-2, 3), range(1))]
    with pytest.raises(ValueError):
        first[0, 0] = 7
    # the images neighbor_list returns are the caller's own, not the cache's
    _, _, images, _ = neighbor_list(cubic_fe, GraphConfig(radius=3.0))
    span = (1, 1, 1)
    assert not np.shares_memory(images, graphs._offsets(span))
    images[:] = 9
    assert graphs._offsets(span).min() == -1


@on_both_searches
def test_neighbors_exactly_at_cutoff_kept():
    # simple cubic a = 2 A: shells at 2, 2.83, 3.46 and 4 A hold 6 + 12 + 8
    # + 6 atoms; the last six sit at exactly the cutoff, one bin edge apart
    sc = tiled(CrystalStructure(np.diag([2.0, 2.0, 2.0]), [[0.0, 0.0, 0.0]], [26]), 4)
    cfg = GraphConfig(radius=4.0, max_neighbors=40)
    src, _, _, d = neighbor_list(sc, cfg)
    assert np.bincount(src, minlength=sc.n_sites).tolist() == [32] * sc.n_sites
    assert ((d == 4.0).reshape(sc.n_sites, 32).sum(axis=1) == 6).all()
    assert d.max() == 4.0
    expected = brute_force_neighbors(sc, cfg.radius, cfg.max_neighbors)
    assert graph_edges(sc, cfg) == [tuple(e) for e in expected]


@on_both_searches
def test_tie_heavy_supercell_edges_in_lexsort_order():
    # simple cubic a = 2.5 A tiled 4 x 4 x 4: exact distances, and shells of
    # 6, 12, 8 and 6 atoms, so a cap of 12 keeps six of twelve tied atoms
    sc = tiled(CrystalStructure(np.diag([2.5, 2.5, 2.5]), [[0.0, 0.0, 0.0]], [26]), 4)
    uncapped = brute_force_neighbors(sc, 5.0, 10 ** 6)
    for cap in (1, 12, 40):
        src, dst, img, d = neighbor_list(sc, GraphConfig(radius=5.0, max_neighbors=cap))
        order = np.lexsort((img[:, 2], img[:, 1], img[:, 0], dst, d, src))
        assert np.array_equal(order, np.arange(len(src)))
        expected = [e for a in range(sc.n_sites) for e in
                    [e for e in uncapped if e[0] == a][:cap]]
        assert list(zip(src.tolist(), dst.tolist(), map(tuple, img.tolist()),
                        d.tolist())) == [tuple(e) for e in expected]
    assert len(set(d[src == 0][6:18].tolist())) == 1


@on_both_searches
def test_anchor_short_at_first_radius_searched_again():
    # a dense two-layer slab in a 4 x 4 x 24 A cell, and one atom 7 A above
    # it in the vacuum: within the first-pass radius that atom finds only
    # its own in-plane images, so its twelve nearest come from the second
    # pass at the cutoff
    slab = [[x, y, z] for z in (0.0, 2.0 / 24) for x in (0.0, 0.5) for y in (0.0, 0.5)]
    s = CrystalStructure(np.diag([4.0, 4.0, 24.0]), slab + [[0.25, 0.25, 9.0 / 24]],
                         [26] * 8 + [8])
    lone = s.n_sites - 1
    cfg = GraphConfig()
    r_k = (3 * cfg.max_neighbors * s.volume / (4 * math.pi * s.n_sites)) ** (1 / 3)
    r1 = graphs._FIRST_PASS_SCALE * r_k
    assert r1 < cfg.radius
    within_r1 = [e for e in brute_force_neighbors(s, r1, 10 ** 6) if e[0] == lone]
    assert len(within_r1) < cfg.max_neighbors
    # as in the skewed cells below, the oracle's -2..2 block holds every image
    spread = s.frac_coords.max(axis=0) - s.frac_coords.min(axis=0)
    assert (cfg.radius / plane_spacings(s.lattice) + spread < 3.0).all()
    expected = brute_force_neighbors(s, cfg.radius, cfg.max_neighbors)
    assert graph_edges(s, cfg) == [tuple(e) for e in expected]
    assert sum(e[0] == lone for e in expected) == cfg.max_neighbors


@on_both_searches
def test_max_neighbors_cap():
    s = random_structure(42)
    cfg = GraphConfig(radius=6.0, max_neighbors=3)
    src, _, _, _ = neighbor_list(s, cfg)
    assert np.bincount(src).max() <= 3


def test_gaussian_expand_examples():
    cfg = GraphConfig()
    row = gaussian_expand(np.array([2.0]), cfg)[0]
    assert row.shape == (41,)
    assert row[10] == 1.0  # center exactly at 2.0
    row = gaussian_expand(np.array([2.2]), cfg)[0]
    assert math.isclose(row[10], math.exp(-1.0), rel_tol=1e-12)
    row = gaussian_expand(np.array([-0.1]), cfg)[0]
    assert np.isfinite(row).all()
    assert row.argmax() == 0
    assert math.isclose(row[0], math.exp(-0.25), rel_tol=1e-12)


def test_gaussian_expand_properties():
    cfg = GraphConfig()
    gen = np.random.default_rng(0)
    d = gen.uniform(-0.5, 9.0, size=200)
    feats = gaussian_expand(d, cfg)
    # exact zeros only where exp falls below the smallest normal float64
    # (|d - mu| > 5.32 A)
    assert ((feats >= 0.0) & (feats <= 1.0)).all()
    diff = np.abs(d[:, None] - cfg.centers[None, :])
    assert (feats[diff < 5.0] > 0.0).all()
    nearest = diff.argmin(axis=1)
    assert (feats.argmax(axis=1) == nearest).all()


def assert_normal_or_zero(feats, distances, cfg):
    """feats is the unclamped Gaussian formula wherever that gives a normal
    float64, and exactly 0 where it gives a subnormal or underflows."""
    diff = distances[:, None] - cfg.centers[None, :]
    formula = np.exp(-(diff * diff) / (cfg.sigma * cfg.sigma))
    normal = formula >= sys.float_info.min
    assert (formula[~normal] > 0.0).any(), "no subnormal to clamp"
    assert not ((feats > 0.0) & (feats < sys.float_info.min)).any()
    assert np.array_equal(feats[normal], formula[normal])
    assert (feats[~normal] == 0.0).all()


def test_gaussian_expand_has_no_subnormals():
    cfg = GraphConfig()
    # at sigma 0.2 the formula is subnormal for |d - mu| in 5.32-5.46 A and 0
    # beyond; place distances across that band and past it, on both sides
    # of a center
    band = np.linspace(5.25, 5.55, 301)
    d = np.concatenate([band, -band, cfg.centers[-1] - band,
                        np.random.default_rng(1).uniform(-6.0, 14.0, size=300)])
    assert_normal_or_zero(gaussian_expand(d, cfg), d, cfg)


def test_make_views_edge_features_have_no_subnormals():
    cfg = GraphConfig()
    structures, _ = generate_synthetic_dataset(
        SyntheticConfig(n_crystals=24, max_atoms=5, seed=3))
    views = [view for k, s in enumerate(structures)
             for view in make_views(build_graph(s, cfg), AugmentConfig(),
                                    (RngStream(3, k, 0), RngStream(3, k, 1)), cfg)]
    live = ~np.concatenate([v.edge_masked for v in views])
    feats = np.concatenate([v.edge_features for v in views])
    assert (feats[~live] == 0.0).all()
    assert_normal_or_zero(feats[live], np.concatenate([v.distances for v in views])[live],
                          cfg)


def test_build_graph_feature_table_lookup():
    s = CrystalStructure(np.diag([3.0, 3.0, 3.0]),
                         [[0.0, 0.0, 0.0], [0.5, 0.5, 0.5]], [26, 8])
    cfg = GraphConfig(radius=4.0)
    assert build_graph(s, cfg).node_features is None

    table = FeatureTable(rows={26: np.array([1.0, 2.0]), 8: np.array([3.0, 4.0])},
                         width=2)
    g = build_graph(s, cfg, table)
    assert g.node_features.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    with pytest.raises(MissingTableEntry) as err:
        build_graph(s, cfg, FeatureTable(rows={26: np.array([1.0, 2.0])}, width=2))
    assert err.value.z == 8


def test_load_feature_table(tmp_path):
    path = tmp_path / "table.csv"
    path.write_text("z,f0,f1\n26,1.0,2.0\n8,3.0,4.0\n")
    table = load_feature_table(path)
    assert table.width == 2
    assert table.lookup(8).tolist() == [3.0, 4.0]
    bad = tmp_path / "bad.csv"
    bad.write_text("z,f0,f1\n26,1.0\n")
    with pytest.raises(GraphError):
        load_feature_table(bad)


def test_build_graph_composition(cubic_fe):
    g = build_graph(cubic_fe, GraphConfig(radius=4.0, max_neighbors=12))
    assert g.n_nodes == 1
    assert g.n_edges == 6
    assert g.edge_features.shape == (6, 41)
    assert not g.node_masked.any() and not g.edge_masked.any()
    expected = gaussian_expand(g.distances, GraphConfig(radius=4.0, max_neighbors=12))
    assert np.array_equal(g.edge_features, expected)


def test_build_graph_deterministic(body_centered):
    cfg = GraphConfig(radius=4.0)
    g1 = build_graph(body_centered, cfg)
    g2 = build_graph(body_centered, cfg)
    assert np.array_equal(g1.src, g2.src)
    assert np.array_equal(g1.images, g2.images)
    assert np.array_equal(g1.distances, g2.distances)
    assert np.array_equal(g1.edge_features, g2.edge_features)


def test_build_graph_translation_invariance():
    cfg = GraphConfig(radius=4.0, max_neighbors=12)
    for seed in range(5):
        s = random_structure(seed, max_atoms=6)
        shift = np.random.default_rng(seed + 100).uniform(0, 1, size=3)
        translated = CrystalStructure(s.lattice, s.frac_coords + shift,
                                      s.atomic_numbers, id=s.id)
        d1 = np.sort(build_graph(s, cfg).distances)
        d2 = np.sort(build_graph(translated, cfg).distances)
        assert d1.shape == d2.shape
        assert np.allclose(d1, d2, atol=1e-9)
