import numpy as np
import pytest

from crystalpretrain import autodiff as ad
from crystalpretrain.autodiff import (DetachedLoss, EmptySegment, NonFinite,
                                      NotScalar, ShapeMismatch, Tape, Tensor,
                                      backward, grad_check)


def leaf(values, seed=None):
    return Tensor(np.asarray(values, dtype=np.float64), requires_grad=True)


def rand(shape, seed, low=-2.0, high=2.0):
    return np.random.default_rng(seed).uniform(low, high, size=shape)


def test_segment_sum_example():
    out = ad.segment_sum(Tensor([[1.0], [2.0], [3.0]]), [0, 0, 1], 2)
    assert out.values.tolist() == [[3.0], [3.0]]


def test_l2_normalize_example():
    out = ad.l2_normalize_rows(Tensor([[3.0, 4.0]]))
    assert out.values.tolist() == [[0.6, 0.8]]


def test_l2_normalize_zero_row():
    out = ad.l2_normalize_rows(Tensor([[0.0, 0.0]]))
    assert out.values.tolist() == [[0.0, 0.0]]


def test_batch_standardize_example():
    out = ad.batch_standardize(Tensor([[1.0], [3.0]]))
    assert np.allclose(out.values, [[-1.0], [1.0]], atol=1e-11)


def test_backward_sum_gives_ones():
    with Tape() as tape:
        x = leaf([[1.0, 2.0], [3.0, 4.0]])
        grads = backward(tape, ad.sum_(x))
    assert np.array_equal(grads[x], np.ones((2, 2)))


def test_backward_quadratic():
    with Tape() as tape:
        x = leaf([2.0, -3.0])
        grads = backward(tape, ad.sum_(ad.mul(x, x)))
    assert grads[x].tolist() == [4.0, -6.0]


def test_backward_errors():
    with Tape() as tape:
        x = leaf([[1.0, 2.0]])
        y = ad.mul(x, 2.0)
        with pytest.raises(NotScalar):
            backward(tape, y)
        with pytest.raises(DetachedLoss):
            backward(tape, Tensor(1.0))


def test_unreached_leaf_gets_zeros():
    with Tape() as tape:
        x = leaf([1.0, 2.0])
        y = leaf([3.0])
        _ = ad.sum_(ad.mul(y, y))  # y participates but never feeds the loss
        loss = ad.sum_(ad.mul(x, x))
        grads = backward(tape, loss)
    assert np.array_equal(grads[x], [2.0, 4.0])
    assert np.array_equal(grads[y], [0.0])


def test_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        ad.add(Tensor([1.0, 2.0]), Tensor([1.0, 2.0, 3.0]))
    # broadcasting needs equal ranks: (3,) never meets (4, 3)
    for op in (ad.add, ad.sub, ad.mul, ad.div):
        for other in ((3,), (3, 4)):
            with pytest.raises(ShapeMismatch):
                op(Tensor(np.ones((4, 3))), Tensor(np.ones(other)))
    with pytest.raises(ShapeMismatch):
        ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))


def test_non_finite_detection():
    with np.errstate(invalid="ignore", divide="ignore"):
        with pytest.raises(NonFinite):
            ad.log(Tensor([-1.0]))
        with pytest.raises(NonFinite):
            ad.div(Tensor([1.0]), Tensor([0.0]))


def test_empty_segment():
    with pytest.raises(EmptySegment) as err:
        ad.segment_mean(Tensor([[1.0]]), [0], 2)
    assert err.value.segments == [1]


def test_segment_sum_conserves_total():
    gen = np.random.default_rng(3)
    values = gen.integers(-50, 50, size=(40, 3)).astype(np.float64)
    segments = gen.integers(0, 5, size=40)
    out = ad.segment_sum(Tensor(values), segments, 5)
    assert out.values.sum() == values.sum()


RUN_IDS = {
    "sorted-one-length": np.repeat([0, 2, 3, 6], 12),
    "sorted-mixed-lengths": np.repeat([0, 2, 3, 6], [12, 1, 12, 30]),
    "unsorted": np.random.default_rng(4).permutation(np.repeat([0, 2, 3, 6], [12, 1, 12, 30])),
    "single-id": np.full(40, 5),
}


@pytest.mark.parametrize("case", sorted(RUN_IDS))
@pytest.mark.parametrize("columns", ["contiguous", "strided"])
def test_sum_runs_adds_in_add_at_order(case, columns):
    # x has three columns: numpy sums a single column pairwise once a run
    # reaches eight rows, which np.add.at does not
    ids = RUN_IDS[case]
    gen = np.random.default_rng(5)
    wide = gen.normal(size=(len(ids), 6)) * 10.0 ** gen.uniform(-8, 8, size=(len(ids), 1))
    x = np.ascontiguousarray(wide[:, :3]) if columns == "contiguous" else wide[:, ::2]
    groups = ad._runs(ids)
    # sorted ids with runs of one length skip the gather
    assert (groups[0][1] is None) == (case in ("sorted-one-length", "single-id"))
    expected = np.zeros((7, 3))
    np.add.at(expected, ids, x)
    assert np.array_equal(ad._sum_runs(x, groups, 7), expected)


def test_recording_is_reproducible():
    def run():
        with Tape() as tape:
            x = Tensor(rand((4, 3), 5), requires_grad=True)
            w = Tensor(rand((3, 2), 6), requires_grad=True)
            loss = ad.sum_(ad.power(ad.sigmoid(ad.matmul(x, w)), 2))
            grads = backward(tape, loss)
            return loss.values.copy(), grads[w].copy()

    l1, g1 = run()
    l2, g2 = run()
    assert np.array_equal(l1, l2)
    assert np.array_equal(g1, g2)


# ---------------------------------------------------------------------------
# per-primitive adjoint checks
# ---------------------------------------------------------------------------

def _scalarize(t):
    # mix with a fixed random constant so norm-invariant outputs (unit rows,
    # standardized columns) still produce a nonzero gradient signal
    mix = Tensor(np.random.default_rng(9917).uniform(0.5, 1.5, size=t.shape))
    return ad.sum_(ad.power(ad.mul(t, mix), 2))


PRIMITIVE_CASES = {
    "add": lambda p: ad.add(p[0], p[1]),
    "add_scalar": lambda p: ad.add(p[0], 1.5),
    "sub": lambda p: ad.sub(p[0], p[1]),
    "mul": lambda p: ad.mul(p[0], p[1]),
    "div": lambda p: ad.div(p[0], p[1]),
    "matmul": lambda p: ad.matmul(p[0], ad.transpose(p[1])),
    "transpose": lambda p: ad.transpose(p[0]),
    "concat": lambda p: ad.concat([p[0], p[1]]),
    "gather": lambda p: ad.gather_rows(p[0], np.array([2, 0, 1, 0])),
    "embedding": lambda p: ad.gather_rows(p[0], np.array([1, 1, 3])),
    "segment_sum": lambda p: ad.segment_sum(p[0], np.array([0, 1, 0, 1]), 2),
    "segment_mean": lambda p: ad.segment_mean(p[0], np.array([0, 1, 0, 1]), 2),
    "exp": lambda p: ad.exp(p[0]),
    "log": lambda p: ad.log(ad.add(ad.mul(p[0], p[0]), 0.5)),
    "power": lambda p: ad.power(ad.add(ad.mul(p[0], p[0]), 0.1), 1.7),
    "sigmoid": lambda p: ad.sigmoid(p[0]),
    "softplus": lambda p: ad.softplus(p[0]),
    "relu": lambda p: ad.relu(p[0]),
    "sum_axis0": lambda p: ad.sum_(p[0], axis=0),
    "sum_axis1": lambda p: ad.sum_(p[0], axis=1),
    "mean_axis0": lambda p: ad.mean(p[0], axis=0),
    "mean_all": lambda p: ad.mean(p[0]),
    "l2_normalize": lambda p: ad.l2_normalize_rows(p[0]),
    "batch_standardize": lambda p: ad.batch_standardize(p[0]),
}


@pytest.mark.parametrize("name", sorted(PRIMITIVE_CASES))
def test_primitive_adjoints(name):
    op = PRIMITIVE_CASES[name]
    for seed in range(10):
        gen = np.random.default_rng(seed)
        a = gen.uniform(-2.0, 2.0, size=(4, 3))
        b = gen.uniform(0.5, 2.0, size=(4, 3))  # positive: safe divisor
        a[np.abs(a) < 0.1] += 0.25  # keep relu/norm paths away from kinks
        params = [Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)]
        err = grad_check(lambda p: _scalarize(op(p)), params, h=1e-5, seed=seed)
        assert err < 1e-6, f"{name} seed {seed}: {err}"


BROADCAST_PAIRS = [((4, 3), (1, 3)), ((4, 3), (4, 1)), ((1, 3), (4, 1)), ((), (4, 3)),
                   ((1, 1), (4, 3))]


@pytest.mark.parametrize("op", [ad.add, ad.sub, ad.mul, ad.div],
                         ids=["add", "sub", "mul", "div"])
@pytest.mark.parametrize("shapes", BROADCAST_PAIRS,
                         ids=["4x3&1x3", "4x3&4x1", "1x3&4x1", "scalar&4x3", "1x1&4x3"])
def test_broadcast_adjoints(op, shapes):
    gen = np.random.default_rng(7)
    for first, second in (shapes, shapes[::-1]):
        a = Tensor(gen.uniform(-2.0, 2.0, size=first), requires_grad=True)
        b = Tensor(gen.uniform(0.5, 2.0, size=second), requires_grad=True)
        out = op(a, b)
        assert out.shape == np.broadcast_shapes(first, second)
        err = grad_check(lambda p: _scalarize(op(p[0], p[1])), [a, b], h=1e-5)
        assert err < 1e-6, f"{first} & {second}: {err}"


def test_grad_check_quadratic():
    params = [Tensor(rand((5,), 1), requires_grad=True)]
    err = grad_check(lambda p: ad.sum_(ad.mul(p[0], p[0])), params, h=1e-5)
    assert err < 1e-7


def test_grad_check_subset_for_large_tensors():
    params = [Tensor(rand((40, 10), 2), requires_grad=True)]
    err = grad_check(lambda p: ad.sum_(ad.power(p[0], 2)), params, h=1e-5,
                     max_coords=64)
    assert err < 1e-7
