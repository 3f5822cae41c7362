import concurrent.futures
import multiprocessing
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from crystalpretrain import autodiff as ad
from crystalpretrain.autodiff import (DetachedLoss, EmptySegment, NonFinite,
                                      NotScalar, ShapeMismatch, Tape, TapeConsumed,
                                      Tensor, backward)
from oracles import grad_check


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


def test_backward_runs_once_per_tape():
    # an op may write its gradient over the arrays it saved, so a second
    # pass is refused; the records stay on the tape
    with Tape() as tape:
        x = leaf([2.0, -3.0])
        loss = ad.sum_(ad.mul(x, x))
        grads = backward(tape, loss)
        with pytest.raises(TapeConsumed, match="hold gradients"):
            backward(tape, loss)
    assert grads[x].tolist() == [4.0, -6.0]
    assert len(tape.records) == 2


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
    # 2,520 rows over even ids: each run length fills more than one
    # _sum_runs chunk, and the last chunk of each is partial
    "unsorted-many-chunks": np.random.default_rng(6).permutation(np.repeat(
        np.arange(0, 2 * 980, 2), np.repeat([1, 2, 12, 30], [600, 300, 60, 20]))),
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
    if case == "unsorted-many-chunks":
        assert all(len(heads) > ad._SUM_CHUNK_ROWS // rows.shape[1] for heads, rows in groups)
    num_segments = int(ids.max()) + 1
    expected = np.zeros((num_segments, 3))
    np.add.at(expected, ids, x)
    assert np.array_equal(ad._sum_runs(x, groups, num_segments), expected)


@pytest.mark.parametrize("seed", range(6))
def test_runs_group_rows_as_a_stable_sort(seed):
    # many ties, negative ids included: each run's rows are its id's rows in
    # row order, as a stable argsort gives them, and runs of one length
    # share a group in ascending id order
    gen = np.random.default_rng(seed)
    ids = gen.integers(-40, 40, size=int(gen.integers(2, 3000))) * int(gen.choice([1, 7]))
    order = np.argsort(ids, kind="stable")
    sorted_ids = ids[order]
    starts = np.flatnonzero(np.diff(sorted_ids, prepend=sorted_ids[0] - 1))
    lengths = np.diff(starts, append=len(ids))
    groups = ad._runs(ids)
    assert [rows.shape[1] for _, rows in groups] == np.unique(lengths).tolist()
    for (heads, rows), length in zip(groups, np.unique(lengths)):
        first = starts[lengths == length]
        assert np.array_equal(heads, sorted_ids[first])
        assert np.array_equal(rows, order[first[:, None] + np.arange(length)])


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


# ---------------------------------------------------------------------------
# gated_conv on the thread pool
# ---------------------------------------------------------------------------

# edge counts in blocks of ad._EDGE_BLOCK: below one block, exactly two (one
# per thread, so the op runs inline), exactly four, and five with the last
# one short (spans of three and two blocks)
POOL_EDGES = {"below-one-block": 0.4, "two-blocks": 2, "four-blocks": 4,
              "odd-short-last": 4.7}


def conv_inputs(m, h, seed, shuffle_src=False, k=41):
    """Node rows, edge rows, src (sorted unless shuffle_src), dst in random
    order, the four weights, and a mix that makes the output a scalar."""
    gen = np.random.default_rng(seed)
    n = max(2, m // 12)
    src = np.sort(gen.integers(0, n, size=m))
    if shuffle_src:
        src = gen.permutation(src)
    dst = gen.integers(0, n, size=m)
    weights = [gen.uniform(-0.5, 0.5, size=shape) for shape in [(2 * h + k, h), (1, h)] * 2]
    return (gen.normal(size=(n, h)), gen.uniform(size=(m, k)), src, dst, weights,
            gen.normal(size=(n, h)))


def conv_bits(inputs, threads, monkeypatch):
    """The untaped and taped outputs and the six gradients of one gated_conv
    with `threads` threads."""
    feats, edges, src, dst, weights, mix = inputs
    monkeypatch.setattr(ad, "_threads", lambda: threads)
    untaped = ad.gated_conv(Tensor(feats), Tensor(edges), ad.EdgeRuns(src, dst),
                            *map(Tensor, weights))
    leaves = [leaf(x) for x in (feats, edges, *weights)]
    with Tape() as tape:
        out = ad.gated_conv(leaves[0], leaves[1], ad.EdgeRuns(src, dst), *leaves[2:])
        grads = backward(tape, ad.sum_(ad.mul(out, Tensor(mix))))
    return [untaped.values, out.values] + [grads[t] for t in leaves]


@pytest.mark.parametrize("h", [1, 16, 64])
@pytest.mark.parametrize("blocks", sorted(POOL_EDGES))
@pytest.mark.parametrize("shuffle_src", [False, True], ids=["sorted-src", "shuffled-src"])
def test_gated_conv_bits_do_not_depend_on_threads(h, blocks, shuffle_src, monkeypatch):
    m = int(POOL_EDGES[blocks] * ad._EDGE_BLOCK)
    inputs = conv_inputs(m, h, seed=31, shuffle_src=shuffle_src)
    one = conv_bits(inputs, 1, monkeypatch)
    two = conv_bits(inputs, 2, monkeypatch)
    assert len(ad._spans(m)) == (2 if m >= 4 * ad._EDGE_BLOCK else 1)
    assert len(one) == len(two) == 8
    for name, a, b in zip(["untaped", "taped", "v", "e", "gate_weight", "gate_bias",
                           "self_weight", "self_bias"], one, two):
        assert np.array_equal(a, b), name


@pytest.mark.parametrize("m_blocks", [0, 1, 3, 4, 5, 9])
@pytest.mark.parametrize("threads", [1, 2, 3])
def test_spans_cover_the_edges_in_whole_blocks(m_blocks, threads, monkeypatch):
    monkeypatch.setattr(ad, "_threads", lambda: threads)
    m = max(0, m_blocks * ad._EDGE_BLOCK - 5)
    spans = ad._spans(m)
    assert [lo for lo, _ in spans] + [m] == [0] + [hi for _, hi in spans]
    assert all(lo % ad._EDGE_BLOCK == 0 for lo, _ in spans)
    # one span per thread, each of two blocks or more, or one span
    assert len(spans) <= threads
    assert len(spans) == 1 or all(hi - lo > ad._EDGE_BLOCK for lo, hi in spans)


def test_thread_count_follows_the_usable_cpus(monkeypatch):
    assert ad._threads() == min(ad._MAX_THREADS, len(os.sched_getaffinity(0)))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert ad._threads() == 1


def test_an_error_in_a_span_surfaces_from_the_op(monkeypatch):
    inputs = conv_inputs(5 * ad._EDGE_BLOCK, 8, seed=32)
    expected = conv_bits(inputs, 2, monkeypatch)
    for name in ("_softplus", "_sum_runs"):  # the forward's spans, the backward's jobs
        real = getattr(ad, name)

        def off_main(*args, real=real, **kwargs):
            if threading.current_thread() is not threading.main_thread():
                raise RuntimeError("a pool thread failed")
            return real(*args, **kwargs)

        monkeypatch.setattr(ad, name, off_main)
        with pytest.raises(RuntimeError, match="a pool thread failed"):
            conv_bits(inputs, 2, monkeypatch)
        monkeypatch.setattr(ad, name, real)
    # the pool still runs, and computes the same
    for a, b in zip(expected, conv_bits(inputs, 2, monkeypatch)):
        assert np.array_equal(a, b)


def test_concurrent_callers_make_one_pool_and_keep_their_bits(monkeypatch):
    # more callers than cores, switching threads every microsecond: the
    # first calls race to make the pool, which must be made once, and each
    # call's spans and jobs must come back to it whole
    monkeypatch.setattr(ad, "_threads", lambda: 2)
    inputs = conv_inputs(5 * ad._EDGE_BLOCK, 8, seed=35)
    args = (*map(Tensor, inputs[:2]), ad.EdgeRuns(*inputs[2:4]), *map(Tensor, inputs[4]))
    expected = ad.gated_conv(*args).values
    if ad._pool is not None:
        ad._pool[1].shutdown()
        ad._pool = None
    made = []

    class CountedPool(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            made.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", CountedPool)
    results = [None] * 4

    def call(k):
        results[k] = [ad.gated_conv(*args).values for _ in range(5)]

    callers = [threading.Thread(target=call, args=(k,)) for k in range(len(results))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    assert all(np.array_equal(out, expected) for outs in results for out in outs)
    assert len(made) == 1
    pool_threads = [t for t in threading.enumerate() if t.name.startswith("gated_conv")]
    assert len(pool_threads) <= ad._MAX_THREADS - 1


def _child_conv(conn, inputs):
    feats, edges, src, dst, weights, _ = inputs
    conn.send(ad.gated_conv(Tensor(feats), Tensor(edges), ad.EdgeRuns(src, dst),
                            *map(Tensor, weights)).values)
    conn.close()


def test_a_forked_child_makes_its_own_pool(monkeypatch):
    # a child forked after the pool ran has none of its threads; with the
    # parent's pool it would wait for ever on the first span it handed out
    monkeypatch.setattr(ad, "_threads", lambda: 2)
    inputs = conv_inputs(5 * ad._EDGE_BLOCK, 16, seed=33)
    expected = conv_bits(inputs, 2, monkeypatch)[0]
    assert ad._pool is not None and ad._pool[0] == os.getpid()
    ctx = multiprocessing.get_context("fork")
    receive, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_child_conv, args=(send, inputs))
    child.start()
    send.close()
    try:
        assert receive.poll(30), "the forked child did not finish its gated_conv"
        got = receive.recv()
    finally:
        child.join(10)
        if child.is_alive():
            child.kill()
            child.join(10)
    assert not child.is_alive() and child.exitcode == 0
    assert not multiprocessing.active_children()
    assert np.array_equal(got, expected)


def test_importing_and_initialising_starts_no_thread():
    code = ("import threading; from crystalpretrain import datasets, model; "
            "model.init_params(model.ModelConfig(), seed=0); "
            "print(threading.active_count())")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, check=True,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert done.stdout.strip() == "1"
