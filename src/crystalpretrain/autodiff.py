"""Dense float64 tensors with tape-based reverse-mode differentiation.

Covers exactly the operator set the encoder and losses need: matmul,
elementwise arithmetic with same-rank broadcasting, concat, gathers, segment
reductions, the fused gated graph convolution, pointwise nonlinearities, axis
reductions, row normalization and per-feature batch standardization. Every op
checks its output for NaN/Inf.

Usage:

    with Tape() as tape:
        loss = ...ops on Tensors...
        grads = backward(tape, loss)

A tape is differentiated once, and a second backward raises TapeConsumed:
gated_conv's backward writes its gradient over the arrays its forward
saved, so that a training step's backward allocates no edge-sized array.

gated_conv shares its edge-sized work between the calling thread and one
thread of a pool that the process makes on first use (_MAX_THREADS = 2),
unless the process may run on one CPU only (taskset -c 0). Its outputs
and gradients are the same, bit for bit, at either thread count. Every
other op runs on the calling thread.
"""

from __future__ import annotations

import os
import threading
from functools import cached_property, partial

import numpy as np


class AutodiffError(Exception):
    pass


class ShapeMismatch(AutodiffError):
    def __init__(self, op: str, *shapes):
        super().__init__(f"{op}: incompatible shapes {shapes}")


class NonFinite(AutodiffError):
    def __init__(self, op: str):
        self.op = op
        super().__init__(f"{op} produced non-finite values")


class NotScalar(AutodiffError):
    pass


class DetachedLoss(AutodiffError):
    pass


class TapeConsumed(AutodiffError):
    def __init__(self):
        super().__init__("backward already ran on this tape: the arrays its ops "
                         "saved now hold gradients")


class EmptySegment(AutodiffError):
    def __init__(self, segments):
        self.segments = list(segments)
        super().__init__(f"segments {self.segments} have no members")


class Tensor:
    __slots__ = ("values", "requires_grad")

    def __init__(self, values, requires_grad: bool = False):
        self.values = np.asarray(values, dtype=np.float64)
        self.requires_grad = requires_grad

    @property
    def shape(self):
        return self.values.shape

    @property
    def size(self):
        return self.values.size

    def item(self) -> float:
        return float(self.values.reshape(-1)[0])

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class _Record:
    __slots__ = ("inputs", "output", "backward_fn")

    def __init__(self, inputs, output, backward_fn):
        self.inputs = inputs
        self.output = output
        self.backward_fn = backward_fn


_TAPE_STACK: list["Tape"] = []


class Tape:
    """Ordered op record; record order is the topological order."""

    def __init__(self):
        self.records: list[_Record] = []
        self.consumed = False
        self._produced: set[int] = set()
        self._leaves: dict[int, Tensor] = {}

    def __enter__(self):
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, *exc):
        popped = _TAPE_STACK.pop()
        assert popped is self
        return False

    def _add(self, inputs, output, backward_fn):
        self.records.append(_Record(inputs, output, backward_fn))
        self._produced.add(id(output))
        for t in inputs:
            if isinstance(t, Tensor) and t.requires_grad and id(t) not in self._produced:
                self._leaves[id(t)] = t


def _active_tape() -> Tape | None:
    return _TAPE_STACK[-1] if _TAPE_STACK else None


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


def _make(op: str, values: np.ndarray, inputs, backward_fn) -> Tensor:
    if not np.isfinite(values).all():
        raise NonFinite(op)
    requires = any(isinstance(t, Tensor) and t.requires_grad for t in inputs)
    out = Tensor(values, requires_grad=requires)
    tape = _active_tape()
    if requires and tape is not None:
        tape._add(tuple(inputs), out, backward_fn)
    return out


def backward(tape: Tape, loss: Tensor) -> dict[Tensor, np.ndarray]:
    """Reverse accumulation over the tape in reverse record order.

    Returns gradients keyed by leaf tensor; leaves the loss never reached get
    zeros. Runs once per tape: an op may write its gradient over the arrays
    it saved (gated_conv does), so a second pass would read gradients where
    it expects activations, and raises TapeConsumed instead.
    """
    if tape.consumed:
        raise TapeConsumed()
    if loss.size != 1:
        raise NotScalar(f"loss has shape {loss.shape}")
    if id(loss) not in tape._produced:
        raise DetachedLoss("loss was not produced on this tape")
    tape.consumed = True
    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.values)}
    for rec in reversed(tape.records):
        g_out = grads.pop(id(rec.output), None)  # every later record has added to it
        if g_out is None:
            continue
        for tensor, g in zip(rec.inputs, rec.backward_fn(g_out)):
            if not (isinstance(tensor, Tensor) and tensor.requires_grad) or g is None:
                continue
            acc = grads.get(id(tensor))
            grads[id(tensor)] = g if acc is None else acc + g
    out: dict[Tensor, np.ndarray] = {}
    for key, leaf in tape._leaves.items():
        g = grads.get(key)
        out[leaf] = np.zeros_like(leaf.values) if g is None else g
    return out


# ---------------------------------------------------------------------------
# elementwise arithmetic (same-rank broadcasting, or a size-1 operand)
# ---------------------------------------------------------------------------

def _reduce_to(g: np.ndarray, shape) -> np.ndarray:
    """Sum g back over the axes that were broadcast to reach its shape."""
    if g.shape == shape:
        return g
    if g.ndim != len(shape):  # a size-1 operand of lower rank
        return np.sum(g).reshape(shape)
    axes = tuple(k for k, n in enumerate(shape) if n != g.shape[k])
    return np.sum(g, axis=axes, keepdims=True)


def _operands(op: str, a, b) -> tuple[Tensor, Tensor]:
    """Both as Tensors, of equal rank with axes that match or are 1, or one
    of size 1 and lower rank than the other; (n,) never meets (n, 1)."""
    a, b = _as_tensor(a), _as_tensor(b)
    sa, sb = a.shape, b.shape
    if not (len(sa) == len(sb) and all(m == n or 1 in (m, n) for m, n in zip(sa, sb))
            or a.size == 1 and len(sa) < len(sb) or b.size == 1 and len(sb) < len(sa)):
        raise ShapeMismatch(op, sa, sb)
    return a, b


def add(a, b) -> Tensor:
    a, b = _operands("add", a, b)
    return _make("add", a.values + b.values, (a, b),
                 lambda g: (_reduce_to(g, a.shape), _reduce_to(g, b.shape)))


def sub(a, b) -> Tensor:
    a, b = _operands("sub", a, b)
    return _make("sub", a.values - b.values, (a, b),
                 lambda g: (_reduce_to(g, a.shape), _reduce_to(-g, b.shape)))


def mul(a, b) -> Tensor:
    a, b = _operands("mul", a, b)
    return _make("mul", a.values * b.values, (a, b),
                 lambda g: (_reduce_to(g * b.values, a.shape),
                            _reduce_to(g * a.values, b.shape)))


def div(a, b) -> Tensor:
    a, b = _operands("div", a, b)
    return _make("div", a.values / b.values, (a, b),
                 lambda g: (_reduce_to(g / b.values, a.shape),
                            _reduce_to(-g * a.values / (b.values * b.values), b.shape)))


# ---------------------------------------------------------------------------
# linear algebra and shape ops
# ---------------------------------------------------------------------------

def matmul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.values.ndim != 2 or b.values.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeMismatch("matmul", a.shape, b.shape)
    return _make("matmul", a.values @ b.values, (a, b),
                 lambda g: (g @ b.values.T, a.values.T @ g))


def transpose(a) -> Tensor:
    a = _as_tensor(a)
    if a.values.ndim != 2:
        raise ShapeMismatch("transpose", a.shape)
    return _make("transpose", a.values.T.copy(), (a,), lambda g: (g.T,))


def concat(tensors) -> Tensor:
    """Concatenate 2D tensors along the last axis."""
    tensors = [_as_tensor(t) for t in tensors]
    if not tensors or any(t.values.ndim != 2 or t.shape[0] != tensors[0].shape[0]
                          for t in tensors):
        raise ShapeMismatch("concat", *[t.shape for t in tensors])
    splits = np.cumsum([t.shape[1] for t in tensors])[:-1]
    return _make("concat", np.concatenate([t.values for t in tensors], axis=1),
                 tuple(tensors), lambda g: tuple(np.split(g, splits, axis=1)))


def _runs(ids: np.ndarray) -> list[tuple[np.ndarray, np.ndarray | None]]:
    """Rows grouped by id for summing: the ids, taken in a stable sort, fall
    into runs of equal ids; runs of equal length L form one group, given as
    (the id of each run, a (runs, L) array of row indices in row order).
    Sorted ids whose runs all have one length form one group with no row
    indices: the rows as they lie are the runs."""
    # a stable sort by unique keys: id * L + row < id2 * L for every id2 > id
    order = (None if (ids[1:] >= ids[:-1]).all()
             else (ids * len(ids) + np.arange(len(ids))).argsort())
    ids = ids if order is None else ids[order]
    starts = np.flatnonzero(np.diff(ids, prepend=-1))
    lengths = np.diff(starts, append=len(ids))
    if order is None and len(starts) and (lengths == lengths[0]).all():
        return [(ids[starts], None)]
    groups = []
    for length in np.unique(lengths):
        first = starts[lengths == length]
        rows = first[:, None] + np.arange(length)
        groups.append((ids[first], rows if order is None else order[rows]))
    return groups


# Rows per gather in _sum_runs: a group's runs are gathered and summed in
# chunks of whole runs covering about this many rows, so each gathered
# block stays in L2 instead of one gather copying all of x out to memory.
# On a 10,320-edge desk batch 512 ran faster than 128, 256, 1024 and 2048.
_SUM_CHUNK_ROWS = 512


def _sum_runs(x: np.ndarray, groups, num_segments: int) -> np.ndarray:
    """Rows of x summed per id, in row order within each id as np.add.at
    adds them (numpy sums a one-column x pairwise over runs of eight rows or
    more); zero where absent. A gather and sum per chunk of runs of one
    length, or a reshape and no gather when the rows already lie in equal
    runs: np.add.at and np.add.reduceat pay per row or per run, several
    times slower on edge-sized arrays. Chunking sums each run as a whole,
    so it changes no bit."""
    out = np.zeros((num_segments, x.shape[1]))
    for heads, rows in groups:
        if rows is None:
            out[heads] = np.ascontiguousarray(x).reshape(len(heads), -1, x.shape[1]).sum(axis=1)
            continue
        step = max(1, _SUM_CHUNK_ROWS // rows.shape[1])
        for lo in range(0, len(heads), step):
            out[heads[lo:lo + step]] = x[rows[lo:lo + step]].sum(axis=1)
    return out


def gather_rows(a, index) -> Tensor:
    a = _as_tensor(a)
    if a.values.ndim != 2:
        raise ShapeMismatch("gather_rows", a.shape)
    index = np.asarray(index, dtype=np.int64)
    return _make("gather_rows", a.values[index], (a,),
                 lambda g: (_sum_runs(g, _runs(index), a.shape[0]),))


def segment_sum(a, segment_ids, num_segments: int) -> Tensor:
    a = _as_tensor(a)
    segment_ids = np.asarray(segment_ids, dtype=np.int64)
    if a.values.ndim != 2 or len(segment_ids) != a.shape[0]:
        raise ShapeMismatch("segment_sum", a.shape, segment_ids.shape)
    return _make("segment_sum", _sum_runs(a.values, _runs(segment_ids), num_segments),
                 (a,), lambda g: (g[segment_ids],))


# Edge rows per block in gated_conv: the chain of elementwise passes over a
# block, with its buffers and gathered node rows, stays in L2 instead of
# streaming edge-sized arrays from memory, and each block pays the Python
# between its numpy calls once, holding the GIL that a second thread waits
# for. Forward of 10,752 edges at h = 64 on a 2-vCPU VM, medians of 25
# calls on one thread / two: 128 rows 12-17 / 12-14 ms, 256 rows 13-17 /
# 9.6-10 ms, 512 rows 13-15 / 8.3-10.6 ms, 1024 rows 14-18 / 12-14 ms.
_EDGE_BLOCK = 512

# Threads that share one gated_conv's edge-sized work: the calling thread
# and at most _MAX_THREADS - 1 pool threads. numpy releases the GIL inside
# each ufunc and BLAS call, but the Python between those calls holds it.
_MAX_THREADS = 2
_POOL_LOCK = threading.Lock()
_pool = None  # (pid, ThreadPoolExecutor), made on first use


def _threads() -> int:
    """_MAX_THREADS, or fewer where the process may run on fewer CPUs."""
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        usable = os.cpu_count() or 1
    return min(_MAX_THREADS, usable)


def _executor():
    """The process's pool of _MAX_THREADS - 1 threads. A forked child has
    none of its parent's threads, so it makes its own pool."""
    global _pool
    with _POOL_LOCK:
        if _pool is None or _pool[0] != os.getpid():
            from concurrent.futures import ThreadPoolExecutor
            _pool = (os.getpid(), ThreadPoolExecutor(_MAX_THREADS - 1,
                                                     thread_name_prefix="gated_conv"))
        return _pool[1]


def _spans(m: int) -> list[tuple[int, int]]:
    """[0, m) as one contiguous span of whole _EDGE_BLOCK blocks per thread,
    or as a single span when a thread would get fewer than two blocks."""
    blocks = -(-m // _EDGE_BLOCK)
    threads = min(_threads(), blocks // 2)
    if threads < 2:
        return [(0, m)]
    step = -(-blocks // threads) * _EDGE_BLOCK
    return [(lo, min(lo + step, m)) for lo in range(0, m, step)]


def _run_all(jobs, threads: int) -> list:
    """Each job's result, in order. With two threads or more the calling
    thread runs the first job and the pool the others; with one, the
    calling thread runs them all. Every job has finished before this
    returns or raises, and the error raised is the first in job order."""
    if threads < 2:
        return [job() for job in jobs]
    futures = [_executor().submit(job) for job in jobs[1:]]
    try:
        first = jobs[0]()
    finally:
        for future in futures:
            future.exception()  # waits for the job to finish
    return [first] + [future.result() for future in futures]


class EdgeRuns:
    """A batch's edges i -> j: the anchors src and neighbours dst as int64,
    and their rows grouped by id (_runs). Made once per graph batch, it
    serves every layer over it; each grouping is made on first use, so only
    a backward groups dst."""

    def __init__(self, src, dst):
        self.src = np.asarray(src, dtype=np.int64)
        self.dst = np.asarray(dst, dtype=np.int64)

    @cached_property
    def by_src(self):
        return _runs(self.src)

    @cached_property
    def by_dst(self):
        return _runs(self.dst)


def gated_conv(v, e, edges: EdgeRuns, gate_weight, gate_bias, self_weight,
               self_bias) -> Tensor:
    """CGCNN gated residual convolution as one op:
    v + sum over edges i->j of sigmoid(z W_g + b_g) * softplus(z W_s + b_s),
    z = [v_i, v_j, e_ij], over the edges i = edges.src -> j = edges.dst,
    added onto each anchor i. The edges carry their own groupings by src
    and dst, so a batch gives every layer one EdgeRuns.

    Gate and filter share one (2h + k, 2h) matrix W, cut into row blocks
    W_a, W_b, W_e, so the edge pre-activation is (v W_a)[src] + (v W_b)[dst]
    + e W_e + b: node-sized matmuls plus one over the edge features.

    The edge-sized work runs in blocks of _EDGE_BLOCK edge rows: each block's
    pre-activation is built in one reused buffer and turned, by in-place
    ufuncs in the same operation order as whole-array expressions, into
    rows of the gate and the message and, when a tape records the op, the
    filter's sigmoid. Without a tape the gate lives only in a block buffer;
    with one, the backward keeps the gate, the message and the filter's
    sigmoid as three contiguous (m, h) arrays, not the pre-activation.

    The backward writes the pre-activation gradient's gate half over the
    message and its filter half over the filter's sigmoid, block by block,
    so it allocates no edge-sized array and the tape cannot be
    differentiated twice. Each half is reduced on its own: summed per
    anchor, per neighbour and over all edges, and multiplied by the edge
    features; the node-side sums are joined again, so the node-sized
    matmuls stay the joined ones. Blocking changes no bit, and neither does
    the split at the default sizes (h = 64, k = 41). At other sizes BLAS may
    take another kernel for a half's product with the edge features than
    for the joined one (OpenBLAS takes its small-matrix kernel, e.g. at
    h = 16 and about a thousand edges), and numpy sums a single column
    (h = 1) pairwise: the weight gradients then move in the last bits. The
    gradient of e, which the encoder never needs, is the sum of the two
    halves' products.

    Up to _MAX_THREADS threads share the edge-sized work. In the forward
    and in the backward's block loop each takes one contiguous span of
    whole blocks (_spans), with block buffers of its own; the backward's
    reductions of the gate half and of the filter half then run as two
    jobs at once. Each block and each reduction is computed as it would be
    on one thread, so no bit depends on the thread count. An op with fewer
    than two blocks per thread runs on the calling thread alone.
    """
    v, e, *weights = map(_as_tensor, (v, e, gate_weight, gate_bias, self_weight, self_bias))
    src, dst = edges.src, edges.dst
    shapes = [t.shape for t in (v, e, *weights)]
    if len(shapes[0]) != 2 or len(shapes[1]) != 2:
        raise ShapeMismatch("gated_conv", *shapes)
    (n, h), (m, k) = shapes[:2]
    if src.shape != (m,) or dst.shape != (m,) or shapes[2:] != [(2 * h + k, h), (1, h)] * 2:
        raise ShapeMismatch("gated_conv", *shapes, src.shape, dst.shape)
    # the endpoints are checked once here, as indexing would check them, so
    # the gathers below can take mode="wrap": with out= and the default
    # mode="raise", np.take writes into a temporary and copies it over
    if m and not (-n <= min(src.min(), dst.min()) and max(src.max(), dst.max()) < n):
        raise IndexError(f"gated_conv: an edge endpoint is out of range for {n} nodes")
    w = np.concatenate([weights[0].values, weights[2].values], axis=1)
    b = np.concatenate([weights[1].values, weights[3].values], axis=1)
    w_a, w_b, w_e = w[:h], w[h:2 * h], w[2 * h:]
    node_a, node_b = v.values @ w_a, v.values @ w_b
    taped = _active_tape() is not None and any(t.requires_grad for t in (v, e, *weights))
    msg = np.empty((m, h))
    gate = np.empty((m, h)) if taped else None
    filt = np.empty((m, h)) if taped else None  # sigmoid of the filter pre-activation
    spans, block = _spans(m), min(m, _EDGE_BLOCK)

    def forward_span(lo, hi, pre, rows, tail, block_gate):
        for start in range(lo, hi, _EDGE_BLOCK):
            stop = min(start + _EDGE_BLOCK, hi)
            p, r = pre[:stop - start], rows[:stop - start]
            gt = gate[start:stop] if taped else block_gate[:stop - start]
            np.matmul(e.values[start:stop], w_e, out=p)
            p += b
            p += np.take(node_a, src[start:stop], axis=0, out=r, mode="wrap")
            p += np.take(node_b, dst[start:stop], axis=0, out=r, mode="wrap")
            _sigmoid(p[:, :h], out=gt)
            _softplus(p[:, h:], out=msg[start:stop], scratch=tail[:stop - start])
            msg[start:stop] *= gt
            if taped:
                _sigmoid(p[:, h:], out=filt[start:stop])

    _run_all([partial(forward_span, lo, hi, *np.empty((2, block, 2 * h)),
                      *np.empty((2, block, h))) for lo, hi in spans], len(spans))
    by_src = edges.by_src

    def backward_span(lo, hi, g, g_msg, tmp):
        # the pre-activation gradient's gate half, g_msg * msg * (1 - gate),
        # is written over msg and its filter half, g_msg * gate * filt, over
        # filt, left to right as whole-array expressions would compute them
        for start in range(lo, hi, _EDGE_BLOCK):
            stop = min(start + _EDGE_BLOCK, hi)
            gm, t = g_msg[:stop - start], tmp[:stop - start]
            np.take(g, src[start:stop], axis=0, out=gm, mode="wrap")
            msg[start:stop] *= gm
            msg[start:stop] *= np.subtract(1.0, gate[start:stop], out=t)
            np.multiply(gm, gate[start:stop], out=t)
            filt[start:stop] *= t

    def reduce_half(half, by_dst):
        return (_sum_runs(half, by_src, n), _sum_runs(half, by_dst, n),
                half.sum(axis=0, keepdims=True), e.values.T @ half)

    def backward_fn(g):
        _run_all([partial(backward_span, lo, hi, g, *np.empty((2, block, h)))
                  for lo, hi in spans], len(spans))
        g_gate, g_filt = msg, filt
        (src_gate, dst_gate, b_gate, e_gate), (src_filt, dst_filt, b_filt, e_filt) = _run_all(
            [partial(reduce_half, half, edges.by_dst) for half in (g_gate, g_filt)], len(spans))
        g_src = np.concatenate([src_gate, src_filt], axis=1)
        g_dst = np.concatenate([dst_gate, dst_filt], axis=1)
        g_node = np.concatenate([v.values.T @ g_src, v.values.T @ g_dst])
        return (g + g_src @ w_a.T + g_dst @ w_b.T,
                g_gate @ w_e[:, :h].T + g_filt @ w_e[:, h:].T if e.requires_grad else None,
                np.concatenate([g_node[:, :h], e_gate]), b_gate,
                np.concatenate([g_node[:, h:], e_filt]), b_filt)

    return _make("gated_conv", v.values + _sum_runs(msg, by_src, n),
                 (v, e, *weights), backward_fn)


def segment_mean(a, segment_ids, num_segments: int) -> Tensor:
    total = segment_sum(a, segment_ids, num_segments)
    counts = np.bincount(np.asarray(segment_ids, dtype=np.int64), minlength=num_segments)
    empty = np.nonzero(counts == 0)[0]
    if len(empty):
        raise EmptySegment(empty.tolist())
    return div(total, counts[:, None])


# ---------------------------------------------------------------------------
# pointwise nonlinearities
# ---------------------------------------------------------------------------

def exp(a) -> Tensor:
    a = _as_tensor(a)
    out = np.exp(a.values)
    return _make("exp", out, (a,), lambda g: (g * out,))


def log(a) -> Tensor:
    a = _as_tensor(a)
    return _make("log", np.log(a.values), (a,), lambda g: (g / a.values,))


def power(a, p: float) -> Tensor:
    a = _as_tensor(a)
    p = float(p)
    return _make("power", a.values ** p, (a,),
                 lambda g: (g * p * a.values ** (p - 1.0),))


def _sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """0.5 * (1 + tanh(x / 2)), step by step in place (in out, if given)."""
    out = np.multiply(x, 0.5, out=out)
    np.tanh(out, out=out)
    out += 1.0
    out *= 0.5
    return out


def sigmoid(a) -> Tensor:
    a = _as_tensor(a)
    out = _sigmoid(a.values)
    return _make("sigmoid", out, (a,), lambda g: (g * out * (1.0 - out),))


def _softplus(x: np.ndarray, out: np.ndarray | None = None,
              scratch: np.ndarray | None = None) -> np.ndarray:
    """max(x, 0) + log1p(exp(-|x|)), in place in out and scratch if given."""
    tail = np.abs(x, out=scratch)
    np.negative(tail, out=tail)
    np.exp(tail, out=tail)
    np.log1p(tail, out=tail)
    out = np.maximum(x, 0.0, out=out)
    out += tail
    return out


def softplus(a) -> Tensor:
    a = _as_tensor(a)
    return _make("softplus", _softplus(a.values), (a,), lambda g: (g * _sigmoid(a.values),))


def relu(a) -> Tensor:
    a = _as_tensor(a)
    return _make("relu", np.maximum(a.values, 0.0), (a,),
                 lambda g: (g * (a.values > 0.0),))


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------

def sum_(a, axis: int | None = None) -> Tensor:
    a = _as_tensor(a)

    def backward_fn(g):
        g = g if axis is None else np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.shape).copy(),)

    return _make("sum", np.sum(a.values, axis=axis), (a,), backward_fn)


def mean(a, axis: int | None = None) -> Tensor:
    a = _as_tensor(a)
    return div(sum_(a, axis), a.size if axis is None else a.shape[axis])


# ---------------------------------------------------------------------------
# normalizations
# ---------------------------------------------------------------------------

_NORM_FLOOR = 1e-12


def l2_normalize_rows(a) -> Tensor:
    """Rows scaled to unit length; all-zero rows stay zero (with zero grad)."""
    a = _as_tensor(a)
    if a.values.ndim != 2:
        raise ShapeMismatch("l2_normalize_rows", a.shape)
    norms = np.sqrt((a.values * a.values).sum(axis=1))
    safe = np.maximum(norms, _NORM_FLOOR)
    out = a.values / safe[:, None]
    live = (norms > _NORM_FLOOR)[:, None]

    def backward_fn(g):
        dots = (g * out).sum(axis=1, keepdims=True)
        return (np.where(live, (g - out * dots) / safe[:, None], 0.0),)

    return _make("l2_normalize_rows", out, (a,), backward_fn)


def batch_standardize(a) -> Tensor:
    """Per-column zero mean, unit variance (population), epsilon 1e-12."""
    a = _as_tensor(a)
    if a.values.ndim != 2:
        raise ShapeMismatch("batch_standardize", a.shape)
    n_rows = a.shape[0]
    mu = a.values.mean(axis=0)
    centered = a.values - mu
    std = np.sqrt((centered * centered).mean(axis=0))
    s = std + _NORM_FLOOR
    out = centered / s
    live = std > 0.0
    std_safe = np.where(live, std, 1.0)

    def backward_fn(g):
        g_mean = g.mean(axis=0)
        proj = (g * centered).sum(axis=0)
        dx = (g - g_mean) / s - centered * (proj / (n_rows * std_safe * s * s))
        return (np.where(live[None, :], dx, 0.0),)

    return _make("batch_standardize", out, (a,), backward_fn)
