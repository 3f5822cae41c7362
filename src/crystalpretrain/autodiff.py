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
"""

from __future__ import annotations

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
    zeros.
    """
    if loss.size != 1:
        raise NotScalar(f"loss has shape {loss.shape}")
    if id(loss) not in tape._produced:
        raise DetachedLoss("loss was not produced on this tape")
    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.values)}
    for rec in reversed(tape.records):
        g_out = grads.get(id(rec.output))
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
    order = None if (ids[1:] >= ids[:-1]).all() else np.argsort(ids, kind="stable")
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


def _sum_runs(x: np.ndarray, groups, num_segments: int) -> np.ndarray:
    """Rows of x summed per id, in row order within each id as np.add.at
    adds them (numpy sums a one-column x pairwise over runs of eight rows or
    more); zero where absent. One gather and sum per run length, or a
    reshape and no gather when the rows already lie in equal runs:
    np.add.at and np.add.reduceat pay per row or per run, several times
    slower on edge-sized arrays."""
    out = np.zeros((num_segments, x.shape[1]))
    for heads, rows in groups:
        runs = (np.ascontiguousarray(x).reshape(len(heads), -1, x.shape[1])
                if rows is None else x[rows])
        out[heads] = runs.sum(axis=1)
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


# Edge rows per block in gated_conv: a (rows, 2h) float64 pre-activation
# block at the default h = 64 is 128 KB, so the chain of elementwise passes
# over a block, with its buffers and gathered node rows, stays well inside
# L2 instead of streaming edge-sized arrays from memory. At 512 rows the
# block's working set is about 2 MB, the whole L2 of a Sapphire Rapids
# core, and its speed swung from one run to the next.
_EDGE_BLOCK = 128


def gated_conv(v, e, src, dst, gate_weight, gate_bias, self_weight, self_bias) -> Tensor:
    """CGCNN gated residual convolution as one op:
    v + sum over edges i->j of sigmoid(z W_g + b_g) * softplus(z W_s + b_s),
    z = [v_i, v_j, e_ij], added onto each anchor i = src.

    Gate and filter share one (2h + k, 2h) matrix W, cut into row blocks
    W_a, W_b, W_e, so the edge pre-activation is (v W_a)[src] + (v W_b)[dst]
    + e W_e + b: node-sized matmuls plus one over the edge features.

    The edge-sized work runs in blocks of _EDGE_BLOCK edge rows: each block's
    pre-activation is built in one reused buffer and turned, by in-place
    ufuncs in the same operation order as whole-array expressions, into
    rows of the gate, the message and, when a tape records the op, the
    filter's sigmoid. The backward keeps those three (m, h) arrays, not the
    pre-activation; it fills the joined (m, 2h) pre-activation gradient
    block by block, then sums it per anchor and per neighbour and applies
    the joined matmuls over all edges at once. Blocking changes no bit of
    the output or of any gradient.
    """
    v, e, *weights = map(_as_tensor, (v, e, gate_weight, gate_bias, self_weight, self_bias))
    src, dst = np.asarray(src, dtype=np.int64), np.asarray(dst, dtype=np.int64)
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
    gate, msg = np.empty((m, h)), np.empty((m, h))
    filt = np.empty((m, h)) if taped else None  # sigmoid of the filter pre-activation
    pre, rows = np.empty((2, min(m, _EDGE_BLOCK), 2 * h))
    tail = np.empty((min(m, _EDGE_BLOCK), h))
    for lo in range(0, m, _EDGE_BLOCK):
        hi = min(lo + _EDGE_BLOCK, m)
        p, r = pre[:hi - lo], rows[:hi - lo]
        np.matmul(e.values[lo:hi], w_e, out=p)
        p += b
        p += np.take(node_a, src[lo:hi], axis=0, out=r, mode="wrap")
        p += np.take(node_b, dst[lo:hi], axis=0, out=r, mode="wrap")
        _sigmoid(p[:, :h], out=gate[lo:hi])
        _softplus(p[:, h:], out=msg[lo:hi], scratch=tail[:hi - lo])
        msg[lo:hi] *= gate[lo:hi]
        if taped:
            _sigmoid(p[:, h:], out=filt[lo:hi])
    by_src = _runs(src)

    def backward_fn(g):
        g_pre = np.empty((m, 2 * h))
        g_msg, tmp = np.empty((2, min(m, _EDGE_BLOCK), h))
        for lo in range(0, m, _EDGE_BLOCK):
            hi = min(lo + _EDGE_BLOCK, m)
            gm, t = g_msg[:hi - lo], tmp[:hi - lo]
            np.take(g, src[lo:hi], axis=0, out=gm, mode="wrap")
            # [g_msg * msg * (1 - gate), g_msg * gate * filt], left to right
            np.multiply(gm, msg[lo:hi], out=g_pre[lo:hi, :h])
            g_pre[lo:hi, :h] *= np.subtract(1.0, gate[lo:hi], out=t)
            np.multiply(gm, gate[lo:hi], out=t)
            np.multiply(t, filt[lo:hi], out=g_pre[lo:hi, h:])
        g_src = _sum_runs(g_pre, by_src, n)
        g_dst = _sum_runs(g_pre, _runs(dst), n)
        g_w = np.concatenate([v.values.T @ g_src, v.values.T @ g_dst, e.values.T @ g_pre])
        g_b = g_pre.sum(axis=0, keepdims=True)
        return (g + g_src @ w_a.T + g_dst @ w_b.T,
                g_pre @ w_e.T if e.requires_grad else None,
                g_w[:, :h], g_b[:, :h], g_w[:, h:], g_b[:, h:])

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


# ---------------------------------------------------------------------------
# gradient checking
# ---------------------------------------------------------------------------

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
