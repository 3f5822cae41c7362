"""Pretraining objectives over paired view embeddings.

Four objectives are provided:

* ``nt-xent``   -- temperature-scaled contrastive loss, positives are the two
  views of one sample, all other rows are negatives.
* ``supcon``    -- label-aware contrastive loss: every same-class row is a
  positive for the anchor.
* ``bt``        -- redundancy reduction: per-feature standardized views, the
  DxD cross-correlation matrix is pushed toward identity.
* ``sup-bt``    -- sample-wise variant: rows are L2-normalized, the BxB
  similarity matrix is pushed toward +1 for same-class pairs and -1 for
  different-class pairs, the two terms balanced by lambda.

Inputs for the contrastive losses are the 2N view rows interleaved so rows
2k and 2k+1 share an origin. All losses are built from taped primitives, so
they are differentiable end to end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

LOSS_KINDS = ("nt-xent", "supcon", "bt", "sup-bt")
BT_MODES = ("full", "on_diag_only", "off_diag_only")
SBT_SCALES = ("inv_d", "none")


class LossError(Exception):
    pass


class ZeroNormRow(LossError):
    def __init__(self, rows):
        self.rows = list(rows)
        super().__init__(f"embedding rows {self.rows} have zero norm")


class EmptyPositiveSet(LossError):
    def __init__(self, anchors):
        self.anchors = list(anchors)
        super().__init__(f"anchors {self.anchors} have no positives")


class DegenerateFeature(LossError):
    def __init__(self, columns):
        self.columns = list(columns)
        super().__init__(f"feature columns {self.columns} are degenerate "
                         "(zero variance, views disagree)")


@dataclass
class LossConfig:
    kind: str = "sup-bt"
    temperature: float = 0.03
    lam: float = 0.0051
    bt_mode: str = "full"
    sbt_scale: str = "inv_d"

    def __post_init__(self):
        if self.kind not in LOSS_KINDS:
            raise ValueError(f"unknown loss kind {self.kind!r}")
        if not 0 < self.temperature < math.inf:
            raise ValueError("temperature must be positive and finite")
        if not 0 <= self.lam < math.inf:
            raise ValueError("lambda must be >= 0 and finite")
        if self.bt_mode not in BT_MODES:
            raise ValueError(f"unknown bt_mode {self.bt_mode!r}")
        if self.sbt_scale not in SBT_SCALES:
            raise ValueError(f"unknown sbt_scale {self.sbt_scale!r}")

    @property
    def needs_labels(self) -> bool:
        return self.kind in ("supcon", "sup-bt")


def build_class_mask(labels) -> np.ndarray:
    """M[k, l] = 1 iff labels k and l match; symmetric with unit diagonal."""
    labels = np.asarray(labels)
    if (labels < 0).any():
        raise ValueError("labels must be non-negative")
    return (labels[:, None] == labels[None, :]).astype(np.float64)


def _check_rows(z: Tensor):
    norms = np.sqrt((z.values * z.values).sum(axis=1))
    bad = np.nonzero(norms == 0.0)[0]
    if len(bad):
        raise ZeroNormRow(bad.tolist())


def _log_denominators(sims: Tensor) -> Tensor:
    """log sum_{a != i} exp(sims[i, a]) per row, max-shifted for stability."""
    row_max = sims.values.max(axis=1)  # detached shift; exact either way
    shifted = ad.sub(sims, row_max[:, None])
    masked = ad.mul(ad.exp(shifted), 1.0 - np.eye(sims.shape[0]))
    return ad.add(ad.log(ad.sum_(masked, axis=1)), row_max)


def _pair_similarities(z: Tensor, temperature: float) -> Tensor:
    _check_rows(z)
    zn = ad.l2_normalize_rows(z)
    return ad.mul(ad.matmul(zn, ad.transpose(zn)), 1.0 / temperature)


def nt_xent(z: Tensor, temperature: float) -> Tensor:
    """Sum over all 2N anchors of -log(exp(s_pos) / sum over non-anchor rows):
    supcon with every origin its own class, so each row's one positive is
    its partner view."""
    n = z.shape[0]
    if n < 2 or n % 2:
        raise ValueError(f"nt_xent needs an even number of view rows, got {n}")
    return supcon(z, np.arange(n // 2), temperature)


def supcon(z: Tensor, labels, temperature: float) -> Tensor:
    """Label-aware contrastive loss; labels are per origin (length N)."""
    n = z.shape[0]
    labels = np.asarray(labels)
    if n != 2 * len(labels):
        raise ValueError(f"expected {2 * len(labels)} view rows, got {n}")
    expanded = np.repeat(labels, 2)
    positive = build_class_mask(expanded) * (1.0 - np.eye(n))
    counts = positive.sum(axis=1)
    empty = np.nonzero(counts == 0)[0]
    if len(empty):
        raise EmptyPositiveSet(empty.tolist())
    sims = _pair_similarities(z, temperature)
    pos_mean = ad.div(ad.sum_(ad.mul(sims, Tensor(positive)), axis=1), Tensor(counts))
    return ad.sum_(ad.sub(_log_denominators(sims), pos_mean))


def _check_degenerate(z1: Tensor, z2: Tensor):
    v1, v2 = z1.values, z2.values
    flat1, flat2 = (v1 == v1[0]).all(axis=0), (v2 == v2[0]).all(axis=0)
    bad = np.nonzero((flat1 | flat2) & ~(flat1 & flat2 & (v1 == v2).all(axis=0)))[0]
    if len(bad):
        raise DegenerateFeature(bad.tolist())


def barlow_twins(z1: Tensor, z2: Tensor, lam: float) -> Tensor:
    """Standardized DxD cross-correlation toward identity."""
    if z1.shape != z2.shape:
        raise ad.ShapeMismatch("barlow_twins", z1.shape, z2.shape)
    b, d = z1.shape
    if b < 2:
        raise ValueError("barlow_twins needs at least 2 samples per view")
    _check_degenerate(z1, z2)
    s1 = ad.batch_standardize(z1)
    s2 = ad.batch_standardize(z2)
    corr = ad.mul(ad.matmul(ad.transpose(s1), s2), 1.0 / b)
    eye = np.eye(d)
    diag = ad.sum_(ad.mul(corr, Tensor(eye)), axis=1)
    on_term = ad.sum_(ad.power(ad.sub(1.0, diag), 2))
    off_term = ad.sum_(ad.power(ad.mul(corr, Tensor(1.0 - eye)), 2))
    return ad.add(on_term, ad.mul(off_term, lam))


def sup_bt(z1: Tensor, z2: Tensor, labels, lam: float, bt_mode: str = "full",
           sbt_scale: str = "inv_d") -> Tensor:
    """Sample-wise BxB similarity, class mask deciding attract vs repel.

    With sbt_scale="inv_d" the similarity matrix is divided by the feature
    width D (so entries live in [-1/D, 1/D]); "none" leaves raw cosines.
    """
    if z1.shape != z2.shape:
        raise ad.ShapeMismatch("sup_bt", z1.shape, z2.shape)
    if bt_mode not in BT_MODES:
        raise ValueError(f"unknown bt_mode {bt_mode!r}")
    if sbt_scale not in SBT_SCALES:
        raise ValueError(f"unknown sbt_scale {sbt_scale!r}")
    b, d = z1.shape
    labels = np.asarray(labels)
    if len(labels) != b:
        raise ValueError(f"expected {b} labels, got {len(labels)}")
    _check_rows(z1)
    _check_rows(z2)
    sims = ad.matmul(ad.l2_normalize_rows(z1), ad.transpose(ad.l2_normalize_rows(z2)))
    if sbt_scale == "inv_d":
        sims = ad.mul(sims, 1.0 / d)
    mask = build_class_mask(labels)
    same = ad.sum_(ad.power(ad.mul(ad.sub(1.0, sims), mask), 2))
    diff = ad.mul(ad.sum_(ad.power(ad.mul(ad.add(1.0, sims), 1.0 - mask), 2)), lam)
    if bt_mode == "on_diag_only":
        return same
    if bt_mode == "off_diag_only":
        return diff
    return ad.add(same, diff)


def _split_views(z_all: Tensor) -> tuple[Tensor, Tensor]:
    n = z_all.shape[0]
    return (ad.gather_rows(z_all, np.arange(0, n, 2)),
            ad.gather_rows(z_all, np.arange(1, n, 2)))


def compute_loss(cfg: LossConfig, z_all: Tensor, labels=None) -> Tensor:
    """Dispatch on the configured kind; z_all holds interleaved view rows."""
    if cfg.needs_labels and labels is None:
        raise ValueError(f"loss {cfg.kind!r} requires labels")
    if cfg.kind == "nt-xent":
        return nt_xent(z_all, cfg.temperature)
    if cfg.kind == "supcon":
        return supcon(z_all, labels, cfg.temperature)
    z1, z2 = _split_views(z_all)
    if cfg.kind == "bt":
        return barlow_twins(z1, z2, cfg.lam)
    return sup_bt(z1, z2, labels, cfg.lam, cfg.bt_mode, cfg.sbt_scale)
