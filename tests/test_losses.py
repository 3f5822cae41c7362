import math

import numpy as np
import pytest

from crystalpretrain import reference as ref
from crystalpretrain.autodiff import Tensor
from crystalpretrain.losses import (DegenerateFeature, LossConfig,
                                    ZeroNormRow, barlow_twins, build_class_mask,
                                    compute_loss, nt_xent, sup_bt, supcon)
from oracles import grad_check


def t(values):
    return Tensor(np.asarray(values, dtype=np.float64))


def random_batch(seed, n_origins=None, dim=None, n_classes=None):
    gen = np.random.default_rng(seed)
    n = n_origins or int(gen.integers(2, 9))   # B <= 8
    d = dim or int(gen.integers(2, 17))        # D <= 16
    k = n_classes or int(gen.integers(1, 4))   # <= 3 classes
    z = gen.normal(size=(2 * n, d))
    labels = gen.integers(0, k, size=n)
    return z, labels


# ---------------------------------------------------------------------------
# class mask
# ---------------------------------------------------------------------------

def test_class_mask_examples():
    assert build_class_mask([0, 0, 1]).tolist() == [[1, 1, 0], [1, 1, 0], [0, 0, 1]]
    assert (build_class_mask([2, 2, 2]) == 1).all()
    assert np.array_equal(build_class_mask([0, 1, 2]), np.eye(3))


def test_class_mask_properties():
    for seed in range(5):
        labels = np.random.default_rng(seed).integers(0, 3, size=6)
        m = build_class_mask(labels)
        assert np.array_equal(m, m.T)
        assert (np.diag(m) == 1).all()
    with pytest.raises(ValueError):
        build_class_mask([-1, 0])


# ---------------------------------------------------------------------------
# nt-xent
# ---------------------------------------------------------------------------

def test_nt_xent_single_pair_is_zero():
    z = t([[1.0, 0.0], [0.5, 0.0]])  # same direction: cosine 1 either way
    assert abs(nt_xent(z, 1.0).item()) < 1e-12
    gen = np.random.default_rng(0)
    z = t(gen.normal(size=(2, 5)))
    assert abs(nt_xent(z, 0.5).item()) < 1e-12


def test_nt_xent_worked_example():
    z = t([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    total = nt_xent(z, 1.0).item()
    per_anchor = -math.log(math.e / (math.e + 2.0))
    assert abs(per_anchor - 0.55144) < 1e-4
    assert abs(total - 4.0 * per_anchor) < 1e-12
    assert abs(total - 2.20578) < 1e-4


def test_nt_xent_matches_reference():
    for seed in range(100):
        z, _ = random_batch(seed)
        tau = (0.03, 0.5, 1.0)[seed % 3]
        got = nt_xent(t(z), tau).item()
        expected = ref.ref_nt_xent(z.tolist(), tau)
        assert abs(got - expected) < 1e-10, f"seed {seed}"


def test_nt_xent_rescaling_invariance():
    z, _ = random_batch(17)
    base = nt_xent(t(z), 0.5).item()
    scaled = z.copy()
    scaled[0] *= 7.5
    scaled[3] *= 0.01
    assert abs(nt_xent(t(scaled), 0.5).item() - base) < 1e-9


def test_nt_xent_errors():
    with pytest.raises(ValueError):
        nt_xent(t(np.ones((3, 2))), 1.0)
    z = np.ones((4, 2))
    z[1] = 0.0
    with pytest.raises(ZeroNormRow) as err:
        nt_xent(t(z), 1.0)
    assert err.value.rows == [1]


# ---------------------------------------------------------------------------
# supcon
# ---------------------------------------------------------------------------

def test_supcon_worked_example():
    z = t([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    total = supcon(z, [0, 0], 1.0).item()
    per_anchor = ((-math.log(math.e / (math.e + 2.0))
                   + 2.0 * math.log(math.e + 2.0)) / 3.0)
    assert abs(per_anchor - 1.2181) < 1e-4
    assert abs(total - 4.0 * per_anchor) < 1e-12


def test_supcon_distinct_labels_reduces_to_nt_xent():
    for seed in range(20):
        gen = np.random.default_rng(seed)
        n = int(gen.integers(2, 7))
        z = gen.normal(size=(2 * n, 6))
        labels = np.arange(n)  # all distinct: positives collapse to the twin
        tau = (0.03, 0.7)[seed % 2]
        a = supcon(t(z), labels, tau).item()
        b = nt_xent(t(z), tau).item()
        assert abs(a - b) < 1e-10
        # both reference implementations agree on the same reduction
        assert abs(ref.ref_supcon(z.tolist(), labels.tolist(), tau)
                   - ref.ref_nt_xent(z.tolist(), tau)) < 1e-10


def test_supcon_matches_reference():
    for seed in range(100):
        z, labels = random_batch(seed + 1000)
        tau = (0.03, 0.5, 1.0)[seed % 3]
        got = supcon(t(z), labels, tau).item()
        expected = ref.ref_supcon(z.tolist(), labels.tolist(), tau)
        assert abs(got - expected) < 1e-10, f"seed {seed}"


def test_supcon_rescaling_invariance():
    z, labels = random_batch(23)
    base = supcon(t(z), labels, 0.5).item()
    scaled = z.copy()
    scaled[2] *= 100.0
    assert abs(supcon(t(scaled), labels, 0.5).item() - base) < 1e-9


# ---------------------------------------------------------------------------
# barlow twins
# ---------------------------------------------------------------------------

def test_barlow_twins_identical_views_zero_on_diagonal():
    for seed in range(10):
        gen = np.random.default_rng(seed)
        z = gen.normal(size=(6, 5))
        loss = barlow_twins(t(z), t(z), 0.0).item()
        assert loss < 1e-12  # lambda 0 isolates the on-diagonal term


def test_barlow_twins_fully_correlated_worked_example():
    z = [[1.0, 1.0], [-1.0, -1.0]]  # both columns standardize to (+1, -1)
    lam = 0.0051
    loss = barlow_twins(t(z), t(z), lam).item()
    assert abs(loss - 2.0 * lam) < 1e-9


def test_barlow_twins_single_feature():
    z = np.array([[1.0], [2.0], [4.0]])
    loss = barlow_twins(t(z), t(z), 123.0).item()
    assert loss < 1e-12  # no off-diagonal terms exist for D=1


def test_barlow_twins_matches_reference():
    for seed in range(100):
        gen = np.random.default_rng(seed + 2000)
        b = int(gen.integers(2, 9))
        d = int(gen.integers(1, 17))
        z1 = gen.normal(size=(b, d))
        z2 = gen.normal(size=(b, d))
        lam = (0.0051, 0.2, 1.0)[seed % 3]
        got = barlow_twins(t(z1), t(z2), lam).item()
        expected = ref.ref_barlow_twins(z1.tolist(), z2.tolist(), lam)
        assert abs(got - expected) < 1e-10, f"seed {seed}"


def test_barlow_twins_degenerate_feature():
    gen = np.random.default_rng(0)
    z1 = gen.normal(size=(4, 3))
    z2 = gen.normal(size=(4, 3))
    z1[:, 1] = 5.0  # constant in one view only
    with pytest.raises(DegenerateFeature) as err:
        barlow_twins(t(z1), t(z2), 0.1)
    assert err.value.columns == [1]
    # constant and equal across views is tolerated via the epsilon floor
    z2[:, 1] = 5.0
    assert np.isfinite(barlow_twins(t(z1), t(z2), 0.1).item())


def test_barlow_twins_needs_two_samples():
    with pytest.raises(ValueError):
        barlow_twins(t([[1.0, 2.0]]), t([[1.0, 2.0]]), 0.1)


# ---------------------------------------------------------------------------
# supervised barlow twins
# ---------------------------------------------------------------------------

def test_sup_bt_worked_example_distinct_labels():
    z = t([[1.0, 0.0], [0.0, 1.0]])
    loss = sup_bt(z, z, [0, 1], 0.0051).item()
    # S = I/2: same-class 2*(1/2)^2, different-class 2*lambda*1^2
    assert abs(loss - 0.5102) < 1e-12


def test_sup_bt_worked_example_same_labels():
    z = t([[1.0, 0.0], [0.0, 1.0]])
    loss = sup_bt(z, z, [0, 0], 0.0051).item()
    assert abs(loss - 2.5) < 1e-12


def test_sup_bt_singleton():
    assert sup_bt(t([[1.0]]), t([[1.0]]), [0], 0.0051).item() == 0.0
    assert sup_bt(t([[-1.0]]), t([[-1.0]]), [0], 0.0051).item() == 0.0


def test_sup_bt_mode_decomposition_exact():
    for seed in range(20):
        z, labels = random_batch(seed + 3000)
        z1, z2 = t(z[0::2]), t(z[1::2])
        lam = 0.0051
        full = sup_bt(z1, z2, labels, lam, "full").item()
        on = sup_bt(z1, z2, labels, lam, "on_diag_only").item()
        off = sup_bt(z1, z2, labels, lam, "off_diag_only").item()
        assert full == on + off  # bitwise: full is computed as that sum


def test_sup_bt_distinct_labels_mask_structure():
    gen = np.random.default_rng(4)
    z1 = gen.normal(size=(4, 3))
    z2 = gen.normal(size=(4, 3))
    labels = np.arange(4)
    nrm = lambda m: m / np.sqrt((m * m).sum(axis=1, keepdims=True))
    sims = nrm(z1) @ nrm(z2).T / 3.0
    on = sup_bt(t(z1), t(z2), labels, 1.0, "on_diag_only").item()
    assert abs(on - ((1.0 - np.diag(sims)) ** 2).sum()) < 1e-12
    off = sup_bt(t(z1), t(z2), labels, 1.0, "off_diag_only").item()
    expected_off = ((1.0 + sims) ** 2)[~np.eye(4, dtype=bool)].sum()
    assert abs(off - expected_off) < 1e-12


def test_sup_bt_matches_reference():
    for seed in range(100):
        z, labels = random_batch(seed + 4000)
        z1, z2 = z[0::2], z[1::2]
        lam = (0.0051, 0.3)[seed % 2]
        mode = ("full", "on_diag_only", "off_diag_only")[seed % 3]
        scale = ("inv_d", "none")[seed % 2]
        got = sup_bt(t(z1), t(z2), labels, lam, mode, scale).item()
        expected = ref.ref_sup_bt(z1.tolist(), z2.tolist(), labels.tolist(), lam,
                                  mode, scale)
        assert abs(got - expected) < 1e-10, f"seed {seed}"


def test_sup_bt_zero_norm_row():
    z1 = np.ones((3, 2))
    z2 = np.ones((3, 2))
    z2[1] = 0.0
    with pytest.raises(ZeroNormRow):
        sup_bt(t(z1), t(z2), [0, 0, 1], 0.1)


def test_sup_bt_sbt_scale_none_uses_raw_cosines():
    z = t([[1.0, 0.0], [0.0, 1.0]])
    loss = sup_bt(z, z, [0, 1], 0.0, "full", "none").item()
    assert abs(loss - 0.0) < 1e-12  # cosine diag is exactly 1, lambda 0


# ---------------------------------------------------------------------------
# gradients and dispatch
# ---------------------------------------------------------------------------

LOSS_FNS = {
    "nt-xent": lambda p, labels: nt_xent(p[0], 0.5),
    "supcon": lambda p, labels: supcon(p[0], labels, 0.5),
    "bt": lambda p, labels: barlow_twins(p[0], p[1], 0.0051),
    "sup-bt": lambda p, labels: sup_bt(p[0], p[1], labels, 0.0051),
}


@pytest.mark.parametrize("kind", sorted(LOSS_FNS))
def test_loss_gradients_match_finite_differences(kind):
    for seed in range(10):
        gen = np.random.default_rng(seed + 5000)
        n, d = 6, 8
        labels = gen.integers(0, 2, size=n)
        if kind in ("nt-xent", "supcon"):
            params = [Tensor(gen.normal(size=(2 * n, d)), requires_grad=True)]
        else:
            params = [Tensor(gen.normal(size=(n, d)), requires_grad=True),
                      Tensor(gen.normal(size=(n, d)), requires_grad=True)]
        err = grad_check(lambda p: LOSS_FNS[kind](p, labels), params, h=1e-5,
                         seed=seed)
        assert err < 1e-4, f"{kind} seed {seed}: {err}"


def test_compute_loss_dispatch():
    gen = np.random.default_rng(0)
    z = Tensor(gen.normal(size=(8, 5)))
    labels = np.array([0, 1, 0, 1])
    for kind in ("nt-xent", "supcon", "bt", "sup-bt"):
        cfg = LossConfig(kind=kind, temperature=0.5, lam=0.01)
        value = compute_loss(cfg, z, labels).item()
        assert np.isfinite(value)
    with pytest.raises(ValueError):
        compute_loss(LossConfig(kind="supcon"), z, None)


def test_loss_config_validation():
    cfg = LossConfig(kind="sup-bt", lam=0.0051)
    assert cfg.lam == 0.0051
    assert cfg.temperature == 0.03  # default
    for bad in (dict(kind="simclr"), dict(temperature=0.0), dict(lam=-1.0),
                dict(bt_mode="diag"), dict(sbt_scale="sqrt")):
        with pytest.raises(ValueError):
            LossConfig(**bad)
