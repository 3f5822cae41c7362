import math

import numpy as np
import pytest

from crystalpretrain.datasets import (DatasetManifest, DuplicateId, ManifestError,
                                      ManifestRecord, MissingColumn,
                                      NonContiguousLabels, PALETTE, PlacementFailure,
                                      SyntheticConfig,
                                      element_frequencies, generate_synthetic_dataset,
                                      load_manifest, load_structures, save_manifest,
                                      shannon_entropy, synthetic_target,
                                      write_dataset)
from crystalpretrain.structures import CrystalStructure

MANIFEST_TEXT = """\
id,cif_path,surrogate_label,target,split
a,crystals/a.cif,0,1.5,train
b,crystals/b.cif,1,,val
"""


def test_load_manifest(tmp_path):
    path = tmp_path / "manifest.csv"
    path.write_text(MANIFEST_TEXT)
    manifest = load_manifest(path)
    assert {rec.surrogate_label for rec in manifest.records} == {0, 1}
    assert manifest.records[0].target == 1.5
    assert manifest.records[1].target is None  # pretraining-only record
    assert manifest.records[1].surrogate_label == 1
    assert manifest.records[0].cif_path == str(tmp_path / "crystals/a.cif")


def test_non_contiguous_labels(tmp_path):
    path = tmp_path / "manifest.csv"
    path.write_text(MANIFEST_TEXT.replace(",1,,val", ",2,,val"))
    with pytest.raises(NonContiguousLabels):
        load_manifest(path)


def test_duplicate_id(tmp_path):
    path = tmp_path / "manifest.csv"
    path.write_text(MANIFEST_TEXT.replace("b,", "a,"))
    with pytest.raises(DuplicateId):
        load_manifest(path)


def test_missing_column(tmp_path):
    path = tmp_path / "manifest.csv"
    path.write_text("id,cif_path,surrogate_label,target\na,a.cif,0,\n")
    with pytest.raises(MissingColumn) as err:
        load_manifest(path)
    assert err.value.column == "split"


def test_unexpected_column(tmp_path):
    path = tmp_path / "manifest.csv"
    path.write_text("id,cif_path,surrogate_label,target,split,extra\na,a.cif,,,,x\n")
    with pytest.raises(ManifestError):
        load_manifest(path)


def test_bad_split_value():
    with pytest.raises(ManifestError):
        DatasetManifest([ManifestRecord("a", "a.cif", split="dev")])


def test_manifest_round_trip(tmp_path):
    # ids that need quoting: a comma and a quote, and a lone carriage return
    records = [
        ManifestRecord('a,"x"', "crystals/a.cif", 0, 1.25, "train"),
        ManifestRecord("b\rc", "crystals/b.cif", 1, None, None),
    ]
    path = tmp_path / "manifest.csv"
    save_manifest(DatasetManifest(records), path)
    loaded = load_manifest(path)
    assert [rec.id for rec in loaded.records] == ['a,"x"', "b\rc"]
    assert loaded.records[0].target == 1.25
    assert loaded.records[1].target is None
    assert loaded.records[1].split is None


def test_synthetic_config_invariants():
    with pytest.raises(ValueError):
        SyntheticConfig(n_crystals=1, n_classes=2)
    with pytest.raises(ValueError):
        SyntheticConfig(n_crystals=4, n_classes=1)
    with pytest.raises(ValueError):
        SyntheticConfig(n_crystals=4, target_noise=-0.1)


def test_synthetic_deterministic():
    cfg = SyntheticConfig(n_crystals=4, n_classes=2, seed=7)
    s1, m1 = generate_synthetic_dataset(cfg)
    s2, m2 = generate_synthetic_dataset(cfg)
    for a, b in zip(s1, s2):
        assert np.array_equal(a.lattice, b.lattice)
        assert np.array_equal(a.frac_coords, b.frac_coords)
        assert np.array_equal(a.atomic_numbers, b.atomic_numbers)
    assert [(r.id, r.surrogate_label, r.target) for r in m1.records] == \
        [(r.id, r.surrogate_label, r.target) for r in m2.records]


def test_synthetic_noise_free_target_recomputable():
    cfg = SyntheticConfig(n_crystals=6, n_classes=2, target_noise=0.0, seed=3)
    structures, manifest = generate_synthetic_dataset(cfg)
    for s, rec in zip(structures, manifest.records):
        expected = synthetic_target(float(s.atomic_numbers.mean()), s.volume)
        assert rec.target == expected


def test_synthetic_class_balance():
    _, manifest = generate_synthetic_dataset(SyntheticConfig(200, 2, seed=0))
    counts = np.bincount([r.surrogate_label for r in manifest.records], minlength=2)
    assert (counts >= 1).all()


def test_synthetic_label_rule():
    structures, manifest = generate_synthetic_dataset(SyntheticConfig(30, 2, seed=5))
    palette_index = {z: k for k, z in enumerate(PALETTE)}
    for s, rec in zip(structures, manifest.records):
        counts = {}
        for z in s.atomic_numbers:
            counts[int(z)] = counts.get(int(z), 0) + 1
        top = max(counts.values())
        modal = min(palette_index[z] for z, c in counts.items() if c == top)
        assert rec.surrogate_label == modal % 2


def test_placement_failure_when_cell_cannot_fit():
    from crystalpretrain.datasets import _place_atoms
    gen = np.random.default_rng(0)
    with pytest.raises(PlacementFailure) as err:
        _place_atoms(60, np.diag([3.0, 3.0, 3.0]), gen, crystal_index=7)
    assert err.value.crystal_index == 7


def test_synthetic_minimum_separation():
    structures, _ = generate_synthetic_dataset(SyntheticConfig(10, 2, seed=1))
    offsets = np.array([(i, j, k) for i in (-1, 0, 1) for j in (-1, 0, 1)
                        for k in (-1, 0, 1)], dtype=float)
    for s in structures:
        for i in range(s.n_sites):
            for j in range(i + 1, s.n_sites):
                disp = (s.frac_coords[j] - s.frac_coords[i] + offsets) @ s.lattice
                assert np.sqrt((disp ** 2).sum(axis=1)).min() >= 1.0


def test_write_dataset_round_trip(tmp_path):
    cfg = SyntheticConfig(n_crystals=4, n_classes=2, seed=2)
    structures, manifest = generate_synthetic_dataset(cfg)
    manifest_path = write_dataset(structures, manifest, tmp_path)
    loaded = load_manifest(manifest_path)
    by_id = load_structures(loaded)
    assert len(by_id) == 4
    for original in structures:
        again = by_id[original.id]
        assert np.allclose(again.lattice, original.lattice, atol=1e-10)
        assert np.allclose(again.frac_coords, original.frac_coords, atol=1e-10)
        assert np.array_equal(again.atomic_numbers, original.atomic_numbers)


def test_element_frequencies_and_entropy():
    one = CrystalStructure(np.eye(3) * 3, [[0, 0, 0]], [8])
    counts = element_frequencies([one])
    assert counts == {"O": 1}
    assert shannon_entropy(counts) == 0.0

    two = CrystalStructure(np.eye(3) * 3, [[0, 0, 0], [0.5, 0.5, 0.5]], [8, 26])
    counts = element_frequencies([two, two])
    assert counts == {"O": 2, "Fe": 2}
    assert math.isclose(shannon_entropy(counts), math.log(2.0), rel_tol=0, abs_tol=1e-15)
