"""Dataset manifests, a synthetic crystal generator, and corpus statistics.

A manifest is one CSV binding structure files to surrogate labels, regression
targets, and optional split assignments:

    id,cif_path,surrogate_label,target,split

Empty fields mean "absent"; surrogate labels present in a manifest file must
form a contiguous range 0..K-1.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .checkpoint import write_csv
from .elements import z_to_symbol
from .graphs import _offsets
from .rng import RngStream
from .structures import (CrystalStructure, StructureError, decode_utf8, parse_cif,
                         write_cif)

MANIFEST_COLUMNS = ("id", "cif_path", "surrogate_label", "target", "split")
SPLIT_NAMES = ("train", "val", "test")


class ManifestError(Exception):
    """Base class for manifest problems."""


class DuplicateId(ManifestError):
    def __init__(self, record_id: str):
        self.record_id = record_id
        super().__init__(f"duplicate record id: {record_id!r}")


class NonContiguousLabels(ManifestError):
    def __init__(self, labels):
        self.labels = sorted(labels)
        super().__init__(f"surrogate labels must form 0..K-1, got {self.labels}")


class MissingColumn(ManifestError):
    def __init__(self, column: str):
        self.column = column
        super().__init__(f"manifest is missing column {column!r}")


class PlacementFailure(Exception):
    def __init__(self, crystal_index: int):
        self.crystal_index = crystal_index
        super().__init__(
            f"could not place atoms with 1.0 A separation in crystal {crystal_index}")


@dataclass
class ManifestRecord:
    id: str
    cif_path: str
    surrogate_label: int | None = None
    target: float | None = None
    split: str | None = None


@dataclass
class DatasetManifest:
    records: list[ManifestRecord]

    def __post_init__(self):
        seen = set()
        for rec in self.records:
            if rec.id in seen:
                raise DuplicateId(rec.id)
            seen.add(rec.id)
            if rec.split is not None and rec.split not in SPLIT_NAMES:
                raise ManifestError(f"record {rec.id!r}: bad split {rec.split!r}")


def load_manifest(path) -> DatasetManifest:
    """Read a manifest CSV; relative cif paths resolve against its directory
    and its surrogate labels must form 0..K-1."""
    path = Path(path)
    base = path.parent
    reader = csv.reader(io.StringIO(decode_utf8(path.read_bytes(), path, ManifestError),
                                    newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise MissingColumn(MANIFEST_COLUMNS[0]) from None
    for col in MANIFEST_COLUMNS:
        if col not in header:
            raise MissingColumn(col)
    if len(header) > len(MANIFEST_COLUMNS):  # an unknown or a repeated column
        raise ManifestError(f"{path}:1: the header must name each of "
                            f"{list(MANIFEST_COLUMNS)} once, got {header}")
    idx = {col: header.index(col) for col in MANIFEST_COLUMNS}
    records = []
    for row in reader:
        if not row or all(not cell.strip() for cell in row):
            continue
        where = f"{path}:{reader.line_num}"
        if len(row) < len(header):
            raise ManifestError(f"{where}: {len(row)} cells for {len(header)} columns")
        cell = {col: row[k].strip() for col, k in idx.items()}
        try:
            label = int(cell["surrogate_label"]) if cell["surrogate_label"] else None
            target = float(cell["target"]) if cell["target"] else None
            if target is not None and not math.isfinite(target):
                raise ValueError(f"target {cell['target']!r} is not finite")
        except ValueError as exc:
            raise ManifestError(f"{where}: {exc}") from None
        cif = Path(cell["cif_path"])
        records.append(ManifestRecord(
            id=cell["id"], cif_path=str(cif if cif.is_absolute() else base / cif),
            surrogate_label=label, target=target, split=cell["split"] or None))
    labels = {rec.surrogate_label for rec in records if rec.surrogate_label is not None}
    if labels != set(range(len(labels))):
        raise NonContiguousLabels(labels)
    return DatasetManifest(records)


def save_manifest(manifest: DatasetManifest, path) -> None:
    write_csv(path, MANIFEST_COLUMNS, (
        [rec.id, rec.cif_path, rec.surrogate_label,
         None if rec.target is None else repr(rec.target), rec.split]
        for rec in manifest.records))


def load_structures(manifest: DatasetManifest) -> dict[str, CrystalStructure]:
    """Parse every structure referenced by the manifest, keyed by record id."""
    out = {}
    for rec in manifest.records:
        path = Path(rec.cif_path)
        text = decode_utf8(path.read_bytes(), path, StructureError)
        try:
            structure = parse_cif(text)
        except StructureError as exc:
            # name the file, and the line where the error has one
            line = getattr(exc, "line_number", None)
            exc.args = (f"{path}:{line}: {exc}" if line else f"{path}: {exc}",)
            raise
        structure.id = rec.id
        out[rec.id] = structure
    return out


# ---------------------------------------------------------------------------
# Synthetic crystals
# ---------------------------------------------------------------------------

# 16 species, light and heavy alternating so that class = index mod 2 splits
# the palette into low-Z and high-Z groups and the target below separates by
# class.
PALETTE = (1, 26, 3, 27, 4, 28, 5, 29, 6, 30, 7, 31, 8, 32, 9, 33)

_MIN_SEPARATION = 1.0
_PLACEMENT_TRIES = 200


@dataclass
class SyntheticConfig:
    n_crystals: int = 64
    n_classes: int = 2
    max_atoms: int = 6
    target_noise: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if self.n_classes < 2:
            raise ValueError("n_classes must be >= 2")
        if self.n_crystals < self.n_classes:
            raise ValueError("n_crystals must be >= n_classes")
        if self.max_atoms < 2:
            raise ValueError("max_atoms must be >= 2")
        if not 0 <= self.target_noise < math.inf:
            raise ValueError("target_noise must be >= 0 and finite")
        if not 0 <= self.seed < 2 ** 32:
            raise ValueError("seed must lie in [0, 2**32)")


def synthetic_target(mean_z: float, volume: float) -> float:
    """Noise-free regression target: smooth in composition and cell size."""
    return 0.1 * mean_z + 0.02 * volume ** (1.0 / 3.0)


def _min_image_distance(f1: np.ndarray, f2: np.ndarray, lattice: np.ndarray) -> float:
    disp = (f2 - f1 + _offsets((1, 1, 1))) @ lattice
    return float(np.sqrt((disp * disp).sum(axis=1)).min())


def _place_atoms(n_atoms: int, lattice: np.ndarray, gen: np.random.Generator,
                 crystal_index: int) -> np.ndarray:
    coords: list[np.ndarray] = []
    for _ in range(n_atoms):
        for _attempt in range(_PLACEMENT_TRIES):
            cand = gen.uniform(0.0, 1.0, size=3)
            if all(_min_image_distance(prev, cand, lattice) >= _MIN_SEPARATION
                   for prev in coords):
                coords.append(cand)
                break
        else:
            raise PlacementFailure(crystal_index)
    return np.array(coords)


def generate_synthetic_dataset(
        cfg: SyntheticConfig) -> tuple[list[CrystalStructure], DatasetManifest]:
    """Random orthorhombic crystals with composition-derived labels.

    The surrogate label is the modal element's palette index mod n_classes
    (ties go to the smallest palette index), with the classes no crystal
    drew dropped and the rest renumbered in order, so that the labels form
    0..K-1; the target is synthetic_target(mean Z, volume) plus Gaussian
    noise. Everything is a pure function of the config.
    """
    structures = []
    records = []
    for k in range(cfg.n_crystals):
        gen = RngStream(cfg.seed, "synth", k).generator()
        lengths = gen.uniform(3.0, 8.0, size=3)
        lattice = np.diag(lengths)
        n_atoms = int(gen.integers(2, cfg.max_atoms + 1))
        palette_idx = gen.integers(0, len(PALETTE), size=n_atoms)
        coords = _place_atoms(n_atoms, lattice, gen, k)
        noise = float(gen.normal()) * cfg.target_noise

        counts = np.bincount(palette_idx, minlength=len(PALETTE))
        modal = int(np.argmax(counts))  # argmax takes the smallest index on ties
        label = modal % cfg.n_classes
        numbers = np.array([PALETTE[i] for i in palette_idx])
        structure = CrystalStructure(lattice, coords, numbers, id=f"syn-{k:05d}")
        target = synthetic_target(float(numbers.mean()), structure.volume) + noise

        structures.append(structure)
        records.append(ManifestRecord(
            id=structure.id,
            cif_path=f"crystals/{structure.id}.cif",
            surrogate_label=label,
            target=target,
        ))
    drawn = sorted({rec.surrogate_label for rec in records})
    for rec in records:
        rec.surrogate_label = drawn.index(rec.surrogate_label)
    return structures, DatasetManifest(records)


def write_dataset(structures: list[CrystalStructure], manifest: DatasetManifest,
                  out_dir) -> Path:
    """Write CIF files plus manifest.csv under out_dir; returns the manifest path."""
    out_dir = Path(out_dir)
    (out_dir / "crystals").mkdir(parents=True, exist_ok=True)
    by_id = {s.id: s for s in structures}
    for rec in manifest.records:
        rel = Path(rec.cif_path)
        target_path = rel if rel.is_absolute() else out_dir / rel
        with open(target_path, "w", encoding="utf-8") as fh:
            fh.write(write_cif(by_id[rec.id]))
    manifest_path = out_dir / "manifest.csv"
    save_manifest(manifest, manifest_path)
    return manifest_path


# ---------------------------------------------------------------------------
# Corpus statistics
# ---------------------------------------------------------------------------

def element_frequencies(structures) -> dict[str, int]:
    """Per-site element occurrence counts over a collection of structures."""
    counts: dict[str, int] = {}
    for structure in structures:
        for z in structure.atomic_numbers:
            sym = z_to_symbol(int(z))
            counts[sym] = counts.get(sym, 0) + 1
    return counts


def shannon_entropy(counts: dict[str, int]) -> float:
    """Shannon entropy of the element distribution in nats."""
    total = sum(counts.values())
    if total == 0:
        return 0.0
    h = 0.0
    for c in counts.values():
        if c > 0:
            p = c / total
            h -= p * math.log(p)
    return h
