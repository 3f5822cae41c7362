"""Workload definitions and seeded input generation for the benchmark.

Every input comes from ``datasets.generate_synthetic_dataset`` (or is built
from its output) with the benchmark's ``--seed``, and is written to disk as
CIFs plus a manifest so that ingest reads it back through the program.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from crystalpretrain import datasets
from crystalpretrain.datasets import DatasetManifest, ManifestRecord, SyntheticConfig
from crystalpretrain.losses import LossConfig
from crystalpretrain.structures import CrystalStructure
from crystalpretrain.train import TrainConfig


@dataclass(frozen=True)
class Workload:
    """One benchmark input set and the settings every phase runs it with."""

    name: str
    n_crystals: int
    max_atoms: int
    loss_kind: str
    pretrain_batch: int
    finetune_batch: int
    # > 1: each crystal is a tile x tile x tile supercell of a synthetic cell
    tile: int = 1
    # TrainConfig split fractions, for corpora too small for the defaults
    split: dict = field(default_factory=dict)
    # (epochs, batch) of the untimed fine-tuning whose test MAE must beat
    # the train-mean predictor; None where the test split is too small for
    # that to be a property of the method rather than a coin toss
    quality_finetune: tuple[int, int] | None = None
    # one timed round: whole passes over the corpus for ingest and infer,
    # steps for pretrain and finetune
    per_round: dict = field(default_factory=lambda: {
        "ingest": 2, "pretrain": 2, "finetune": 2, "infer": 2})

    def train_config(self, phase: str, seed: int, epochs: int = 1,
                     batch: int | None = None) -> TrainConfig:
        if batch is None:
            batch = self.pretrain_batch if phase == "pretrain" else self.finetune_batch
        cfg = TrainConfig(loss=LossConfig(kind=self.loss_kind), batch_size=batch,
                          epochs=epochs, seed=seed, n_workers=1, **self.split)
        return cfg.resolved(phase)

    def cli_overrides(self) -> list[str]:
        """``--set`` pairs that make the CLI split the corpus the way the
        pipeline's fine-tuning did."""
        return [f"train.{key}={value}" for key, value in self.split.items()]


WORKLOADS = {
    # acceptance criterion 9's corpus with default graph and model settings:
    # the encoder's edge-sized matmuls dominate a step
    "desk-sup-bt": Workload(
        name="desk-sup-bt", n_crystals=512, max_atoms=5, loss_kind="sup-bt",
        pretrain_batch=128, finetune_batch=128,
        # the default-width model needs ~180 small steps to beat the mean
        quality_finetune=(8, 16)),
    # 4x4x4 supercells of 2..5-atom cells (128..320 atoms): the dense
    # neighbour search bounds ingest and peak memory; model time is mostly
    # forward-only inference on graphs of 1.5k..3.8k edges
    "large-cells": Workload(
        name="large-cells", n_crystals=4, max_atoms=5, loss_kind="sup-bt",
        pretrain_batch=2, finetune_batch=2, tile=4,
        # one crystal each for pretrain eval, validation and test
        split={"pretrain_eval_fraction": 0.25, "val_fraction": 0.25,
               "test_fraction": 0.25},
        # an ingest pass over the four cells is about half of a round:
        # ingest and inference are the metrics this workload is for
        per_round={"ingest": 1, "pretrain": 1, "finetune": 2, "infer": 3}),
}


def small(workload: Workload) -> Workload:
    """A reduced-size variant with the same code paths, for the self-test."""
    if workload.tile > 1:
        return replace(workload, tile=2)
    return replace(workload, n_crystals=64, pretrain_batch=16, finetune_batch=16,
                   quality_finetune=None)


@dataclass
class Corpus:
    """Generated inputs: structures as written, their manifest on disk, and
    for supercell workloads the primitive cell each one was tiled from."""

    structures: list[CrystalStructure]
    manifest_path: Path
    primitives: list[CrystalStructure] | None = None


def supercell(structure: CrystalStructure, tile: int) -> CrystalStructure:
    """tile^3 copies of the cell; atom a of the result is a copy of atom
    a % n_sites of the input."""
    reps = np.array([(i, j, k) for i in range(tile) for j in range(tile)
                     for k in range(tile)], dtype=np.float64)
    frac = (structure.frac_coords[None, :, :] + reps[:, None, :]) / tile
    return CrystalStructure(structure.lattice * tile, frac.reshape(-1, 3),
                            np.tile(structure.atomic_numbers, len(reps)),
                            id=structure.id)


def _balanced_supercells(workload: Workload, seed: int):
    """One cell of each size 2..max_atoms from a seeded pool, ordered so
    that consecutive pairs hold 7 x tile^3 atoms (per-step cost then does
    not depend on the seed) and alternating surrogate labels, so that both
    classes occur."""
    sizes = list(range(2, workload.max_atoms + 1))
    pool, pool_manifest = datasets.generate_synthetic_dataset(SyntheticConfig(
        n_crystals=256, max_atoms=workload.max_atoms, seed=seed))
    wanted = {(n, k % 2): None for k, n in enumerate(sizes)}
    for k, s in enumerate(pool):
        key = (s.n_sites, pool_manifest.records[k].surrogate_label)
        if key in wanted and wanted[key] is None:
            wanted[key] = k
    if any(v is None for v in wanted.values()):
        raise RuntimeError(f"seed {seed}: synthetic pool lacks a (size, label) pair")
    by_size = {n: k for (n, _), k in wanted.items()}
    order = []
    for lo in range(len(sizes) // 2):
        order += [by_size[sizes[lo]], by_size[sizes[-1 - lo]]]
    primitives = [pool[k] for k in order]
    cells = [supercell(s, workload.tile) for s in primitives]
    records = [ManifestRecord(id=s.id, cif_path=f"crystals/{s.id}.cif",
                              surrogate_label=pool_manifest.records[k].surrogate_label,
                              target=pool_manifest.records[k].target)
               for s, k in zip(cells, order)]
    return cells, DatasetManifest(records), primitives


def make_corpus(workload: Workload, seed: int, out_dir: Path) -> Corpus:
    primitives = None
    if workload.tile > 1:
        structures, manifest, primitives = _balanced_supercells(workload, seed)
    else:
        structures, manifest = datasets.generate_synthetic_dataset(SyntheticConfig(
            n_crystals=workload.n_crystals, max_atoms=workload.max_atoms,
            target_noise=0.02, seed=seed))
    path = datasets.write_dataset(structures, manifest, out_dir)
    return Corpus(structures=structures, manifest_path=path, primitives=primitives)
