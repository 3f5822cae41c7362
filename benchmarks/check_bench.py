"""Self-test of the benchmark. Not collected by a plain ``pytest``; run

    python3 -m pytest -q benchmarks/check_bench.py

It runs every workload at reduced size, traced and untraced, checks that
every metric BENCHMARK.json names is printed with its unit, and feeds each
correctness check a deliberately corrupted input that it must reject.
"""

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
import inputs  # noqa: E402
from crystalpretrain import autodiff, checkpoint, graphs, losses, model  # noqa: E402
from crystalpretrain.datasets import (SyntheticConfig,  # noqa: E402
                                      generate_synthetic_dataset)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
GCFG = graphs.GraphConfig()


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "benchmarks/run.py", *args],
                          capture_output=True, text=True, cwd=cwd, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_small_run_prints_every_metric(workload, trace):
    done = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", str(trace), "--small")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, done.stderr
    assert result["attempted"] >= 1
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for m in listed:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert math.isfinite(got["value"]), m["name"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench("--workload", SPEC["workloads"][0]["name"], "--seed", "1",
                  "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


# ---------------------------------------------------------------------------
# every check accepts the program's output and rejects a corrupted copy
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def cells():
    structures, _ = generate_synthetic_dataset(SyntheticConfig(
        n_crystals=4, max_atoms=4, seed=5))
    return structures


def test_neighbour_check_rejects_corruption(cells):
    s = cells[0]
    g = graphs.build_graph(s, GCFG)
    anchors = range(s.n_sites)
    assert checks.check_neighbors(s, g, GCFG.radius, GCFG.max_neighbors, anchors)[0]

    moved = g.copy()
    moved.distances[3] += 1e-6
    assert not checks.check_neighbors(s, moved, GCFG.radius, GCFG.max_neighbors,
                                      anchors)[0]
    wrong_image = g.copy()
    wrong_image.images[0] = wrong_image.images[0] + 5
    assert not checks.check_neighbors(s, wrong_image, GCFG.radius,
                                      GCFG.max_neighbors, anchors)[0]
    capped = graphs.build_graph(s, replace(GCFG, max_neighbors=11))
    assert not checks.check_neighbors(s, capped, GCFG.radius, GCFG.max_neighbors,
                                      anchors)[0]


def test_supercell_checks_reject_corruption(cells):
    prim = cells[1]
    pg = graphs.build_graph(prim, GCFG)
    sg = graphs.build_graph(inputs.supercell(prim, 2), GCFG)
    assert checks.check_supercell_distances(sg, pg)[0]
    moved = sg.copy()
    moved.distances[-1] += 1e-7
    assert not checks.check_supercell_distances(moved, pg)[0]

    params = model.init_params(model.ModelConfig(), seed=0)
    pooled = [model.encode(params, model.build_batch([g]), model.ModelConfig()).values
              for g in (sg, pg)]
    assert checks.check_close(pooled[0], pooled[1], checks.ENCODING_TOL, "e")[0]
    assert not checks.check_close(pooled[0] + 1e-8, pooled[1],
                                  checks.ENCODING_TOL, "e")[0]
    assert not checks.check_close(pooled[0][:, :-1], pooled[1],
                                  checks.ENCODING_TOL, "e")[0]


@pytest.mark.parametrize("kind", losses.LOSS_KINDS)
def test_loss_check_rejects_a_wrong_value(kind):
    gen = np.random.default_rng(0)
    z = gen.normal(size=(12, 5))
    labels = np.array([0, 1, 0, 1, 1, 0])
    cfg = losses.LossConfig(kind=kind)
    got = losses.compute_loss(cfg, autodiff.Tensor(z), labels).item()
    assert checks.check_loss(cfg, z, labels, got)[0]
    assert not checks.check_loss(cfg, z, labels, got * (1 + 1e-6))[0]


def test_checkpoint_check_rejects_corruption(tmp_path):
    params = model.init_params(model.ModelConfig(hidden_dim=4, embed_dim=4,
                                                 head_hidden=4), seed=1)
    saved = {n: t.values for n, t in params.items()}
    path = tmp_path / "x.ckpt"
    checkpoint.save_checkpoint(path, checkpoint.checkpoint_from_params(
        params, model.ModelConfig(hidden_dim=4, embed_dim=4, head_hidden=4), {}))
    loaded = checkpoint.load_checkpoint(path).tensors
    assert checks.check_checkpoint(loaded, saved)[0]

    flipped = dict(loaded)
    bits = flipped["head.w2"].copy().view(np.uint32)
    bits[0] ^= 1
    flipped["head.w2"] = bits.view(np.float32)
    assert not checks.check_checkpoint(flipped, saved)[0]
    assert not checks.check_checkpoint(
        {**loaded, "head.w2": saved["head.w2"]}, saved)[0]
    missing = {n: v for n, v in loaded.items() if n != "head.b2"}
    assert not checks.check_checkpoint(missing, saved)[0]


def test_score_checks_reject_wrong_values():
    rtol = checks.FLOAT32_RTOL
    assert checks.check_relative(0.5 * (1 + 1e-7), 0.5, rtol, 1.0, "mae")[0]
    assert checks.check_relative(1e-4 + 1e-7, 1e-4, rtol, 1.0, "mae")[0]
    # the gap between scoring two different test splits
    assert not checks.check_relative(1.79709, 1.79065, rtol, 1.0, "mae")[0]
    targets = np.array([1.0, 2.0, 3.0, 4.0])
    assert checks.check_beats_mean(0.5, targets, targets)[0]
    assert not checks.check_beats_mean(1.0, targets, targets)[0]


def test_batching_check_rejects_a_perturbed_prediction():
    preds = np.linspace(-1.0, 1.0, 8)
    assert checks.check_close(preds, preds.copy(), checks.BATCHING_TOL, "p")[0]
    bad = preds.copy()
    bad[5] += 1e-9
    assert not checks.check_close(preds, bad, checks.BATCHING_TOL, "p")[0]
