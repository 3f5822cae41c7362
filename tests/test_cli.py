import csv
import json
import math
import os
import shutil
import struct
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from crystalpretrain.augment import AugmentConfig, make_views
from crystalpretrain.checkpoint import MAGIC, VERSION, load_checkpoint, save_checkpoint
from crystalpretrain.cli import (KEY_SPECS, ConfigError, RunConfig, main,
                                 read_config_file)
from crystalpretrain.datasets import (MANIFEST_COLUMNS, SyntheticConfig, load_manifest,
                                      save_manifest)
from crystalpretrain.elements import MAX_Z
from crystalpretrain.graphs import GraphConfig
from crystalpretrain.losses import LossConfig
from crystalpretrain.model import ModelConfig
from crystalpretrain.rng import RngStream
from crystalpretrain import train
from crystalpretrain.train import (TrainConfig, TrainError, evaluate_checkpoint,
                                   load_graph_dataset, split_dataset)

SYNTH = ["--set", "synth.n_crystals=20", "--set", "synth.max_atoms=4"]
FAST_TRAIN = [
    "--set", "model.hidden_dim=6", "--set", "model.n_conv=1",
    "--set", "model.embed_dim=4", "--set", "model.head_hidden=4",
    "--set", "train.batch_size=8", "--set", "train.epochs=1",
    "--set", "graph.radius=6.0",
    "--set", "train.pretrain_eval_fraction=0.1",
]


def run(args):
    return main([str(a) for a in args])


def read_test_mae(out):
    rows = (out / "metrics.csv").read_text().splitlines()
    return float(dict(r.split(",") for r in rows[1:])["test_mae"])


def write_feature_table(path, seed):
    """Three random features for every element."""
    gen = np.random.default_rng(seed)
    rows = [f"{z}," + ",".join(repr(float(v)) for v in gen.normal(size=3))
            for z in range(1, MAX_Z + 1)]
    path.write_text("z,f0,f1,f2\n" + "\n".join(rows) + "\n")


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    assert run(["--out", out, "--seed", "3", *SYNTH, "synth"]) == 0
    return out


def test_synth_outputs(synth_dir):
    cifs = sorted((synth_dir / "crystals").glob("*.cif"))
    assert len(cifs) == 20
    manifest = load_manifest(synth_dir / "manifest.csv")
    labels = sorted({r.surrogate_label for r in manifest.records})
    assert labels == [0, 1]


def test_synth_four_crystals(tmp_path):
    assert run(["--out", tmp_path, "--seed", "9",
                "--set", "synth.n_crystals=4", "synth"]) == 0
    assert len(list((tmp_path / "crystals").glob("*.cif"))) == 4
    assert (tmp_path / "manifest.csv").exists()


def test_synth_renumbers_classes_no_crystal_drew(tmp_path):
    # at this seed the eight crystals draw classes 0 and 2 of 4
    assert run(["--out", tmp_path, "--seed", "8", "--set", "synth.n_crystals=8",
                "--set", "synth.n_classes=4", "--set", "synth.max_atoms=3", "synth"]) == 0
    labels = {r.surrogate_label for r in load_manifest(tmp_path / "manifest.csv").records}
    assert labels == {0, 1}


def test_synth_defaults_to_64_crystals(tmp_path):
    assert run(["--out", tmp_path, "--set", "synth.max_atoms=2", "synth"]) == 0
    assert len(list((tmp_path / "crystals").glob("*.cif"))) == 64
    assert len(load_manifest(tmp_path / "manifest.csv").records) == 64


def test_synth_byte_deterministic(tmp_path, synth_dir):
    again = tmp_path / "again"
    assert run(["--out", again, "--seed", "3", *SYNTH, "synth"]) == 0
    assert (again / "manifest.csv").read_bytes() == \
        (synth_dir / "manifest.csv").read_bytes()
    for cif in (synth_dir / "crystals").glob("*.cif"):
        assert (again / "crystals" / cif.name).read_bytes() == cif.read_bytes()


def test_stats_command(tmp_path, synth_dir, capsys):
    out = tmp_path / "stats"
    assert run(["--out", out, "stats", synth_dir / "manifest.csv"]) == 0
    lines = (out / "stats.csv").read_text().strip().splitlines()
    assert lines[0] == "element,count"
    counts = [int(line.split(",")[1]) for line in lines[1:]]
    assert counts == sorted(counts, reverse=True)
    printed = capsys.readouterr().out
    assert "shannon_entropy_nats=" in printed


def test_unknown_key_exits_2(synth_dir, capsys):
    code = run(["--set", "loss.gamma=1.0", "pretrain", synth_dir / "manifest.csv"])
    assert code == 2
    assert "loss.gamma" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["graph.node_feature_mode=external-table",
                                 "augment.enable_atom_mask=false",
                                 "augment.enable_edge_mask=false",
                                 "augment.enable_gndn=false", "loss.alpha=0.25",
                                 "train.eval_every_steps=1"])
def test_removed_key_exits_2(synth_dir, tmp_path, capsys, key):
    assert run(["--out", tmp_path / "out", "--set", key, "pretrain",
                synth_dir / "manifest.csv"]) == 2
    assert "unknown configuration key" in capsys.readouterr().err


def test_key_specs_match_config_fields():
    sections = {"graph": GraphConfig, "augment": AugmentConfig, "loss": LossConfig,
                "model": ModelConfig, "train": TrainConfig, "synth": SyntheticConfig}
    scalar = {section: {f.name for f in fields(cls)
                        if f.name not in sections}  # TrainConfig's sub-configs
              for section, cls in sections.items()}
    keyed = {section: set() for section in sections}
    for key, (section, attr, _) in KEY_SPECS.items():
        assert attr in scalar[section], f"{key} names no field of {section}"
        spelled = "lambda" if (section, attr) == ("loss", "lam") else attr
        assert key == f"{section}.{spelled}"
        keyed[section].add(attr)
    # train.phase is set by the command, synth.seed by --seed
    unkeyed = {(s, a) for s in sections for a in scalar[s] - keyed[s]}
    assert unkeyed == {("train", "phase"), ("synth", "seed")}


@pytest.mark.parametrize("key,text,value", [
    ("train.decoupled_weight_decay", "on", True),  # bool
    ("train.decoupled_weight_decay", "off", False),
    ("train.batch_size", "32", 32),  # int | None
    ("graph.feature_table", "table.csv", "table.csv"),  # str | None
])
def test_each_annotation_kind_parses(key, text, value):
    cfg = RunConfig({key: text}).train_config("pretrain")
    section, attr, _ = KEY_SPECS[key]
    parsed = getattr(cfg if section == "train" else getattr(cfg, section), attr)
    assert parsed == value and type(parsed) is type(value)


def test_readme_keys_are_keys():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("Commonly used keys", 1)[1].split("```")[1]
    listed = [line.split()[0] for line in block.splitlines() if line.strip()]
    assert listed and set(listed) <= set(KEY_SPECS)


def test_invalid_value_exits_2(synth_dir, tmp_path):
    assert run(["--set", "loss.kind=simclr", "pretrain",
                synth_dir / "manifest.csv"]) == 2
    assert run(["--set", "train.batch_size=one", "pretrain",
                synth_dir / "manifest.csv"]) == 2
    assert run(["--set", "train.decoupled_weight_decay=maybe", "pretrain",
                synth_dir / "manifest.csv"]) == 2
    # Adam's betas lie in [0, 1) and its eps is positive, refused before ingest
    for setting in ("adam_beta1=1", "adam_beta2=1", "adam_eps=0", "adam_beta1=1.5",
                    "adam_beta1=-0.5", "adam_eps=-1"):
        assert run(["--out", tmp_path, *FAST_TRAIN, "--set", f"train.{setting}",
                    "pretrain", synth_dir / "manifest.csv"]) == 2, setting
    assert not any(tmp_path.iterdir())
    # every float setting must be finite; synth.* is built only by synth
    float_keys = [key for key, spec in KEY_SPECS.items() if spec[2] is float]
    assert len(float_keys) >= 19
    manifest = synth_dir / "manifest.csv"
    for key in float_keys:
        command = ["synth"] if key.startswith("synth.") else ["pretrain", manifest]
        for value in ("nan", "inf", "-inf"):
            setting = f"{key}={value}"
            assert run(["--out", tmp_path, *FAST_TRAIN, "--set", setting, *command]) == 2, setting
            assert not any(tmp_path.iterdir()), setting


def test_missing_manifest_exits_3(tmp_path):
    assert run(["--out", tmp_path, "pretrain", tmp_path / "nope.csv"]) == 3


def _checkpoint_header(drop=None, **fields) -> bytes:
    header = {"version": VERSION, "model_config": {}, "metadata": {},
              "tensors": [], "optimizer_state": None, "payload_bytes": 0, **fields}
    header.pop(drop, None)
    return json.dumps(header).encode("utf-8")


# case -> (input kind, file content); in text content "\udcff" is written as
# the lone byte 0xff, which is not UTF-8
BAD_INPUTS = {
    "manifest-short-row": ("manifest", "syn-x,{cif},0\n"),
    "manifest-label-not-int": ("manifest", "syn-x,{cif},one,1.5,\n"),
    "manifest-target-not-number": ("manifest", "syn-x,{cif},0,n/a,\n"),
    "manifest-target-nan": ("manifest", "syn-x,{cif},0,nan,\n"),
    "manifest-target-inf": ("manifest", "syn-x,{cif},0,inf,\n"),
    "manifest-not-utf8": ("manifest", "syn-\udcff,{cif},0,1.5,\n"),
    "checkpoint-header-not-utf8": ("checkpoint", b"\xff\xfe{}"),
    "checkpoint-header-not-json": ("checkpoint", b"{tensors"),
    "checkpoint-no-tensors": ("checkpoint", _checkpoint_header("tensors")),
    "checkpoint-no-payload-bytes": ("checkpoint", _checkpoint_header("payload_bytes")),
    "checkpoint-no-model-config": ("checkpoint", _checkpoint_header("model_config")),
    "checkpoint-model-config-unknown-key": ("checkpoint",
                                            _checkpoint_header(model_config={"width": 3})),
    "checkpoint-model-config-invalid-value": (
        "checkpoint", _checkpoint_header(model_config={"hidden_dim": 0})),
    "checkpoint-graph-config-unknown-key": (
        "checkpoint", _checkpoint_header(metadata={"graph_config": {"bogus": 1}})),
    "checkpoint-graph-config-invalid-value": (
        "checkpoint", _checkpoint_header(metadata={"graph_config": {"radius": -1.0}})),
    "checkpoint-graph-config-nan": (  # json.dumps writes NaN
        "checkpoint", _checkpoint_header(metadata={"graph_config": {"radius": float("nan")}})),
    "checkpoint-task-unknown": ("checkpoint", _checkpoint_header(metadata={"task": "foo"})),
    "checkpoint-test-fraction-invalid-value": (
        "checkpoint", _checkpoint_header(metadata={"test_fraction": 1.5})),
    "checkpoint-seed-not-int": ("checkpoint", _checkpoint_header(metadata={"seed": "0"})),
    "checkpoint-tensors-not-list": ("checkpoint", _checkpoint_header(tensors={"w": [1]})),
    "checkpoint-tensor-no-shape": (
        "checkpoint", _checkpoint_header(tensors=[{"name": "w", "offset": 0}])),
    "checkpoint-tensor-name-not-string": (
        "checkpoint", _checkpoint_header(tensors=[{"name": 1, "shape": [0], "offset": 0}])),
    "checkpoint-tensor-shape-negative": (
        "checkpoint", _checkpoint_header(tensors=[{"name": "w", "shape": [-1], "offset": 0}])),
    "checkpoint-tensor-offset-negative": (
        "checkpoint", _checkpoint_header(tensors=[{"name": "w", "shape": [1], "offset": -8}])),
    "checkpoint-tensor-offset-not-int": (
        "checkpoint", _checkpoint_header(tensors=[{"name": "w", "shape": [0], "offset": 0.0}])),
    "checkpoint-tensor-past-payload-bytes": (
        "checkpoint", _checkpoint_header(tensors=[{"name": "w", "shape": [2], "offset": 0}])),
    "checkpoint-optimizer-state-not-list": ("checkpoint",
                                            _checkpoint_header(optimizer_state={})),
    "checkpoint-payload-bytes-not-int": ("checkpoint", _checkpoint_header(payload_bytes="0")),
    "checkpoint-metadata-not-dict": ("checkpoint", _checkpoint_header(metadata=[])),
    "table-z-not-int": ("table", "z,f0\nFe,1.0\n"),
    "table-feature-not-number": ("table", "z,f0\n26,heavy\n"),
    "table-feature-nan": ("table", "z,f0\n26,nan\n"),
    "table-not-utf8": ("table", "z,f0\n26,1.0\udcff\n"),
    "cif-not-utf8": ("cif", "data_x\n_cell_length_a 4.0\udcff\n"),
    "cif-unterminated-text-field": ("cif", "data_x\n;\n_cell_length_a 4.0\n"),
    # a fine-tuned checkpoint whose metadata is updated with the dict
    "finetuned-graph-config-int": ("finetuned", {"graph_config": 5}),
    "finetuned-graph-config-list": ("finetuned", {"graph_config": ["a"]}),
    "finetuned-target-mean-not-number": ("finetuned", {"target_mean": "x"}),
    "finetuned-target-mean-inf": ("finetuned", {"target_mean": math.inf}),
    "finetuned-target-std-nan": ("finetuned", {"target_std": math.nan}),
    "finetuned-target-std-zero": ("finetuned", {"target_std": 0.0}),
    # configuration errors, exit 2
    "config-not-utf8": ("config", "model.n_conv = 1\nmodel.hidden_dim = 6\udcff\n"),
    # lines end at \r too, as text mode splits them
    "config-not-utf8-cr": ("config", "model.n_conv = 1\rmodel.hidden_dim = 6\udcff\r"),
    # a fine-tuned checkpoint with one tensor deleted or one row short, read by
    # (command, tensor, edit)
    "evaluate-tensor-missing": ("tensor", ("evaluate", "head.w2", "missing")),
    "evaluate-tensor-row-short": ("tensor", ("evaluate", "head.w1", "short")),
    "embed-tensor-missing": ("tensor", ("embed", "atom_embedding", "missing")),
    "embed-tensor-row-short": ("tensor", ("embed", "conv0.self_weight", "short")),
}
EXITS_2 = ("config", "tensor")  # the kinds whose bad input is a configuration error


def _write_text(path, text):
    path.write_bytes(text.encode("utf-8", "surrogateescape"))


def _bad_input(case, synth_dir, tmp_path, request):
    """Write the bad input of BAD_INPUTS[case]; return its path and the
    arguments of a command that reads it."""
    kind, content = BAD_INPUTS[case]
    manifest = synth_dir / "manifest.csv"
    bad = tmp_path / f"bad.{kind}"
    header = ",".join(MANIFEST_COLUMNS) + "\n"
    if kind == "manifest":
        cif = load_manifest(manifest).records[0].cif_path
        _write_text(bad, header + content.format(cif=cif))
        args = ["stats", bad]
    elif kind == "checkpoint":
        bad.write_bytes(MAGIC + struct.pack("<IQ", VERSION, len(content)) + content)
        args = ["evaluate", manifest, "--checkpoint", bad]
    elif kind == "cif":
        _write_text(bad, content)
        one = tmp_path / "one.csv"
        one.write_text(header + f"syn-x,{bad},0,1.5,\n")
        args = ["stats", one]
    elif kind == "config":
        _write_text(bad, content)
        args = ["--config", bad, "stats", manifest]
    elif kind in ("finetuned", "tensor"):
        ckpt = load_checkpoint(request.getfixturevalue("trained") / "ft" / "best.ckpt")
        command = "evaluate"
        if kind == "finetuned":
            ckpt.metadata.update(content)
        else:
            command, name, edit = content
            if edit == "missing":
                del ckpt.tensors[name]
            else:
                ckpt.tensors[name] = ckpt.tensors[name][:-1]
        save_checkpoint(bad, ckpt)
        args = [command, manifest, "--checkpoint", bad]
    else:
        _write_text(bad, content)
        args = ["--set", f"graph.feature_table={bad}", "pretrain", manifest]
    return bad, args


@pytest.mark.parametrize("case", sorted(c for c in BAD_INPUTS if BAD_INPUTS[c][0] not in EXITS_2))
def test_bad_input_exits_3(case, synth_dir, tmp_path, capsys, request):
    bad, args = _bad_input(case, synth_dir, tmp_path, request)
    assert run(["--out", tmp_path / "out", *args]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error")
    if BAD_INPUTS[case][0] not in ("checkpoint", "finetuned"):
        assert f"{bad}:2:" in err  # names the line


@pytest.mark.parametrize("case", sorted(c for c in BAD_INPUTS if BAD_INPUTS[c][0] in EXITS_2))
def test_bad_input_exits_2(case, synth_dir, tmp_path, capsys, request):
    bad, args = _bad_input(case, synth_dir, tmp_path, request)
    assert run(["--out", tmp_path / "out", *args]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error")
    kind, content = BAD_INPUTS[case]
    assert (f"{bad}:2:" if kind == "config" else content[1]) in err  # names the line or tensor
    assert not (tmp_path / "out").exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_numerical_failure_exits_4(synth_dir, tmp_path):
    # an absurd learning rate detonates the parameters within a step or two
    code = run(["--out", tmp_path, "--seed", "1", *FAST_TRAIN,
                "--set", "train.lr=1e155", "--set", "train.epochs=2",
                "pretrain", synth_dir / "manifest.csv"])
    assert code == 4


def test_loss_refusal_exits_4(tmp_path, capsys):
    # one projection unit whose ReLU is off for every crystal of a batch
    # leaves each row its zero bias; a zero-norm row passes no gradient, and
    # the loss refuses it
    data = tmp_path / "data"
    assert run(["--out", data, "--seed", "7", "--set", "synth.n_crystals=64",
                "--set", "synth.max_atoms=4", "synth"]) == 0
    assert run(["--out", tmp_path / "pre", "--seed", "2", "--set", "model.embed_dim=1",
                "--set", "model.hidden_dim=4", "--set", "model.n_conv=1",
                "--set", "train.epochs=2", "--set", "train.batch_size=16",
                "pretrain", data / "manifest.csv"]) == 4
    assert "numerical failure: embedding rows" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["manifest", "table"])
def test_repeated_entry_exits_3(kind, synth_dir, tmp_path, capsys):
    # a second target column or a second row for an element would otherwise
    # be dropped or shadow the first, silently
    manifest = synth_dir / "manifest.csv"
    bad = tmp_path / f"bad.{kind}"
    if kind == "manifest":
        cif = load_manifest(manifest).records[0].cif_path
        bad.write_text(",".join(MANIFEST_COLUMNS) + f",target\nsyn-x,{cif},0,1.5,,2.5\n")
        args, line = ["stats", bad], 1
    else:
        write_feature_table(bad, seed=0)
        with open(bad, "a") as fh:
            fh.write("26,1.0,2.0,3.0\n")
        args = [*FAST_TRAIN, "--set", f"graph.feature_table={bad}", "pretrain", manifest]
        line = MAX_Z + 2
    assert run(["--out", tmp_path / "out", *args]) == 3
    assert f"{bad}:{line}:" in capsys.readouterr().err


def test_module_entry_point():
    import subprocess
    import sys
    proc = subprocess.run([sys.executable, "-m", "crystalpretrain", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "augment-preview" in proc.stdout


def test_config_file_end_to_end(synth_dir, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("""
model.hidden_dim = 6      # tiny model for the smoke run
model.n_conv = 1
model.embed_dim = 4
model.head_hidden = 4
train.batch_size = 8
train.epochs = 1
train.pretrain_eval_fraction = 0.1
graph.radius = 6.0
""")
    out = tmp_path / "run"
    assert run(["--config", cfg, "--out", out, "--seed", "5",
                "pretrain", synth_dir / "manifest.csv"]) == 0
    assert (out / "final.ckpt").exists()


def test_config_error_leaves_no_output(synth_dir, tmp_path):
    out = tmp_path / "untouched"
    assert run(["--out", out, "--set", "loss.gamma=1", "pretrain",
                synth_dir / "manifest.csv"]) == 2
    assert not out.exists()
    assert run(["--out", out, "--set", "loss.kind=simclr", "pretrain",
                synth_dir / "manifest.csv"]) == 2
    assert not out.exists()


def test_config_file_parsing(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("""
# pretraining setup
loss.kind = sup-bt
loss.lambda = 0.0051   # balance of the repel term
train.batch_size = 128
""")
    pairs = read_config_file(cfg)
    assert pairs == {"loss.kind": "sup-bt", "loss.lambda": "0.0051",
                     "train.batch_size": "128"}
    rc = RunConfig(pairs)
    assert rc.train_config("pretrain").loss.lam == 0.0051
    assert rc.train_config("pretrain").batch_size == 128


def test_config_file_line_endings(tmp_path):
    # lines end at \n, \r\n or \r, as in a file read in text mode
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"model.n_conv = 1\r\nmodel.hidden_dim = 6\rtrain.epochs = 2\n")
    assert read_config_file(cfg) == {"model.n_conv": "1", "model.hidden_dim": "6",
                                     "train.epochs": "2"}


def test_paper_configurations_accepted():
    rc = RunConfig({"loss.kind": "sup-bt", "loss.lambda": "0.0051",
                    "train.batch_size": "128"})
    cfg = rc.train_config("pretrain")
    assert cfg.loss.lam == 0.0051 and cfg.batch_size == 128

    rc = RunConfig({"loss.kind": "supcon", "loss.temperature": "0.03"})
    cfg = rc.train_config("pretrain")
    assert cfg.loss.temperature == 0.03 and cfg.batch_size == 256

    with pytest.raises(ConfigError):
        RunConfig({"loss.gamma": "1.0"})


@pytest.fixture(scope="module")
def trained(tmp_path_factory, synth_dir):
    out = tmp_path_factory.mktemp("trained")
    manifest = synth_dir / "manifest.csv"
    assert run(["--out", out / "pre", "--seed", "1", *FAST_TRAIN,
                "pretrain", manifest]) == 0
    assert run(["--out", out / "ft", "--seed", "1", *FAST_TRAIN,
                "finetune", manifest, "--checkpoint", out / "pre" / "final.ckpt"]) == 0
    return out


def test_pretrain_outputs(trained):
    assert (trained / "pre" / "final.ckpt").exists()
    assert (trained / "pre" / "epoch-0001.ckpt").exists()
    log = (trained / "pre" / "log.csv").read_text().splitlines()
    assert log[0] == "step,epoch,phase,loss,metric_name,metric_value"
    assert any("eval_loss" in line for line in log[1:])


def test_finetune_outputs(trained):
    metrics = (trained / "ft" / "metrics.csv").read_text().splitlines()
    assert metrics[0] == "metric,value"
    assert any(line.startswith("test_mae,") for line in metrics[1:])
    assert (trained / "ft" / "best.ckpt").exists()


def test_finetune_needs_checkpoint_choice(synth_dir, tmp_path):
    assert run(["--out", tmp_path, "finetune", synth_dir / "manifest.csv"]) == 2


def test_finetune_no_pretrain_baseline(synth_dir, tmp_path):
    assert run(["--out", tmp_path, "--seed", "1", *FAST_TRAIN,
                "finetune", synth_dir / "manifest.csv", "--no-pretrain"]) == 0
    assert (tmp_path / "metrics.csv").exists()


def test_finetune_classification_emits_accuracy(synth_dir, tmp_path):
    # rewrite the targets into the 0/1 surrogate labels
    manifest = load_manifest(synth_dir / "manifest.csv")
    for rec in manifest.records:
        rec.target = float(rec.surrogate_label)
    from crystalpretrain.datasets import save_manifest
    cls_dir = tmp_path / "data"
    (cls_dir / "crystals").mkdir(parents=True)
    for rec in manifest.records:
        (cls_dir / "crystals" / f"{rec.id}.cif").write_bytes(
            (synth_dir / "crystals" / f"{rec.id}.cif").read_bytes())
        rec.cif_path = f"crystals/{rec.id}.cif"
    save_manifest(manifest, cls_dir / "manifest.csv")

    out = tmp_path / "cls"
    assert run(["--out", out, "--seed", "1", *FAST_TRAIN,
                "--set", "train.task=binary-classification",
                "finetune", cls_dir / "manifest.csv", "--no-pretrain"]) == 0
    text = (out / "metrics.csv").read_text()
    assert "test_accuracy," in text and "test_mae," not in text


def test_evaluate_command(trained, synth_dir, tmp_path):
    assert run(["--out", tmp_path, "--seed", "1", *FAST_TRAIN,
                "evaluate", synth_dir / "manifest.csv",
                "--checkpoint", trained / "ft" / "best.ckpt"]) == 0
    text = (tmp_path / "metrics.csv").read_text()
    assert "test_mae," in text


def test_embed_command(trained, synth_dir, tmp_path):
    assert run(["--out", tmp_path, "--seed", "1",
                "embed", synth_dir / "manifest.csv",
                "--checkpoint", trained / "pre" / "final.ckpt"]) == 0
    lines = (tmp_path / "embeddings.csv").read_text().strip().splitlines()
    header = lines[0].split(",")
    assert header[:2] == ["id", "label"]
    assert len(header) == 2 + 4  # embed_dim=4 in FAST_TRAIN
    assert len(lines) - 1 == 4  # floor(0.2 * 20) test rows

    again = tmp_path / "again"
    assert run(["--out", again, "--seed", "1",
                "embed", synth_dir / "manifest.csv",
                "--checkpoint", trained / "pre" / "final.ckpt"]) == 0
    assert (again / "embeddings.csv").read_bytes() == \
        (tmp_path / "embeddings.csv").read_bytes()

    # a fine-tuned checkpoint exports the pooled encoder vectors, on the
    # split it was trained with
    pooled = tmp_path / "pooled"
    assert run(["--out", pooled, "embed", synth_dir / "manifest.csv",
                "--checkpoint", trained / "ft" / "best.ckpt"]) == 0
    lines = (pooled / "embeddings.csv").read_text().strip().splitlines()
    assert len(lines[0].split(",")) == 2 + 6  # hidden_dim=6 in FAST_TRAIN
    assert len(lines) - 1 == 4


def test_embed_of_a_finetuned_checkpoint_reads_no_head(trained, synth_dir, tmp_path):
    # it exports the pooled encoder vectors, so neither head is read
    ckpt = load_checkpoint(trained / "ft" / "best.ckpt")
    del ckpt.tensors["head.w2"], ckpt.tensors["projection.w1"]
    save_checkpoint(tmp_path / "headless.ckpt", ckpt)
    for name, path in (("whole", trained / "ft" / "best.ckpt"),
                       ("headless", tmp_path / "headless.ckpt")):
        assert run(["--out", tmp_path / name, "embed", synth_dir / "manifest.csv",
                    "--checkpoint", path]) == 0
    assert (tmp_path / "headless" / "embeddings.csv").read_bytes() == \
        (tmp_path / "whole" / "embeddings.csv").read_bytes()


def test_embed_quotes_ids_holding_commas(trained, synth_dir, tmp_path):
    manifest = load_manifest(synth_dir / "manifest.csv")
    for rec in manifest.records:
        rec.id = rec.id.replace("-", ",")
    save_manifest(manifest, tmp_path / "manifest.csv")
    assert run(["--out", tmp_path / "out", "embed", tmp_path / "manifest.csv",
                "--checkpoint", trained / "pre" / "final.ckpt"]) == 0
    with open(tmp_path / "out" / "embeddings.csv", newline="") as fh:
        header, *rows = csv.reader(fh)
    assert len(rows) == 4
    assert all(len(row) == len(header) and row[0].startswith("syn,") for row in rows)


@pytest.mark.parametrize("command, checkpoint", [("evaluate", "ft/best.ckpt"),
                                                 ("embed", "pre/final.ckpt")])
def test_scoring_commands_build_only_the_test_split(trained, synth_dir, tmp_path,
                                                    monkeypatch, command, checkpoint):
    built = []

    def build_graph(structure, *args):
        built.append(structure.id)
        return real(structure, *args)

    real = train.build_graph
    monkeypatch.setattr(train, "build_graph", build_graph)
    assert run(["--out", tmp_path, command, synth_dir / "manifest.csv",
                "--checkpoint", trained / checkpoint]) == 0
    records = load_manifest(synth_dir / "manifest.csv").records
    test = split_dataset(records, "finetune", 1)["test"]  # the checkpoints' seed
    assert built == [records[i].id for i in test]


def test_evaluate_reads_only_the_test_split_cifs(trained, tmp_path, synth_dir):
    data = tmp_path / "data"
    shutil.copytree(synth_dir, data)
    records = load_manifest(data / "manifest.csv").records
    test = set(split_dataset(records, "finetune", 1)["test"].tolist())
    args = ["evaluate", data / "manifest.csv", "--checkpoint", trained / "ft" / "best.ckpt"]
    assert run(["--out", tmp_path / "clean", *args]) == 0

    outside = next(i for i in range(len(records)) if i not in test)
    Path(records[outside].cif_path).write_text("not a CIF\n")
    assert run(["--out", tmp_path / "outside", *args]) == 0
    assert (tmp_path / "outside" / "metrics.csv").read_bytes() == \
        (tmp_path / "clean" / "metrics.csv").read_bytes()

    Path(records[min(test)].cif_path).write_text("not a CIF\n")
    assert run(["--out", tmp_path / "inside", *args]) == 3


def test_evaluate_refuses_a_pretraining_checkpoint(trained, synth_dir, tmp_path, capsys):
    manifest = synth_dir / "manifest.csv"
    # a pretraining checkpoint's task head is its random initial one
    assert run(["--out", tmp_path / "pre", "evaluate", manifest,
                "--checkpoint", trained / "pre" / "final.ckpt"]) == 2
    assert "phase 'pretrain'" in capsys.readouterr().err
    assert not (tmp_path / "pre").exists()

    # a checkpoint that records no phase is scored as before
    ckpt = load_checkpoint(trained / "ft" / "best.ckpt")
    del ckpt.metadata["phase"]
    save_checkpoint(tmp_path / "no-phase.ckpt", ckpt)
    for name, path in (("ft", trained / "ft" / "best.ckpt"),
                       ("no-phase", tmp_path / "no-phase.ckpt")):
        assert run(["--out", tmp_path / name, "evaluate", manifest,
                    "--checkpoint", path]) == 0
    assert (tmp_path / "ft" / "metrics.csv").read_bytes() == \
        (tmp_path / "no-phase" / "metrics.csv").read_bytes()


def test_failed_embed_keeps_previous_file(trained, synth_dir, tmp_path, monkeypatch):
    out = tmp_path / "out"
    args = ["--out", out, "embed", synth_dir / "manifest.csv", "--checkpoint"]
    assert run([*args, trained / "pre" / "final.ckpt"]) == 0
    before = (out / "embeddings.csv").read_bytes()

    def fail(fd):  # the data is written, the sync fails
        raise OSError("no space left on device")

    monkeypatch.setattr(os, "fsync", fail)
    assert run([*args, trained / "ft" / "best.ckpt"]) == 3
    assert (out / "embeddings.csv").read_bytes() == before
    assert [p.name for p in out.iterdir()] == ["embeddings.csv"]
    monkeypatch.undo()
    assert run([*args, trained / "ft" / "best.ckpt"]) == 0
    assert (out / "embeddings.csv").read_bytes() != before


@pytest.mark.parametrize("seed,code", [(-1, 2), (2 ** 32, 2), (0, 0), (2 ** 32 - 1, 0)])
def test_seed_outside_32_bits_exits_2(synth_dir, tmp_path, seed, code):
    assert run(["--out", tmp_path / "synth", "--seed", seed,
                "--set", "synth.n_crystals=4", "synth"]) == code
    if code:
        assert run(["--out", tmp_path / "pre", "--seed", seed, *FAST_TRAIN,
                    "pretrain", synth_dir / "manifest.csv"]) == code
        assert not (tmp_path / "synth").exists() and not (tmp_path / "pre").exists()


def test_evaluate_uses_the_checkpoint_split(synth_dir, tmp_path):
    manifest = synth_dir / "manifest.csv"
    ft = tmp_path / "ft"
    assert run(["--out", ft, "--seed", "3", *FAST_TRAIN, "--set", "train.epochs=3",
                "finetune", manifest, "--no-pretrain"]) == 0
    ckpt = ft / "best.ckpt"
    assert run(["--out", tmp_path / "eval", *FAST_TRAIN,
                "evaluate", manifest, "--checkpoint", ckpt]) == 0

    # float32 checkpoint weights: close, not exact
    assert math.isclose(read_test_mae(tmp_path / "eval"), read_test_mae(ft), rel_tol=1e-5)
    assert run(["--out", tmp_path / "seed4", "--seed", "4",
                "evaluate", manifest, "--checkpoint", ckpt]) == 2
    assert run(["--out", tmp_path / "frac", "--set", "train.test_fraction=0.3",
                "embed", manifest, "--checkpoint", ckpt]) == 2


def test_evaluate_refuses_a_conflicting_task(trained, synth_dir, tmp_path, capsys):
    args = ["evaluate", synth_dir / "manifest.csv", "--checkpoint", trained / "ft" / "best.ckpt"]
    assert run(["--out", tmp_path / "cls", "--set", "train.task=binary-classification",
                *args]) == 2
    assert "the task its head was trained for" in capsys.readouterr().err
    assert not (tmp_path / "cls").exists()
    assert run(["--out", tmp_path / "reg", "--set", "train.task=regression", *args]) == 0
    assert "test_mae," in (tmp_path / "reg" / "metrics.csv").read_text()


def test_evaluate_adopts_unset_graph_fields(trained, synth_dir, tmp_path):
    # the fine-tune ran at graph.radius=6; naming only the stored
    # max_neighbors still takes the stored radius
    assert run(["--out", tmp_path, "--set", "graph.max_neighbors=12",
                "evaluate", synth_dir / "manifest.csv",
                "--checkpoint", trained / "ft" / "best.ckpt"]) == 0
    assert math.isclose(read_test_mae(tmp_path), read_test_mae(trained / "ft"),
                        rel_tol=1e-5)


def test_evaluate_checks_model_fields_one_by_one(trained, synth_dir, tmp_path, capsys):
    args = ["evaluate", synth_dir / "manifest.csv", "--checkpoint", trained / "ft" / "best.ckpt"]
    assert run(["--out", tmp_path / "same", "--set", "model.hidden_dim=6", *args]) == 0
    assert run(["--out", tmp_path / "other", "--set", "model.hidden_dim=7", *args]) == 2
    assert "model.hidden_dim=7 conflicts with the checkpoint's 6" in capsys.readouterr().err
    assert not (tmp_path / "other").exists()


def test_evaluate_checkpoint_refuses_another_task(trained, synth_dir):
    ckpt = load_checkpoint(trained / "ft" / "best.ckpt")
    graph = GraphConfig(**ckpt.metadata["graph_config"])
    dataset = load_graph_dataset(load_manifest(synth_dir / "manifest.csv"), graph)
    cfg = TrainConfig(graph=graph, model=ckpt.model_config, seed=ckpt.metadata["seed"],
                      task="binary-classification")
    with pytest.raises(TrainError, match="the task its head was trained for"):
        evaluate_checkpoint(dataset, ckpt, cfg)


def test_augment_preview(synth_dir, tmp_path):
    manifest = load_manifest(synth_dir / "manifest.csv")
    rec_id = manifest.records[0].id
    assert run(["--out", tmp_path, "--seed", "2", "--set", "graph.radius=6.0",
                "augment-preview", synth_dir / "manifest.csv", "--id", rec_id]) == 0
    lines = (tmp_path / "preview.csv").read_text().strip().splitlines()
    assert lines[0] == "view,edge,i,j,d,d_noised,masked,feature_l2"
    rows = [line.split(",") for line in lines[1:]]
    per_view = {}
    for row in rows:
        d, dn = float(row[4]), float(row[5])
        assert abs(d - dn) <= 0.5
        per_view.setdefault(row[0], []).append(int(row[6]))
    for view, masked in per_view.items():
        expected = max(1, int(math.floor(0.1 * len(masked) + 0.5)))
        assert sum(masked) == expected


def test_augment_preview_shows_the_epoch_0_views(synth_dir, tmp_path):
    # any record, whatever its label: the streams are keyed by the seed,
    # epoch 0 and the record's position in the manifest
    manifest = load_manifest(synth_dir / "manifest.csv")
    index = next(k for k, rec in enumerate(manifest.records) if rec.surrogate_label == 1)
    assert run(["--out", tmp_path, "--seed", "2", "--set", "graph.radius=6.0",
                "augment-preview", synth_dir / "manifest.csv",
                "--id", manifest.records[index].id]) == 0
    gcfg = GraphConfig(radius=6.0)
    graph = load_graph_dataset(manifest, gcfg).graphs[index]
    streams = tuple(RngStream(2, "augment", 0, index, view) for view in (0, 1))
    views = make_views(graph, AugmentConfig(), streams, gcfg)
    with open(tmp_path / "preview.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(row["d_noised"], row["masked"]) for row in rows] == [
        (repr(float(d)), str(int(masked)))
        for view in views for d, masked in zip(view.distances, view.edge_masked)]


def test_augment_preview_unknown_id(synth_dir, tmp_path):
    assert run(["--out", tmp_path, "augment-preview", synth_dir / "manifest.csv",
                "--id", "nope"]) == 3


def test_augment_preview_zero_delta(synth_dir, tmp_path):
    manifest = load_manifest(synth_dir / "manifest.csv")
    assert run(["--out", tmp_path, "--set", "augment.gndn_delta=0",
                "--set", "graph.radius=6.0",
                "augment-preview", synth_dir / "manifest.csv",
                "--id", manifest.records[0].id]) == 0
    lines = (tmp_path / "preview.csv").read_text().strip().splitlines()[1:]
    for line in lines:
        row = line.split(",")
        assert row[4] == row[5]


def test_pretrain_refuses_a_one_crystal_eval_split(synth_dir, tmp_path):
    # 20 crystals x 0.05 leave one eval crystal
    one_eval = [*FAST_TRAIN, "--set", "train.pretrain_eval_fraction=0.05"]
    for kind in ("bt", "nt-xent"):
        out = tmp_path / kind
        assert run(["--out", out, "--seed", "1", *one_eval, "--set",
                    f"loss.kind={kind}", "pretrain", synth_dir / "manifest.csv"]) == 3
        assert not list(out.glob("*.ckpt"))
    # sup-bt's same-class term is defined for a single crystal
    assert run(["--out", tmp_path / "sup-bt", "--seed", "1", *one_eval,
                "pretrain", synth_dir / "manifest.csv"]) == 0


def test_external_feature_table_end_to_end(trained, synth_dir, tmp_path):
    table = tmp_path / "table.csv"
    write_feature_table(table, seed=0)
    manifest = synth_dir / "manifest.csv"
    cfg = ["--seed", "1", *FAST_TRAIN, "--set", f"graph.feature_table={table}"]

    assert run(["--out", tmp_path / "pre", *cfg, "pretrain", manifest]) == 0
    pre = load_checkpoint(tmp_path / "pre" / "final.ckpt")
    assert pre.tensors["input_projection"].shape == (3, 6)
    assert "atom_embedding" not in pre.tensors
    assert run(["--out", tmp_path / "ft", *cfg, "finetune", manifest,
                "--checkpoint", tmp_path / "pre" / "final.ckpt"]) == 0
    ckpt = tmp_path / "ft" / "best.ckpt"
    assert run(["--out", tmp_path / "eval", *cfg, "evaluate", manifest,
                "--checkpoint", ckpt]) == 0
    assert run(["--out", tmp_path / "emb", *cfg, "embed", manifest,
                "--checkpoint", ckpt]) == 0
    assert run(["--out", tmp_path / "aug", *cfg, "augment-preview", manifest,
                "--id", load_manifest(manifest).records[0].id]) == 0

    ft_mae = read_test_mae(tmp_path / "ft")
    assert math.isclose(read_test_mae(tmp_path / "eval"), ft_mae, rel_tol=1e-5)

    # checkpoints written before graph.node_feature_mode was removed still
    # carry it; without graph.* overrides their stored graph config is adopted
    old_ft = load_checkpoint(ckpt)
    old_ft.metadata["graph_config"]["node_feature_mode"] = "external-table"
    learned = load_checkpoint(trained / "ft" / "best.ckpt")
    learned.metadata["graph_config"].update(node_feature_mode="learned-embedding",
                                            feature_table=str(table))
    for name, old, expected in (("external", old_ft, ft_mae),
                                ("learned", learned, read_test_mae(trained / "ft"))):
        save_checkpoint(tmp_path / f"{name}.ckpt", old)
        out = tmp_path / f"eval-{name}"
        assert run(["--out", out, "evaluate", manifest,
                    "--checkpoint", tmp_path / f"{name}.ckpt"]) == 0
        assert math.isclose(read_test_mae(out), expected, rel_tol=1e-5)


def test_rewritten_feature_table_is_refused(synth_dir, tmp_path):
    table = tmp_path / "table.csv"
    write_feature_table(table, seed=0)
    manifest = synth_dir / "manifest.csv"
    cfg = ["--seed", "1", *FAST_TRAIN, "--set", f"graph.feature_table={table}"]
    assert run(["--out", tmp_path / "ft", *cfg, "finetune", manifest,
                "--no-pretrain"]) == 0
    ckpt = tmp_path / "ft" / "best.ckpt"
    assert run(["--out", tmp_path / "eval", *cfg, "evaluate", manifest,
                "--checkpoint", ckpt]) == 0

    write_feature_table(table, seed=1)  # same elements and width, other values
    for command in ("evaluate", "embed", "finetune"):
        assert run(["--out", tmp_path / command, *cfg, command, manifest,
                    "--checkpoint", ckpt]) == 3

    # a checkpoint written before the digest was stored loads as before
    old = load_checkpoint(ckpt)
    del old.metadata["feature_table_sha256"]
    save_checkpoint(tmp_path / "old.ckpt", old)
    assert run(["--out", tmp_path / "eval-old", *cfg, "evaluate", manifest,
                "--checkpoint", tmp_path / "old.ckpt"]) == 0
