import json
import math
import os
import struct

import numpy as np
import pytest

from crystalpretrain.checkpoint import (MAGIC, BadMagic, CheckpointError,
                                        TruncatedPayload, VersionMismatch,
                                        checkpoint_from_params, load_checkpoint,
                                        save_checkpoint)
from crystalpretrain.model import ModelConfig, init_params
from crystalpretrain.train import TrainingLog


CFG = ModelConfig(hidden_dim=6, n_conv=2, embed_dim=4, head_hidden=4)


def make_checkpoint(seed=0, with_opt=False):
    params = init_params(CFG, seed=seed)
    opt = None
    if with_opt:
        opt = {f"m.{n}": np.zeros(t.shape, dtype=np.float32)
               for n, t in params.items()}
    return checkpoint_from_params(params, CFG, {"phase": "pretrain", "epoch": 3,
                                                "loss_kind": "sup-bt",
                                                "surrogate_label_name": "surrogate_label"},
                                  optimizer_state=opt)


def test_round_trip_bit_exact(tmp_path):
    ckpt = make_checkpoint()
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, ckpt)
    loaded = load_checkpoint(path)
    assert set(loaded.tensors) == set(ckpt.tensors)
    for name in ckpt.tensors:
        assert loaded.tensors[name].tobytes() == ckpt.tensors[name].tobytes()
    assert loaded.metadata == ckpt.metadata
    assert loaded.model_config == CFG


def test_round_trip_with_optimizer_state(tmp_path):
    ckpt = make_checkpoint(with_opt=True)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, ckpt)
    loaded = load_checkpoint(path)
    assert set(loaded.optimizer_state) == set(ckpt.optimizer_state)


def test_save_load_save_is_stable(tmp_path):
    ckpt = make_checkpoint()
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(p1, ckpt)
    save_checkpoint(p2, load_checkpoint(p1))
    assert p1.read_bytes() == p2.read_bytes()


def test_bad_magic(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, make_checkpoint())
    data = bytearray(path.read_bytes())
    data[:8] = b"NOTMAGIC"
    path.write_bytes(bytes(data))
    with pytest.raises(BadMagic):
        load_checkpoint(path)


def test_version_mismatch(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, make_checkpoint())
    data = bytearray(path.read_bytes())
    data[8:12] = (99).to_bytes(4, "little")
    path.write_bytes(bytes(data))
    with pytest.raises(VersionMismatch) as err:
        load_checkpoint(path)
    assert err.value.found == 99


def test_truncated_payload(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, make_checkpoint())
    data = path.read_bytes()
    path.write_bytes(data[:-40])
    with pytest.raises(TruncatedPayload):
        load_checkpoint(path)


def _edit_header(path, edit):
    """Rewrite the checkpoint header as edit(header) leaves it."""
    data = path.read_bytes()
    start = len(MAGIC) + 12
    (header_len,) = struct.unpack_from("<Q", data, len(MAGIC) + 4)
    header = json.loads(data[start:start + header_len])
    edit(header)
    text = json.dumps(header).encode("utf-8")
    path.write_bytes(data[:len(MAGIC) + 4] + struct.pack("<Q", len(text)) + text
                     + data[start + header_len:])


@pytest.mark.parametrize("fields", [{"offset": -8}, {"offset": -4}, {"shape": [-1]},
                                    {"shape": [2, 1.5]}, {"shape": [True]}])
def test_invalid_tensor_entry_is_refused(tmp_path, fields):
    # a negative offset or shape would slice the wrong bytes, or none
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, make_checkpoint())
    _edit_header(path, lambda header: header["tensors"][-1].update(fields))
    with pytest.raises(CheckpointError, match="entry is invalid"):
        load_checkpoint(path)


def test_tensor_entry_past_payload_bytes_is_refused(tmp_path):
    # the last tensor runs one float on into the optimizer state, which the
    # header no longer lists: the bytes are in the file, past payload_bytes
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, make_checkpoint(with_opt=True))

    def edit(header):
        last = header["tensors"][-1]
        size = math.prod(last["shape"])
        header["payload_bytes"] = last["offset"] + 4 * size
        header["optimizer_state"] = None
        last["shape"] = [size + 1]

    _edit_header(path, edit)
    with pytest.raises(CheckpointError, match="past payload_bytes"):
        load_checkpoint(path)


@pytest.mark.parametrize("save", ["checkpoint", "log"])
def test_failed_save_keeps_previous_file(tmp_path, monkeypatch, save):
    path = tmp_path / "out.file"
    log = TrainingLog()
    log.log_loss(1, 0, "train", 0.5)

    def write(seed):
        if save == "checkpoint":
            save_checkpoint(path, make_checkpoint(seed=seed))
        else:
            log.log_loss(seed, 0, "train", 0.25)
            log.save(path)

    write(0)
    before = path.read_bytes()

    def fail(fd):  # the data is written, the sync fails
        raise OSError("no space left on device")

    monkeypatch.setattr(os, "fsync", fail)
    with pytest.raises(OSError):
        write(1)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["out.file"]
    monkeypatch.undo()
    write(2)
    assert path.read_bytes() != before


def test_to_params_upconverts():
    ckpt = make_checkpoint()
    params = ckpt.to_params()
    for name, tensor in params.items():
        assert tensor.values.dtype == np.float64
        assert tensor.requires_grad
        assert np.array_equal(tensor.values,
                              ckpt.tensors[name].astype(np.float64))
