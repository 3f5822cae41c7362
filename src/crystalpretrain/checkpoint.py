"""Binary checkpoint files.

Layout: 8-byte magic ``SPMATCKP``, u32 little-endian format version, u64
little-endian header length, UTF-8 JSON header (tensor names/shapes/offsets
plus metadata), then the raw little-endian float32 payload. Tensors are
stored in float32; in-memory training tensors are float64, so a round trip
costs one down/up conversion.
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .autodiff import Tensor
from .model import ModelConfig

MAGIC = b"SPMATCKP"
VERSION = 1


class CheckpointError(Exception):
    pass


class BadMagic(CheckpointError):
    def __init__(self):
        super().__init__("file does not start with the checkpoint magic")


class VersionMismatch(CheckpointError):
    def __init__(self, found: int):
        self.found = found
        super().__init__(f"checkpoint version {found} != supported {VERSION}")


class TruncatedPayload(CheckpointError):
    def __init__(self, expected: int, found: int):
        super().__init__(f"checkpoint payload truncated: {found} of {expected} bytes")


@dataclass
class Checkpoint:
    model_config: ModelConfig
    tensors: dict[str, np.ndarray]  # float32 arrays
    metadata: dict = field(default_factory=dict)
    optimizer_state: dict[str, np.ndarray] | None = None

    def to_params(self) -> dict[str, Tensor]:
        """Float64 trainable tensors from the stored float32 payload."""
        return {name: Tensor(arr.astype(np.float64), requires_grad=True)
                for name, arr in self.tensors.items()}


def checkpoint_from_params(params: dict[str, Tensor], model_config: ModelConfig,
                           metadata: dict,
                           optimizer_state: dict[str, np.ndarray] | None = None
                           ) -> Checkpoint:
    tensors = {name: t.values.astype(np.float32) for name, t in params.items()}
    return Checkpoint(model_config=model_config, tensors=tensors,
                      metadata=dict(metadata), optimizer_state=optimizer_state)


def _tensor_entries(table: dict[str, np.ndarray], offset: int):
    entries = []
    for name in sorted(table):
        arr = table[name]
        nbytes = arr.size * 4
        entries.append({"name": name, "shape": list(arr.shape), "offset": offset})
        offset += nbytes
    return entries, offset


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    tensor_entries, offset = _tensor_entries(ckpt.tensors, 0)
    opt_entries = None
    if ckpt.optimizer_state is not None:
        opt_entries, offset = _tensor_entries(ckpt.optimizer_state, offset)
    header = {
        "version": VERSION,
        "model_config": asdict(ckpt.model_config),
        "metadata": ckpt.metadata,
        "tensors": tensor_entries,
        "optimizer_state": opt_entries,
        "payload_bytes": offset,
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        fh.write(struct.pack("<Q", len(header_bytes)))
        fh.write(header_bytes)
        for name in sorted(ckpt.tensors):
            fh.write(np.ascontiguousarray(ckpt.tensors[name], dtype="<f4").tobytes())
        if ckpt.optimizer_state is not None:
            for name in sorted(ckpt.optimizer_state):
                fh.write(np.ascontiguousarray(ckpt.optimizer_state[name],
                                              dtype="<f4").tobytes())


def _read_table(entries, payload: bytes) -> dict[str, np.ndarray]:
    out = {}
    for entry in entries:
        shape = tuple(entry["shape"])
        count = int(np.prod(shape)) if shape else 1
        start = entry["offset"]
        end = start + count * 4
        if end > len(payload):
            raise TruncatedPayload(end, len(payload))
        arr = np.frombuffer(payload[start:end], dtype="<f4").reshape(shape)
        out[entry["name"]] = arr.copy()
    return out


def load_checkpoint(path) -> Checkpoint:
    data = Path(path).read_bytes()
    if len(data) < len(MAGIC) + 12 or data[:len(MAGIC)] != MAGIC:
        raise BadMagic()
    pos = len(MAGIC)
    (version,) = struct.unpack_from("<I", data, pos)
    pos += 4
    if version != VERSION:
        raise VersionMismatch(version)
    (header_len,) = struct.unpack_from("<Q", data, pos)
    pos += 8
    if pos + header_len > len(data):
        raise TruncatedPayload(pos + header_len, len(data))
    try:
        header = json.loads(data[pos:pos + header_len].decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError
        raise CheckpointError(f"checkpoint header is not UTF-8 JSON: {exc}") from None
    required = {"tensors", "payload_bytes", "model_config"}
    if not (isinstance(header, dict) and required <= header.keys()):
        raise CheckpointError(f"checkpoint header lacks one of {sorted(required)}")
    payload = data[pos + header_len:]
    if len(payload) < header["payload_bytes"]:
        raise TruncatedPayload(header["payload_bytes"], len(payload))
    tensors = _read_table(header["tensors"], payload)
    opt = None
    if header.get("optimizer_state") is not None:
        opt = _read_table(header["optimizer_state"], payload)
    try:
        model_config = ModelConfig(**header["model_config"])
    except (TypeError, ValueError) as exc:  # an unknown key, or a value out of range
        raise CheckpointError(f"checkpoint model_config is invalid: {exc}") from None
    return Checkpoint(
        model_config=model_config,
        tensors=tensors,
        metadata=header.get("metadata", {}),
        optimizer_state=opt,
    )
