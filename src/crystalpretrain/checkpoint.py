"""Binary checkpoint files.

Layout: 8-byte magic ``SPMATCKP``, u32 little-endian format version, u64
little-endian header length, UTF-8 JSON header (tensor names/shapes/offsets
plus metadata), then the raw little-endian float32 payload. Tensors are
stored in float32; in-memory training tensors are float64, so a round trip
costs one down/up conversion.
"""

from __future__ import annotations

import csv
import json
import math
import os
import struct
from dataclasses import asdict, dataclass, field
from pathlib import Path
from types import SimpleNamespace

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


def write_atomically(path, data: bytes) -> None:
    """Write data to a temporary file beside path, fsync it, then os.replace
    it onto path: a crash part-way leaves the previous file whole, and an
    exception removes the temporary file."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_csv(path, header, rows) -> None:
    """Write a header row and rows as CSV, atomically: lines end in \\n, a
    cell is quoted only when it holds a comma, a quote or a line break, and
    None is an empty cell."""
    lines = []
    # csv.writer quotes a line break only if its row end holds it, and writes
    # each row in one call: "\r\n" ends, each cut to "\n"
    writer = csv.writer(SimpleNamespace(write=lines.append), lineterminator="\r\n")
    writer.writerow(header)
    writer.writerows(rows)
    write_atomically(path, "".join(line[:-2] + "\n" for line in lines).encode("utf-8"))


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
    tables = [ckpt.tensors] + ([ckpt.optimizer_state] if ckpt.optimizer_state is not None else [])
    write_atomically(path, b"".join(
        [MAGIC, struct.pack("<I", VERSION), struct.pack("<Q", len(header_bytes)), header_bytes]
        + [np.ascontiguousarray(table[name], dtype="<f4").tobytes()
           for table in tables for name in sorted(table)]))


def _is_count(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool) and x >= 0


def _read_table(entries, payload: bytes) -> dict[str, np.ndarray]:
    """Tensors of one header table; every entry must hold a string name, a
    shape of counts and a byte offset, and end within the payload."""
    if not isinstance(entries, list):
        raise CheckpointError("checkpoint tensor table is not a list")
    out = {}
    for entry in entries:
        if not (isinstance(entry, dict) and isinstance(entry.get("name"), str)
                and isinstance(entry.get("shape"), list)
                and all(map(_is_count, entry["shape"])) and _is_count(entry.get("offset"))):
            raise CheckpointError(f"checkpoint tensor entry is invalid: {entry!r}")
        shape = tuple(entry["shape"])
        start = entry["offset"]
        end = start + 4 * math.prod(shape)
        if end > len(payload):
            raise CheckpointError(f"checkpoint tensor {entry['name']!r} ends at byte {end},"
                                  f" past payload_bytes {len(payload)}")
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
    payload_bytes = header["payload_bytes"]
    if not _is_count(payload_bytes):
        raise CheckpointError(f"checkpoint payload_bytes is not a count: {payload_bytes!r}")
    payload = data[pos + header_len:pos + header_len + payload_bytes]
    if len(payload) < payload_bytes:
        raise TruncatedPayload(payload_bytes, len(payload))
    if not isinstance(header.get("metadata", {}), dict):
        raise CheckpointError("checkpoint metadata is not a JSON object")
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
