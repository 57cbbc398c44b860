"""Bit-exact on-disk formats.

Adapter sets use a small safetensors-style container (see FORMAT.md):
magic "MLGO", a little-endian version and header length, a UTF-8 JSON
header carrying the tensor directory, then raw little-endian float64
payload in directory order, 8-byte aligned. Merge reports are canonical
JSON (sorted keys, 17-significant-digit floats) so identical merges write
byte-identical files.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np

from .adapter import AdapterSet, ModelSignature, SvdLoraAdapter, TargetId
from .errors import CorruptionError, FormatError, NumericError, ToolkitError
from .merge import MergeReport

MAGIC = b"MLGO"
VERSION = 1
_PREFIX = struct.Struct("<4sIQ")  # magic, version, header length


# --- canonical JSON -------------------------------------------------------

def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, floats at 17 significant digits."""
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise NumericError("cannot serialize non-finite float")
        return format(obj, ".17g")
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=True)
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(canonical_json(v) for v in obj) + "]"
    if isinstance(obj, dict):
        items = sorted(obj.items())
        return "{" + ",".join(
            json.dumps(str(k), ensure_ascii=True) + ":" + canonical_json(v)
            for k, v in items
        ) + "}"
    raise TypeError(f"cannot serialize {type(obj)!r}")


# --- adapter files --------------------------------------------------------

_HEAD_NAMES = {"head_w": "head.weight", "head_b": "head.bias"}


def save_adapter_set(s: AdapterSet, path) -> None:
    directory = []
    arrays = []
    offset = 0
    for role, target, arr in s.tensors():
        arrays.append(np.ascontiguousarray(arr, dtype="<f8"))
        length = arr.size * 8
        directory.append({
            "name": _HEAD_NAMES[role] if target is None else f"{target}.{role}",
            "role": role,
            "target": None if target is None else str(target),
            "shape": list(arr.shape),
            "offset": offset,
            "length": length,
        })
        offset += length
    header = {
        "model_signature": s.signature.as_dict(),
        "metadata": {str(k): str(v) for k, v in s.metadata.items()},
        "tensors": directory,
    }
    header_bytes = canonical_json(header).encode("utf-8")
    pad = (-len(header_bytes)) % 8  # prefix is 16 bytes, keep payload aligned
    header_bytes += b" " * pad
    try:
        with open(path, "wb") as fh:
            fh.write(_PREFIX.pack(MAGIC, VERSION, len(header_bytes)))
            fh.write(header_bytes)
            fh.write(b"".join(arrays))
    except OSError as exc:
        raise OSError(f"failed to write adapter file {path}: {exc}") from exc


def _read_tensor(payload: bytearray, name: str, shape: tuple[int, ...],
                 offset: int, length: int) -> np.ndarray:
    """The tensor as a view of its own bytes of ``payload``; the caller has
    checked that those bytes lie inside the payload."""
    if any(dim < 0 for dim in shape):
        raise CorruptionError(f"tensor {name}: negative dimension in shape {shape}")
    expected = 8 * math.prod(shape)
    if length != expected:
        raise CorruptionError(
            f"tensor {name}: declared length {length} != shape {shape} bytes {expected}"
        )
    arr = np.frombuffer(payload, dtype="<f8", count=length // 8,
                        offset=offset).reshape(shape)
    if not np.isfinite(arr).all():
        raise NumericError(f"tensor {name} contains non-finite values")
    return arr


def load_adapter_set(path) -> AdapterSet:
    """Load and fully validate an adapter file.

    Bad magic or version raises FormatError; inconsistent directories, and
    adapters that do not fit the signature, raise CorruptionError; a
    non-finite value in any tensor raises NumericError. Every read is
    bounds-checked against the declared directory.
    """
    blob = Path(path).read_bytes()
    if len(blob) < _PREFIX.size:
        raise CorruptionError(f"{path}: file shorter than header prefix")
    magic, version, header_len = _PREFIX.unpack_from(blob)
    if magic != MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
    if version != VERSION:
        raise FormatError(f"{path}: unsupported version {version}, supported: {VERSION}")
    if _PREFIX.size + header_len > len(blob):
        raise CorruptionError(f"{path}: declared header length {header_len} exceeds file")
    try:
        header = json.loads(blob[_PREFIX.size:_PREFIX.size + header_len].decode("utf-8"))
        directory = list(header["tensors"])
        sig, metadata = header["model_signature"], header["metadata"]
        # type() rather than isinstance(): a JSON true must not pass as 1
        if not (type(sig["embed_dim"]) is int and type(sig["num_layers"]) is int
                and isinstance(sig["config_digest"], str)):
            raise TypeError(f"model signature fields have the wrong types: {sig}")
        if not (isinstance(metadata, dict)
                and all(isinstance(v, str) for v in metadata.values())):
            raise TypeError("metadata must map strings to strings")
        signature = ModelSignature(sig["embed_dim"], sig["num_layers"], sig["config_digest"])
    except (ValueError, KeyError, TypeError) as exc:
        raise CorruptionError(f"{path}: malformed header: {exc}") from exc

    # The one copy of the payload: every tensor is a view of its own byte
    # range, so loaded arrays are writable and share no memory.
    payload = bytearray(memoryview(blob)[_PREFIX.size + header_len:])
    tensors: dict[str, np.ndarray] = {}
    roles: dict[str, dict] = {}
    cursor = -1
    for entry in directory:
        try:
            offset, length = entry["offset"], entry["length"]
            name = str(entry["name"])
            shape = tuple(entry["shape"])
            if not all(type(v) is int for v in (offset, length, *shape)):
                raise TypeError("offset, length and shape must be JSON integers")
        except (KeyError, TypeError) as exc:
            raise CorruptionError(f"{path}: malformed directory entry: {exc}") from exc
        if name in tensors:
            raise CorruptionError(f"{path}: duplicate tensor name {name}")
        if offset <= cursor:
            raise CorruptionError(f"{path}: directory offsets overlap at {name}")
        if length < 0 or offset + length > len(payload):
            raise CorruptionError(f"{path}: tensor {name} out of payload bounds")
        cursor = offset + length - 1
        tensors[name] = _read_tensor(payload, name, shape, offset, length)
        roles[name] = entry

    per_target: dict[TargetId, dict[str, np.ndarray]] = {}
    head: dict[str, np.ndarray] = {}
    for name, entry in roles.items():
        role = entry.get("role")
        if role in ("B", "E", "A"):
            try:
                tid = TargetId.parse(str(entry["target"]))
            except (KeyError, ValueError, AttributeError, ToolkitError) as exc:
                raise CorruptionError(f"{path}: bad target in entry {name}") from exc
            parts = per_target.setdefault(tid, {})
        elif role in ("head_w", "head_b"):
            parts = head
        else:
            raise CorruptionError(f"{path}: unknown tensor role {role!r}")
        if role in parts:
            raise CorruptionError(f"{path}: duplicate {role} tensor {name}")
        parts[role] = tensors[name]

    for tid, parts in per_target.items():
        if set(parts) != {"B", "E", "A"}:
            raise CorruptionError(f"{path}: incomplete factors for target {tid}")
    # Every tensor is finite by now, so a failed check here means the
    # header's shapes or targets do not fit together.
    try:
        adapters = {tid: SvdLoraAdapter(target=tid, **parts)
                    for tid, parts in per_target.items()}
        return AdapterSet(signature=signature, adapters=adapters,
                          head_w=head.get("head_w"), head_b=head.get("head_b"),
                          metadata=metadata)
    except ToolkitError as exc:
        raise CorruptionError(f"{path}: inconsistent tensors: {exc}") from exc


# --- merge reports --------------------------------------------------------

def save_merge_report(report: MergeReport, path) -> None:
    Path(path).write_text(canonical_json(report.as_dict()) + "\n", encoding="utf-8")


def load_merge_report(path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))
