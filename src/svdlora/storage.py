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

def _tensor_entries(s: AdapterSet):
    """(name, role, target, array) in canonical write order."""
    for tid in s.sorted_targets():
        a = s.adapters[tid]
        yield f"{tid}.B", "B", str(tid), a.B
        yield f"{tid}.E", "E", str(tid), a.E
        yield f"{tid}.A", "A", str(tid), a.A
    if s.head_w is not None:
        yield "head.weight", "head_w", None, s.head_w
        yield "head.bias", "head_b", None, s.head_b


def save_adapter_set(s: AdapterSet, path) -> None:
    entries = list(_tensor_entries(s))
    directory = []
    offset = 0
    for name, role, target, arr in entries:
        length = arr.size * 8
        directory.append({
            "name": name,
            "role": role,
            "target": target,
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
            for _, _, _, arr in entries:
                fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    except OSError as exc:
        raise OSError(f"failed to write adapter file {path}: {exc}") from exc


def _read_tensor(payload: bytes, name: str, shape: tuple[int, ...],
                 offset: int, length: int) -> np.ndarray:
    if any(dim < 0 for dim in shape):
        raise CorruptionError(f"tensor {name}: negative dimension in shape {shape}")
    expected = 8 * int(np.prod(shape)) if shape else 8
    if length != expected:
        raise CorruptionError(
            f"tensor {name}: declared length {length} != shape {shape} bytes {expected}"
        )
    raw = payload[offset:offset + length]
    if len(raw) != length:
        raise CorruptionError(f"tensor {name}: payload truncated")
    arr = np.frombuffer(raw, dtype="<f8").reshape(shape).astype(np.float64)
    if not np.all(np.isfinite(arr)):
        raise NumericError(f"tensor {name} contains non-finite values")
    return arr


def load_adapter_set(path) -> AdapterSet:
    """Load and fully validate an adapter file.

    Bad magic or version raises FormatError; inconsistent directories raise
    CorruptionError; non-finite payloads raise NumericError. Every read is
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
        signature = ModelSignature.from_dict(header["model_signature"])
        metadata = dict(header["metadata"])
    except (ValueError, KeyError, TypeError) as exc:
        raise CorruptionError(f"{path}: malformed header: {exc}") from exc

    payload = blob[_PREFIX.size + header_len:]
    tensors: dict[str, np.ndarray] = {}
    roles: dict[str, dict] = {}
    cursor = -1
    for entry in directory:
        try:
            offset, length = int(entry["offset"]), int(entry["length"])
            name = str(entry["name"])
            shape = tuple(int(v) for v in entry["shape"])
        except (KeyError, TypeError, ValueError) as exc:
            raise CorruptionError(f"{path}: malformed directory entry: {exc}") from exc
        if offset <= cursor:
            raise CorruptionError(f"{path}: directory offsets overlap at {name}")
        if length < 0 or offset + length > len(payload):
            raise CorruptionError(f"{path}: tensor {name} out of payload bounds")
        cursor = offset + length - 1
        tensors[name] = _read_tensor(payload, name, shape, offset, length)
        roles[name] = entry

    per_target: dict[TargetId, dict[str, np.ndarray]] = {}
    head_w = head_b = None
    for name, entry in roles.items():
        role = entry.get("role")
        if role in ("B", "E", "A"):
            try:
                tid = TargetId.parse(str(entry["target"]))
            except (KeyError, ValueError, AttributeError, ToolkitError) as exc:
                raise CorruptionError(f"{path}: bad target in entry {name}") from exc
            per_target.setdefault(tid, {})[role] = tensors[name]
        elif role == "head_w":
            head_w = tensors[name]
        elif role == "head_b":
            head_b = tensors[name]
        else:
            raise CorruptionError(f"{path}: unknown tensor role {role!r}")

    for tid, parts in per_target.items():
        if set(parts) != {"B", "E", "A"}:
            raise CorruptionError(f"{path}: incomplete factors for target {tid}")
    # Every tensor is finite by now, so a failed check here means the
    # header's shapes or targets do not fit together.
    try:
        adapters = {tid: SvdLoraAdapter(target=tid, **parts)
                    for tid, parts in per_target.items()}
        return AdapterSet(signature=signature, adapters=adapters,
                          head_w=head_w, head_b=head_b, metadata=metadata)
    except ToolkitError as exc:
        raise CorruptionError(f"{path}: inconsistent tensors: {exc}") from exc


# --- merge reports --------------------------------------------------------

def save_merge_report(report: MergeReport, path) -> None:
    Path(path).write_text(canonical_json(report.as_dict()) + "\n", encoding="utf-8")


def load_merge_report(path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))
