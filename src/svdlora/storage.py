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
_ROLES = ("B", "E", "A", *_HEAD_NAMES)

# The header's schema: each JSON object's exact keys, and the JSON types each
# value may take. type() rather than isinstance() matches them, so that true
# and false never pass as integers.
_HEADER = {"model_signature": (dict,), "metadata": (dict,), "tensors": (list,)}
_SIGNATURE = {"embed_dim": (int,), "num_layers": (int,), "config_digest": (str,)}
_ENTRY = {"name": (str,), "role": (str,), "target": (str, type(None)),
          "shape": (list,), "offset": (int,), "length": (int,)}


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


def _fields(obj, schema: dict, where: str) -> list:
    """``obj``'s values in ``schema`` order, once ``obj`` is a JSON object
    with exactly ``schema``'s keys and each value of one of its types."""
    if type(obj) is not dict or obj.keys() != schema.keys():
        raise CorruptionError(f"{where}: keys are not {sorted(schema)}")
    for key, types in schema.items():
        if type(obj[key]) not in types:
            raise CorruptionError(f"{where}: {key} has type {type(obj[key]).__name__}")
    return [obj[key] for key in schema]


def _check_header(header, payload_size: int, path):
    """Check a parsed header against the one schema in FORMAT.md, before
    any tensor is read. Returns the signature, the metadata and the
    directory as ``(name, role, target, shape, offset)``, where ``target``
    is a :class:`TargetId`, or None for the head."""
    sig, metadata, entries = _fields(header, _HEADER, f"{path}: malformed header")
    _fields(sig, _SIGNATURE, f"{path}: malformed header: model_signature")
    if not all(type(v) is str for v in metadata.values()):
        raise CorruptionError(f"{path}: malformed header: a metadata value is no string")
    directory, seen, end = [], set(), 0
    for i, entry in enumerate(entries):
        where = f"{path}: malformed directory entry {i}"
        name, role, target, shape, offset, length = _fields(entry, _ENTRY, where)
        # One or two dimensions, none below 1: a shape that holds no element
        # could still name more than numpy can describe.
        if not (1 <= len(shape) <= 2 and all(type(n) is int and n >= 1 for n in shape)):
            raise CorruptionError(f"{where}: shape {shape} is not one or two positive "
                                  "integers (a zero or negative dimension, or a non-integer)")
        if role not in _ROLES or (target is None) != (role in _HEAD_NAMES):
            raise CorruptionError(
                f"{path}: entry {name}: {role!r} is not a role for target {target!r}")
        try:
            owner = None if target is None else TargetId.parse(target)
        except (ValueError, ToolkitError) as exc:
            raise CorruptionError(f"{path}: bad target {target!r} in entry {name}") from exc
        if name in seen or (role, owner) in seen:
            raise CorruptionError(f"{path}: duplicate {role} of {owner or 'the head'}: {name}")
        seen.update((name, (role, owner)))
        if offset < end:
            raise CorruptionError(f"{path}: directory offsets overlap at {name}")
        end = offset + length
        if length < 0 or end > payload_size:
            raise CorruptionError(f"{path}: tensor {name} out of payload bounds")
        if length != 8 * math.prod(shape):
            raise CorruptionError(f"{path}: tensor {name}: declared length {length} "
                                  f"!= shape {shape} bytes {8 * math.prod(shape)}")
        directory.append((name, role, owner, tuple(shape), offset))
    return ModelSignature(**sig), metadata, directory


def load_adapter_set(path) -> AdapterSet:
    """Load and fully validate an adapter file: FormatError for a bad magic
    or version, CorruptionError for a header that breaks the schema or for
    adapters that do not fit the signature, NumericError for a non-finite
    value in any tensor."""
    blob = Path(path).read_bytes()
    if len(blob) < _PREFIX.size:
        raise CorruptionError(f"{path}: file shorter than header prefix")
    magic, version, header_len = _PREFIX.unpack_from(blob)
    if magic != MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
    if version != VERSION:
        raise FormatError(f"{path}: unsupported version {version}, supported: {VERSION}")
    start = _PREFIX.size + header_len
    if start > len(blob):
        raise CorruptionError(f"{path}: declared header length {header_len} exceeds file")
    try:
        header = json.loads(blob[_PREFIX.size:start].decode("utf-8"))
    except ValueError as exc:
        raise CorruptionError(f"{path}: malformed header: {exc}") from exc
    signature, metadata, directory = _check_header(header, len(blob) - start, path)

    # The one copy of the payload: every tensor is a view of its own byte
    # range, so loaded arrays are writable and share no memory.
    payload = bytearray(memoryview(blob)[start:])
    per_target: dict[TargetId, dict[str, np.ndarray]] = {}
    head: dict[str, np.ndarray] = {}
    for name, role, target, shape, offset in directory:
        arr = np.frombuffer(payload, dtype="<f8", count=math.prod(shape),
                            offset=offset).reshape(shape)
        if not np.isfinite(arr).all():
            raise NumericError(f"tensor {name} contains non-finite values")
        (head if target is None else per_target.setdefault(target, {}))[role] = arr
    for tid, parts in per_target.items():
        if len(parts) != 3:  # roles are unique per target, so B, E and A
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
