"""Bit-exact on-disk formats.

Adapter sets use a small safetensors-style container (see FORMAT.md):
magic "MLGO", a little-endian version and header length, a UTF-8 JSON
header carrying the tensor directory, then raw little-endian float64
payload in directory order, 8-byte aligned. Merge reports are canonical
JSON (sorted keys, no whitespace, floats in Python's shortest round-trip
form) so identical merges write byte-identical files.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
import struct
from pathlib import Path

import numpy as np

from .adapter import AdapterSet, ModelSignature, SvdLoraAdapter, TargetId
from .errors import CorruptionError, FormatError, NumericError, ToolkitError
from .merge import MergeReport

MAGIC = b"MLGO"
VERSION = 1
_PREFIX = struct.Struct("<4sIQ")  # magic, version, header length
_F8 = np.dtype("<f8")  # every tensor's payload type


# --- canonical JSON -------------------------------------------------------

def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, no whitespace, floats in shortest
    round-trip form."""
    try:
        return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)
    except ValueError:
        raise NumericError("cannot serialize non-finite float") from None


# --- adapter files --------------------------------------------------------

_HEAD_NAMES = {"head_w": "head.weight", "head_b": "head.bias"}
_ROLES = ("B", "E", "A", *_HEAD_NAMES)

# The header's schema: each JSON object's exact keys, and the JSON types each
# value may take. type() rather than isinstance() matches them, so that true
# and false never pass as integers. Each schema is kept as its types, a getter
# of its values in key order and every tuple of value types it allows.
def _schema(**types) -> tuple:
    return types, operator.itemgetter(*types), frozenset(itertools.product(*types.values()))


_HEADER = _schema(model_signature=(dict,), metadata=(dict,), tensors=(list,))
_SIGNATURE = _schema(embed_dim=(int,), num_layers=(int,), config_digest=(str,))
_ENTRY = _schema(name=(str,), role=(str,), target=(str, type(None)), shape=(list,),
                 offset=(int,), length=(int,))
_SHAPE_TYPES = ((int,), (int, int))  # of a shape's dimensions: one or two integers


def save_adapter_set(s: AdapterSet, path) -> None:
    directory = []
    arrays = []
    offset = 0
    for role, target, arr in s.tensors():
        arrays.append(np.ascontiguousarray(arr, dtype=_F8))
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


def _fields(obj, schema: tuple, where: str, *args) -> tuple:
    """``obj``'s values in ``schema``'s key order, once ``obj`` is a JSON
    object with exactly ``schema``'s keys and each value of one of its types;
    else CorruptionError, whose message starts with ``where.format(*args)``."""
    types, values_of, allowed = schema
    if type(obj) is not dict or obj.keys() != types.keys():
        raise CorruptionError(f"{where.format(*args)}: keys are not {sorted(types)}")
    values = values_of(obj)
    if tuple(map(type, values)) not in allowed:
        key = next(k for k, v in zip(types, values) if type(v) not in types[k])
        raise CorruptionError(f"{where.format(*args)}: {key} has type "
                              f"{type(obj[key]).__name__}")
    return values


def _check_header(header, payload_size: int, path):
    """Check a parsed header against the one schema in FORMAT.md, before
    any tensor is read. Returns the signature's fields, the metadata and
    the directory as ``(role, target, shape, offset)``, where ``target`` is
    a :class:`TargetId`, or None for the head."""
    sig, metadata, entries = _fields(header, _HEADER, "{}: malformed header", path)
    _fields(sig, _SIGNATURE, "{}: malformed header: model_signature", path)
    if not set(map(type, metadata.values())) <= {str}:
        raise CorruptionError(f"{path}: malformed header: a metadata value is no string")
    directory, seen, end = [], set(), 0
    for i, entry in enumerate(entries):
        name, role, target, shape, offset, length = _fields(
            entry, _ENTRY, "{}: malformed directory entry {}", path, i)
        # One or two dimensions, none below 1: a shape that holds no element
        # could still name more than numpy can describe.
        if tuple(map(type, shape)) not in _SHAPE_TYPES or min(shape) < 1:
            raise CorruptionError(
                f"{path}: malformed directory entry {i}: shape {shape} is not one or two "
                "positive integers (a zero or negative dimension, or a non-integer)")
        if role not in _ROLES or (target is None) != (role in _HEAD_NAMES):
            raise CorruptionError(
                f"{path}: entry {name}: {role!r} is not a role for target {target!r}")
        try:
            owner = None if target is None else TargetId.parse(target)
        except (ValueError, ToolkitError) as exc:
            raise CorruptionError(f"{path}: bad target {target!r} in entry {name}") from exc
        # A parsed target is spelled one way only, so its text stands for it.
        slot = (role, target)
        if name in seen or slot in seen:
            raise CorruptionError(f"{path}: duplicate {role} of {target or 'the head'}: {name}")
        seen.update((name, slot))
        if offset < end:
            raise CorruptionError(f"{path}: directory offsets overlap at {name}")
        end = offset + length
        if length < 0 or end > payload_size:
            raise CorruptionError(f"{path}: tensor {name} out of payload bounds")
        if length != 8 * math.prod(shape):
            raise CorruptionError(f"{path}: tensor {name}: declared length {length} "
                                  f"!= shape {shape} bytes {8 * math.prod(shape)}")
        directory.append((role, owner, tuple(shape), offset))
    return sig, metadata, directory


def _unique_keys(pairs: list) -> dict:
    """A JSON object's dict, or ValueError if it repeats a key."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        raise ValueError("repeated key in a JSON object")
    return obj


_HEADER_DECODER = json.JSONDecoder(object_pairs_hook=_unique_keys)


def load_adapter_set(path) -> AdapterSet:
    """Load and fully validate an adapter file: FormatError for a bad magic
    or version, CorruptionError for a header that breaks the schema or for
    contents the constructors reject, except for their NumericError on a
    non-finite value, which stays a NumericError and gains the path."""
    with open(path, "rb") as fh:
        blob = fh.read()
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
        header = _HEADER_DECODER.decode(blob[_PREFIX.size:start].decode("utf-8"))
    except ValueError as exc:
        raise CorruptionError(f"{path}: malformed header: {exc}") from exc
    sig_fields, metadata, directory = _check_header(header, len(blob) - start, path)

    # The one copy of the payload: every tensor is a view of its own byte
    # range, so loaded arrays are writable and share no memory.
    payload = bytearray(memoryview(blob)[start:])
    per_target: dict[TargetId, dict[str, np.ndarray]] = {}
    head: dict[str, np.ndarray] = {}
    for role, target, shape, offset in directory:
        arr = np.ndarray(shape, _F8, payload, offset)  # a view: shape, dtype, buffer, offset
        (head if target is None else per_target.setdefault(target, {}))[role] = arr
    for tid, parts in per_target.items():
        if len(parts) != 3:  # roles are unique per target, so B, E and A
            raise CorruptionError(f"{path}: incomplete factors for target {tid}")
    # The constructors check the signature's range, the tensors' contents
    # and how shapes and targets fit together.
    try:
        signature = ModelSignature(**sig_fields)
        adapters = {tid: SvdLoraAdapter(target=tid, **parts)
                    for tid, parts in per_target.items()}
        return AdapterSet(signature=signature, adapters=adapters,
                          head_w=head.get("head_w"), head_b=head.get("head_b"),
                          metadata=metadata)
    except NumericError as exc:
        raise NumericError(f"{path}: {exc}") from exc
    except ToolkitError as exc:
        raise CorruptionError(f"{path}: inconsistent contents: {exc}") from exc


# --- merge reports --------------------------------------------------------

def save_merge_report(report: MergeReport, path) -> None:
    Path(path).write_text(canonical_json(report.as_dict()) + "\n", encoding="utf-8")
