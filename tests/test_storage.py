import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from svdlora import storage
from svdlora.adapter import (AdapterSet, ModelSignature, SvdLoraAdapter,
                             TargetId)
from svdlora.errors import CorruptionError, FormatError, NumericError
from svdlora.merge import MergeConfig, MergeReport, TargetRecord

DUP = "\x00"


def build_set(seed=0, d=8, layers=2, rank=3, classes=4, with_head=True):
    rng = np.random.default_rng(seed)
    adapters = {}
    for layer in range(layers):
        for slot in ("Q", "V"):
            t = TargetId(layer, slot)
            adapters[t] = SvdLoraAdapter(
                target=t,
                B=rng.standard_normal((d, rank)),
                E=rng.standard_normal(rank),
                A=rng.standard_normal((rank, d)),
            )
    head_w = rng.standard_normal((d, classes)) if with_head else None
    head_b = rng.standard_normal(classes) if with_head else None
    return AdapterSet(
        signature=ModelSignature(d, layers, "abcd1234"),
        adapters=adapters, head_w=head_w, head_b=head_b,
        metadata={"task": f"t{seed}", "seed": str(seed)},
    )


class TestRoundTrip:
    def test_bitwise_fidelity(self, tmp_path):
        s = build_set(7)
        path = tmp_path / "a.mlgo"
        storage.save_adapter_set(s, path)
        loaded = storage.load_adapter_set(path)
        assert loaded.signature == s.signature
        assert loaded.metadata == {k: str(v) for k, v in s.metadata.items()}
        for t in s.adapters:
            for name in ("B", "E", "A"):
                assert np.array_equal(getattr(loaded.adapters[t], name),
                                      getattr(s.adapters[t], name))
        assert np.array_equal(loaded.head_w, s.head_w)
        assert np.array_equal(loaded.head_b, s.head_b)

    def test_head_only_file(self, tmp_path):
        rng = np.random.default_rng(1)
        s = AdapterSet(signature=ModelSignature(8, 2, "x"), adapters={},
                       head_w=rng.standard_normal((8, 3)),
                       head_b=rng.standard_normal(3))
        path = tmp_path / "h.mlgo"
        storage.save_adapter_set(s, path)
        loaded = storage.load_adapter_set(path)
        assert loaded.adapters == {}
        assert np.array_equal(loaded.head_w, s.head_w)

    def test_headless_file(self, tmp_path):
        s = build_set(3, with_head=False)
        path = tmp_path / "m.mlgo"
        storage.save_adapter_set(s, path)
        assert storage.load_adapter_set(path).head_w is None

    def test_file_size_formula(self, tmp_path):
        # d=32, L=2, r=4, Q+V, head 32x3(+3): payload is exactly the tensor
        # bytes; total = 16-byte prefix + padded header + payload
        s = build_set(0, d=32, layers=2, rank=4, classes=3)
        path = tmp_path / "s.mlgo"
        storage.save_adapter_set(s, path)
        blob = path.read_bytes()
        _, _, header_len = struct.unpack_from("<4sIQ", blob)
        payload = 8 * (2 * 2 * (32 * 4 + 4 + 4 * 32) + 32 * 3 + 3)
        assert len(blob) == 16 + header_len + payload
        assert header_len % 8 == 0  # payload stays 8-byte aligned

    @pytest.mark.parametrize("with_head", [True, False])
    def test_directory_follows_tensor_order(self, tmp_path, with_head):
        s = build_set(4, with_head=with_head)
        path = tmp_path / "o.mlgo"
        storage.save_adapter_set(s, path)
        blob = path.read_bytes()
        _, _, header_len = struct.unpack_from("<4sIQ", blob)
        directory = json.loads(blob[16:16 + header_len])["tensors"]
        assert len(directory) == 4 * 3 + 2 * with_head
        assert [(e["role"], e["target"], e["shape"]) for e in directory] == [
            (role, None if tid is None else str(tid), list(arr.shape))
            for role, tid, arr in s.tensors()]
        offsets = [e["offset"] for e in directory]
        assert all(a < b for a, b in zip(offsets, offsets[1:]))

    def test_loaded_tensors_are_separate_writable_arrays(self, tmp_path):
        path = tmp_path / "w.mlgo"
        storage.save_adapter_set(build_set(6), path)
        arrays = [arr for _, _, arr in storage.load_adapter_set(path).tensors()]
        assert len(arrays) == 14
        for arr in arrays:
            assert arr.dtype == np.float64
            assert arr.flags.c_contiguous and arr.flags.writeable
        assert not any(np.shares_memory(a, b)
                       for i, a in enumerate(arrays) for b in arrays[i + 1:])

    def test_unaligned_offsets_load_the_same_values(self, tmp_path):
        # The writer aligns every tensor to 8 bytes; FORMAT.md does not
        # require it, so a file with a 3-byte gap before the first tensor
        # still loads.
        s = build_set(8)
        path = tmp_path / "u.mlgo"
        storage.save_adapter_set(s, path)
        blob = path.read_bytes()
        magic, version, header_len = struct.unpack_from("<4sIQ", blob)
        header = json.loads(blob[16:16 + header_len])
        for entry in header["tensors"]:
            entry["offset"] += 3
        raw = json.dumps(header).encode()
        raw += b" " * ((-len(raw)) % 8)
        path.write_bytes(struct.pack("<4sIQ", magic, version, len(raw)) + raw
                         + b"\0\0\0" + blob[16 + header_len:])
        loaded = storage.load_adapter_set(path)
        assert [(role, tid) for role, tid, _ in loaded.tensors()] == \
            [(role, tid) for role, tid, _ in s.tensors()]
        for (_, _, got), (_, _, want) in zip(loaded.tensors(), s.tensors()):
            assert np.array_equal(got, want)
        assert loaded.digest() == s.digest()

    def test_save_is_deterministic(self, tmp_path):
        s = build_set(5)
        p1, p2 = tmp_path / "1.mlgo", tmp_path / "2.mlgo"
        storage.save_adapter_set(s, p1)
        storage.save_adapter_set(s, p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestCorruption:
    @pytest.fixture()
    def saved(self, tmp_path):
        path = tmp_path / "a.mlgo"
        storage.save_adapter_set(build_set(2), path)
        return path

    def test_truncated_payload(self, saved):
        blob = saved.read_bytes()
        saved.write_bytes(blob[:-50])
        with pytest.raises(CorruptionError):
            storage.load_adapter_set(saved)

    def test_bad_magic(self, saved):
        blob = bytearray(saved.read_bytes())
        blob[:4] = b"NOPE"
        saved.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="magic"):
            storage.load_adapter_set(saved)

    def test_future_version(self, saved):
        blob = bytearray(saved.read_bytes())
        struct.pack_into("<I", blob, 4, 2)
        saved.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="supported"):
            storage.load_adapter_set(saved)

    def _rewrite_header(self, saved, mutate):
        """Rewrite the header with ``mutate``; bytes it returns are appended
        to the payload. A key ending in ``DUP`` is written without it, so
        that an object can repeat a key."""
        blob = saved.read_bytes()
        magic, version, header_len = struct.unpack_from("<4sIQ", blob)
        header = json.loads(blob[16:16 + header_len].decode())
        payload = blob[16 + header_len:]
        extra = mutate(header)
        if isinstance(extra, bytes):
            payload += extra
        raw = json.dumps(header).replace(r'\u0000"', '"').encode()
        raw += b" " * ((-len(raw)) % 8)
        saved.write_bytes(struct.pack("<4sIQ", magic, version, len(raw)) + raw + payload)

    def test_overlapping_directory(self, saved):
        def overlap(header):
            header["tensors"][1]["offset"] = header["tensors"][0]["offset"]
        self._rewrite_header(saved, overlap)
        with pytest.raises(CorruptionError, match="overlap"):
            storage.load_adapter_set(saved)

    def test_out_of_bounds_entry(self, saved):
        def oob(header):
            header["tensors"][-1]["offset"] = 10**9
        self._rewrite_header(saved, oob)
        with pytest.raises(CorruptionError, match="bounds"):
            storage.load_adapter_set(saved)

    def test_shape_length_mismatch(self, saved):
        def bad_shape(header):
            header["tensors"][0]["shape"] = [1, 1]
        self._rewrite_header(saved, bad_shape)
        with pytest.raises(CorruptionError, match="length"):
            storage.load_adapter_set(saved)

    @pytest.mark.parametrize("mutate", [
        lambda entry: entry.pop("shape"),
        lambda entry: entry.__setitem__("shape", "x"),
        lambda entry: entry.__setitem__("shape", 3),
        lambda entry: entry.__setitem__("shape", [float(v) for v in entry["shape"]]),
        lambda entry: entry.__setitem__("offset", 0.5),
        lambda entry: entry.__setitem__("offset", False),
        lambda entry: entry.__setitem__("length", str(entry["length"])),
    ], ids=["missing", "non-integer", "not-a-list", "float-dims", "float-offset",
            "bool-offset", "string-length"])
    def test_malformed_shape(self, saved, mutate):
        self._rewrite_header(saved, lambda header: mutate(header["tensors"][0]))
        with pytest.raises(CorruptionError, match="malformed directory entry"):
            storage.load_adapter_set(saved)

    @staticmethod
    def _retarget_layer0_q(target):
        def mutate(header):
            for entry in header["tensors"]:
                if entry["target"] == "layer0.Q":
                    entry["target"] = target
        return mutate

    @staticmethod
    def _retarget_head(target):
        def mutate(header):
            next(e for e in header["tensors"] if e["role"] == "head_w")["target"] = target
        return mutate

    @staticmethod
    def _negate_first_shape(header):
        entry = header["tensors"][0]
        entry["shape"] = [-dim for dim in entry["shape"]]  # same product

    @staticmethod
    def _head_bias_as_row(header):
        entry = next(e for e in header["tensors"] if e["role"] == "head_b")
        entry["shape"] = [1] + entry["shape"]  # same length, wrong rank

    @staticmethod
    def _append_second(role, name):
        """Append another ``role`` tensor for the owner of the first one, with
        its own payload of threes."""
        def mutate(header):
            entries = header["tensors"]
            first = next(e for e in entries if e["role"] == role)
            end = entries[-1]["offset"] + entries[-1]["length"]
            entries.append(dict(first, name=name, offset=end))
            return np.full(first["length"] // 8, 3.0).astype("<f8").tobytes()
        return mutate

    @staticmethod
    def _set_signature(field, value):
        return lambda header: header["model_signature"].__setitem__(field, value)

    @staticmethod
    def _repeat_tensors_headless(header):
        header["tensors" + DUP] = [
            e for e in header["tensors"] if e["target"] is not None]

    @pytest.mark.parametrize("mutate, match", [
        (_negate_first_shape, "negative dimension"),
        (_retarget_layer0_q("layer-1.Q"), "bad target"),
        (_retarget_layer0_q("layer5.Q"), "out of range"),
        (_head_bias_as_row, "head bias shape"),
        (lambda header: header["tensors"][0].pop("target"), "malformed directory entry"),
        (_retarget_layer0_q("layer00.Q"), "bad target"),
        (_retarget_head("layer0.Q"), "not a role for target"),
        (lambda header: header["tensors"][0].__setitem__("dtype", "f4"),
         "malformed directory entry"),
        (lambda header: header.__setitem__("format", "x"), "malformed header"),
        (lambda header: header["tensors"][0].update(shape=[0, 10**30], length=0),
         "zero or negative dimension"),
        (lambda header: header["tensors"][0].update(shape=[1] * 70, length=8),
         "not one or two"),
        (lambda header: header.__setitem__("tensors", None), "malformed header"),
        (lambda header: header.__setitem__("tensors", 5), "malformed header"),
        (lambda header: header.__setitem__("tensors", True), "malformed header"),
        (_append_second("B", "layer0.Q.B"), "duplicate"),
        (_append_second("B", "layer0.Q.B2"), "duplicate"),
        (_append_second("head_b", "head.bias2"), "duplicate"),
        (lambda header: header["metadata"].__setitem__("k", 5), "malformed header"),
        (lambda header: header.__setitem__("metadata", [["k", "v"]]), "malformed header"),
        (_set_signature("embed_dim", "8"), "malformed header"),
        (_set_signature("embed_dim", True), "malformed header"),
        (_set_signature("num_layers", 2.0), "malformed header"),
        (_set_signature("config_digest", 5), "malformed header"),
        (_set_signature("embed_dim", 16), r"layer0\.Q has shape \(8, 8\)"),
        (_repeat_tensors_headless, "repeated key"),
        (lambda header: header["tensors"][0].__setitem__(
            "offset" + DUP, header["tensors"][0]["offset"]), "repeated key"),
        (_set_signature("embed_dim" + DUP, 8), "repeated key"),
        (lambda header: header.update(
            tensors=[], model_signature=dict(header["model_signature"], embed_dim=-5,
                                             num_layers=0)), "must be positive"),
    ], ids=["negative-shape", "negative-layer", "layer-out-of-range",
            "head-bias-shape", "missing-target", "non-canonical-target", "head-with-target",
            "extra-entry-key", "extra-header-key", "empty-shape-beyond-numpy",
            "seventy-dims", "tensors-null", "tensors-number",
            "tensors-bool", "duplicate-name", "duplicate-role", "duplicate-head-role",
            "metadata-int", "metadata-pairs", "embed-dim-string", "embed-dim-bool",
            "num-layers-float", "digest-int", "adapter-shape-vs-signature",
            "repeated-tensors", "repeated-offset", "repeated-embed-dim",
            "non-positive-signature"])
    def test_inconsistent_header(self, saved, mutate, match):
        self._rewrite_header(saved, mutate)
        with pytest.raises(CorruptionError, match=match):
            storage.load_adapter_set(saved)

    def test_schema_mutation_sweep(self, saved):
        """Each field of the header, the signature and every directory entry
        is dropped, retyped or given a sibling key, and each entry is
        duplicated: every such file raises CorruptionError, except for the
        values the schema allows (new free text, or an empty metadata map or
        directory), which load."""
        original = saved.read_bytes()
        header = json.loads(original[16:16 + struct.unpack_from("<4sIQ", original)[2]])
        cases = [("the unchanged header", lambda h: None, True)]
        objects = {"header": lambda h: h, "model_signature": lambda h: h["model_signature"]}
        objects.update({f"tensors[{i}]": lambda h, i=i: h["tensors"][i]
                        for i in range(len(header["tensors"]))})
        for label, get in objects.items():
            for key, old in get(header).items():
                cases.append((f"{label} without {key}",
                              lambda h, get=get, key=key: get(h).pop(key), False))
                for value in (None, 1.5, True, "x", [], {}):
                    if json.dumps(value) == json.dumps(old):
                        continue  # a head entry's null target
                    loads = (value == "x" and key in ("name", "config_digest")
                             or (key, value) in (("metadata", {}), ("tensors", [])))
                    cases.append((f"{label}.{key} = {value!r}", lambda h, get=get, key=key,
                                  value=value: get(h).__setitem__(key, value), loads))
            cases.append((f"{label} with a sibling key",
                          lambda h, get=get: get(h).__setitem__("x", 0), False))
        for i in range(len(header["tensors"])):
            cases.append((f"tensors[{i}] twice",
                          lambda h, i=i: h["tensors"].insert(i, dict(h["tensors"][i])), False))
        for key in header["metadata"]:
            for value in (None, 1.5, True, "x", [], {}):
                cases.append((f"metadata.{key} = {value!r}", lambda h, key=key, value=value:
                              h["metadata"].__setitem__(key, value), value == "x"))

        def loads(mutate):
            saved.write_bytes(original)
            self._rewrite_header(saved, mutate)
            try:
                storage.load_adapter_set(saved)
            except CorruptionError:
                return False
            return True

        assert len(cases) > 600
        assert [label for label, mutate, ok in cases if loads(mutate) != ok] == []

    def test_nan_payload(self, saved):
        blob = bytearray(saved.read_bytes())
        _, _, header_len = struct.unpack_from("<4sIQ", blob)
        struct.pack_into("<d", blob, 16 + header_len, float("nan"))
        saved.write_bytes(bytes(blob))
        with pytest.raises(NumericError) as exc:
            storage.load_adapter_set(saved)
        assert str(exc.value).startswith(f"{saved}: tensor layer0.Q.B contains non-finite")

    def test_nan_in_second_tensor_names_it(self, saved):
        blob = bytearray(saved.read_bytes())
        _, _, header_len = struct.unpack_from("<4sIQ", blob)
        second = json.loads(blob[16:16 + header_len])["tensors"][1]
        assert second["name"] == "layer0.Q.E"
        struct.pack_into("<d", blob, 16 + header_len + second["offset"] + 8,
                         float("inf"))
        saved.write_bytes(bytes(blob))
        with pytest.raises(NumericError, match="tensor layer0.Q.E contains non-finite") as exc:
            storage.load_adapter_set(saved)
        assert str(exc.value).startswith(f"{saved}: ")

    def _poison(self, saved, role):
        """Write infinity into the first element of the first ``role`` tensor."""
        blob = bytearray(saved.read_bytes())
        _, _, header_len = struct.unpack_from("<4sIQ", blob)
        entry = next(e for e in json.loads(blob[16:16 + header_len])["tensors"]
                     if e["role"] == role)
        struct.pack_into("<d", blob, 16 + header_len + entry["offset"], float("inf"))
        saved.write_bytes(bytes(blob))

    @pytest.mark.parametrize("role", ["head_w", "head_b"])
    def test_non_finite_head_names_it(self, saved, role):
        self._poison(saved, role)
        with pytest.raises(NumericError, match=f"tensor {role} contains non-finite") as exc:
            storage.load_adapter_set(saved)
        assert str(exc.value).startswith(f"{saved}: ")

    def test_first_failed_check_wins(self, saved):
        """Adapters are checked before the set: a non-finite factor beats a
        misshapen head, and an adapter unfit for the signature beats a
        non-finite head."""
        original = saved.read_bytes()
        self._poison(saved, "B")
        self._rewrite_header(saved, self._head_bias_as_row)
        with pytest.raises(NumericError, match="tensor layer0.Q.B"):
            storage.load_adapter_set(saved)
        saved.write_bytes(original)
        self._poison(saved, "head_w")
        self._rewrite_header(saved, self._set_signature("embed_dim", 16))
        with pytest.raises(CorruptionError, match="layer0.Q has shape"):
            storage.load_adapter_set(saved)

    def test_incomplete_target(self, saved):
        def drop(header):
            dropped = header["tensors"].pop(0)  # a B tensor
            assert dropped["role"] == "B"
        self._rewrite_header(saved, drop)
        with pytest.raises(CorruptionError, match="incomplete"):
            storage.load_adapter_set(saved)


class TestCanonicalJson:
    def test_sorted_keys_and_float_format(self):
        text = storage.canonical_json({"b": 0.1, "a": [1, True, None]})
        assert text == '{"a":[1,true,null],"b":0.1}'  # shortest round-trip float

    @pytest.mark.parametrize("v", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_rejected(self, v):
        with pytest.raises(NumericError, match="non-finite float"):
            storage.canonical_json({"spectrum": [1.0, v]})

    def test_deterministic(self):
        obj = {"x": [0.1, 2, "s"], "y": {"k": 1e-17}}
        assert storage.canonical_json(obj) == storage.canonical_json(obj)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_floats_round_trip(self, v):
        assert json.loads(storage.canonical_json(v)) == v


class TestMergeReportIo:
    def _report(self):
        return MergeReport(
            config=MergeConfig(),
            input_digests=["d1", "d2"],
            records=[TargetRecord(target=TargetId(0, "Q"), input_ranks=(4, 4),
                                  spectrum=(1.0, 0.5, 1e-17), kept_rank=2,
                                  retained_mass=0.999)],
        )

    def test_byte_identical_saves(self, tmp_path):
        p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
        storage.save_merge_report(self._report(), p1)
        storage.save_merge_report(self._report(), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_replay_truncation_decision(self, tmp_path):
        # the stored spectrum must reproduce the kept-k decision
        from svdlora import linalg
        path = tmp_path / "r.json"
        storage.save_merge_report(self._report(), path)
        loaded = json.loads(path.read_text())
        rec = loaded["records"][0]
        s = np.asarray(rec["spectrum"])
        f = linalg.SvdFactors(U=np.eye(len(s)), S=s, V=np.eye(len(s)))
        v = loaded["config"]["threshold_v"]
        assert linalg.truncate(f, v).rank == rec["kept_rank"]
