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
        blob = saved.read_bytes()
        magic, version, header_len = struct.unpack_from("<4sIQ", blob)
        header = json.loads(blob[16:16 + header_len].decode())
        payload = blob[16 + header_len:]
        mutate(header)
        raw = json.dumps(header).encode()
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
    ], ids=["missing", "non-integer", "not-a-list"])
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
    def _negate_first_shape(header):
        entry = header["tensors"][0]
        entry["shape"] = [-dim for dim in entry["shape"]]  # same product

    @staticmethod
    def _head_bias_as_row(header):
        entry = next(e for e in header["tensors"] if e["role"] == "head_b")
        entry["shape"] = [1] + entry["shape"]  # same length, wrong rank

    @pytest.mark.parametrize("mutate, match", [
        (_negate_first_shape, "negative dimension"),
        (_retarget_layer0_q("layer-1.Q"), "bad target"),
        (_retarget_layer0_q("layer5.Q"), "out of range"),
        (_head_bias_as_row, "head bias shape"),
        (lambda header: header["tensors"][0].pop("target"), "bad target"),
        (lambda header: header.__setitem__("tensors", None), "malformed header"),
        (lambda header: header.__setitem__("tensors", 5), "malformed header"),
        (lambda header: header.__setitem__("tensors", True), "malformed header"),
    ], ids=["negative-shape", "negative-layer", "layer-out-of-range",
            "head-bias-shape", "missing-target", "tensors-null", "tensors-number",
            "tensors-bool"])
    def test_inconsistent_header(self, saved, mutate, match):
        self._rewrite_header(saved, mutate)
        with pytest.raises(CorruptionError, match=match):
            storage.load_adapter_set(saved)

    def test_nan_payload(self, saved):
        blob = bytearray(saved.read_bytes())
        _, _, header_len = struct.unpack_from("<4sIQ", blob)
        struct.pack_into("<d", blob, 16 + header_len, float("nan"))
        saved.write_bytes(bytes(blob))
        with pytest.raises(NumericError):
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
        text = storage.canonical_json({"b": 0.997, "a": [1, True, None]})
        assert text.index('"a"') < text.index('"b"')
        assert '"a":[1,true,null]' in text
        assert json.loads(text)["b"] == 0.997

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
        loaded = storage.load_merge_report(path)
        rec = loaded["records"][0]
        s = np.asarray(rec["spectrum"])
        f = linalg.SvdFactors(U=np.eye(len(s)), S=s, V=np.eye(len(s)))
        v = loaded["config"]["threshold_v"]
        assert linalg.truncate(f, v).rank == rec["kept_rank"]
