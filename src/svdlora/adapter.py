"""SVD-structured low-rank adapters.

An adapter holds factors (B, E, A) for one target weight matrix and
contributes a delta ``B @ diag(E) @ A`` on top of the frozen weight. E is
stored as a length-r vector; B and A are only approximately orthonormal
while training and are restored to an exact SVD by :func:`canonicalize`.
:func:`svd_factors` is the only route from factors to SVD form: merging,
task arithmetic and canonicalization go through it, and :func:`spectrum`,
which merge reports and ``inspect`` use, takes the same core's singular
values without forming any singular vector.
:meth:`AdapterSet.tensors` is the only statement of a set's tensor order:
files, digests, the training vector and its gradient (a set built by
:meth:`AdapterSet.on_flat`) all follow it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import DimensionError, ModelError, ParameterError

SLOTS = ("Q", "V")

INIT_STD = 0.02  # std of the Gaussian factors of a fresh adapter and head


@dataclass(frozen=True, order=True)
class TargetId:
    """One adapted weight matrix: attention layer index plus Q or V slot."""

    layer: int
    slot: str

    def __post_init__(self):
        if self.layer < 0:
            raise ParameterError(f"layer index must be >= 0, got {self.layer}")
        if self.slot not in SLOTS:
            raise ParameterError(f"slot must be one of {SLOTS}, got {self.slot!r}")

    def __str__(self) -> str:
        return f"layer{self.layer}.{self.slot}"

    @classmethod
    def parse(cls, text: str) -> "TargetId":
        """The target whose ``str`` is ``text``; other spellings raise ValueError."""
        layer, slot = text.split(".")
        tid = cls(layer=int(layer.removeprefix("layer")), slot=slot)
        if str(tid) != text:
            raise ValueError(f"{text!r} is not the spelling of target {tid}")
        return tid


def _check_rank(r: int, d_m: int, d_n: int) -> None:
    if r > min(d_m, d_n):
        raise ParameterError(f"rank {r} exceeds min(d_m, d_n) = {min(d_m, d_n)}")


@dataclass(frozen=True)
class SvdLoraAdapter:
    """Factors (B, E, A) for one target; delta = B @ diag(E) @ A."""

    target: TargetId
    B: np.ndarray  # (d_m, r)
    E: np.ndarray  # (r,)
    A: np.ndarray  # (r, d_n)

    def __post_init__(self):
        name = f"tensor {self.target}"
        b = linalg.as_matrix(self.B, f"{name}.B")
        e = linalg.as_matrix(self.E, f"{name}.E", ndim=1)
        a = linalg.as_matrix(self.A, f"{name}.A")
        r = b.shape[1]
        if e.shape[0] != r or a.shape[0] != r:
            raise DimensionError(
                f"inconsistent adapter shapes B{b.shape} E{e.shape} A{a.shape}"
            )
        _check_rank(r, b.shape[0], a.shape[1])
        object.__setattr__(self, "B", b)
        object.__setattr__(self, "E", e)
        object.__setattr__(self, "A", a)

    @property
    def rank(self) -> int:
        return self.B.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return (self.B.shape[0], self.A.shape[1])


def init_adapter(d_m: int, d_n: int, r: int, seed: int,
                 target: TargetId | None = None) -> SvdLoraAdapter:
    """Fresh adapter: E all zero, B and A i.i.d. Gaussian(0, INIT_STD^2).

    The zero diagonal guarantees the initial delta is exactly zero, so the
    adapted forward pass starts identical to the frozen backbone.
    """
    if r < 1:
        raise ParameterError(f"rank must be positive, got {r}")
    _check_rank(r, d_m, d_n)  # before drawing (d_m + d_n) * r samples
    rng = np.random.default_rng(seed)
    b = INIT_STD * rng.standard_normal((d_m, r))
    a = INIT_STD * rng.standard_normal((r, d_n))
    return SvdLoraAdapter(
        target=target if target is not None else TargetId(0, "Q"),
        B=b, E=np.zeros(r), A=a,
    )


def delta(a: SvdLoraAdapter) -> np.ndarray:
    """Materialize the dense update B @ diag(E) @ A."""
    return (a.B * a.E) @ a.A


def svd_factors(B: np.ndarray, E: np.ndarray, A: np.ndarray) -> linalg.SvdFactors:
    """Thin SVD of ``B @ diag(E) @ A`` without forming the product.

    The package's one route to SVD form: QR-factor B and A.T, then SVD the
    small core, so the dense SVD never exceeds the inner width r. r may
    exceed min(d_m, d_n), as for a stack of several adapters; the result
    then has min(d_m, d_n) components. Zero components are kept.

    Each singular pair's sign is pinned: ``(U[:, i], V[:, i])`` is flipped
    jointly so that the largest-magnitude entry of ``V[:, i]`` (the first
    one on ties) is positive. With distinct singular values the factors then
    depend, up to rounding, on the product only, not on how it was factored:
    canonicalizing is idempotent and factor averaging sees consistent signs.
    The flip is exact, so deltas are unchanged bit for bit.
    """
    qb, rb = np.linalg.qr(B)
    qa, ra = np.linalg.qr(A.T)
    f = linalg.svd(_core(rb, E, ra))
    u, v = qb @ f.U, qa @ f.V
    cols = np.arange(v.shape[1])
    flip = v[np.argmax(np.abs(v), axis=0), cols] < 0
    u[:, flip] *= -1.0
    v[:, flip] *= -1.0
    return linalg.SvdFactors(U=u, S=f.S, V=v)


def spectrum(B: np.ndarray, E: np.ndarray, A: np.ndarray) -> np.ndarray:
    """The singular values of ``B @ diag(E) @ A``, bit for bit those of
    :func:`svd_factors`: the same QRs, kept to their R factors, and the
    same core SVD, with no Q factor or rotated singular vector formed."""
    return linalg.svd(_core(np.linalg.qr(B, mode="r"), E,
                            np.linalg.qr(A.T, mode="r"))).S


def _core(rb: np.ndarray, E: np.ndarray, ra: np.ndarray) -> np.ndarray:
    """The small matrix whose SVD, rotated by the QRs' Q factors, is that of
    ``B @ diag(E) @ A``, from the R factors of ``B`` and ``A.T``."""
    return (rb * E) @ ra.T


def from_svd(target: TargetId, f: linalg.SvdFactors) -> SvdLoraAdapter:
    """Adapter with B = U, E = S, A = V.T."""
    return SvdLoraAdapter(target=target, B=f.U, E=f.S, A=f.V.T)


def drop_zeros(f: linalg.SvdFactors) -> linalg.SvdFactors:
    """Drop components at or below 1e-15 of the largest, keeping at least one."""
    keep = f.S > f.S[0] * 1e-15 if f.S[0] > 0 else np.zeros(len(f.S), dtype=bool)
    k = max(1, int(keep.sum()))
    return linalg.SvdFactors(U=f.U[:, :k], S=f.S[:k].copy(), V=f.V[:, :k])


def canonicalize(a: SvdLoraAdapter) -> SvdLoraAdapter:
    """Restore exact SVD structure without changing the delta.

    :func:`svd_factors`, then :func:`drop_zeros`. The output has
    orthonormal B columns / A rows and a non-negative, non-increasing E.
    """
    return from_svd(a.target, drop_zeros(svd_factors(a.B, a.E, a.A)))


@dataclass(frozen=True)
class ModelSignature:
    """Identity of the backbone an adapter set was trained on."""

    embed_dim: int
    num_layers: int
    config_digest: str

    def __post_init__(self):
        if self.embed_dim < 1 or self.num_layers < 1:
            raise ParameterError(f"embed_dim and num_layers must be positive, got "
                                 f"{self.embed_dim} and {self.num_layers}")

    def as_dict(self) -> dict:
        return {
            "embed_dim": self.embed_dim,
            "num_layers": self.num_layers,
            "config_digest": self.config_digest,
        }


@dataclass
class AdapterSet:
    """All adapters for one task, plus its classifier head and metadata.

    The head is task-specific (class counts differ across tasks) and is
    dropped on merge; merged sets carry ``head_w is None``.
    """

    signature: ModelSignature
    adapters: dict[TargetId, SvdLoraAdapter]
    head_w: np.ndarray | None = None  # (embed_dim, num_classes)
    head_b: np.ndarray | None = None  # (num_classes,)
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        d = self.signature.embed_dim
        for tid, ad in self.adapters.items():
            if tid != ad.target:
                raise ModelError(f"adapter keyed {tid} carries target {ad.target}")
            if tid.layer >= self.signature.num_layers:
                raise ModelError(
                    f"target {tid} out of range for {self.signature.num_layers}-layer model"
                )
            if ad.shape != (d, d):
                raise DimensionError(
                    f"adapter {tid} has shape {ad.shape}, the model's Q and V "
                    f"projections are {d}x{d}"
                )
        if (self.head_w is None) != (self.head_b is None):
            raise ModelError("head weight and bias must be given together")
        if self.head_w is not None:
            hw = linalg.as_matrix(self.head_w, "tensor head_w")
            hb = np.ascontiguousarray(self.head_b, dtype=np.float64)
            if hw.shape[0] != self.signature.embed_dim:
                raise DimensionError(
                    f"head rows {hw.shape[0]} != embed dim {self.signature.embed_dim}"
                )
            if hb.shape != (hw.shape[1],):
                raise DimensionError(f"head bias shape {hb.shape} != ({hw.shape[1]},)")
            self.head_w = hw
            self.head_b = linalg.as_matrix(hb, "tensor head_b", ndim=1)

    def sorted_targets(self) -> list[TargetId]:
        return sorted(self.adapters)

    def canonicalized(self) -> "AdapterSet":
        return AdapterSet(
            signature=self.signature,
            adapters={t: canonicalize(a) for t, a in self.adapters.items()},
            head_w=None if self.head_w is None else self.head_w.copy(),
            head_b=None if self.head_b is None else self.head_b.copy(),
            metadata=dict(self.metadata),
        )

    def tensors(self):
        """``(role, target, array)`` for every tensor, in the set's one order:
        ``B``, ``E``, ``A`` of each target in ``(layer, slot)`` order, then
        ``head_w`` and ``head_b`` (target ``None``) if the set has a head."""
        for tid in self.sorted_targets():
            a = self.adapters[tid]
            yield "B", tid, a.B
            yield "E", tid, a.E
            yield "A", tid, a.A
        if self.head_w is not None:
            yield "head_w", None, self.head_w
            yield "head_b", None, self.head_b

    def on_flat(self, flat: np.ndarray) -> "AdapterSet":
        """The same set with every tensor replaced by the next consecutive
        view into the 1-D vector ``flat``, in :meth:`tensors` order, so
        in-place updates of ``flat`` update the set. ``flat`` must hold
        exactly as many elements as the set."""
        blocks, offset = [], 0
        for _, _, arr in self.tensors():
            blocks.append(flat[offset:offset + arr.size].reshape(arr.shape))
            offset += arr.size
        if offset != flat.size:
            raise DimensionError(f"flat vector has {flat.size} elements, the set {offset}")
        blocks = iter(blocks)
        adapters = {t: SvdLoraAdapter(t, next(blocks), next(blocks), next(blocks))
                    for t in self.sorted_targets()}
        return AdapterSet(self.signature, adapters, next(blocks, None),
                          next(blocks, None), dict(self.metadata))

    def digest(self) -> str:
        """Content hash over signature, metadata and all tensors."""
        h = hashlib.sha256()
        h.update(repr(sorted(self.signature.as_dict().items())).encode())
        h.update(repr(sorted((str(k), str(v)) for k, v in self.metadata.items())).encode())
        for role, target, arr in self.tensors():
            if role == "B":
                h.update(str(target).encode())
            elif role == "head_w":
                h.update(b"head")
            h.update(arr)
        return h.hexdigest()


def param_count(s: AdapterSet, base_params: int) -> tuple[int, float]:
    """Trainable adapter parameters and their fraction of the base model.

    Heads are excluded; each adapter contributes d_m*r + r + r*d_n.
    """
    if base_params <= 0:
        raise ParameterError(f"base parameter count must be positive, got {base_params}")
    count = sum(arr.size for _, target, arr in s.tensors() if target is not None)
    return count, count / base_params
