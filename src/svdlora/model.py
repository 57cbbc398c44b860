"""Frozen toy transformer backbone with SVD-LoRA hooks at Q and V.

Two encoder layers by default: single-head softmax attention with 1/sqrt(d)
scaling, a tanh MLP (d -> 4d -> d), residual connections, mean pooling over
the sequence, then a per-task linear head. Backbone weights are generated
from a seed and frozen (write-protected); only adapters and the head train.

Forward and reverse passes are written out explicitly in numpy so gradient
correctness can be checked against finite differences without an autodiff
framework. Both work on token rows: a batch (n, seq_len, d) is reshaped once
to (n*seq_len, d), so every projection, the adapter factors and both MLP
matmuls are single 2-D GEMMs, and only the attention scores and ``p @ v``
stay batched (n, seq_len, .) matmuls. The backward pass computes no gradient
with respect to the first layer's input, which is data, and writes every
gradient block in place into one flat vector laid out like the adapter set's
tensors, which is the vector the optimizer steps.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .adapter import AdapterSet, ModelSignature, SvdLoraAdapter, TargetId
from .errors import DataError, ModelError

_BACKBONE_TAG = 5551
MLP_RATIO = 4  # hidden width of the MLP, in multiples of embed_dim


def backbone_param_count(embed_dim: int, num_layers: int) -> int:
    """Frozen weights per backbone: attention 4d^2 plus MLP 2*MLP_RATIO*d^2
    per layer."""
    return (4 + 2 * MLP_RATIO) * embed_dim * embed_dim * num_layers


@dataclass(frozen=True)
class LayerWeights:
    Wq: np.ndarray
    Wk: np.ndarray
    Wv: np.ndarray
    Wo: np.ndarray
    W1: np.ndarray  # (hidden, d)
    W2: np.ndarray  # (d, hidden)


class TinyModel:
    """Immutable toy backbone standing in for a pre-trained model."""

    def __init__(self, embed_dim: int = 32, num_layers: int = 2, seed: int = 0):
        self.embed_dim = embed_dim
        self.num_layers = num_layers
        self.hidden_dim = MLP_RATIO * embed_dim
        self.seed = seed
        rng = np.random.default_rng([_BACKBONE_TAG, seed])
        d, h = embed_dim, self.hidden_dim
        layers = []
        for _ in range(num_layers):
            mats = {
                "Wq": rng.standard_normal((d, d)) / np.sqrt(d),
                "Wk": rng.standard_normal((d, d)) / np.sqrt(d),
                "Wv": rng.standard_normal((d, d)) / np.sqrt(d),
                "Wo": rng.standard_normal((d, d)) / np.sqrt(d),
                "W1": rng.standard_normal((h, d)) / np.sqrt(d),
                "W2": rng.standard_normal((d, h)) / np.sqrt(h),
            }
            for m in mats.values():
                m.setflags(write=False)
            layers.append(LayerWeights(**mats))
        self.layers = tuple(layers)
        digest = hashlib.sha256(
            f"tiny-transformer d={embed_dim} L={num_layers} h={h} seed={seed}".encode()
        ).hexdigest()[:16]
        self.signature = ModelSignature(embed_dim, num_layers, digest)

    def targets(self) -> list[TargetId]:
        return [
            TargetId(layer, slot)
            for layer in range(self.num_layers)
            for slot in ("Q", "V")
        ]


def _check_signature(model: TinyModel, adapters: AdapterSet) -> None:
    if adapters.signature != model.signature:
        raise ModelError(
            f"adapter set signature {adapters.signature} does not match "
            f"model signature {model.signature}"
        )


def _adapted_projection(x: np.ndarray, w: np.ndarray,
                        ad: SvdLoraAdapter | None):
    """x @ (w + delta).T on token rows without forming delta; returns the
    projection plus the low-rank intermediates needed for the backward pass."""
    out = x @ w.T
    if ad is None:
        return out, None, None
    ya = x @ ad.A.T           # (n*T, r)
    yb = ya * ad.E            # (n*T, r)
    out += yb @ ad.B.T
    return out, ya, yb


def forward(model: TinyModel, adapters: AdapterSet, x: np.ndarray,
            head: tuple[np.ndarray, np.ndarray] | None = None,
            want_cache: bool = False):
    """Logits for a batch x of shape (n, seq_len, embed_dim).

    ``head`` overrides the set's own classifier (used when evaluating a
    merged, head-less set with a task-specific head).
    """
    _check_signature(model, adapters)
    if head is None:
        if adapters.head_w is None:
            raise ModelError("adapter set has no head and none was supplied")
        head = (adapters.head_w, adapters.head_b)
    head_w, head_b = head
    if x.ndim != 3 or x.shape[2] != model.embed_dim:
        raise ModelError(f"batch shape {x.shape} incompatible with embed dim {model.embed_dim}")

    n, seq_len, d = x.shape
    scale = 1.0 / np.sqrt(d)
    x = x.reshape(n * seq_len, d)
    cache = []
    for layer_index, lw in enumerate(model.layers):
        aq = adapters.adapters.get(TargetId(layer_index, "Q"))
        av = adapters.adapters.get(TargetId(layer_index, "V"))
        q, ya_q, yb_q = _adapted_projection(x, lw.Wq, aq)
        k = x @ lw.Wk.T
        v, ya_v, yb_v = _adapted_projection(x, lw.Wv, av)
        p = q.reshape(n, seq_len, d) @ k.reshape(n, seq_len, d).transpose(0, 2, 1)
        p *= scale
        p -= p.max(axis=-1, keepdims=True)
        np.exp(p, out=p)
        p /= p.sum(axis=-1, keepdims=True)
        ctx = p @ v.reshape(n, seq_len, d)
        x1 = ctx.reshape(n * seq_len, d) @ lw.Wo.T
        x1 += x
        hact = x1 @ lw.W1.T
        np.tanh(hact, out=hact)
        x2 = hact @ lw.W2.T
        x2 += x1
        if want_cache:
            cache.append(
                dict(x=x, q=q, k=k, v=v, p=p, hact=hact,
                     ya_q=ya_q, yb_q=yb_q, ya_v=ya_v, yb_v=yb_v, aq=aq, av=av)
            )
        x = x2
    pooled = x.reshape(n, seq_len, d).mean(axis=1)
    logits = pooled @ head_w + head_b
    if want_cache:
        return logits, dict(layers=cache, pooled=pooled, head=head)
    return logits


def cross_entropy(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross-entropy and its gradient with respect to the logits."""
    n, c = logits.shape
    if labels.shape != (n,):
        raise DataError(f"labels shape {labels.shape} != ({n},)")
    if labels.min() < 0 or labels.max() >= c:
        raise DataError(f"labels out of range [0, {c})")
    shifted = logits - logits.max(axis=1, keepdims=True)
    expv = np.exp(shifted)
    probs = expv / expv.sum(axis=1, keepdims=True)
    logprob = shifted - np.log(expv.sum(axis=1, keepdims=True))
    loss = -float(logprob[np.arange(n), labels].mean())
    grad = probs
    grad[np.arange(n), labels] -= 1.0
    grad /= n
    return loss, grad


def _gram_residuals(adapters: AdapterSet) -> dict[TargetId, tuple[np.ndarray, np.ndarray]]:
    """(B'B - I, AA' - I) per target."""
    out = {}
    for tid, a in adapters.adapters.items():
        eye = np.eye(a.rank)
        out[tid] = (a.B.T @ a.B - eye, a.A @ a.A.T - eye)
    return out


def _penalty(residuals: dict[TargetId, tuple[np.ndarray, np.ndarray]]) -> float:
    total = 0.0
    for gb, ga in residuals.values():
        total += float(np.sum(gb * gb) + np.sum(ga * ga))
    return total


def orthogonality_penalty(adapters: AdapterSet) -> float:
    """Sum over adapters of ||B'B - I||_F^2 + ||AA' - I||_F^2."""
    return _penalty(_gram_residuals(adapters))


class GradSet:
    """Gradients for every trainable block of ``params``, plus the
    orthogonality penalty of the factors they were taken at. ``adapters[tid]
    ["B"|"E"|"A"]``, ``head_w`` and ``head_b`` are views into ``flat``, one
    vector laid out like :meth:`AdapterSet.tensors`."""

    def __init__(self, params: AdapterSet):
        self.flat = np.empty(sum(arr.size for _, _, arr in params.tensors()))
        self.adapters: dict[TargetId, dict[str, np.ndarray]] = {}
        self.head_w: np.ndarray | None = None
        self.head_b: np.ndarray | None = None
        for role, target, view in params.views(self.flat):
            if target is None:
                setattr(self, role, view)
            else:
                self.adapters.setdefault(target, {})[role] = view
        self.ortho_penalty: float = 0.0


def backward(model: TinyModel, adapters: AdapterSet, cache: dict,
             dlogits: np.ndarray, reg_weight: float,
             grads: GradSet | None = None) -> GradSet:
    """Exact reverse-mode gradients through the cached forward pass.

    Backbone weights are frozen: the pass propagates through them but never
    accumulates gradients for them, and it stops at the first layer's input,
    which is data. The orthogonality penalty contributes 4*B(B'B - I) and
    4*(AA' - I)A scaled by ``reg_weight``; its value is returned alongside,
    computed from the same Gram matrices.

    ``grads``, a :class:`GradSet` of ``adapters``' layout, is overwritten
    and returned; without it a new one is allocated.
    """
    if grads is None:
        grads = GradSet(adapters)  # uninitialized: the passes below write every block
    head_w, _ = cache["head"]
    np.matmul(cache["pooled"].T, dlogits, out=grads.head_w)
    np.sum(dlogits, axis=0, out=grads.head_b)
    dz = dlogits @ head_w.T  # (n, d)

    n, d = dz.shape
    seq_len = cache["layers"][0]["x"].shape[0] // n
    dx = np.repeat(dz / seq_len, seq_len, axis=0)  # (n*T, d)
    scale = 1.0 / np.sqrt(d)

    for layer_index in reversed(range(model.num_layers)):
        lw = model.layers[layer_index]
        c = cache["layers"][layer_index]
        x, q, k, v, p = c["x"], c["q"], c["k"], c["v"], c["p"]

        dtanh = np.square(c["hact"])
        np.subtract(1.0, dtanh, out=dtanh)
        du1 = dx @ lw.W2
        du1 *= dtanh
        dx1 = du1 @ lw.W1
        dx1 += dx  # residual branch

        dctx = (dx1 @ lw.Wo).reshape(n, seq_len, d)
        dscores = dctx @ v.reshape(n, seq_len, d).transpose(0, 2, 1)
        dv = (p.transpose(0, 2, 1) @ dctx).reshape(n * seq_len, d)
        dscores -= np.sum(dscores * p, axis=-1, keepdims=True)
        dscores *= p
        dq = (dscores @ k.reshape(n, seq_len, d)).reshape(n * seq_len, d)
        dq *= scale

        dx_in = None  # stays None at layer 0, whose input is data
        if layer_index > 0:
            dk = (dscores.transpose(0, 2, 1) @ q.reshape(n, seq_len, d)).reshape(n * seq_len, d)
            dk *= scale
            dx_in = dx1
            dx_in += dk @ lw.Wk
        for dproj, ya, yb, ad, w in (
            (dq, c["ya_q"], c["yb_q"], c["aq"], lw.Wq),
            (dv, c["ya_v"], c["yb_v"], c["av"], lw.Wv),
        ):
            if dx_in is not None:
                dx_in += dproj @ w
            if ad is None:
                continue
            block = grads.adapters[ad.target]
            dya = dproj @ ad.B
            np.matmul(dproj.T, yb, out=block["B"])
            np.sum(dya * ya, axis=0, out=block["E"])
            dya *= ad.E
            np.matmul(dya.T, x, out=block["A"])
            if dx_in is not None:
                dx_in += dya @ ad.A
        dx = dx_in

    residuals = _gram_residuals(adapters)
    grads.ortho_penalty = _penalty(residuals)
    if reg_weight != 0.0:
        for tid, a in adapters.adapters.items():
            gram_b, gram_a = residuals[tid]
            block = grads.adapters[tid]
            block["B"] += 4.0 * reg_weight * (a.B @ gram_b)
            block["A"] += 4.0 * reg_weight * (gram_a @ a.A)
    return grads
